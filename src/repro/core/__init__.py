"""Entangled transactions: the paper's primary contribution.

The execution model of Section 4 (run-based scheduling over a dormant
pool, blocking entangled queries, group commit, timeouts) implemented as
a middle tier over the storage substrate (Section 5.1), with isolation
configurations, entanglement-aware recovery, and an optional bridge that
records every execution as a formal-model schedule.
"""

from repro.core.engine import (
    DrainReports,
    EmptyAnswerPolicy,
    EngineConfig,
    EntangledTransactionEngine,
    IsolationConfig,
    RunReport,
)
from repro.core.executor import ExecutorClosed, ShardExecutor
from repro.core.groups import GroupTracker
from repro.core.interactive import (
    InteractiveBroker,
    InteractiveSession,
    SessionState,
    StatementResult,
)
from repro.core.interpreter import (
    StepOutcome,
    deliver_answer,
    execute_statement,
    run_until_block,
)
from repro.core.policies import (
    ArrivalCountPolicy,
    ManualPolicy,
    RunPolicy,
    TimeIntervalPolicy,
)
from repro.core.recorder import ScheduleRecorder
from repro.core.recovery import (
    EntangledRecoveryReport,
    find_partial_groups,
    recover_entangled,
)
from repro.core.transaction import EntangledTransaction, TxnPhase

__all__ = [
    "ArrivalCountPolicy",
    "DrainReports",
    "EmptyAnswerPolicy",
    "EngineConfig",
    "EntangledRecoveryReport",
    "EntangledTransaction",
    "EntangledTransactionEngine",
    "ExecutorClosed",
    "GroupTracker",
    "ShardExecutor",
    "InteractiveBroker",
    "InteractiveSession",
    "IsolationConfig",
    "SessionState",
    "StatementResult",
    "ManualPolicy",
    "RunPolicy",
    "RunReport",
    "ScheduleRecorder",
    "StepOutcome",
    "TimeIntervalPolicy",
    "TxnPhase",
    "deliver_answer",
    "execute_statement",
    "find_partial_groups",
    "recover_entangled",
    "run_until_block",
]
