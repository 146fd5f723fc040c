"""Reproduction of "Entangled Transactions" (Gupta et al., VLDB 2011).

Entangled transactions are units of work that do not run in isolation but
communicate with each other through *entangled queries* — coordinated
choices of common values.  This library reproduces the full paper and
grows it toward a production-shaped system.

The public API is the :func:`connect` façade::

    import repro

    db = repro.connect(shards=4, isolation="serializable")
    session = db.session("mickey")
    script = session.run_script("BEGIN TRANSACTION; ...; COMMIT;")
    db.drain()                       # run-based scheduling (Section 4)
    pending = session.execute("SELECT ... INTO ANSWER ... CHOOSE 1")
    answer = pending.result()        # or: await pending
    with session.transaction() as txn:
        txn.insert("Bookings", ("mickey", 122))
    db.close()                       # flush WALs, join workers, checkpoint

One :class:`~repro.client.Client` spans all three execution styles —
batch scripts, statement-at-a-time interactive sessions, and direct
storage transactions — over a single-engine or sharded store, with
per-shard worker threads providing real wall-clock parallelism when
``shards > 1``.

Subsystems (importable for the paper's formal artifacts and for tests):

* :mod:`repro.client` — the ``connect()`` façade above.
* :mod:`repro.entangled` — entangled queries (the SIGMOD'11 building
  block): intermediate representation, groundings, coordinating-set
  search, safety analysis.
* :mod:`repro.model` — the semantic model (Section 3 / Appendix C):
  schedules with grounding and quasi-reads, entangled isolation,
  oracle-serializability, Theorem 3.6.
* :mod:`repro.core` — the execution model and prototype (Sections 4–5):
  run-based scheduling, group commit, timeouts, recovery, the per-shard
  thread-pool executor; ``connect()`` builds its engine and broker.
* :mod:`repro.storage` — the DBMS substrate (tables, SPJ queries,
  Strict 2PL, MVCC snapshots, SSI, sharding, WAL, restart recovery).
* :mod:`repro.sql` — the extended-SQL dialect (``SELECT ... INTO ANSWER
  ... CHOOSE 1``, ``BEGIN TRANSACTION WITH TIMEOUT``).
* :mod:`repro.workloads` / :mod:`repro.bench` — the social-travel
  workloads and the Figure 6 experiment harness.

See ``examples/quickstart.py`` for the full Mickey-and-Minnie scenario.
"""

from repro.client import (
    AdmissionConfig,
    Client,
    Durability,
    PendingAnswer,
    RetryPolicy,
    ScriptHandle,
    Session,
    StorageTransaction,
    connect,
)
from repro.core import (
    ArrivalCountPolicy,
    DrainReports,
    EmptyAnswerPolicy,
    EngineConfig,
    EntangledTransactionEngine,
    InteractiveBroker,
    InteractiveSession,
    IsolationConfig,
    ManualPolicy,
    RunReport,
    SessionState,
    ShardExecutor,
    TimeIntervalPolicy,
    TxnPhase,
)
from repro.entangled import (
    Atom,
    EntangledQuery,
    QueryOutcome,
    Val,
    Var,
    evaluate_batch,
)
from repro.errors import (
    DeadlockError,
    EngineError,
    EntangledQueryError,
    EntanglementTimeout,
    LeaderFailoverError,
    LockError,
    MiddlewareError,
    OverloadError,
    ReplicationError,
    ReproError,
    SafetyViolationError,
    SerializationFailureError,
    SnapshotTooOldError,
    SQLError,
    StorageError,
    TransactionAborted,
    WriteConflictError,
)
from repro.replication import ReplicatedStorageEngine
from repro.model import (
    IsolationLevel,
    Schedule,
    check_theorem_3_6,
    is_entangled_isolated,
    is_oracle_serializable,
)
from repro.sql import parse_script, parse_statement, parse_transaction
from repro.storage import (
    ColumnType,
    Database,
    ShardedStorageEngine,
    StorageEngine,
    TableSchema,
    TxnIsolation,
    shard_for_key,
)

__version__ = "1.1.0"

__all__ = [
    # the unified client API
    "AdmissionConfig",
    "Client",
    "Durability",
    "PendingAnswer",
    "RetryPolicy",
    "ScriptHandle",
    "Session",
    "StorageTransaction",
    "connect",
    # engine / coordinator surface (internal: connect() builds these)
    "ArrivalCountPolicy",
    "DrainReports",
    "EmptyAnswerPolicy",
    "EngineConfig",
    "EntangledTransactionEngine",
    "InteractiveBroker",
    "InteractiveSession",
    "IsolationConfig",
    "ManualPolicy",
    "RunReport",
    "SessionState",
    "ShardExecutor",
    "TimeIntervalPolicy",
    "TxnPhase",
    # entangled queries
    "Atom",
    "EntangledQuery",
    "QueryOutcome",
    "Val",
    "Var",
    "evaluate_batch",
    # error hierarchy
    "DeadlockError",
    "EngineError",
    "EntangledQueryError",
    "EntanglementTimeout",
    "LeaderFailoverError",
    "LockError",
    "MiddlewareError",
    "OverloadError",
    "ReplicationError",
    "ReproError",
    "SQLError",
    "SafetyViolationError",
    "SerializationFailureError",
    "SnapshotTooOldError",
    "StorageError",
    "TransactionAborted",
    "WriteConflictError",
    # formal model
    "IsolationLevel",
    "Schedule",
    "check_theorem_3_6",
    "is_entangled_isolated",
    "is_oracle_serializable",
    # SQL frontend
    "parse_script",
    "parse_statement",
    "parse_transaction",
    # storage substrate
    "ColumnType",
    "Database",
    "ReplicatedStorageEngine",
    "ShardedStorageEngine",
    "StorageEngine",
    "TableSchema",
    "TxnIsolation",
    "shard_for_key",
    "__version__",
]
