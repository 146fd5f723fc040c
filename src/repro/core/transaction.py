"""Entangled transactions: program state, status machine, host variables.

An :class:`EntangledTransaction` wraps a parsed
:class:`~repro.sql.ast.TransactionProgram` with everything the execution
model of Section 4 needs: the statement pointer, the host-variable
environment, the timeout bookkeeping, the current storage-level
transaction, and the pending entangled query while blocked.  The program
is a statement template shared with every script of the same shape plus
this script's own literals (``program.params``); those stay on the
program, beside the environment and never in it, so ``env`` shows user
variables only and a retry re-binds the same tuple.

Life cycle (non-interactive model, Section 4):

    DORMANT --run starts--> RUNNING --entangled query--> BLOCKED
    BLOCKED --answer--> RUNNING --program ends--> READY_TO_COMMIT
    READY_TO_COMMIT --group commit--> COMMITTED
    BLOCKED/READY --run ends unresolved--> (storage abort) --> DORMANT
    any --timeout exceeded--> TIMED_OUT
    RUNNING --ROLLBACK/error--> ABORTED

A retry (back to DORMANT) resets the environment and statement pointer:
"Blocked transactions are aborted and returned to the dormant pool for
execution in subsequent runs."

An interactive session and a direct storage transaction hold one too,
for their lifetime, with no program: their statements arrive one at a
time and run through the same executor against the same ``env`` and
``storage_txn``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.entangled.ir import EntangledQuery
from repro.errors import EngineError
from repro.sql.ast import EntangledSelectStmt, TransactionProgram
from repro.storage.types import SQLValue


class TxnPhase(enum.Enum):
    DORMANT = "dormant"
    RUNNING = "running"
    BLOCKED = "blocked"
    READY_TO_COMMIT = "ready-to-commit"
    COMMITTED = "committed"
    ABORTED = "aborted"
    TIMED_OUT = "timed-out"

    @property
    def is_terminal(self) -> bool:
        return self in (TxnPhase.COMMITTED, TxnPhase.ABORTED, TxnPhase.TIMED_OUT)


#: the program of a transaction whose statements arrive one at a time.
_NO_PROGRAM = TransactionProgram(())


@dataclass
class EntangledTransaction:
    """One submitted entangled (or classical) transaction."""

    handle: int
    client: str
    program: TransactionProgram = _NO_PROGRAM
    submitted_at: float = 0.0
    phase: TxnPhase = TxnPhase.DORMANT
    env: dict[str, "SQLValue | None"] = field(default_factory=dict)
    pc: int = 0
    storage_txn: int | None = None
    pending_query: EntangledQuery | None = None
    pending_stmt: EntangledSelectStmt | None = None
    #: ordinal of the entangled query currently pending (1-based), used to
    #: build unique query ids and to track progress through the program.
    entangled_ordinal: int = 0
    #: attempts started, the first one included.
    attempts: int = 0
    #: transactions this one entangled with during the current attempt.
    partners: set[int] = field(default_factory=set)
    abort_reason: str = ""
    #: home shard for the thread-pool executor (None = round-robin by
    #: handle); survives retries — the data does not move between runs.
    shard_hint: int | None = None

    @property
    def timeout_seconds(self) -> float | None:
        return self.program.timeout_seconds

    def deadline(self) -> float | None:
        if self.timeout_seconds is None:
            return None
        return self.submitted_at + self.timeout_seconds

    def is_expired(self, now: float) -> bool:
        deadline = self.deadline()
        return deadline is not None and now > deadline

    def query_id(self) -> str:
        """The batch-unique id of the pending entangled query."""
        return f"t{self.handle}q{self.entangled_ordinal}"

    # -- transitions ----------------------------------------------------------------

    def start_attempt(self, storage_txn: int) -> None:
        if self.phase is not TxnPhase.DORMANT:
            raise EngineError(
                f"transaction {self.handle} cannot start from {self.phase.value}"
            )
        self.phase = TxnPhase.RUNNING
        self.storage_txn = storage_txn
        self.attempts += 1

    def block_on(self, stmt: EntangledSelectStmt, query: EntangledQuery) -> None:
        self.phase = TxnPhase.BLOCKED
        self.pending_stmt = stmt
        self.pending_query = query

    def resume(self) -> None:
        if self.phase is not TxnPhase.BLOCKED:
            raise EngineError(
                f"transaction {self.handle} cannot resume from {self.phase.value}"
            )
        self.phase = TxnPhase.RUNNING
        self.pending_stmt = None
        self.pending_query = None
        self.pc += 1  # move past the answered entangled statement

    def mark_ready(self) -> None:
        self.phase = TxnPhase.READY_TO_COMMIT

    def mark_committed(self) -> None:
        self.phase = TxnPhase.COMMITTED

    def mark_aborted(self, reason: str) -> None:
        self.phase = TxnPhase.ABORTED
        self.abort_reason = reason

    def mark_timed_out(self) -> None:
        self.phase = TxnPhase.TIMED_OUT
        self.abort_reason = "timeout waiting for entanglement partners"

    def reset_for_retry(self) -> None:
        """Return to the dormant pool: wipe all attempt-local state."""
        self.phase = TxnPhase.DORMANT
        self.env = {}
        self.pc = 0
        self.storage_txn = None
        self.pending_query = None
        self.pending_stmt = None
        self.entangled_ordinal = 0
        self.partners = set()
