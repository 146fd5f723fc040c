"""Exception hierarchy for the entangled-transactions reproduction.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch library failures without also catching programming errors.
The hierarchy mirrors the layering of the system: storage errors, SQL
frontend errors, entangled-query evaluation errors, formal-model errors, and
execution-engine errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Storage substrate
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for errors raised by the storage engine."""


class SchemaError(StorageError):
    """A schema definition or schema usage is invalid."""


class TypeMismatchError(SchemaError):
    """A value does not match the declared column type."""


class UnknownTableError(StorageError):
    """A referenced table does not exist in the catalog."""


class UnknownColumnError(StorageError):
    """A referenced column does not exist in a table schema."""


class DuplicateKeyError(StorageError):
    """An insert violates a primary-key or unique constraint."""


class TransactionStateError(StorageError):
    """A transactional operation was used in an illegal state."""


class LockError(StorageError):
    """Base class for lock-manager failures."""


class DeadlockError(LockError):
    """The waits-for graph contains a cycle involving the requester."""


class WriteConflictError(StorageError):
    """First-updater-wins: a SNAPSHOT transaction tried to write a row
    that another transaction already updated and committed after the
    writer's snapshot was taken.  The loser must abort and retry."""


class SnapshotTooOldError(StorageError):
    """A snapshot read needed a row version that the version-chain
    garbage collector already pruned; the reader must restart on a
    fresh snapshot."""


class SerializationFailureError(StorageError):
    """SSI: committing this SERIALIZABLE transaction could complete a
    dangerous structure — two consecutive rw antidependencies through a
    pivot — so the transaction is aborted to keep the committed history
    serializable.  The middle tier retries it like a write conflict.

    Attributes:
        pivot: True when the aborted transaction is itself the pivot;
            False when it was aborted conservatively because the pivot
            had already committed and could no longer be chosen.
    """

    def __init__(self, message: str, *, pivot: bool = True):
        super().__init__(message)
        self.pivot = pivot


class WALError(StorageError):
    """The write-ahead log was used incorrectly or is corrupt."""


class RecoveryError(StorageError):
    """Restart recovery could not bring the database to a clean state."""


# ---------------------------------------------------------------------------
# Replication
# ---------------------------------------------------------------------------


class ReplicationError(StorageError):
    """Replication topology was configured or used incorrectly."""


class LeaderFailoverError(StorageError):
    """A shard leader crashed and a follower was promoted mid-flight.

    Raised by the replicated coordinator for transactions that were
    live when their shard's leader failed: their uncommitted state died
    with the leader, so the only honest answer is an abort — but one
    the client can transparently retry, because promotion has already
    repointed the routing table at the successor by the time this
    surfaces.

    Attributes:
        shard: index of the shard whose leader failed.
        retry_after: hint — how long until the successor is serving.
    """

    #: promotion is complete when this is raised; retry hits the
    #: successor, so failover is transient by construction.
    retryable = True

    def __init__(
        self,
        message: str,
        *,
        shard: int = -1,
        retry_after: float = 0.0,
    ):
        super().__init__(message)
        self.shard = shard
        self.retry_after = retry_after


# ---------------------------------------------------------------------------
# SQL frontend
# ---------------------------------------------------------------------------


class SQLError(ReproError):
    """Base class for SQL frontend failures."""


class LexError(SQLError):
    """The tokenizer met an unexpected character."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class ParseError(SQLError):
    """The parser met an unexpected token."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class CompileError(SQLError):
    """A parsed statement could not be compiled against the catalog."""


# ---------------------------------------------------------------------------
# Entangled queries
# ---------------------------------------------------------------------------


class EntangledQueryError(ReproError):
    """Base class for entangled-query evaluation failures."""


class RangeRestrictionError(EntangledQueryError):
    """A head or postcondition variable does not appear in the body.

    The intermediate representation requires range restriction (Appendix A
    of the paper): every variable of ``H`` or ``C`` must occur in ``B``.
    """


class SafetyViolationError(EntangledQueryError):
    """The query set violates the safety property of the evaluation
    algorithm and must not be answered (Appendix A / B)."""


class AnswerRelationError(EntangledQueryError):
    """An ANSWER relation was used inconsistently (arity/name clashes)."""


# ---------------------------------------------------------------------------
# Formal model
# ---------------------------------------------------------------------------


class ModelError(ReproError):
    """Base class for formal-model failures."""


class InvalidScheduleError(ModelError):
    """A schedule violates the validity constraints of Appendix C.1."""


class OracleError(ModelError):
    """An oracle was constructed or used incorrectly."""


# ---------------------------------------------------------------------------
# Execution engine
# ---------------------------------------------------------------------------


class EngineError(ReproError):
    """Base class for execution-engine failures."""


class TransactionAborted(EngineError):
    """Raised inside a transaction program when the engine aborts it."""

    def __init__(self, message: str = "transaction aborted", *, reason: str = ""):
        super().__init__(message)
        self.reason = reason or message


class EntanglementTimeout(EngineError):
    """An entangled transaction exceeded its WITH TIMEOUT budget while
    waiting for partners (Section 3.1)."""


class MiddlewareError(EngineError):
    """The middle tier was used incorrectly (unknown handles, etc.)."""


class OverloadError(EngineError):
    """Admission control shed this work before it touched storage.

    Raised on the submit path (never mid-transaction), so a shed
    transaction has **zero** storage side effects: no storage
    transaction was begun, no locks taken, no WAL records written.  The
    error is *retryable* — back off for at least :attr:`retry_after`
    (virtual or wall seconds, matching the clock the limiter runs on)
    and resubmit.

    Attributes:
        reason: which limiter shed the work — ``"queue-depth"`` (the
            engine's dormant pool is at its configured bound),
            ``"session-pool"`` (the client's bounded session pool is
            exhausted), ``"rate-limit"`` (a per-session rate limit), or
            ``"executor-queue"`` (a shard worker's dispatch queue is at
            its bound).
        retry_after: a hint — how long until a retry has a chance.
    """

    #: overload is transient by construction; callers may always retry.
    retryable = True

    def __init__(
        self,
        message: str,
        *,
        reason: str = "overload",
        retry_after: float = 0.0,
    ):
        super().__init__(message)
        self.reason = reason
        self.retry_after = retry_after


# ---------------------------------------------------------------------------
# Transport (process-per-shard execution)
# ---------------------------------------------------------------------------


class TransportError(ReproError):
    """The shard-worker message transport failed.

    Raised coordinator-side for frame-level faults: a worker process
    died mid-frame, a response could not be unpickled, or a remote
    exception could not be mapped back onto the :class:`ReproError`
    hierarchy.  Engine-level errors raised inside a worker are *not*
    wrapped in this — they are re-raised as their original classes.
    """


# ---------------------------------------------------------------------------
# Workloads / bench
# ---------------------------------------------------------------------------


class WorkloadError(ReproError):
    """A workload generator received inconsistent parameters."""


class BenchError(ReproError):
    """A benchmark harness failure."""
