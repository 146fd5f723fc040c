"""The unified client API: one ``connect()`` over the whole system.

Before this module the library exposed three disjoint entry points that
callers had to wire together by hand — the batch
:class:`~repro.core.engine.EntangledTransactionEngine`, the
:class:`~repro.core.interactive.InteractiveBroker` for
statement-at-a-time use, and the raw storage engines.  ``connect()``
replaces all three with a single façade:

>>> import repro
>>> db = repro.connect(shards=4, isolation="serializable")
>>> alice = db.session("alice")
>>> script = alice.run_script("BEGIN TRANSACTION; ...; COMMIT;")
>>> db.drain(); script.succeeded
True

A :class:`Client` owns one storage ensemble (single engine or
``shards``-way :class:`~repro.storage.sharding.ShardedStorageEngine`)
and both coordinators on top of it.  Its :meth:`Client.session` returns
a :class:`Session` — the **only** public way to run work:

* **batch scripts** — :meth:`Session.run_script` submits a whole
  transaction program (the paper's non-interactive model) and returns a
  :class:`ScriptHandle`; :meth:`Client.run` / :meth:`Client.drain`
  execute runs.
* **interactive statements** — :meth:`Session.execute` runs one
  statement immediately (the Section 4 interactive model).  An entangled
  query does not block: it returns a :class:`PendingAnswer`, pollable
  (:meth:`PendingAnswer.poll` / :meth:`PendingAnswer.result`) and
  awaitable (``await pending`` inside an asyncio coroutine), that
  resolves when a matching round finds partners.
* **direct storage transactions** — :meth:`Session.transaction` opens a
  classical ACID transaction against the storage layer (context
  manager: commit on clean exit, abort on exception).

The three are one executor behind three ways of handing it statements:
each holds an :class:`~repro.core.transaction.EntangledTransaction` and
runs every classical statement through
:func:`repro.core.interpreter.execute_statement` on it.

Under the façade, ``connect(shards=N)`` also enables the per-shard
thread-pool execution layer (:mod:`repro.core.executor`), so
disjoint-shard work — commit WAL flushes above all — makes *wall-clock*
progress concurrently; cross-shard commits still funnel through the
ordered two-phase prepare and the global SSI tracker.

:meth:`Client.close` (or using the client as a context manager) joins
the worker threads, flushes every WAL, and checkpoints, so a subsequent
restart replays almost nothing.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import os
import random
import time
from typing import Any, Iterable, Sequence

from repro.analysis.latch import latch_condition
from repro.core.clock import Clock
from repro.core.engine import (
    DrainReports,
    EngineConfig,
    EntangledTransactionEngine,
    IsolationConfig,
    RunReport,
)
from repro.core.interactive import (
    InteractiveBroker,
    InteractiveSession,
    SessionState,
    StatementResult,
)
from repro.core.interpreter import execute_statement
from repro.core.policies import RunPolicy
from repro.core.recovery import EntangledRecoveryReport, recover_entangled
from repro.core.transaction import EntangledTransaction, TxnPhase
from repro.errors import (
    EntanglementTimeout,
    MiddlewareError,
    OverloadError,
    ReplicationError,
    TransportError,
)
from repro.replication import ReplicatedStorageEngine
from repro.sql.ast import Params, SelectStmt, Statement, TransactionProgram
from repro.sql.parser import prepare_statement
from repro.storage.catalog import Database
from repro.storage.engine import StorageEngine, TxnIsolation
from repro.storage.protocol import Store
from repro.storage.schema import TableSchema
from repro.storage.sharding import (
    ShardedStorageEngine,
    build_storage_engine,
    shard_members,
)
from repro.storage.types import SQLValue
from repro.transport.process import spawn_workers


@dataclasses.dataclass(frozen=True)
class AdmissionConfig:
    """Admission control for one client: fail fast instead of queueing.

    Offered load past saturation must be *shed*, not absorbed — an
    unbounded queue turns overload into unbounded latency for everyone.
    Every limiter here raises the retryable
    :class:`~repro.errors.OverloadError` **before** any storage side
    effect, so a shed transaction costs nothing and can simply be
    resubmitted after ``retry_after``.

    Attributes:
        max_queue_depth: bound on the engine's dormant script pool;
            :meth:`Session.run_script` sheds arrivals that find it full
            (``reason="queue-depth"``).
        max_sessions: bound on concurrently open sessions;
            :meth:`Client.session` sheds past it
            (``reason="session-pool"``).  Closed sessions free slots.
        session_rate: per-session token-bucket rate limit, in
            submissions per second of the client's clock;
            both :meth:`Session.run_script` and :meth:`Session.execute`
            charge it (``reason="rate-limit"``).
        session_burst: the token bucket's capacity — how many
            submissions a session may burst before the rate applies.
    """

    max_queue_depth: "int | None" = None
    max_sessions: "int | None" = None
    session_rate: "float | None" = None
    session_burst: int = 1


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Client-side retry discipline for :class:`~repro.errors.OverloadError`.

    Admission control *sheds*; what the shed caller does next is policy.
    Dropping is correct for a pure open workload, but a real client
    usually wants to resubmit — and naive immediate resubmission turns
    one overload spike into a retry storm that keeps the system pinned
    at its bound.  This policy is the classic antidote: **jittered
    exponential backoff**, floored by the error's own
    :attr:`~repro.errors.OverloadError.retry_after` hint (the limiter
    knows when capacity frees up; backing off less than that is a
    guaranteed bounce).

    The policy is pure arithmetic — it computes *when* to retry; the
    caller owns the clock and the resubmission (see
    :func:`repro.bench.harness.drive_open` for the open-loop driver's
    use).  Frozen so one instance is safely shared by every
    session of a client.

    Attributes:
        max_attempts: total tries including the first submission; once
            exhausted the caller should give up (the traffic harness
            counts these as ``exhausted``).
        base_backoff: backoff before the first retry, in the caller's
            clock seconds.
        multiplier: exponential growth factor per retry.
        max_backoff: cap on the un-jittered backoff.
        jitter: fraction of the backoff randomized away, in ``[0, 1]``:
            the delay is drawn uniformly from
            ``[backoff * (1 - jitter), backoff]`` (AWS-style "equal
            jitter" keeps a floor so retries never collapse onto the
            same instant).
    """

    max_attempts: int = 5
    base_backoff: float = 0.05
    multiplier: float = 2.0
    max_backoff: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise MiddlewareError(
                f"max_attempts must be at least 1, got {self.max_attempts}")
        if self.base_backoff < 0 or self.max_backoff < 0:
            raise MiddlewareError("backoff bounds must be non-negative")
        if self.multiplier < 1.0:
            raise MiddlewareError(
                f"multiplier must be at least 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise MiddlewareError(
                f"jitter must be in [0, 1], got {self.jitter}")

    #: substrings a dead-shard-worker TransportError message carries
    #: (the frame transport has no structured cause taxonomy; these are
    #: its stable phrasings for "the peer is gone").
    _DEAD_WORKER_MARKERS = ("died", "dead", "closed", "gone")

    def should_retry(self, attempt: int) -> bool:
        """True while ``attempt`` (1-based, the try that just shed)
        leaves budget for another submission."""
        return attempt < self.max_attempts

    def retryable(self, error: BaseException) -> bool:
        """Is ``error`` a transient fault worth resubmitting at all?

        Three families qualify: anything self-describing as retryable
        (:class:`~repro.errors.OverloadError`,
        :class:`~repro.errors.LeaderFailoverError` — overload clears and
        a failover has already repointed routing at the successor by the
        time it surfaces), and a
        :class:`~repro.errors.TransportError` whose message or cause
        says the shard worker died — the process-mode analogue of a
        leader crash, transient once the fleet respawns or fails over.
        Everything else (conflicts, deadlocks, programming errors) stays
        with the engine-level retry machinery or the caller.
        """
        if getattr(error, "retryable", False):
            return True
        if isinstance(error, TransportError):
            text = str(error).lower()
            if any(marker in text for marker in self._DEAD_WORKER_MARKERS):
                return True
            if isinstance(error.__cause__, (EOFError, OSError)):
                return True
        return False

    def delay_for(
        self,
        attempt: int,
        error: "BaseException | None" = None,
        rng: "random.Random | None" = None,
    ) -> float:
        """Seconds to wait after shed number ``attempt`` (1-based).

        Exponential in the attempt, jittered, capped — and never less
        than the error's own ``retry_after`` hint when it carries one
        (the shedding limiter, or a failing-over shard, knows when
        capacity returns; backing off less is a guaranteed bounce).
        """
        if attempt < 1:
            raise MiddlewareError(
                f"attempt is 1-based, got {attempt}")
        backoff = min(
            self.max_backoff,
            self.base_backoff * self.multiplier ** (attempt - 1),
        )
        if self.jitter > 0.0:
            draw = (rng or random).random()
            backoff *= 1.0 - self.jitter * draw
        floor = getattr(error, "retry_after", 0.0) if error is not None else 0.0
        return max(backoff, floor)


class Durability(enum.Enum):
    """How much the client pays for restart speed while running.

    WAL — commits flush their shard's write-ahead log (always on; this
        is the paper's durability story).  Restart replays the whole log
        since the last explicit checkpoint.
    CHECKPOINT — additionally write a quiescent checkpoint image every
        ``checkpoint_every`` writing commits, so restart cost stays flat
        no matter how long the client runs.
    """

    WAL = "wal"
    CHECKPOINT = "checkpoint"


def connect(
    database: "str | Database | StorageEngine | ShardedStorageEngine | None" = None,
    *,
    shards: int = 1,
    isolation: "IsolationConfig | str" = IsolationConfig.FULL,
    durability: "Durability | str" = Durability.WAL,
    executor: "bool | str | None" = None,
    checkpoint_every: int = 64,
    clock: Clock | None = None,
    config: EngineConfig | None = None,
    policy: RunPolicy | None = None,
    admission: AdmissionConfig | None = None,
    replicas: "int | None" = None,
    max_staleness: int = 0,
    replica_lag: int = 0,
) -> "Client":
    """Open a :class:`Client` over a new (or supplied) storage ensemble.

    ``database`` may be omitted (fresh in-memory database), a name for
    one, a prebuilt :class:`~repro.storage.catalog.Database`, or an
    existing storage engine (single or sharded) to adopt.  ``shards > 1``
    builds a :class:`~repro.storage.sharding.ShardedStorageEngine`.

    ``isolation`` is the engine-level configuration (an
    :class:`~repro.core.engine.IsolationConfig` or its string value:
    ``"full"``, ``"snapshot"``, ``"serializable"``, ...); interactive
    sessions and direct transactions default to the matching
    storage-level :class:`~repro.storage.engine.TxnIsolation`.

    ``executor`` picks the execution mode: ``"serial"`` (or ``False``)
    runs every shard inline, ``"pool"`` (or ``True``) dispatches onto
    per-shard worker *threads*, and ``"process"`` runs each shard's
    complete engine in its own worker *process* behind the message
    transport (:mod:`repro.transport`) — the mode where CPU-bound
    transaction processing scales past the GIL.  ``"process"`` forks
    workers only for a store connect() builds: an adopted ``Database`` or
    engine is served in this process, with dispatch threads.  The
    default (``None``)
    picks the thread pool exactly when the ensemble has more than one
    shard; when connect() is building the ensemble itself, the
    ``REPRO_EXECUTOR`` environment variable (e.g. ``process``) can
    override that default — which is how CI re-runs the threaded
    suites against process-backed shards.

    ``clock`` (optional) is the one clock every timeout, rate limit,
    retry hint and run policy reads.  The default is real seconds
    (:class:`~repro.core.clock.WallClock`).  A bench reproducing the
    paper's figures passes ``VirtualClock(costs=...)``
    (:mod:`repro.sim.clock`), which its cost model advances run by run;
    a test that moves time by hand passes a bare ``VirtualClock()``.

    ``config`` (optional) supplies every other engine tunable; its
    ``isolation``/``executor`` fields are overridden by the explicit
    arguments above.

    ``admission`` (optional) enables admission control — bounded session
    pool, per-session rate limits, and queue-depth shedding with the
    retryable :class:`~repro.errors.OverloadError`.  See
    :class:`AdmissionConfig`; the default admits everything.

    ``replicas`` (optional) builds a
    :class:`~repro.replication.ReplicatedStorageEngine`: each shard's
    leader ships its committed WAL to that many follower engines, and
    SNAPSHOT reads route to any follower whose applied position covers
    the reading transaction's cut.  ``max_staleness`` bounds (in global
    commit ticks) how far behind the freshest cut such a transaction may
    begin — 0 always reads fresh, which usually pins reads to the
    leaders.  Sessions get read-your-writes regardless of the bound:
    their direct transactions never begin on a cut older than their own
    acknowledged commits.  ``replica_lag`` simulates lazy followers
    (each holds back its newest N received commits).  Writes and
    SERIALIZABLE transactions always execute against the leaders.  Under
    ``executor="process"`` each leader runs in a worker process and its
    followers in this one, fed from the leader's durable log mirror.
    """
    if isinstance(isolation, str):
        isolation = IsolationConfig(isolation)
    if isinstance(durability, str):
        durability = Durability(durability)

    prebuilt = isinstance(database, Store)
    if executor is None and not prebuilt and shards > 1:
        executor = os.environ.get("REPRO_EXECUTOR") or None
    process_mode = False
    if isinstance(executor, str):
        if executor == "process":
            process_mode = True
        elif executor == "pool":
            executor = True
        elif executor == "serial":
            executor = False
        else:
            raise MiddlewareError(
                f"unknown executor mode {executor!r}; expected 'serial', "
                f"'pool', or 'process'"
            )

    if replicas is None and (max_staleness or replica_lag):
        raise MiddlewareError(
            "max_staleness/replica_lag require connect(replicas=...)"
        )
    if replicas is not None:
        if prebuilt or isinstance(database, Database):
            raise MiddlewareError(
                "connect(replicas=...) cannot adopt a prebuilt database or "
                "engine; let connect() build the replicated ensemble"
            )
        members = spawn_workers(shard_members(shards)) if process_mode else None
        try:
            store = ReplicatedStorageEngine(
                shards,
                replicas=replicas,
                max_staleness=max_staleness,
                apply_lag=replica_lag,
                shards=members,
            )
        except ReplicationError:
            for member in members or ():
                member.close()
            raise
    elif prebuilt:
        store = database
        if shards != 1 and shards != store.n_shards:
            raise MiddlewareError(
                f"connect(shards={shards}) conflicts with the supplied "
                f"engine's {store.n_shards} shard(s)"
            )
    elif isinstance(database, Database):
        if shards != 1:
            raise MiddlewareError(
                "connect(shards>1) cannot adopt a single Database; pass a "
                "ShardedStorageEngine or let connect() build one"
            )
        store = StorageEngine(database)
    elif process_mode:
        store = ShardedStorageEngine(shards=spawn_workers(shard_members(shards)))
    elif shards == 1 and isinstance(database, str):
        store = StorageEngine(Database(database))
    else:
        store = build_storage_engine(shards)

    if executor is None:
        executor = store.n_shards > 1

    # Copy a caller-supplied config: the engine keeps (and reads) the
    # object, so overriding fields in place would rewire any other
    # engine built from the same config.
    engine_config = (
        dataclasses.replace(config) if config is not None else EngineConfig()
    )
    engine_config.isolation = isolation
    # Process mode still wants the per-shard dispatch threads: they
    # spend their shard's statement time blocked on the transport
    # (GIL released), which is what lets N worker processes run
    # engine code truly in parallel.
    engine_config.executor = True if process_mode else executor
    if admission is not None and admission.max_queue_depth is not None:
        engine_config.max_queue_depth = admission.max_queue_depth
    if durability is Durability.CHECKPOINT:
        store.checkpoint_interval = checkpoint_every

    engine = EntangledTransactionEngine(store, engine_config, policy, clock)
    return Client(engine, durability=durability, admission=admission)


class Client:
    """One connection to the system: storage + both coordinators.

    Build with :func:`connect`.  Usable as a context manager — leaving
    the ``with`` block calls :meth:`close`.
    """

    def __init__(
        self,
        engine: EntangledTransactionEngine,
        *,
        durability: Durability = Durability.WAL,
        admission: AdmissionConfig | None = None,
    ):
        self.engine = engine
        self.store = engine.store
        self.durability = durability
        self.admission = admission
        self.broker = InteractiveBroker(
            self.store, default_isolation=engine._storage_isolation
        )
        #: the open sessions (insertion-ordered; a session leaves when it
        #: closes).
        self._sessions: dict[Session, None] = {}
        #: wakes threads blocked on a :class:`PendingAnswer` — notified
        #: whenever a matching round answers queries or a pending answer
        #: is cancelled, so blocked waiters never busy-spin ``pump()``.
        self._answer_cond = latch_condition("answer-cond")
        #: client-side admission counters (the engine tracks queue-depth
        #: sheds itself).
        self._sessions_shed = 0
        self._rate_limited = 0
        self._closed = False

    # -- catalog ------------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        self._check_open()
        self.store.create_table(schema)

    def load(self, table: str, rows: Iterable[Sequence]) -> int:
        """Bulk-load ``rows`` into ``table`` in one WAL-logged system
        transaction and return how many there were.  It takes the
        table's X lock once per shard the rows land on (one frame per
        such shard under process execution), is all or none, and raises
        :class:`~repro.storage.engine.WouldBlock` at once when another
        open transaction holds a lock on the table."""
        self._check_open()
        return self.store.load(table, rows)

    # -- sessions -----------------------------------------------------------------

    def session(
        self,
        client: str = "client",
        isolation: TxnIsolation | None = None,
    ) -> "Session":
        """Open a :class:`Session` for one named client.

        ``isolation`` overrides the storage-level protocol of the
        session's interactive statements and direct transactions (batch
        scripts always run under the engine's configuration).

        With :class:`AdmissionConfig.max_sessions` configured, opening a
        session past the bound sheds with the retryable
        :class:`~repro.errors.OverloadError` (closed sessions free their
        slots).
        """
        self._check_open()
        if self.admission is not None and self.admission.max_sessions is not None:
            if len(self._sessions) >= self.admission.max_sessions:
                self._sessions_shed += 1
                raise OverloadError(
                    f"session pool is at its bound "
                    f"({self.admission.max_sessions}); close a session or "
                    f"retry later",
                    reason="session-pool",
                )
        session = Session(self, client, isolation)
        self._sessions[session] = None
        return session

    @property
    def admission_stats(self) -> dict[str, int]:
        """Cumulative admission counters across every limiter."""
        return {
            "admitted": self.engine.admission_admitted,
            "shed_queue_depth": self.engine.admission_shed,
            "shed_sessions": self._sessions_shed,
            "shed_rate_limit": self._rate_limited,
        }

    # -- run control --------------------------------------------------------------

    @property
    def clock(self) -> Clock:
        """The engine's clock: real seconds unless :func:`connect` was
        handed another (timeouts, rate limits, retry hints)."""
        return self.engine.clock

    @property
    def run_reports(self) -> list[RunReport]:
        return self.engine.run_reports

    def run(self) -> RunReport:
        """Execute one scheduler run over the dormant script pool."""
        self._check_open()
        return self.engine.run_once()

    def tick(self) -> RunReport | None:
        self._check_open()
        return self.engine.tick()

    def drain(self, max_runs: int = 10_000) -> DrainReports:
        """Run until the script pool empties or stops progressing.

        Returns :class:`~repro.core.engine.DrainReports` — a list of
        :class:`RunReport` whose ``truncated`` flag is ``True`` when the
        ``max_runs`` cap stopped the drain with work still dormant.  A
        capped drain is *not* quiescence; check the flag (or
        :meth:`Client.engine`'s ``unfinished()``) before relying on it.
        """
        self._check_open()
        return self.engine.drain(max_runs)

    def pump(self) -> int:
        """One interactive matching round; returns #answered queries."""
        self._check_open()
        answered = self.broker.match_round()
        if answered:
            self._notify_answer_waiters()
        return answered

    def _notify_answer_waiters(self) -> None:
        """Wake every thread blocked on a :class:`PendingAnswer`."""
        with self._answer_cond:
            self._answer_cond.notify_all()

    # -- direct read-only queries --------------------------------------------------

    def query(self, sql: str) -> list[tuple["SQLValue | None", ...]]:
        """Execute a read-only classical SELECT in its own transaction."""
        self._check_open()
        stmt, params = _prepare_select(sql, "Client.query")
        # A failed read (WouldBlock under contention, a pruned snapshot,
        # ...) must abort, as leaving the block on an exception does —
        # committing would both mask the original error and finalize a
        # transaction that may still sit in a lock queue.
        with StorageTransaction(self.store, TxnIsolation.TWO_PL) as txn:
            return txn._run(stmt, params)

    # -- shutdown ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, *, checkpoint: bool = True) -> None:
        """Shut the client down cleanly.

        Tears down still-open sessions (their transactions abort and
        release every lock and snapshot horizon), joins the per-shard
        worker threads, flushes every shard's WAL, and — unless
        ``checkpoint=False`` — writes a quiescent checkpoint so restart
        replays almost nothing.  Idempotent.  A crash *between* the
        flush and the checkpoint loses nothing: the flushed logs replay
        every committed transaction (regression-tested).
        """
        if self._closed:
            return
        for session in list(self._sessions):
            session.close()
        self.engine.close()
        for wal in self.store.wals():
            wal.flush()
        if checkpoint:
            self.store.checkpoint()
        # Process-backed stores own worker processes; shut the fleet
        # down after the final flush/checkpoint round-trips.
        self.store.close()
        self._closed = True

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- crash / restart (demos and tests) ----------------------------------------

    def crash_and_recover(self) -> "tuple[Client, EntangledRecoveryReport]":
        """Simulate a crash and entanglement-aware restart.

        Returns a fresh :class:`Client` over the recovered database plus
        the recovery report; this client must not be used afterwards.
        """
        crashed = self.store.crash()
        self.engine.close()  # join the dead engine's worker threads
        engine, report = recover_entangled(
            crashed, self.engine.config, self.engine.policy, self.engine.clock)
        replacement = Client(
            engine, durability=self.durability, admission=self.admission)
        self._closed = True
        return replacement, report

    # -- internals -----------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise MiddlewareError("client is closed")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return (
            f"Client(shards={self.store.n_shards}, "
            f"isolation={self.engine.config.isolation.value}, {state})"
        )


class Session:
    """One client's unit of work — batch, interactive, or direct.

    Obtained from :meth:`Client.session`.  The three styles compose: a
    session may submit batch scripts, haggle interactively, and run
    direct storage transactions, all under one client name.
    """

    def __init__(
        self,
        client: Client,
        name: str,
        isolation: TxnIsolation | None = None,
    ):
        self.client = client
        self.name = name
        self.isolation = isolation
        #: the broker-side interactive session, created lazily at the
        #: first interactive statement (so batch-only sessions never
        #: open a storage transaction at all).
        self._interactive: InteractiveSession | None = None
        self._pending: "PendingAnswer | None" = None
        self._closed = False
        # Per-session token bucket (AdmissionConfig.session_rate), run
        # on the client's clock: full at open, refilled by the passage of
        # clock time.
        admission = client.admission
        self._bucket_tokens = float(
            admission.session_burst if admission is not None else 0
        )
        self._bucket_stamp = client.clock.now
        #: read-your-writes floor (replicated stores): the per-shard
        #: commit-timestamp vector as of this session's last
        #: acknowledged writing commit.  Direct transactions never begin
        #: on a cut below it, so a session always observes its own
        #: writes even when served a bounded-staleness cut off a lagging
        #: follower.
        self._vector: "tuple[int, ...] | None" = None

    @property
    def closed(self) -> bool:
        return self._closed

    def _admit(self) -> None:
        """Charge the per-session rate limit; shed when exhausted."""
        admission = self.client.admission
        if admission is None or admission.session_rate is None:
            return
        now = self.client.clock.now
        self._bucket_tokens = min(
            float(admission.session_burst),
            self._bucket_tokens
            + (now - self._bucket_stamp) * admission.session_rate,
        )
        self._bucket_stamp = now
        if self._bucket_tokens < 1.0:
            self.client._rate_limited += 1
            raise OverloadError(
                f"session {self.name!r} exceeded its rate limit "
                f"({admission.session_rate}/s)",
                reason="rate-limit",
                retry_after=(1.0 - self._bucket_tokens) / admission.session_rate,
            )
        self._bucket_tokens -= 1.0

    # -- batch scripts --------------------------------------------------------------

    def run_script(
        self,
        program: "str | TransactionProgram",
        *,
        at: float | None = None,
        shard_hint: int | None = None,
    ) -> "ScriptHandle":
        """Submit a whole transaction program (the non-interactive
        model); returns a :class:`ScriptHandle`.

        Nothing executes until the client runs the scheduler
        (:meth:`Client.run` / :meth:`Client.drain` /
        :meth:`ScriptHandle.wait`) — entangled scripts need their
        partners submitted first, exactly as in the paper's run-based
        model.  ``shard_hint`` pins the script to a home shard for the
        thread-pool executor.

        Under admission control this is the shedding path: the
        per-session rate limit and the engine's queue-depth bound both
        raise the retryable :class:`~repro.errors.OverloadError` here,
        before any storage side effect.
        """
        self._admit()
        engine = self.client.engine
        handle = engine.submit(
            program, client=self.name, at=at, shard_hint=shard_hint
        )
        return ScriptHandle(self.client, engine.transaction(handle))

    # -- interactive statements -----------------------------------------------------

    @property
    def interactive(self) -> InteractiveSession:
        """The underlying broker session (opened on first use)."""
        if self._interactive is None:
            self.client._check_open()
            self._interactive = self.client.broker.open_session(
                self.name, isolation=self.isolation
            )
        return self._interactive

    def execute(self, sql: str) -> "StatementResult | PendingAnswer":
        """Execute one statement immediately (the interactive model).

        Classical statements return a
        :class:`~repro.core.interactive.StatementResult` with their
        rows.  An entangled query parks the session and returns a
        :class:`PendingAnswer` instead — poll it, ``await`` it, or
        cancel it; the session accepts no further statements until the
        answer resolves or is cancelled.
        """
        self._admit()
        session = self.interactive
        result = session.execute(sql)
        if result.pending:
            assert session.txn.pending_query is not None
            self._pending = PendingAnswer(self, session.txn.pending_query)
            return self._pending
        return result

    @property
    def env(self) -> dict[str, "SQLValue | None"]:
        """The session's host-variable bindings (``AS @var`` results)."""
        if self._interactive is None:
            return {}
        return dict(self._interactive.env)

    @property
    def state(self) -> SessionState:
        if self._interactive is None:
            return SessionState.OPEN
        return self._interactive.state

    def commit(self) -> bool:
        """Commit the interactive transaction.  Returns True when
        committed now; False while waiting for the session's
        entanglement group (widow prevention)."""
        if self._interactive is None:
            raise MiddlewareError(
                f"session {self.name!r} has no interactive transaction to "
                f"commit (batch scripts commit through the scheduler)"
            )
        return self._interactive.commit()

    def abort(self) -> None:
        if self._interactive is None:
            raise MiddlewareError(
                f"session {self.name!r} has no interactive transaction to "
                f"abort"
            )
        self._interactive.abort()

    def close(self) -> None:
        """Tear the session down: an active interactive transaction is
        aborted (releasing its locks and snapshot horizon).  Idempotent;
        safe in every state — including a session that never executed a
        statement.

        An unresolved :class:`PendingAnswer` is cancelled *first*: its
        cancellation unparks the waiting query's snapshot (so an
        abandoned interactive answer never pins the vacuum horizon) and
        wakes any thread blocked in :meth:`PendingAnswer.block` /
        :meth:`PendingAnswer.result`, which then raise instead of
        waiting out their timeout on a session that no longer exists.
        """
        if self._closed:
            return
        self._closed = True
        self.client._sessions.pop(self, None)
        pending = self._pending
        if pending is not None:
            pending.cancel()  # no-op when already resolved/cancelled
        self._pending = None
        if self._interactive is not None:
            self._interactive.close()
        self.client._notify_answer_waiters()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is None and self.state is SessionState.OPEN and (
            self._interactive is not None
        ):
            self._interactive.commit()
        self.close()

    # -- direct storage transactions -------------------------------------------------

    def transaction(
        self, isolation: TxnIsolation | None = None
    ) -> "StorageTransaction":
        """Open a direct storage transaction (context manager).

        The lowest API layer: classical ACID reads and writes with no
        entanglement, straight against the (possibly sharded) storage
        engine.  Commit on clean exit, abort on exception.
        """
        self.client._check_open()
        chosen = (
            isolation
            or self.isolation
            or self.client.broker.default_isolation
        )
        return StorageTransaction(self.client.store, chosen, session=self)

    def _observe_commit(self, store: Store, txn: int) -> None:
        """Advance the read-your-writes floor past an acknowledged
        writing commit — where the store says a later begin could miss
        it (replicated stores serving bounded-staleness cuts)."""
        vector = store.commit_vector(txn)
        if vector is None:
            return
        if self._vector is None:
            self._vector = vector
        else:
            self._vector = tuple(
                max(a, b) for a, b in zip(self._vector, vector)
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Session({self.name!r}, state={self.state.value})"


class ScriptHandle:
    """The client-side view of one submitted batch script.

    It holds the script's transaction itself, so it answers for the
    script after the run that finished it: the engine keeps only
    unfinished transactions, and a finished one lives on here for as
    long as the caller keeps the handle.
    """

    def __init__(self, client: Client, txn: EntangledTransaction):
        self.client = client
        self.handle = txn.handle
        self._txn = txn

    @property
    def phase(self) -> TxnPhase:
        return self._txn.phase

    @property
    def done(self) -> bool:
        return self.phase.is_terminal

    @property
    def succeeded(self) -> bool:
        return self.phase is TxnPhase.COMMITTED

    @property
    def abort_reason(self) -> str:
        return self._txn.abort_reason

    @property
    def attempts(self) -> int:
        return self._txn.attempts

    def host_variables(self) -> dict[str, "SQLValue | None"]:
        """The committed script's ``AS @var`` bindings."""
        if not self.succeeded:
            raise MiddlewareError(
                f"script {self.handle} is {self.phase.value}, not committed"
            )
        return dict(self._txn.env)

    def wait(self, max_runs: int = 10_000) -> "ScriptHandle":
        """Drain the scheduler, then return self (check :attr:`done`)."""
        self.client.drain(max_runs)
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScriptHandle({self.handle}, {self.phase.value})"


class PendingAnswer:
    """A parked entangled query: pollable, blockable, awaitable.

    Returned by :meth:`Session.execute` for entangled statements.  The
    answer arrives when a matching round
    (:meth:`Client.pump`, run by any caller) finds partners; until then
    the session is parked and its snapshot horizon released if clean.

    Duck-types as an empty pending
    :class:`~repro.core.interactive.StatementResult` (``pending`` /
    ``rows``), so call sites that only branch on ``result.pending`` work
    unchanged.
    """

    def __init__(self, session: Session, query):
        self._session = session
        self.query_id = query.query_id
        #: the host variables this query binds on delivery.
        self.binds = tuple(var for var, _h, _p in query.var_bindings)
        self.pending = True
        self.rows: list = []

    # -- state ----------------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True once the answer was delivered (or the query came back
        empty) and the session resumed."""
        inner = self._session._interactive
        return (
            inner is not None
            and not inner.waiting
            and self._session._pending is self
            and inner.state is not SessionState.ABORTED
        )

    @property
    def cancelled(self) -> bool:
        inner = self._session._interactive
        return self._session._pending is not self or (
            inner is not None and inner.state is SessionState.ABORTED
        )

    # -- resolution ------------------------------------------------------------------

    def poll(self) -> bool:
        """Run one matching round; returns :attr:`done`."""
        if not self.done and not self.cancelled:
            self._session.client.pump()
        return self.done

    def bindings(self) -> dict[str, "SQLValue | None"]:
        """The delivered ``AS @var`` values (None = empty answer)."""
        if self.cancelled:
            raise MiddlewareError(
                f"entangled query {self.query_id} was cancelled"
            )
        if not self.done:
            raise MiddlewareError(
                f"entangled query {self.query_id} has no answer yet"
            )
        env = self._session.interactive.env
        return {var: env.get(var) for var in self.binds}

    #: backoff window between pump attempts while blocked: starts small
    #: (a partner may be microseconds away) and doubles to the cap, so a
    #: long wait costs a bounded number of pump calls instead of a busy
    #: spin.  Another thread's pump (or a cancel) interrupts the wait
    #: through the client's condition variable.
    BASE_BACKOFF = 0.0005
    MAX_BACKOFF = 0.01

    def _wait_for_pump(self, timeout: float) -> None:
        """Sleep until another thread's matching round (or a cancel)
        notifies, or ``timeout`` elapses — never a busy spin."""
        cond = self._session.client._answer_cond
        with cond:
            if not self.done and not self.cancelled:
                cond.wait(timeout)

    def result(self, max_rounds: int = 100) -> dict[str, "SQLValue | None"]:
        """Pump matching rounds until answered; returns the bindings.

        Raises :class:`~repro.errors.EntanglementTimeout` when no
        partner materializes within ``max_rounds`` — the interactive
        analogue of a batch script cycling dormant until its timeout —
        and :class:`~repro.errors.MiddlewareError` as soon as the
        pending answer is cancelled (e.g. by :meth:`Session.close` from
        another thread).

        Between rounds the calling thread waits on the client's
        condition variable with bounded exponential backoff
        (:attr:`BASE_BACKOFF` doubling to :attr:`MAX_BACKOFF`), so the
        total number of ``pump()`` calls is bounded by ``max_rounds``
        even while no partner exists; a partner delivered by another
        thread's pump wakes this one immediately.
        """
        return self._wait(range(max_rounds), None, f"in {max_rounds} matching rounds")

    def block(self, timeout: float | None = None) -> dict[str, "SQLValue | None"]:
        """Block the calling thread until the answer lands.

        Wall-clock twin of :meth:`result`: waits up to ``timeout`` real
        seconds (forever when ``None``), pumping a matching round only
        after each condition-variable wait expires — with bounded
        exponential backoff, so the number of pump calls grows
        logarithmically at first and is capped at one per
        :attr:`MAX_BACKOFF` thereafter, never a busy spin.  A matching
        round run by *any other* thread (or a cancel) wakes this one
        immediately through the client's condition variable.

        Raises :class:`~repro.errors.EntanglementTimeout` on timeout and
        :class:`~repro.errors.MiddlewareError` on cancellation.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        return self._wait(
            itertools.count(), deadline, f"within {timeout} seconds")

    def _wait(
        self, rounds: Iterable, deadline: float | None, limit: str,
    ) -> dict[str, "SQLValue | None"]:
        """The one wait loop: a matching round, then a backoff wait on
        the client's condition variable, once per element of ``rounds``
        and until ``deadline`` (monotonic seconds; None: none); past
        either, :class:`~repro.errors.EntanglementTimeout` naming the
        ``limit``."""
        backoff = self.BASE_BACKOFF
        for _ in rounds:
            if self.cancelled:
                raise MiddlewareError(
                    f"entangled query {self.query_id} was cancelled"
                )
            if self.poll():
                return self.bindings()
            wait = backoff
            if deadline is not None:
                wait = min(wait, deadline - time.monotonic())
                if wait <= 0:
                    break
            self._wait_for_pump(wait)
            if self.done:
                return self.bindings()
            backoff = min(backoff * 2, self.MAX_BACKOFF)
        if self.done:
            return self.bindings()
        raise EntanglementTimeout(
            f"entangled query {self.query_id} found no partners {limit}"
        )

    def cancel(self) -> None:
        """Give up waiting; the session resumes and may issue other
        statements (the paper's "decide to abort or issue another
        command").  Wakes every thread blocked on this answer."""
        if self.done or self.cancelled:
            return
        self._session.interactive.cancel()
        self._session._pending = None
        self._session.client._notify_answer_waiters()

    def __await__(self):
        """Awaitable form: cooperate with an event loop by yielding
        between matching rounds until the answer lands.

        Pump calls back off exponentially in yields (rounds 1, 2, 4,
        8, ...), so an event loop spinning this awaitable while no
        partner exists performs O(log n) matching rounds over n
        scheduler passes instead of one per pass; every resume still
        checks for an answer delivered by someone else's pump.
        """
        spins = 0
        next_pump = 1
        while True:
            if self.cancelled:
                raise MiddlewareError(
                    f"entangled query {self.query_id} was cancelled"
                )
            if self.done:
                return self.bindings()
            spins += 1
            if spins >= next_pump:
                self._session.client.pump()
                next_pump = spins * 2
                if self.done:
                    return self.bindings()
            yield

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "cancelled" if self.cancelled
            else "done" if self.done else "pending"
        )
        return f"PendingAnswer({self.query_id}, {state})"


def _prepare_select(sql: str, caller: str) -> tuple[SelectStmt, Params]:
    stmt, params = prepare_statement(sql)
    if not isinstance(stmt, SelectStmt):
        raise MiddlewareError(f"{caller} only accepts SELECT")
    return stmt, params


class StorageTransaction:
    """A direct classical transaction against the storage layer.

    Context manager: commit on clean exit, abort on exception.  Reads
    and writes go through the same lock/MVCC/SSI machinery as every
    other path; under 2PL a conflicting statement raises
    :class:`~repro.storage.engine.WouldBlock` — the caller suspends and
    retries (cooperative protocol), it is never blocked on a thread.

    SQL statements run through the batch interpreter's executor on one
    :class:`~repro.core.transaction.EntangledTransaction` held for the
    transaction's lifetime, so ``SET @x`` and ``AS @x`` bindings are
    visible to its later statements.
    """

    def __init__(
        self,
        store: Store,
        isolation: TxnIsolation,
        *,
        session: "Session | None" = None,
    ):
        self._store = store
        self._session = session
        self.isolation = isolation
        self._txn = EntangledTransaction(
            handle=0, client=session.name if session is not None else "direct")
        self._txn.start_attempt(store.begin(
            isolation=isolation,
            min_vector=session._vector if session is not None else None,
        ))
        self._finished = False

    @property
    def txn(self) -> int:
        """The storage transaction id."""
        return self._txn.storage_txn

    # -- statements -----------------------------------------------------------------

    def _run(
        self, stmt: Statement, params: Params
    ) -> list[tuple["SQLValue | None", ...]]:
        return execute_statement(self._txn, stmt, self._store, params)

    def query(self, sql: str) -> list[tuple["SQLValue | None", ...]]:
        """Run a SELECT inside this transaction."""
        return self._run(*_prepare_select(sql, "StorageTransaction.query"))

    def execute(self, sql: str) -> list[tuple["SQLValue | None", ...]]:
        """Run one classical statement (SELECT/INSERT/UPDATE/DELETE/SET)
        inside this transaction; returns rows for SELECTs."""
        return self._run(*prepare_statement(sql))

    def insert(self, table: str, values: Sequence[Any]):
        return self._store.insert(self.txn, table, values)

    def update(self, table: str, rid: int, values: Sequence[Any]):
        return self._store.update(self.txn, table, rid, values)

    def delete(self, table: str, rid: int):
        return self._store.delete(self.txn, table, rid)

    def read_table(self, table: str):
        return self._store.read_table(self.txn, table)

    # -- termination -----------------------------------------------------------------

    def commit(self) -> None:
        self._finished = True
        # Asked before the commit: a finished transaction is unknown.
        observe = self._session is not None and bool(
            self._store.written_shards(self.txn))
        self._store.commit(self.txn)
        if observe:
            self._session._observe_commit(self._store, self.txn)

    def abort(self) -> None:
        self._finished = True
        self._store.abort(self.txn)

    def __enter__(self) -> "StorageTransaction":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        if not self._finished:
            if exc_type is None:
                self.commit()
            else:
                self.abort()
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StorageTransaction({self.txn}, {self.isolation.value})"
