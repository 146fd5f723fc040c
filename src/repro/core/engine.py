"""The entangled transaction engine: the paper's middle tier (Figure 5).

Combines every piece of the execution model of Section 4:

* a **dormant transaction pool** holding submitted-but-unscheduled work;
* a **run-based scheduler**: each run executes a batch of transactions,
  blocking each at its entangled queries, evaluating all pending queries
  together, resuming answered transactions, and repeating until nobody can
  proceed;
* **group commit** enforcement (Section 3.3.3): a ready-to-commit
  transaction commits only when its whole entanglement group is ready;
* **timeouts** (Section 3.1): transactions that exceed their ``WITH
  TIMEOUT`` budget while waiting are aborted permanently;
* **Strict 2PL** through the storage engine's lock manager, with the
  isolation relaxations of Section 3.3 available as configuration;
* **stateless-middleware persistence** (Section 5.1): the dormant pool
  and entanglement-group state are serialized into ``_youtopia_*`` tables
  so the DBMS recovery path can rebuild the middle tier after a crash;
* **run events** (:mod:`repro.core.events`) for whatever observes the
  work: the schedule recorder of the formal model
  (:mod:`repro.core.recorder`), and the cost model of a virtual clock,
  which is what the Figure 6 benchmarks measure.

Time comes from one clock (:mod:`repro.core.clock`): real seconds by
default, or a :class:`~repro.sim.clock.VirtualClock` a bench passes in.
The engine reads it and does no time accounting of its own.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.latch import Latch
from repro.core.clock import Clock, WallClock
from repro.core.events import RunListener
from repro.core.executor import ShardExecutor
from repro.core.groups import GroupTracker, Round, commit_group, evaluate_round
from repro.core.interpreter import StepOutcome, deliver_answer, run_until_block
from repro.core.policies import ManualPolicy, RunPolicy
from repro.core.recorder import ScheduleRecorder
from repro.core.transaction import EntangledTransaction, TxnPhase
from repro.entangled.evaluator import QueryOutcome
from repro.errors import (
    EngineError,
    MiddlewareError,
    OverloadError,
    SerializationFailureError,
)
from repro.sql.ast import TransactionProgram
from repro.sql.parser import parse_transaction
from repro.storage.engine import TxnIsolation
from repro.storage.store import metrics_delta
from repro.storage.expressions import Cmp, CmpOp, Col, Const, RowPredicate
from repro.storage.protocol import Store
from repro.storage.schema import TableSchema
from repro.storage.types import ColumnType


class EmptyAnswerPolicy(enum.Enum):
    """What to do when an entangled query succeeds with an empty answer.

    Appendix B argues an empty answer is *query success* and the
    transaction can proceed (PROCEED, the default).  WAIT treats it like
    a missing partner: block and retry in a later run.
    """

    PROCEED = "proceed"
    WAIT = "wait"


class IsolationConfig(enum.Enum):
    """Engine-level isolation configuration (Section 4, Section 3.3.3).

    FULL — group commits + Strict 2PL: full entangled isolation.
    NO_GROUP_COMMIT — commit ready transactions individually; widowed
        transactions become possible.
    LOOSE_READS — release read locks right after entangled-query
        evaluation instead of holding to commit; unrepeatable quasi-reads
        become possible.
    SNAPSHOT — MVCC snapshot isolation: every read (classical SELECTs and
        entangled grounding alike) is served lock-free from the
        transaction's begin-time snapshot; writers keep X/IX locks plus
        first-updater-wins conflict detection.  Group commit is retained,
        so widows stay impossible; write skew becomes the one admitted
        anomaly (observable via the recorded model schedules).
    SERIALIZABLE — SSI: snapshot reads exactly as SNAPSHOT (still
        lock-free), with the storage engine's rw-antidependency tracker
        aborting the pivot of any would-be dangerous structure at
        commit.  The abort surfaces as a retry (like a write conflict),
        so committed histories are fully serializable and write skew is
        closed — without reintroducing read locks.
    """

    FULL = "full"
    NO_GROUP_COMMIT = "no-group-commit"
    LOOSE_READS = "loose-reads"
    SNAPSHOT = "snapshot"
    SERIALIZABLE = "serializable"

    @property
    def group_commit(self) -> bool:
        return self is not IsolationConfig.NO_GROUP_COMMIT

    @property
    def strict_read_locks(self) -> bool:
        return self is not IsolationConfig.LOOSE_READS

    @property
    def snapshot_reads(self) -> bool:
        return self in (IsolationConfig.SNAPSHOT, IsolationConfig.SERIALIZABLE)


@dataclass
class EngineConfig:
    """Tunables for one engine instance."""

    isolation: IsolationConfig = IsolationConfig.FULL
    empty_answer: EmptyAnswerPolicy = EmptyAnswerPolicy.PROCEED
    #: connection slots a virtual clock's cost model spreads a run's
    #: transactions over (Section 5.2.1's MySQL connection limit).
    connections: int = 100
    record_schedule: bool = False
    persist_state: bool = False
    #: real-thread execution: dispatch each transaction's execution and
    #: commit onto its home shard's worker thread
    #: (:class:`~repro.core.executor.ShardExecutor`), so disjoint-shard
    #: work — commit WAL flushes above all — overlaps in wall-clock
    #: time.  The run loop's phase structure (execute / evaluate /
    #: commit) and the cooperative ``WouldBlock`` protocol are
    #: unchanged; evaluation stays on the coordinator thread.  Call
    #: :meth:`EntangledTransactionEngine.close` (or use the
    #: ``repro.client`` façade, which does) to join the workers.
    executor: bool = False
    #: Non-transactional execution: "the same code without enclosing it
    #: within a transaction block" (the -Q workloads of Section 5.2.2).
    #: Each statement commits immediately, no transaction bracket cost is
    #: charged by a cost model, and group commit does not apply.
    autocommit: bool = False
    #: max evaluate/resume rounds per run (defensive; the paper's runs
    #: always converge because answered queries strictly advance programs).
    max_rounds_per_run: int = 1_000
    #: admission control: bound on the dormant pool.  ``None`` admits
    #: everything (closed-loop benches); an integer makes :meth:`submit`
    #: *shed* arrivals that find the pool full, raising the retryable
    #: :class:`~repro.errors.OverloadError` before any storage side
    #: effect.  This is what keeps open-workload latency bounded past
    #: saturation: offered load beyond capacity fails fast instead of
    #: inflating the queue (and every queued transaction's latency).
    max_queue_depth: "int | None" = None


@dataclass
class RunReport:
    """What one run did — the engine's unit of progress reporting."""

    index: int
    committed: list[int] = field(default_factory=list)
    returned_to_pool: list[int] = field(default_factory=list)
    timed_out: list[int] = field(default_factory=list)
    aborted: list[int] = field(default_factory=list)
    evaluation_rounds: int = 0
    answered_queries: int = 0
    #: the run's duration on the engine's clock: measured seconds on the
    #: wall clock, the cost model's charge on a virtual one.
    elapsed: float = 0.0
    #: lock-manager deltas for this run: conflicts hit, deadlock victims,
    #: and the run's lock footprint (grants) — the contention signal the
    #: Figure-6-style locking ablation plots.
    lock_waits: int = 0
    deadlocks: int = 0
    locks_acquired: int = 0
    #: MVCC deltas for this run: snapshot reads restarted by
    #: version-chain pruning, and the longest version chain at the end
    #: of the run.
    read_restarts: int = 0
    max_version_chain: int = 0
    #: SSI deltas for this run: attempts aborted by serialization
    #: failures (``ssi_aborts``), of which ``pivot_aborts`` were the
    #: dangerous structure's pivot itself (the rest were conservative —
    #: the pivot had already committed).
    ssi_aborts: int = 0
    pivot_aborts: int = 0
    #: middle-tier transactions this run committed whose writes spanned
    #: more than one shard (the two-phase-commit population).
    cross_shard_commits: int = 0
    #: share of this run's committed transactions that crossed shards.
    cross_shard_share: float = 0.0
    #: per-table version-chain-length histograms at the end of the run
    #: (table -> {chain length -> #rids}) — the GC-pressure signal the
    #: horizon-aware vacuum is meant to keep flat.
    chain_histograms: dict[str, dict[int, int]] = field(default_factory=dict)
    #: planner delta for this run: ordered-index range scans taken.
    index_range_scans: int = 0
    #: admission deltas since the previous run: arrivals admitted into
    #: the dormant pool, and arrivals shed by the queue-depth bound
    #: (``EngineConfig.max_queue_depth``) with an
    #: :class:`~repro.errors.OverloadError`.
    admitted: int = 0
    shed: int = 0
    #: replication delta (zero on non-replicated stores): snapshot
    #: probes served by follower replicas instead of leaders.
    follower_reads: int = 0


class DrainReports(list):
    """The run reports of one :meth:`EntangledTransactionEngine.drain`.

    A plain ``list[RunReport]`` (full back-compat) plus a
    :attr:`truncated` flag: ``True`` when draining stopped because it
    hit the ``max_runs`` cap while the dormant pool still held
    transactions.  Callers that treat a finished drain as quiescence
    must check it — a capped drain is *not* quiescence.
    """

    def __init__(self, reports=(), *, truncated: bool = False):
        super().__init__(reports)
        self.truncated = truncated


class EntangledTransactionEngine:
    """The middle tier supporting entanglement (Figure 5): the run-based
    scheduler over one storage ensemble.

    Internal: :func:`repro.connect` builds it (and crash recovery
    rebuilds it) around the store it is handed; a
    :class:`repro.client.Client` owns it and exposes batch scripts
    through ``Session.run_script``.  Reach it as ``client.engine`` when
    a test or bench needs scheduler internals.
    """

    POOL_TABLE = "_youtopia_pool"
    EDGES_TABLE = "_youtopia_edges"
    COMMITS_TABLE = "_youtopia_commits"

    def __init__(
        self,
        store: Store,
        config: EngineConfig | None = None,
        policy: RunPolicy | None = None,
        clock: Clock | None = None,
    ):
        self.config = config or EngineConfig()
        self.store = store
        self.policy = policy or ManualPolicy()
        self.executor = (
            ShardExecutor(self.store.n_shards) if self.config.executor else None
        )
        #: guards run-report mutations reachable from concurrent
        #: commit-unit workers (a leaf lock: never held while calling
        #: into the store).
        self._report_lock = Latch("run-report", reentrant=False)
        self.clock = clock if clock is not None else WallClock()
        self.groups = GroupTracker()
        #: the run-event subscribers (:mod:`repro.core.events`): the
        #: schedule recorder when configured, and whatever the clock
        #: subscribes at the end of construction.
        self.listeners: list[RunListener] = []
        self.recorder = None
        if self.config.record_schedule:
            self.recorder = ScheduleRecorder(store=self.store)
            self.listeners.append(self.recorder)
        self._transactions: dict[int, EntangledTransaction] = {}
        self._dormant: list[int] = []
        #: cumulative admission counters (per-run deltas land on each
        #: :class:`RunReport` as ``admitted`` / ``shed``).
        self.admission_admitted = 0
        self.admission_shed = 0
        self._admission_stamped = (0, 0)
        self._next_handle = 1
        self._run_index = 0
        self.run_reports: list[RunReport] = []
        if self.config.persist_state:
            self._ensure_system_tables()
        self.clock.subscribe(self)

    # -- system tables (stateless middleware, Section 5.1) ----------------------------

    def _ensure_system_tables(self) -> None:
        db = self.store.db
        if not db.has_table(self.POOL_TABLE):
            db.create_table(TableSchema.build(
                self.POOL_TABLE,
                [("handle", ColumnType.INTEGER), ("client", ColumnType.TEXT),
                 ("program_sql", ColumnType.TEXT),
                 ("submitted_at", ColumnType.FLOAT)],
                primary_key=["handle"],
            ))
        if not db.has_table(self.EDGES_TABLE):
            db.create_table(TableSchema.build(
                self.EDGES_TABLE,
                [("txn_a", ColumnType.INTEGER), ("txn_b", ColumnType.INTEGER)],
            ))
        if not db.has_table(self.COMMITS_TABLE):
            db.create_table(TableSchema.build(
                self.COMMITS_TABLE,
                [("storage_txn", ColumnType.INTEGER),
                 ("group_id", ColumnType.INTEGER),
                 ("group_size", ColumnType.INTEGER)],
            ))

    def _persist_pool_add(self, txn: EntangledTransaction, sql: str) -> None:
        if not self.config.persist_state:
            return
        system = self.store.begin()
        self.store.insert(
            system, self.POOL_TABLE,
            (txn.handle, txn.client, sql, txn.submitted_at),
        )
        self.store.commit(system)

    def _persist_pool_remove(self, handle: int) -> None:
        if not self.config.persist_state:
            return
        system = self.store.begin()
        self._delete_pool_row(system, handle)
        self.store.commit(system)

    def _delete_pool_row(self, storage_txn: int, handle: int) -> None:
        where = Cmp(CmpOp.EQ, Col("handle"), Const(handle))
        columns = self.store.db.table(self.POOL_TABLE).schema.column_names
        self.store.delete_where(
            storage_txn, self.POOL_TABLE, RowPredicate(columns, where),
            where=where,
        )

    # -- submission --------------------------------------------------------------------

    def close(self) -> None:
        """Join the per-shard worker threads (no-op without an executor).
        The engine must not run again afterwards."""
        if self.executor is not None:
            self.executor.close()

    def submit(
        self,
        program: TransactionProgram | str,
        client: str = "client",
        at: float | None = None,
        shard_hint: int | None = None,
    ) -> int:
        """Submit a transaction; returns its handle.

        ``at`` stamps the arrival time (the deadline of a ``WITH
        TIMEOUT`` counts from it), moving a virtual clock forward to it;
        by default the current clock.  Arrival does not execute anything
        — the run policy decides when the next run starts (call
        :meth:`tick` or :meth:`run_once`).

        ``shard_hint`` names the transaction's *home shard* for the
        thread-pool executor (``EngineConfig.executor``): its statements
        and its commit run on that shard's worker.  Callers that know
        their data's routing (``shard_for_key``) should pass it; the
        default spreads transactions round-robin by handle.

        With ``EngineConfig.max_queue_depth`` set, an arrival that finds
        the dormant pool full is **shed**: nothing is enqueued, no
        storage transaction begins, and the retryable
        :class:`~repro.errors.OverloadError` is raised.
        """
        depth_bound = self.config.max_queue_depth
        if depth_bound is not None and len(self._dormant) >= depth_bound:
            self.admission_shed += 1
            raise OverloadError(
                f"dormant pool is at its bound ({depth_bound}); "
                f"retry after the next run drains it",
                reason="queue-depth",
                retry_after=self.clock.run_estimate(self),
            )
        if isinstance(program, str):
            sql_text = program
            # Lexed in full; parsed only if no earlier script had this
            # shape (repro.sql.parser's template table).
            program = parse_transaction(program)
        else:
            # AST-submitted programs are rendered so persistence/recovery
            # can round-trip them like text submissions.
            from repro.sql.unparse import unparse_transaction

            sql_text = unparse_transaction(program)
        handle = self._next_handle
        self._next_handle += 1
        if at is not None:
            self.clock.advance_to(at)
        arrival = self.clock.now if at is None else at
        txn = EntangledTransaction(
            handle=handle, client=client, program=program,
            submitted_at=arrival, shard_hint=shard_hint,
        )
        self._transactions[handle] = txn
        self._dormant.append(handle)
        self.admission_admitted += 1
        self.groups.register(handle)
        self._persist_pool_add(txn, sql_text)
        self.policy.on_arrival(self.clock.now, len(self._dormant))
        return handle

    def transaction(self, handle: int) -> EntangledTransaction:
        try:
            return self._transactions[handle]
        except KeyError:
            raise MiddlewareError(f"unknown transaction handle {handle}") from None

    def phase(self, handle: int) -> TxnPhase:
        return self.transaction(handle).phase

    @property
    def dormant_count(self) -> int:
        return len(self._dormant)

    def unfinished(self) -> list[int]:
        return [
            h for h, t in self._transactions.items() if not t.phase.is_terminal
        ]

    # -- the run loop (Section 4) --------------------------------------------------------

    @property
    def _storage_isolation(self) -> TxnIsolation:
        """The storage-level isolation user transactions run under."""
        if self.config.isolation is IsolationConfig.SERIALIZABLE:
            return TxnIsolation.SERIALIZABLE
        if self.config.isolation.snapshot_reads:
            return TxnIsolation.SNAPSHOT
        return TxnIsolation.TWO_PL

    def tick(self) -> RunReport | None:
        """Start a run if the policy wants one; returns its report."""
        if self.policy.should_run(self.clock.now, len(self._dormant)):
            return self.run_once()
        return None

    def run_once(self, handles: Iterable[int] | None = None) -> RunReport:
        """Execute one run over ``handles`` (default: whole dormant pool).

        Implements the walk-through of Figure 4: execute until everyone
        blocks, evaluate all pending entangled queries together, resume
        the answered, repeat; then group-commit the ready and return the
        rest to the dormant pool (or time them out).
        """
        self._run_index += 1
        report = RunReport(index=self._run_index)
        started = self.clock.now
        self.policy.on_run_started(started)
        before = self.store.metrics()
        for listener in self.listeners:
            listener.run_started(report)

        if handles is None:
            scheduled = list(self._dormant)
            self._dormant = []
        else:
            scheduled = [h for h in handles if h in self._dormant]
            self._dormant = [h for h in self._dormant if h not in scheduled]

        # Expire transactions whose timeout lapsed while dormant.
        batch: list[EntangledTransaction] = []
        for handle in scheduled:
            txn = self.transaction(handle)
            if txn.is_expired(started):
                self._finalize_timeout(txn, report)
                continue
            batch.append(txn)

        for txn in batch:
            txn.start_attempt(self.store.begin(isolation=self._storage_isolation))
            for listener in self.listeners:
                listener.attempt_started(txn)

        rounds = 0
        lock_blocked: list[EntangledTransaction] = []
        runnable = list(batch)
        while rounds < self.config.max_rounds_per_run:
            rounds += 1
            # Phase 1: drive every runnable transaction to a stop point —
            # on the caller's thread, or (with the executor) each on its
            # home shard's worker, concurrently.  Outcome bookkeeping
            # happens back on the coordinator either way.
            next_lock_blocked: list[EntangledTransaction] = []
            executing = [t for t in runnable if t.phase is TxnPhase.RUNNING]
            for txn, outcome in self._execute_step(executing):
                if outcome is StepOutcome.COMPLETED:
                    txn.mark_ready()
                elif outcome is StepOutcome.LOCK_BLOCKED:
                    next_lock_blocked.append(txn)
                elif outcome is StepOutcome.DEADLOCKED:
                    self._abort_attempt(txn, retry=True, report=report,
                                        reason="deadlock victim")
                elif outcome is StepOutcome.WRITE_CONFLICT:
                    self._abort_attempt(
                        txn, retry=True, report=report,
                        reason="write-write conflict (first updater wins)")
                elif outcome is StepOutcome.SNAPSHOT_RESTART:
                    report.read_restarts += 1
                    self._abort_attempt(
                        txn, retry=True, report=report,
                        reason="snapshot pruned; restart on a fresh one")
                elif outcome is StepOutcome.SERIALIZATION_FAILURE:
                    self._abort_attempt(
                        txn, retry=True, report=report,
                        reason="serialization failure (SSI dangerous "
                               "structure)")
                elif outcome is StepOutcome.ROLLED_BACK:
                    self._abort_attempt(
                        txn, retry=False, report=report,
                        reason=txn.abort_reason or "explicit ROLLBACK")
                # BLOCKED_ON_QUERY: handled by evaluation below.
            # Blocked transactions that were not retried this round stay
            # blocked — overwriting the list would re-admit them to the
            # runnable set below and busy-spin their lock requests.
            retried = {id(t) for t in runnable}
            lock_blocked = next_lock_blocked + [
                t for t in lock_blocked
                if id(t) not in retried and t.phase is TxnPhase.RUNNING
            ]

            # Phase 2: evaluate all pending entangled queries together.
            pending = [
                t for t in batch
                if t.phase is TxnPhase.BLOCKED and t.pending_query is not None
            ]
            progressed = False
            if pending:
                answered = self._evaluate_round(pending, report)
                progressed = answered > 0
                report.evaluation_rounds += 1
                report.answered_queries += answered

            # Phase 3: transactions resumed by answers keep running;
            # lock-blocked ones are retried only when something changed —
            # an answer landed or a lock was actually released (deadlock
            # victim, autocommit) — not busy-spun every round.
            blocked_set = set(id(t) for t in lock_blocked)
            runnable = [
                t for t in batch
                if t.phase is TxnPhase.RUNNING and id(t) not in blocked_set
            ]
            if runnable:
                continue
            if progressed:
                runnable = lock_blocked
                continue
            if lock_blocked and self._lock_waiters_can_move(lock_blocked):
                runnable = lock_blocked
                continue
            break

        self._commit_phase(batch, lock_blocked, report)

        after = self.store.metrics()
        delta = metrics_delta(after, before)
        report.lock_waits = delta["locks.waits"]
        report.deadlocks = delta["locks.deadlocks"]
        report.locks_acquired = delta["locks.acquired"]
        report.index_range_scans = delta["plans.index_range_scans"]
        report.cross_shard_commits = delta["cross_shard_commits"]
        if report.committed:
            report.cross_shard_share = (
                report.cross_shard_commits / len(report.committed)
            )
        # Commit-time SSI failures come from the tracker's stat deltas;
        # pre-commit group-validation aborts were already added to
        # ``report.ssi_aborts`` by the commit phase.
        report.pivot_aborts = delta["ssi.pivot_aborts"]
        report.ssi_aborts += (
            report.pivot_aborts + delta["ssi.conservative_aborts"])
        report.follower_reads = delta["follower_reads"]
        report.max_version_chain = after["max_chain"]
        report.chain_histograms = self.store.chain_histograms()

        admitted_before, shed_before = self._admission_stamped
        report.admitted = self.admission_admitted - admitted_before
        report.shed = self.admission_shed - shed_before
        self._admission_stamped = (self.admission_admitted, self.admission_shed)

        report.elapsed = self.clock.now - started
        for listener in self.listeners:
            listener.run_ended(report)
        self.run_reports.append(report)
        return report

    def _home_shard(self, txn: EntangledTransaction) -> int:
        """The executor worker a transaction runs on: its shard hint, or
        round-robin by handle when the caller declared none."""
        base = txn.shard_hint if txn.shard_hint is not None else txn.handle
        return base % self.store.n_shards

    def _execute_step(
        self, txns: list[EntangledTransaction]
    ) -> list[tuple[EntangledTransaction, StepOutcome]]:
        """Run one execute phase over ``txns``; returns their outcomes.

        Serially without an executor; otherwise each transaction's
        ``run_until_block`` is dispatched to its home shard's worker —
        transactions homed on different shards execute concurrently in
        wall-clock time, same-shard transactions pipeline FIFO.
        """

        def step(txn: EntangledTransaction):
            first = txn.pc
            outcome = run_until_block(
                txn, self.store, autocommit=self.config.autocommit)
            for listener in self.listeners:
                listener.step_ended(
                    txn, txn.program.template[first:txn.pc], outcome)
            return txn, outcome

        if self.executor is None or len(txns) <= 1:
            return [step(txn) for txn in txns]
        return self.executor.run(
            [(self._home_shard(txn), lambda txn=txn: step(txn)) for txn in txns]
        )

    def _lock_waiters_can_move(self, waiters: list[EntangledTransaction]) -> bool:
        """True when some waiter's blocking resource has been freed."""
        for txn in waiters:
            if txn.storage_txn is None:
                continue
            if not self.store.locks.waiting(txn.storage_txn):
                return True
        return False

    def _evaluate_round(
        self, pending: list[EntangledTransaction], report: RunReport
    ) -> int:
        """Evaluate the pending queries as one batch
        (:func:`~repro.core.groups.evaluate_round`) and do to each
        *script* what its query's outcome asks: deliver the answer and
        resume, abort, retry the attempt, or leave it blocked for the
        next round.  Returns the number answered.
        """
        by_query_id = {txn.query_id(): txn for txn in pending}
        verdict = evaluate_round(self.store, {
            query_id: (txn.pending_query, txn.storage_txn)
            for query_id, txn in by_query_id.items()
        })
        if verdict.poisoned is not None:
            for txn in pending:
                self._abort_attempt(
                    txn, retry=False, report=report,
                    reason=f"safety violation: {verdict.poisoned}")
            return 0
        result = verdict.result
        for listener in self.listeners:
            listener.round_evaluated(by_query_id, result)

        self._record_entanglements(verdict, by_query_id)
        answered = 0
        for txn in pending:
            outcome = result.outcome(txn.query_id())
            if outcome is QueryOutcome.ANSWERED:
                deliver_answer(txn, result.answer(txn.query_id()))
                answered += 1
                if not self.config.isolation.strict_read_locks:
                    # LOOSE_READS ablation: give up read locks right after
                    # evaluation (re-admits unrepeatable quasi-reads).
                    self.store.release_read_locks(txn.storage_txn)
                if self.config.autocommit:
                    # Non-transactional: the grounding locks are released
                    # immediately; the next statement gets a fresh txn.
                    self._autocommit_statement(txn, report)
            elif outcome is QueryOutcome.EMPTY:
                if self.config.empty_answer is EmptyAnswerPolicy.PROCEED:
                    # A degenerate single-party entanglement (it closes
                    # the grounding window of a recorded schedule).
                    for listener in self.listeners:
                        listener.entangled([txn], None)
                    deliver_answer(txn, None)
                    answered += 1
                    if self.config.autocommit:
                        self._autocommit_statement(txn, report)
            elif outcome is QueryOutcome.UNSAFE:
                self._abort_attempt(txn, retry=False, report=report,
                                    reason="safety violation")
            elif outcome is QueryOutcome.DEADLOCKED:
                self._abort_attempt(txn, retry=True, report=report,
                                    reason="deadlock victim (grounding)")
            elif outcome is QueryOutcome.RESTART:
                report.read_restarts += 1
                self._abort_attempt(txn, retry=True, report=report,
                                    reason="snapshot pruned (grounding)")
            # BLOCKED (grounding hit a lock conflict) and WAIT: stays
            # blocked; retried once the holder commits/aborts, or next
            # round/run.
        return answered

    def _autocommit_statement(
        self, txn: EntangledTransaction, report: RunReport
    ) -> None:
        """Commit one autocommit statement's storage txn, begin the next.

        An SSI rejection here aborts and retries the whole attempt, as
        for any other serialization failure.
        """
        try:
            self.store.commit(txn.storage_txn)
        except SerializationFailureError:
            self._abort_attempt(
                txn, retry=True, report=report,
                reason="serialization failure (SSI dangerous structure)")
            return
        txn.storage_txn = self.store.begin(isolation=self._storage_isolation)

    def _record_entanglements(
        self, verdict: Round, by_query_id: dict[str, EntangledTransaction]
    ) -> None:
        """Update group state (and tell the subscribers) for this round:
        each component of queries answered together is one entanglement
        operation, taken in handle order."""
        chosen = verdict.result.match.chosen
        for handles in sorted(
            sorted(by_query_id[qid].handle for qid in component)
            for component in verdict.components
        ):
            members = [self.transaction(handle) for handle in handles]
            self.groups.entangle(*handles)
            for txn in members:
                txn.partners.update(h for h in handles if h != txn.handle)
            for listener in self.listeners:
                listener.entangled(members, chosen)

    # -- commit / abort machinery -----------------------------------------------------------

    def _commit_phase(
        self,
        batch: list[EntangledTransaction],
        lock_blocked: list[EntangledTransaction],
        report: RunReport,
    ) -> None:
        """End of run: group-commit the ready, recycle the rest."""
        in_run = {t.handle for t in batch}
        ready = [t for t in batch if t.phase is TxnPhase.READY_TO_COMMIT]

        if self.config.autocommit or not self.config.isolation.group_commit:
            # No groups to widow: SSI failures surface from the commit
            # itself and are retried there (autocommit's trailing storage
            # transaction is empty and trivially clean).
            units = [[txn] for txn in ready]
        else:
            # Assemble commit units group by group; each unit is
            # SSI-validated *atomically* before its first member commits:
            # committing members one by one and failing midway would
            # leave the earlier ones durably committed while the rest
            # abort — a widowed group.  The validation simulates the
            # in-order commits (including the edges the group's own
            # earlier members create) against the tracker state left by
            # the groups already committed here.
            units = []
            emitted: set[int] = set()
            for txn in ready:
                if txn.handle in emitted:
                    continue
                group = self.groups.group_of(txn.handle)
                members = [
                    self.transaction(h) for h in sorted(group) if h in in_run
                ]
                # Every group member must be ready; members outside the
                # run (should not happen — groups form within runs) block
                # the commit conservatively.
                if not (
                    all(m.phase is TxnPhase.READY_TO_COMMIT for m in members)
                    and group <= in_run
                ):
                    continue
                emitted.update(m.handle for m in members)
                units.append(members)

        def commit_unit(members: list[EntangledTransaction]) -> None:
            # A unit of one cannot widow: let its commit raise (and
            # classify the failure) directly.  Larger units go through
            # the shared group-commit routine.
            if len(members) == 1:
                self._commit_transaction(members[0], report)
                return
            outcome = commit_group(
                self.store, members, before=self._stage_commit,
                after=lambda member: self._record_commit(member, report),
            )
            if outcome.doomed:
                for member in members:
                    with self._report_lock:
                        report.ssi_aborts += 1
                    self._abort_attempt(
                        member, retry=True, report=report,
                        reason="serialization failure (SSI pre-commit "
                               "group validation)")
            elif outcome.failed is not None:
                self._commit_rejected(outcome.failed, report)

        if self.executor is None or len(units) <= 1:
            for unit in units:
                commit_unit(unit)
        else:
            # Units homed on different shards flush their WALs
            # concurrently — the wall-clock payoff of per-shard logs.
            self.executor.run([
                (self._home_shard(unit[0]), lambda unit=unit: commit_unit(unit))
                for unit in units
            ])

        for txn in batch:
            if txn.phase in (TxnPhase.COMMITTED, TxnPhase.ABORTED,
                             TxnPhase.TIMED_OUT, TxnPhase.DORMANT):
                continue
            # READY (group incomplete), BLOCKED, or lock-blocked RUNNING:
            # abort this attempt and retry later — unless expired.
            self._abort_attempt(txn, retry=True, report=report,
                                reason="run ended without commit")

        # Entanglement links are attempt-local: committed members are
        # terminal and everyone else restarts from scratch, so this run's
        # links must not constrain future runs.
        for txn in batch:
            self.groups.forget(txn.handle)
            if not txn.phase.is_terminal:
                self.groups.register(txn.handle)

    def _commit_transaction(
        self, txn: EntangledTransaction, report: RunReport
    ) -> None:
        """Commit a unit of one, flushing its WAL in the commit itself."""
        self._stage_commit(txn)
        try:
            self.store.commit(txn.storage_txn)
        except SerializationFailureError:
            self._commit_rejected(txn, report)
            return
        self._record_commit(txn, report)

    def _stage_commit(self, txn: EntangledTransaction) -> None:
        """The stateless-middleware writes that ride inside the user
        transaction, just before its storage commit."""
        assert txn.storage_txn is not None
        if not self.config.persist_state:
            return
        group = sorted(self.groups.group_of(txn.handle))
        group_storage = [
            self.transaction(h).storage_txn for h in group
        ]
        group_id = min(s for s in group_storage if s is not None)
        self.store.insert(
            txn.storage_txn,
            self.COMMITS_TABLE,
            (txn.storage_txn, group_id, len(group)),
        )
        # Remove the dormant-pool row *inside* the user transaction so
        # commit and pool removal are atomic: a crash can never leave
        # a committed transaction still queued for re-execution.  The
        # pk-pinned WHERE keeps this a row+key delete, so concurrent
        # group commits don't serialize on the pool table.
        self._delete_pool_row(txn.storage_txn, txn.handle)

    def _commit_rejected(
        self, txn: EntangledTransaction, report: RunReport
    ) -> None:
        """SSI rejected the commit itself: the attempt aborts and
        retries, exactly like a write conflict discovered one step
        earlier."""
        self._abort_attempt(
            txn, retry=True, report=report,
            reason="serialization failure (SSI dangerous structure)")

    def _record_commit(
        self, txn: EntangledTransaction, report: RunReport
    ) -> None:
        """Bookkeeping for a storage commit that stuck."""
        for listener in self.listeners:
            listener.committed(txn)
        txn.mark_committed()
        with self._report_lock:
            report.committed.append(txn.handle)

    def _abort_attempt(
        self,
        txn: EntangledTransaction,
        *,
        retry: bool,
        report: RunReport,
        reason: str,
    ) -> None:
        """Roll back the storage transaction; retry or finalize.

        Entanglement-group links are *not* removed here: the commit phase
        needs them to see that an aborted member poisons its whole group
        (widow prevention).  Links are cleaned up at the end of the run.
        """
        if txn.storage_txn is not None:
            self.store.abort(txn.storage_txn)
        if not retry:
            txn.mark_aborted(reason)
            with self._report_lock:
                report.aborted.append(txn.handle)
            self._persist_pool_remove(txn.handle)
            return
        if txn.is_expired(self.clock.now):
            self._finalize_timeout(txn, report)
            return
        txn.reset_for_retry()
        with self._report_lock:
            self._dormant.append(txn.handle)
            report.returned_to_pool.append(txn.handle)

    def _finalize_timeout(self, txn: EntangledTransaction, report: RunReport) -> None:
        txn.mark_timed_out()
        with self._report_lock:
            report.timed_out.append(txn.handle)
        self._persist_pool_remove(txn.handle)

    # -- draining -----------------------------------------------------------------------------

    def drain(self, max_runs: int = 10_000) -> DrainReports:
        """Run until the dormant pool empties or stops making progress.

        Transactions that can never find partners keep cycling dormant
        until their timeouts expire; with no timeout they would cycle
        forever, so when a full run commits nothing and returns everyone
        to the pool, draining stops (the caller can inspect
        :meth:`unfinished`).

        Returns :class:`DrainReports`: the run reports, with
        ``truncated=True`` when the ``max_runs`` cap stopped a drain
        that was still making progress — the pool is **not** empty and
        the caller must not mistake the capped drain for quiescence.
        """
        reports = DrainReports()
        for _ in range(max_runs):
            if not self._dormant:
                break
            before = set(self._dormant)
            report = self.run_once()
            reports.append(report)
            after = set(self._dormant)
            if before == after and not report.committed and not report.timed_out:
                break
        else:
            reports.truncated = bool(self._dormant)
        return reports

    # -- model bridge ---------------------------------------------------------------------------

    def recorded_schedule(self):
        if self.recorder is None:
            raise EngineError("engine was not configured with record_schedule")
        return self.recorder.schedule()
