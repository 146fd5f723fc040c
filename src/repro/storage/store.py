"""The store-contract members both storage engines share, written once.

Most of :class:`~repro.storage.protocol.Store` means the same thing over
one timeline as over N — which isolation reads through a snapshot
provider and which through read locks, what a read reports to the
observers, which committed writer a snapshot read saw, what a bulk load
is.  :class:`StoreBase` holds those bodies; :class:`~repro.storage.
engine.StorageEngine` and :class:`~repro.storage.sharding.
ShardedStorageEngine` (hence the process and replicated engines) supply
the primitives they are written against:

* ``_contexts`` — the live transactions' contexts: one is made at
  ``begin`` and dropped when nothing reads it any more (at the end of
  ``commit`` or ``abort``; a router's deferred commit keeps its context
  until ``flush_commits`` consumed its flush targets), so a finished
  transaction is unknown here and its outcome is what its ``commit`` or
  ``abort`` call returned — and the WAL's COMMIT or ABORT record;
* ``snapshot_provider(txn)`` — the provider serving its snapshot;
* ``_lock_read_access(ctx, access)`` — observe one 2PL access path:
  take the locks it requires (may raise ``WouldBlock``);
* ``_lock_read_rows(ctx, table, rids, path)`` — the same for rows used,
  one or a leaf's batch: row S on each, one lock-manager call per shard;
* ``_observe_snapshot_read(txn, access)`` — observe one snapshot read:
  count it, feed the SSI read set;
* ``_observe_snapshot_reads(txn, table, rids, path)`` — the same for a
  range leaf's batch (its rows by rid, its consumed range access or
  None), in one latch round and without an access object per row;
* ``_read_position(ctx)`` — the snapshot's place on the timeline
  ``_table_writers`` is kept on (a commit timestamp; the global commit
  sequence when sharded);
* ``_stage_write_sets(txns)`` — put each transaction's undo-derived
  write set (``prepare``) in front of the tracker that validates it;
* ``_release_horizon(txn)`` — release its vacuum-horizon registration(s);
* ``_holds_horizon(txn)`` — whether it is registered (not parked);
* ``_resnapshot(ctx)`` — move it to the freshest cut and re-register it,
  unless it is registered there already; says whether it moved;
* ``commit_funnel()`` — the latch visibility transitions ride;
* ``_meta_lock`` / ``_mvcc_local`` — the latch the small counters are
  updated under, and this store's own share of the ``mvcc.*`` metrics.

Nothing here names the single engine's mutex — that class re-declares
each public member as ``_locked(StoreBase.member)`` — and the two
writes to fields the sharded engine guards with ``_GUARDED_FIELDS``
(``plan_stats``, ``_mvcc_local``) sit under the latch it declares for
them, ``_meta_lock``; every other guarded write stays in the engines,
where ``latchlint`` LL005 sees its latch.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Iterable, Mapping, Sequence

from repro.errors import TransactionStateError
from repro.storage.locks import LOCK_STATS
from repro.storage.planner import PlanHints
from repro.storage.query import ReadAccess, Reads, SPJQuery, evaluate
from repro.storage.row import Row
from repro.storage.types import SQLValue


#: the keys of a ``metrics()`` reading, in its order.
METRICS = (
    *(f"locks.{name}" for name in LOCK_STATS),
    "mvcc.snapshot_reads", "mvcc.write_conflicts", "mvcc.snapshot_refreshes",
    "mvcc.supersede_prunes", "versions", "max_chain",
    "checkpoints.taken", "checkpoints.skipped", "commits", "aborts",
    "ssi.rw_edges", "ssi.pivot_aborts", "ssi.pivot_aborts_unproven",
    "ssi.conservative_aborts", "ssi.doomed_reads",
    "plans.index_range_scans", "plans.seq_scans_avoided", "plans.sorts_elided",
    "cross_shard_commits", "follower_reads",
)
#: what one shard of an ensemble counts besides its commits and aborts;
#: the keys after those read zero on a shard.  A shard worker ships these
#: in its envelope, in this order, when one changed.
SHARD_METRICS = METRICS[:METRICS.index("commits")]
#: the counts an ensemble's coordinator keeps for the whole ensemble: its
#: reading takes these from itself and the rest from its shards, summed
#: (``max_chain``: the longest).
ENSEMBLE_METRICS = METRICS[METRICS.index("checkpoints.taken"):]


def metrics_delta(
    after: Mapping[str, int], before: Mapping[str, int]
) -> dict[str, int]:
    """What the counters of ``after`` added since ``before``: two readings
    of one store's ``metrics()``."""
    return {key: value - before[key] for key, value in after.items()}


class TxnStatus(enum.Enum):
    """A live transaction's status (a finished one has none here)."""

    ACTIVE = "active"
    #: committed with ``flush=False``, its flush still to come.
    COMMITTED = "committed"


class StoreBase:
    """One body per shared :class:`~repro.storage.protocol.Store` member."""

    # -- what a topology without shards, followers or workers reports -------------------

    follower_read_count = 0
    promotion_count = 0

    def replication_lag(self) -> int:
        """Worst follower lag in commit-timestamp ticks."""
        return 0

    def read_probe_counts(self) -> dict[str, int]:
        """Per-server snapshot-probe tallies (replicated stores)."""
        return {}

    def commit_vector(self, txn: int) -> "tuple[int, ...] | None":
        """The ``min_vector`` a later ``begin`` must dominate to observe
        ``txn``'s writing commit, asked once it is acknowledged, or None
        when every begin does (no cut here is ever older than an
        acknowledged commit)."""
        return None

    def close(self) -> None:
        """Release what the store owns beyond memory (worker processes)."""

    def worker_pids(self) -> list[int]:
        """The worker processes serving this store (none: it runs here)."""
        return []

    # -- DDL / loading ------------------------------------------------------------------

    def load(self, table: str, rows: Iterable[Sequence]) -> int:
        """Bulk-load through a system transaction so the data is WAL-logged
        (and therefore survives crash recovery): one ``insert_many``,
        which takes the table's X lock once on every shard the rows land
        on and costs one frame per such shard under process execution.

        All or none: any error aborts the transaction, releasing its
        locks, and re-raises.  Because the X lock conflicts with every
        other transaction's intent lock, a load into a table another open
        transaction has locked fails at once with
        :class:`~repro.storage.engine.WouldBlock` rather than waiting."""
        txn = self.begin()
        try:
            count = self.insert_many(txn, table, rows)
            self.commit(txn)
        except BaseException:
            self.abort(txn)
            raise
        return count

    # -- transaction state ----------------------------------------------------------------

    def _context(self, txn: int):
        """The context of an *active* transaction."""
        try:
            ctx = self._contexts[txn]
        except KeyError:
            raise TransactionStateError(f"unknown transaction {txn}") from None
        if ctx.status is not TxnStatus.ACTIVE:
            raise TransactionStateError(
                f"transaction {txn} is {ctx.status.value}, not active"
            )
        return ctx

    def context(self, txn: int):
        """A live transaction's context (its read and write sets); a
        finished transaction is unknown."""
        try:
            return self._contexts[txn]
        except KeyError:
            raise TransactionStateError(f"unknown transaction {txn}") from None

    def isolation_of(self, txn: int):
        """The isolation a live transaction was begun with."""
        return self.context(txn).isolation

    def status(self, txn: int):
        """A live transaction's status: ACTIVE, or COMMITTED while a
        commit taken with ``flush=False`` awaits ``flush_commits``."""
        return self.context(txn).status

    def serialization_doomed(self, txn: int) -> bool:
        """Side-effect-free pre-check: would committing ``txn`` now fail
        SSI validation?  Coordinators use this to keep a doomed member
        from poisoning its commit group after partners committed."""
        return self.serialization_doomed_group((txn,))

    def serialization_doomed_group(self, txns: Sequence[int]) -> bool:
        """Pre-check for an *atomic commit group*: would committing
        ``txns`` in this order fail for any member, counting the edges
        the group's own earlier commits create?  Coordinators must
        consult this before committing the first member — a failure
        midway would widow the already-committed ones.

        No write set reaches the tracker before a commit needs it, so
        the members' are staged first; nothing else changes (an active
        transaction's write set is read by its own validation only)."""
        self._stage_write_sets(txns)
        return self.ssi.group_doomed(txns)

    def pin_snapshot(self, txn: int) -> None:
        """Mark ``txn``'s snapshot as observed: information derived from
        it (an entangled answer) reached the client, so
        ``refresh_snapshot`` must refuse from now on — repeatability
        wins over freshness."""
        self._context(txn).snapshot_pinned = True

    @staticmethod
    def _unobserved_snapshot(ctx) -> bool:
        """A snapshot nothing was derived from: no reads, no writes, no
        delivered entangled answer.  Grounding performed for a query
        that came back unanswered (WAIT) does not count — the
        coordinator discarded its observations."""
        return ctx.isolation.uses_snapshot and not (
            ctx.reads or ctx.written_tables or ctx.snapshot_pinned)

    def park_snapshot(self, txn: int) -> bool:
        """Release an unobserved snapshot transaction's vacuum-horizon
        registration(s) without ending the transaction.

        An idle waiter (an interactive session between statements, or one
        that never executed a statement at all) holds no observations, so
        nothing entitles it to pin the version-chain GC floor — N floors
        at once when its snapshot is a vector.  The owner must call
        :meth:`unpark_snapshot` before the next read or write.  Returns
        True when parked, False otherwise.
        """
        with self.commit_funnel():
            if not self._unobserved_snapshot(self._context(txn)):
                return False
            self._release_horizon(txn)
            return True

    def unpark_snapshot(self, txn: int) -> None:
        """Re-arm a parked transaction: take a fresh snapshot at the
        freshest cut and re-register it in the vacuum horizon.  No-op for
        transactions that are not parked."""
        with self.commit_funnel():
            ctx = self._context(txn)
            if ctx.isolation.uses_snapshot and not self._holds_horizon(txn):
                self._resnapshot(ctx)

    def refresh_snapshot(self, txn: int) -> bool:
        """Re-snapshot a transaction that has not observed any state yet
        (e.g. an interactive session whose pending query was cancelled
        before being answered): its old snapshot is released — unpinning
        the vacuum horizon — and subsequent reads see the latest
        committed state.  Returns True when the snapshot moved."""
        with self.commit_funnel():
            ctx = self._context(txn)
            if not self._unobserved_snapshot(ctx) or not self._resnapshot(ctx):
                return False
            with self._meta_lock:
                self._mvcc_local["snapshot_refreshes"] += 1
            return True

    # -- reads --------------------------------------------------------------------------

    def _reads(self, ctx, on_table=None, grounding: bool = False) -> Reads:
        """The one read observer of a statement (``on_table`` books each
        table it reads) or of a grounding in ``ctx``: SNAPSHOT and
        SERIALIZABLE reads are counted (and, for SERIALIZABLE, recorded
        in the SSI read set), never lock and never raise; 2PL reads take
        the locks each access requires, which may raise
        :class:`~repro.storage.engine.WouldBlock`."""
        snapshot = ctx.isolation.uses_snapshot
        on_path, on_rows = self._read_hooks(snapshot, grounding)
        return Reads(
            ctx.txn_id if snapshot else ctx, on_path, on_rows, on_table,
            defer_ranges=snapshot)

    def _read_hooks(self, snapshot: bool, grounding: bool) -> tuple:
        """``(on_path, on_rows)`` of a read observer — the one place the
        isolation split is decided."""
        if snapshot:
            return self._observe_snapshot_read, self._observe_snapshot_reads
        return self._lock_read_access, self._lock_read_rows

    def grounding_hooks(self, txn: int):
        """``(read_observer, provider_or_None)`` for grounding one of
        ``txn``'s entangled queries — what the shared evaluation round
        (:func:`repro.core.groups.evaluate_round`) threads into
        ``evaluate_batch`` for each query: a fresh observer per
        grounding, and the snapshot provider when ``txn`` reads one."""
        ctx = self._context(txn)
        provider = (
            self.snapshot_provider(txn) if ctx.isolation.uses_snapshot
            else None)
        return self._reads(ctx, grounding=True), provider

    def query(
        self,
        txn: int,
        query: SPJQuery,
        params: Mapping[str, "SQLValue | None"] | None = None,
        bound=None,
    ) -> list[tuple["SQLValue | None", ...]]:
        """Run an SPJ query inside ``txn`` (``params`` and ``bound``: see
        :func:`~repro.storage.query.evaluate`).

        The evaluator reports each access path before using its rows.
        Under 2PL the observer acquires the matching locks, so a conflict
        raises :class:`~repro.storage.engine.WouldBlock` mid-evaluation
        with no unlocked data consumed (reads have no side effects, so
        abandoning the evaluation is safe — already-granted locks are
        simply retained, as 2PL wants).  Snapshot transactions evaluate
        against their snapshot provider: version-chain reads, no locks,
        no waiting.
        """
        ctx = self._context(txn)
        versioned = ctx.isolation.uses_snapshot
        provider = self.snapshot_provider(txn) if versioned else None
        # The formal model works at table granularity: one read per
        # table per statement, booked after its locks are granted.
        observe = self._reads(
            ctx, partial(self._note_read, ctx, versioned=versioned))
        # Plan counters land in a query-local dict and merge afterwards:
        # a coordinator plans with no latch held, so incrementing the
        # shared ``plan_stats`` in place would race concurrent queries.
        plan_counts: dict[str, int] = {}
        try:
            return evaluate(
                query, provider or self.db, params, read_observer=observe,
                hints=PlanHints(
                    ordered_indexes=self.ordered_indexes, stats=plan_counts),
                bound=bound,
            )
        finally:
            if plan_counts:
                self._merge_plan_stats(plan_counts)

    def _merge_plan_stats(self, counts: Mapping[str, int]) -> None:
        with self._meta_lock:
            for key, count in counts.items():
                self.plan_stats[key] = self.plan_stats.get(key, 0) + count

    def read_table(self, txn: int, table: str) -> list[Row]:
        """Full-table read (used by tests and the recovery manager)."""
        ctx = self._context(txn)
        versioned = ctx.isolation.uses_snapshot
        provider = self.snapshot_provider(txn) if versioned else None
        view = (provider or self.db).table(table)
        self._reads(ctx)(ReadAccess.scan(table))
        self._note_read(ctx, table, versioned)
        return list(view.scan())

    def _note_read(self, ctx, table: str, versioned: bool) -> None:
        """Book one table read in the transaction's read set and tell
        the observers which version of the table a snapshot read saw."""
        reads_from = self._reads_from(ctx, table) if versioned else None
        ctx.reads.append(table)
        self._notify(ctx.txn_id, "read", table, reads_from)

    def reads_from(self, txn: int, table: str) -> int | None:
        """Which committed transaction's version of ``table`` a read by
        ``txn`` observes: None for current (2PL) reads, for snapshot
        reads the last committed writer at or below the snapshot
        (0 = the initial bulk-loaded state).  This is the version
        annotation the formal-model recorder attaches to reads.

        The annotation stays the *snapshot* creator even when ``txn``
        already wrote the table itself: the conflict analysis anchors rw
        antidependencies at the snapshot (a writer committing between
        the snapshot and ``txn``'s own commit must get the edge), and
        the executor separately honours read-your-writes by preferring
        the reader's own prior write of the object.
        """
        ctx = self.context(txn)
        return self._reads_from(ctx, table) if ctx.isolation.uses_snapshot else None

    def _reads_from(self, ctx, table: str) -> int:
        position = self._read_position(ctx)
        for committed_at, writer in reversed(self._table_writers.get(table, ())):
            if committed_at <= position:
                return writer
        return 0

    def _trim_writer_logs(self, horizon: int) -> None:
        """Drop the committed-writer log entries no live snapshot needs.

        ``reads_from`` wants the newest entry at-or-below every live
        snapshot, so everything older than the newest-below-horizon
        entry can go — without this the log grows per writing commit
        forever.  Called from each engine's ``vacuum`` under the latch
        that guards ``_table_writers`` there.
        """
        for log in self._table_writers.values():
            cut = 0
            for i, (committed_at, _writer) in enumerate(log):
                if committed_at <= horizon:
                    cut = i
                else:
                    break
            if cut:
                del log[:cut]

    # -- internals ----------------------------------------------------------------------

    def _notify(
        self, txn: int, kind: str, table: str, reads_from: int | None = None
    ) -> None:
        for observer in self.observers:
            observer(txn, kind, table, reads_from)
