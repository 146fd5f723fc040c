"""The store-contract members both storage engines share, written once.

Most of :class:`~repro.storage.protocol.Store` means the same thing over
one timeline as over N — which isolation reads through a snapshot
provider and which through read locks, what a read reports to the
observers, which committed writer a snapshot read saw, what a bulk load
is.  :class:`StoreBase` holds those bodies; :class:`~repro.storage.
engine.StorageEngine` and :class:`~repro.storage.sharding.
ShardedStorageEngine` (hence the process and replicated engines) supply
the primitives they are written against:

* ``_context(txn)`` — the context of an *active* transaction;
* ``snapshot_provider(txn)`` — the provider serving its snapshot;
* ``_lock_read_access(ctx, access)`` — observe one 2PL read: take the
  locks the access requires (may raise ``WouldBlock``);
* ``_observe_snapshot_read(txn, access)`` — observe one snapshot read:
  count it, feed the SSI read set;
* ``_observe_snapshot_reads(txn, accesses)`` — the same for a range
  leaf's batch, in one latch round;
* ``_read_position(ctx)`` — the snapshot's place on the timeline
  ``_table_writers`` is kept on (a commit timestamp; the global commit
  sequence when sharded);
* ``_merge_plan_stats(counts)`` — add a query's planner counters;
* ``_catalogs()`` — the databases holding the physical tables;
* ``_meta_lock`` — the latch the small counters are updated under.

Nothing here takes the single engine's mutex — that class re-declares
each public member as ``_locked(StoreBase.member)`` — and nothing here
assigns an attribute an engine guards with ``_GUARDED_FIELDS``: those
writes stay in the engines, where ``latchlint`` LL005 sees their latch.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

from repro.errors import TransactionStateError
from repro.storage.planner import PlanHints
from repro.storage.query import AccessKind, ReadAccess, SPJQuery, evaluate
from repro.storage.row import Row
from repro.storage.types import SQLValue


_RANGE = AccessKind.INDEX_RANGE


class _StatementReads:
    """The read observer of one ``query()``: hands each access to the
    isolation's observer (:meth:`StoreBase._read_path`) and books the
    statement's first access of a table as its read of that table."""

    __slots__ = ("_store", "_ctx", "_observe", "_versioned", "_tables")

    def __init__(self, store: "StoreBase", ctx, observe, versioned: bool):
        self._store = store
        self._ctx = ctx
        self._observe = observe
        self._versioned = versioned
        self._tables: set[str] = set()

    def __call__(self, access: ReadAccess) -> None:
        # A snapshot read records its range once the leaf knows how much
        # of it was consumed (``many``); 2PL must lock it before the probe.
        if access.kind is not _RANGE or not self._versioned:
            self._observe(access)
        # The formal model works at table granularity: record one read
        # per table per statement, after its locks are granted.
        if access.table not in self._tables:
            self._tables.add(access.table)
            self._store._note_read(self._ctx, access.table, self._versioned)

    def many(
        self, accesses: list[ReadAccess], path: "ReadAccess | None"
    ) -> None:
        """One range leaf's rows, after its fetch (``path`` was observed
        before it, so the table is booked and, under 2PL, locked)."""
        if not self._versioned:
            for access in accesses:
                self._observe(access)
            return
        if path is not None:
            accesses = [path, *accesses]
        if accesses:
            self._store._observe_snapshot_reads(self._ctx.txn_id, accesses)


class StoreBase:
    """One body per shared :class:`~repro.storage.protocol.Store` member."""

    # -- what a topology without shards, followers or workers reports -------------------

    cross_shard_commit_count = 0
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
        ``txn``'s commit, or None when every begin does (no cut here is
        ever older than an acknowledged commit)."""
        return None

    def close(self) -> None:
        """Release what the store owns beyond memory (worker processes)."""

    # -- DDL / loading ------------------------------------------------------------------

    def load(self, table: str, rows: Iterable[Sequence]) -> int:
        """Bulk-load through a system transaction so the data is WAL-logged
        (and therefore survives crash recovery)."""
        txn = self.begin()
        count = 0
        for values in rows:
            self.insert(txn, table, values)
            count += 1
        self.commit(txn)
        return count

    # -- transaction state (any status) -------------------------------------------------

    def context(self, txn: int):
        """Expose read/write sets for the model recorder (any status)."""
        try:
            return self._contexts[txn]
        except KeyError:
            raise TransactionStateError(f"unknown transaction {txn}") from None

    def isolation_of(self, txn: int):
        """The isolation a transaction was begun with (any status)."""
        return self.context(txn).isolation

    def status(self, txn: int):
        return self.context(txn).status

    def serialization_doomed(self, txn: int) -> bool:
        """Side-effect-free pre-check: would committing ``txn`` now fail
        SSI validation?  Coordinators use this to keep a doomed member
        from poisoning its commit group after partners committed."""
        return self.ssi.serialization_doomed(txn)

    def serialization_doomed_group(self, txns: Sequence[int]) -> bool:
        """Side-effect-free pre-check for an *atomic commit group*: would
        committing ``txns`` in this order fail for any member, counting
        the edges the group's own earlier commits create?  Coordinators
        must consult this before committing the first member — a failure
        midway would widow the already-committed ones."""
        return self.ssi.group_doomed(txns)

    def pin_snapshot(self, txn: int) -> None:
        """Mark ``txn``'s snapshot as observed: information derived from
        it (an entangled answer) reached the client, so
        ``refresh_snapshot`` must refuse from now on — repeatability
        wins over freshness."""
        self._context(txn).snapshot_pinned = True

    # -- reads --------------------------------------------------------------------------

    def _read_path(self, ctx) -> tuple[Callable[[ReadAccess], None], object]:
        """``(observe one access, provider or None)`` — the one place the
        isolation split is decided: SNAPSHOT/SERIALIZABLE transactions
        read their snapshot provider under a counting (and, for
        SERIALIZABLE, read-set-recording) observer that never locks and
        never raises; 2PL transactions read the live database under the
        lock-acquiring observer, which may raise
        :class:`~repro.storage.engine.WouldBlock`."""
        if ctx.isolation.uses_snapshot:
            return (
                partial(self._observe_snapshot_read, ctx.txn_id),
                self.snapshot_provider(ctx.txn_id),
            )
        return partial(self._lock_read_access, ctx), None

    def grounding_hooks(self, txn: int):
        """``(read_observer, provider_or_None)`` for grounding ``txn``'s
        entangled queries — what the shared evaluation round
        (:func:`repro.core.groups.evaluate_round`) threads into
        ``evaluate_batch`` for every owner."""
        return self._read_path(self._context(txn))

    def query(
        self,
        txn: int,
        query: SPJQuery,
        params: Mapping[str, "SQLValue | None"] | None = None,
    ) -> list[tuple["SQLValue | None", ...]]:
        """Run an SPJ query inside ``txn``.

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
        observe_access, provider = self._read_path(ctx)
        observe = _StatementReads(
            self, ctx, observe_access, provider is not None)
        # Plan counters land in a query-local dict and merge afterwards:
        # a coordinator plans with no latch held, so incrementing the
        # shared ``plan_stats`` in place would race concurrent queries.
        plan_counts: dict[str, int] = {}
        try:
            return evaluate(
                query, provider or self.db, params, read_observer=observe,
                hints=PlanHints(
                    ordered_indexes=self.ordered_indexes, stats=plan_counts),
            )
        finally:
            if plan_counts:
                self._merge_plan_stats(plan_counts)

    def read_table(self, txn: int, table: str) -> list[Row]:
        """Full-table read (used by tests and the recovery manager)."""
        ctx = self._context(txn)
        observe_access, provider = self._read_path(ctx)
        view = (provider or self.db).table(table)
        observe_access(ReadAccess.scan(table))
        self._note_read(ctx, table, provider is not None)
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

    # -- index-miss accounting ----------------------------------------------------------

    def fallback_scan_counts(self) -> dict[str, int]:
        """Per-table full-scan counters (``Table.fallback_scans``),
        surfaced in run reports so workloads can assert an indexed range
        query never degenerated into a scan."""
        counts = dict.fromkeys(self.db.table_names(), 0)
        for catalog in self._catalogs():
            for name in counts:
                counts[name] += catalog.table(name).fallback_scans
        return counts

    def take_fallback_scans(self) -> int:
        """Full scans counted since the previous call: the statement
        executor asks once after each SELECT, so one catalog walk per
        statement attributes them."""
        total = sum(self.fallback_scan_counts().values())
        with self._meta_lock:
            # Two workers may have summed in either order: never hand
            # out a scan twice, never a negative count.
            taken = max(0, total - self._fallback_scans_taken)
            self._fallback_scans_taken += taken
        return taken

    # -- internals ----------------------------------------------------------------------

    def _notify(
        self, txn: int, kind: str, table: str, reads_from: int | None = None
    ) -> None:
        for observer in self.observers:
            observer(txn, kind, table, reads_from)
