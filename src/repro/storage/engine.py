"""The transactional storage engine.

:class:`StorageEngine` is the substrate the entangled middle tier runs on —
the role MySQL/InnoDB plays for the paper's prototype (Section 5.1).  It
combines the catalog, the Strict-2PL lock manager, the write-ahead log,
and multi-version storage into classical ACID transactions:

* ``begin`` / ``commit`` / ``abort`` with undo on abort,
* two read protocols, chosen per transaction at ``begin``:

  - ``TxnIsolation.TWO_PL`` (default, serializable) — reads through the
    SPJ evaluator under fine-grained locks: the evaluator reports every
    access path it takes, and the engine answers index-key probes with
    IS-table + key S, produced rows with IS-table + row S, and only
    genuine full scans with a table S lock;
  - ``TxnIsolation.SNAPSHOT`` — reads are served from the transaction's
    snapshot (the version chains as of its begin-time commit timestamp)
    and take **no locks at all**: readers never block writers and never
    wait.  Writers still take X/IX locks, and a write to a row that
    another transaction updated and committed after the snapshot raises
    :class:`~repro.errors.WriteConflictError` (first-updater-wins), so
    lost updates stay impossible while write skew — the classical SI
    anomaly — becomes observable (and is classified as such by
    :mod:`repro.model.isolation`),

* writes under IX-table + row X locks, plus IX on the index keys a row
  carries (inserts) or gains/vacates (updates, deletes) — the key-lock
  conflict with 2PL keyed readers is the phantom guard, while same-key
  inserters stay compatible (insert intention),
* version chains: every write appends a pending
  :class:`~repro.storage.row.RowVersion`; commit allocates a monotonically
  increasing commit timestamp and stamps the transaction's versions with
  it, abort discards them.  :meth:`vacuum` prunes versions no active
  snapshot can see,
* WAL records for every mutation with the write-ahead rule enforced on
  commit; COMMIT records carry the commit timestamp so recovery rebuilds
  the version chains exactly,
* cooperative blocking: conflicting lock requests raise
  :class:`WouldBlock` so a scheduler can suspend the transaction instead
  of blocking a thread.

Setting ``granularity=LockGranularity.TABLE`` restores the coarse
protocol (every 2PL read takes a table S lock) — kept as the baseline arm
of the locking ablation benchmarks.

Transaction *logic* stays cooperative (the run-based scheduler
interleaves transaction programs; WouldBlock suspends instead of
blocking), but the engine itself is **thread-safe**: every public entry
point runs under one re-entrant engine mutex, so the per-shard worker
threads of :mod:`repro.core.executor` can drive disjoint transactions
concurrently.  One engine is one serial pipeline — under sharding each
shard is its own engine with its own mutex and WAL, which is exactly
what lets commit flushes overlap across shards in wall-clock time.
"""

from __future__ import annotations

import enum
import functools
from itertools import repeat
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.analysis.latch import Latch
from repro.errors import StorageError, WriteConflictError
from repro.storage.catalog import Database
from repro.storage.expressions import Expr
from repro.storage.oracle import TimestampOracle
from repro.storage.locks import (
    LockManager,
    LockMode,
    LockOutcome,
    index_key_resource,
    table_resource,
)
from repro.storage.query import (
    AccessKind,
    ReadAccess,
    Reads,
    equality_bindings,
    index_path_for,
)
from repro.storage.recovery import RecoveryReport, replay_log
from repro.storage.row import Row, RowId, ValueTuple, row_id
from repro.storage.schema import TableSchema
from repro.storage.snapshot import SnapshotDatabase, SnapshotView
from repro.storage.ssi import SSITracker
from repro.storage.store import METRICS, StoreBase, TxnStatus
from repro.storage.wal import CheckpointImage, LogRecordType, WriteAheadLog


class WouldBlock(StorageError):
    """A lock request conflicted; the caller should suspend and retry.

    Attributes:
        resource: the contended resource.
    """

    def __init__(self, txn: int, resource):
        super().__init__(f"transaction {txn} must wait for {resource!r}")
        self.txn = txn
        self.resource = resource


class LockGranularity(enum.Enum):
    """How read locks map to resources.

    FINE — multigranularity row + index-key locking: IS-table plus S on
        the keys/rows actually observed; table S only for full scans.
    TABLE — the coarse protocol (every read takes a table S lock; writers
        lock only rows and primary keys), kept as the baseline arm of the
        locking ablation benchmarks.
    """

    FINE = "fine"
    TABLE = "table"


class TxnIsolation(enum.Enum):
    """Per-transaction isolation protocol (chosen at ``begin``).

    TWO_PL — Strict-2PL serializable: reads take S locks (at the
        configured granularity) and are repeatable; the retained
        serializable mode.
    SNAPSHOT — MVCC snapshot isolation: reads come from the version
        chains as of the transaction's begin timestamp, lock-free;
        writes keep X/IX locks plus first-updater-wins conflict
        detection.  Write skew is admitted (and observable in the
        recorded model schedules).
    SERIALIZABLE — SSI: snapshot reads exactly as SNAPSHOT (still no
        read locks), plus the :mod:`repro.storage.ssi` tracker records
        per-transaction read/write sets and aborts the pivot of any
        would-be dangerous structure at commit
        (:class:`~repro.errors.SerializationFailureError`, retried by
        the middle tier like a write conflict).  Committed histories
        are serializable; write skew is closed.
    """

    TWO_PL = "2pl"
    SNAPSHOT = "snapshot"
    SERIALIZABLE = "serializable"

    @property
    def uses_snapshot(self) -> bool:
        """Reads are served lock-free from the transaction's snapshot."""
        return self in (TxnIsolation.SNAPSHOT, TxnIsolation.SERIALIZABLE)


@dataclass
class _UndoEntry:
    """One logical undo action, applied in reverse order on abort."""

    kind: LogRecordType
    table: str
    rid: int
    before: ValueTuple | None
    after: ValueTuple | None


@dataclass
class TxnContext:
    """Book-keeping for one storage-level transaction."""

    txn_id: int
    status: TxnStatus = TxnStatus.ACTIVE
    isolation: TxnIsolation = TxnIsolation.TWO_PL
    #: snapshot timestamp: the last commit timestamp visible to this txn.
    read_ts: int = 0
    #: commit timestamp, stamped at commit time for writing transactions.
    commit_ts: int | None = None
    #: set once information derived from this snapshot escaped to the
    #: client (an entangled answer was delivered): the snapshot must not
    #: be silently refreshed afterwards, even if ``reads`` is empty.
    snapshot_pinned: bool = False
    #: one entry per row write, in order: what rollback replays in
    #: reverse and what ``prepare`` derives the SSI write set from, both
    #: while the transaction is active — emptied once its outcome is
    #: decided, so a finished context (kept for ``status`` and friends)
    #: holds no row image.
    undo: list[_UndoEntry] = field(default_factory=list)
    reads: list[str] = field(default_factory=list)
    #: the tables it wrote (its row-level write set is ``undo``).
    written_tables: set[str] = field(default_factory=set)
    #: per table, the strongest intent lock (IS or IX) it was granted:
    #: every keyed read wants the table's IS and every row write its IX,
    #: and one request per transaction answers them all.  Emptied
    #: whenever the locks go: at the end, or when read locks are
    #: released early.  Nothing else mirrors the lock manager's table.
    intents: dict[str, LockMode] = field(default_factory=dict)


def _locked(method):
    """Run ``method`` under the engine mutex (re-entrant, so public
    methods freely call each other)."""

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self.mutex:
            return method(self, *args, **kwargs)

    return wrapper


def ssi_read_items(access: ReadAccess) -> list:
    """The SSI item(s) one observed access covers, in the lock manager's
    resource vocabulary (rows, index keys, table scans).  Shared with the
    sharded engine, whose single global tracker uses the same items —
    rid namespacing makes RowId globally unique and index keys/table
    markers name the same logical objects in every shard."""
    if access.kind is AccessKind.TABLE_SCAN:
        return [table_resource(access.table)]
    if access.kind is AccessKind.INDEX_KEY:
        assert access.index is not None and access.key is not None
        return [index_key_resource(access.table, access.index, access.key)]
    if access.kind is AccessKind.INDEX_RANGE:
        # A key *interval*, not a point: the tracker matches it against
        # committed/later writes of any ixkey inside the bounds, which is
        # how serializable range reads see phantom rw-antidependencies.
        # A leaf that spent its LIMIT stopped at ``access.stop``: rows
        # past it could not have changed what it returned, so the
        # interval ends there — inclusively, since a new row under that
        # very key may still sort before the one it stopped at.
        assert access.index is not None
        lo, hi, lo_inc, hi_inc = (
            access.lo, access.hi, access.lo_inc, access.hi_inc)
        if access.stop is not None:
            if access.reverse:
                lo, lo_inc = access.stop, True
            else:
                hi, hi_inc = access.stop, True
        return [("ixrange", access.table, access.index, lo, hi, lo_inc, hi_inc)]
    assert access.rid is not None
    return [RowId(access.table, access.rid)]


def ssi_batch_items(table: str, rids: Sequence[int], path: "ReadAccess | None"):
    """The SSI items of one range leaf's report — its consumed range
    access (None when already recorded), then each row — built as the
    tracker pulls them: it asks for no item of an untracked reader."""
    if path is not None:
        yield from ssi_read_items(path)
    for rid in rids:
        yield RowId(table, rid)


class StorageEngine(StoreBase):
    """Classical ACID transactions over a :class:`Database`.

    The :class:`~repro.storage.protocol.Store` members whose bodies it
    shares with the sharded engine appear here as ``name =
    _locked(StoreBase.name)``: the one body, entered under the engine
    mutex like every other public entry of this class.
    """

    def __init__(
        self,
        db: Database | None = None,
        *,
        locking: bool = True,
        granularity: LockGranularity = LockGranularity.FINE,
        ordered_indexes: bool = True,
    ):
        self.db = db if db is not None else Database()
        #: ``(idx, n_shards)`` when this engine is one shard of an
        #: ensemble (set only by :meth:`shard_member`), else None.
        self._member: "tuple[int, int] | None" = None
        #: the engine mutex: one serial pipeline per engine (= per shard).
        #: ``ordered=True``: shard peers may nest only in creation
        #: (= shard-index) order, which is how the sharded commit visits
        #: them.
        self.mutex = Latch("engine-mutex", ordered=True)
        #: one pipeline, one latch: the shared bodies' small-counter latch.
        self._meta_lock = self.mutex
        self.locks = LockManager()
        self.wal = WriteAheadLog()
        self.locking = locking
        self.granularity = granularity
        #: planner knob: may queries use B+ tree range/ordered access
        #: paths?  Tables maintain the trees either way; False is the
        #: hash-only baseline arm of the range benchmark.
        self.ordered_indexes = ordered_indexes
        #: plan counters the planner accumulates (``plans.*`` in
        #: :meth:`metrics`).
        self.plan_stats = {
            "index_range_scans": 0,
            "seq_scans_avoided": 0,
            "sorts_elided": 0,
        }
        self._contexts: dict[int, TxnContext] = {}
        #: active transactions holding writes — maintained so the
        #: checkpoint quiescence test is O(1) instead of scanning every
        #: context ever created.
        self._active_writers: set[int] = set()
        self._next_txn = 1
        #: observers: callbacks invoked on (txn, "read"/"write", table,
        #: reads_from) — the formal-model recorder and cost model hook in
        #: here.  ``reads_from`` is None for current (2PL) reads; for
        #: snapshot reads it names the committed transaction whose version
        #: of the table the reader observed (0 = the initial load).
        self.observers: list[Callable[[int, str, str, "int | None"], None]] = []
        #: MVCC state: the commit-timestamp oracle (timeline + active
        #: snapshots), the per-table committed-writer log (for reads-from
        #: attribution), and counters.
        self.oracle = TimestampOracle()
        self._table_writers: dict[str, list[tuple[int, int]]] = {}
        self.mvcc_stats = {
            "snapshot_reads": 0,
            "write_conflicts": 0,
            "snapshot_refreshes": 0,
            "supersede_prunes": 0,
        }
        #: one timeline: this store's own tallies are the totals.
        self._mvcc_local = self.mvcc_stats
        #: SSI rw-antidependency tracker (TxnIsolation.SERIALIZABLE).
        #: A shard member downgrades every transaction to untracked
        #: reads: its coordinator runs ONE global tracker instead —
        #: per-shard trackers would miss cross-shard dangerous structures
        #: — and pulls the member's write sets into it with :meth:`prepare`.
        self.ssi = SSITracker()
        #: auto-vacuum cadence: prune version chains every N writing
        #: commits (0 disables; call :meth:`vacuum` manually).
        self.vacuum_interval = 128
        self._commits_since_vacuum = 0
        #: auto-checkpoint cadence: write a CHECKPOINT image every N
        #: writing commits (0 disables; call :meth:`checkpoint` manually).
        self.checkpoint_interval = 0
        self._commits_since_checkpoint = 0
        self.checkpoint_stats = {"taken": 0, "skipped": 0}
        #: commit/abort tallies (``commits`` / ``aborts`` in :meth:`metrics`).
        self.commit_count = 0
        self.abort_count = 0

    @staticmethod
    def shard_member(
        idx: int,
        n_shards: int,
        *,
        locking: bool = True,
        granularity: LockGranularity = LockGranularity.FINE,
        ordered_indexes: bool = True,
        schemas: Iterable[TableSchema] = (),
        next_txn: int | None = None,
    ) -> "StorageEngine":
        """Shard ``idx`` of an ``n_shards`` ensemble — the one place that
        says what being a member means, for the sharded router, a worker
        process, a follower replica and every crash successor alike.

        The database is named ``shard{idx}``.  The SSI tracker is off
        (the coordinator runs the global one).  Local auto-checkpoints
        stay off: a member truncating alone would erase COMMIT evidence
        its peers' torn-commit analysis reads, so ensembles checkpoint
        as a whole.  Every table created here — now from ``schemas``,
        later by :meth:`create_table`, after a :meth:`crash` — assigns
        rids ``idx+1, idx+1+n_shards, ...``, so a rid names its shard and
        ``RowId`` resources stay globally unique without coordination.

        ``next_txn`` keeps transaction ids ahead of a log the caller is
        about to install (a worker rebuilt after a crash).
        """
        engine = StorageEngine(
            Database(f"shard{idx}"), locking=locking,
            granularity=granularity, ordered_indexes=ordered_indexes,
        )
        engine._member = (idx, n_shards)
        for schema in schemas:
            engine.create_table(schema)
        if next_txn is not None:
            engine._next_txn = max(engine._next_txn, next_txn)
        return engine

    # -- DDL / loading (non-transactional, as in the paper's setup phase) ---------

    @_locked
    def create_table(self, schema: TableSchema):
        table = self.db.create_table(schema)
        if self._member is not None:
            idx, n_shards = self._member
            table.set_rid_namespace(idx + 1, n_shards)
        return table

    load = _locked(StoreBase.load)

    # -- transaction lifecycle ------------------------------------------------------

    @_locked
    def begin(
        self,
        isolation: TxnIsolation = TxnIsolation.TWO_PL,
        *,
        txn_id: int | None = None,
        read_ts: int | None = None,
        min_vector: "tuple[int, ...] | None" = None,
    ) -> int:
        """Begin a transaction.

        ``min_vector`` is the store contract's read-your-writes floor; a
        single timeline always begins on its freshest cut, which
        dominates any floor taken from an acknowledged commit.

        ``txn_id`` lets a sharded coordinator impose its globally-unique
        transaction id on the shard-local transaction (so WAL records,
        lock owners and version chains across shards all agree on one
        name); ``read_ts`` imposes the coordinator's vector-snapshot
        component for this shard (captured at the *global* begin, so a
        lazily-begun shard transaction still reads the original cut).
        """
        if txn_id is None:
            txn = self._next_txn
            self._next_txn += 1
        else:
            txn = txn_id
            self._next_txn = max(self._next_txn, txn + 1)
        snapshot_ts = (
            self.oracle.last_commit_ts
            if read_ts is None
            else min(read_ts, self.oracle.last_commit_ts)
        )
        self._contexts[txn] = TxnContext(
            txn, isolation=isolation, read_ts=snapshot_ts
        )
        if isolation.uses_snapshot:
            self.oracle.register_snapshot(txn, snapshot_ts)
        self.ssi.begin(
            txn, snapshot_ts,
            serializable=(
                self._member is None
                and isolation is TxnIsolation.SERIALIZABLE
            ),
        )
        self.wal.append(LogRecordType.BEGIN, txn)
        return txn

    isolation_of = _locked(StoreBase.isolation_of)

    @_locked
    def prepare(self, txn: int) -> list:
        """``txn``'s SSI write set — phase one of two-phase commit when a
        coordinator asks a shard.  Nothing records a write per statement:
        whoever validates — this engine's own tracker at :meth:`commit`
        and in ``_stage_write_sets``, a coordinator's global one in its
        prepare round — asks when it needs to."""
        ctx = self._contexts.get(txn)
        return [] if ctx is None else self._write_set(ctx)

    def _write_set(self, ctx: TxnContext) -> list:
        """The one derivation, from the undo log — the ground truth of
        what the transaction wrote — in the lock manager's vocabulary:
        per row the row itself, the table marker scan readers conflict
        on, and every index key either image carries (a reader who
        probed a vacated or a gained key observed state the write
        changes).  Insertion-ordered and deduplicated; nothing is
        sorted — key tuples may mix NULL with values, which do not
        compare."""
        items: dict = {}
        for entry in ctx.undo:
            name = entry.table
            items[RowId(name, entry.rid)] = None
            items[table_resource(name)] = None
            index_keys = self.db.table(name).schema.index_keys
            for values in (entry.before, entry.after):
                if values is not None:
                    for cols, key in index_keys(values):
                        items[index_key_resource(name, cols, key)] = None
        return list(items)

    def _stage_write_sets(self, txns: Iterable[int]) -> None:
        for txn in txns:
            self.ssi.record_write(txn, self.prepare(txn))

    @_locked
    def commit(
        self,
        txn: int,
        *,
        participants: "tuple[int, ...] | None" = None,
        flush: bool = True,
    ) -> list[int]:
        """Commit: allocate a commit timestamp (writing transactions),
        flush WAL through the COMMIT record, stamp the version chains,
        release locks.

        ``participants`` (sharded coordinator only) stamps the COMMIT
        record with the shard indexes the *global* transaction wrote in,
        so restart recovery can detect torn cross-shard commits.

        ``flush=False`` (sharded coordinator only) skips the physical WAL
        flush: the coordinator performs the in-memory commits of every
        shard inside its global commit funnel, then flushes the written
        shards' WALs *outside* it, so simulated fsync latencies overlap
        across shards instead of serializing every commit globally.  The
        coordinator must not acknowledge the commit before those flushes
        complete (write-ahead rule at the ensemble level).

        SERIALIZABLE transactions are validated first: the SSI tracker
        sweeps the write set against concurrent readers and raises
        :class:`~repro.errors.SerializationFailureError` *before* any
        commit effect (no WAL record, no stamped versions) when the
        commit would complete a dangerous structure — the caller aborts
        and retries exactly as for a write conflict.

        Returns transactions woken by lock release.
        """
        ctx = self._context(txn)
        written = ctx.written_tables
        if written:
            # Unconditionally: a shard member's tracker validates
            # nothing (its coordinator pulls ``prepare`` into the global
            # one), so this is wasted work there — ``benchmarks/e2e``
            # declares the hook exercised on replicated shards, and
            # ROADMAP gate 0(f) is what lets a member skip it.
            self.ssi.record_write(txn, self._write_set(ctx))
        # SSI validation happens before the commit point.  Read-only
        # transactions take the last allocated timestamp as their commit
        # position so concurrency stays decidable for later sweeps.
        last = self.oracle.last_commit_ts
        self.ssi.on_commit(txn, last + 1 if written else last)
        commit_ts: int | None = None
        if written:
            commit_ts = self.oracle.allocate()
        record = self.wal.append(
            LogRecordType.COMMIT, txn, commit_ts=commit_ts,
            participants=participants,
        )
        if flush:
            self.wal.flush(record.lsn)  # write-ahead rule: commit is durable
        if commit_ts is not None:
            ctx.commit_ts = commit_ts
            for name in written:
                self.db.table(name).commit_versions(txn, commit_ts)
                self._table_writers.setdefault(name, []).append(
                    (commit_ts, txn)
                )
        ctx.status = TxnStatus.COMMITTED
        ctx.undo.clear()
        self.oracle.release_snapshot(txn)
        self._active_writers.discard(txn)
        self.commit_count += 1
        self._notify(txn, "commit", "")
        ctx.intents.clear()
        woken = self.locks.release_all(txn) if self.locking else []
        if commit_ts is not None and self.vacuum_interval:
            self._commits_since_vacuum += 1
            if self._commits_since_vacuum >= self.vacuum_interval:
                self.vacuum()
        if commit_ts is not None and self.checkpoint_interval:
            self._commits_since_checkpoint += 1
            if self._commits_since_checkpoint >= self.checkpoint_interval:
                if self.checkpoint() is not None:
                    self._commits_since_checkpoint = 0
        return woken

    def flush_commits(self, txns: Iterable[int]) -> None:
        """Flush the WAL behind commits taken with ``flush=False``.

        The single-engine counterpart of
        :meth:`~repro.storage.sharding.ShardedStorageEngine.flush_commits`:
        one log, so one watermark flush covers every deferred commit in
        the batch.  Deliberately *not* under the engine mutex — the
        whole point of deferring is to fsync outside latches.
        """
        del txns  # one serial log: flushing to the tail covers them all
        self.wal.flush()

    @_locked
    def abort(self, txn: int) -> list[int]:
        """Abort: discard pending versions, undo all physical changes in
        reverse order, release locks.

        Every undo step is WAL-logged as a compensation record (ARIES
        CLR): restart recovery *repeats* history, and without logged
        compensations an aborted insert would be replayed into the pk
        index and collide with a later reuse of the same key (the
        schedule fuzzer finds exactly this).  With them, redo replays the
        rollback too and the ABORT record marks the transaction as fully
        compensated.
        """
        ctx = self._context(txn)
        for name in ctx.written_tables:
            self.db.table(name).abort_versions(txn)
        for entry in reversed(ctx.undo):
            table = self.db.table(entry.table)
            if entry.kind is LogRecordType.INSERT:
                table.delete(entry.rid, versioned=False)
                self.wal.append(
                    LogRecordType.DELETE, txn, entry.table, entry.rid,
                    entry.after, None,
                )
            elif entry.kind is LogRecordType.DELETE:
                assert entry.before is not None
                table.insert_with_rid(entry.rid, entry.before, versioned=False)
                self.wal.append(
                    LogRecordType.INSERT, txn, entry.table, entry.rid,
                    None, entry.before,
                )
            elif entry.kind is LogRecordType.UPDATE:
                assert entry.before is not None
                table.update(entry.rid, entry.before, versioned=False)
                self.wal.append(
                    LogRecordType.UPDATE, txn, entry.table, entry.rid,
                    entry.after, entry.before,
                )
        self.wal.append(LogRecordType.ABORT, txn)
        ctx.status = TxnStatus.ABORTED
        ctx.undo.clear()
        self.oracle.release_snapshot(txn)
        self._active_writers.discard(txn)
        self.abort_count += 1
        self.ssi.on_abort(txn)
        self._notify(txn, "abort", "")
        ctx.intents.clear()
        return self.locks.release_all(txn) if self.locking else []

    status = _locked(StoreBase.status)
    context = _locked(StoreBase.context)

    # -- locking helpers --------------------------------------------------------------

    def _lock(self, txn: int, resource, mode: LockMode) -> None:
        if not self.locking:
            return
        outcome = self.locks.acquire(txn, resource, mode)
        if outcome is LockOutcome.WAIT:
            raise WouldBlock(txn, resource)

    def _lock_intent(self, ctx: TxnContext, table: str, mode: LockMode) -> None:
        """Table ``mode`` (IS or IX), asked of the lock manager only when
        ``ctx.intents`` holds no mode covering it — and recorded only
        after the grant: a WouldBlock must ask again."""
        held = ctx.intents.get(table)
        if held is not mode and held is not LockMode.INTENTION_EXCLUSIVE:
            self._lock(ctx.txn_id, table_resource(table), mode)
            ctx.intents[table] = mode

    @_locked
    def lock_read_access(self, txn: int, access: ReadAccess) -> None:
        """Acquire the locks one observed read access requires (the shard
        contract's member; a router sends each shard the accesses that
        cover it)."""
        self._lock_read_access(self._context(txn), access)

    @_locked
    def lock_read_rows(self, txn: int, table: str, rids: Sequence[int]) -> None:
        """Row S on each of ``rids`` — one leaf's rows on this shard —
        in one lock-manager call (the shard contract's member)."""
        self._lock_read_rows(self._context(txn), table, rids)

    def _lock_read_access(self, ctx: TxnContext, access: ReadAccess) -> None:
        if not self.locking:
            return
        kind = access.kind
        if (
            self.granularity is LockGranularity.TABLE
            or kind is AccessKind.TABLE_SCAN
        ):
            self._lock(ctx.txn_id, table_resource(access.table), LockMode.SHARED)
            return
        if kind is AccessKind.ROW:
            self._lock_read_rows(ctx, access.table, (access.rid,))
            return
        if access.table not in ctx.intents:
            self._lock_intent(ctx, access.table, LockMode.INTENTION_SHARED)
        if kind is AccessKind.INDEX_KEY:
            resources = (
                index_key_resource(access.table, access.index, access.key),)
        else:  # AccessKind.INDEX_RANGE
            # Next-key locking: IS on the table, S on the index keys
            # currently inside the bounds — all of them, or with a
            # ``limit`` those the consumer's prefix sits under — and S
            # on the right fencepost, the first existing key past the
            # upper bound (SUPREMUM when none), unless a forward scan
            # stops short of it.  An inserter IX-locks the successor of
            # each key it creates, so a phantom landing anywhere it
            # could change the answer meets one of these S locks.  Zero
            # table S locks involved.
            resources = [
                index_key_resource(access.table, access.index, key)
                for key in self.db.table(access.table).ordered_keys_in_range(
                    access.index, access.lo, access.hi,
                    lo_inc=access.lo_inc, hi_inc=access.hi_inc,
                    reverse=access.reverse, limit=access.limit,
                )]
        txn = ctx.txn_id
        waiting = self.locks.acquire_many(txn, resources, LockMode.SHARED)
        if waiting is not None:
            raise WouldBlock(txn, waiting)

    def _lock_read_rows(
        self,
        ctx: TxnContext,
        table: str,
        rids: Sequence[int],
        path: "ReadAccess | None" = None,
    ) -> None:
        """Row S on each of ``rids``, in order (``path``, a range leaf's
        access as consumed, was locked before its probe).  Under TABLE
        granularity the table S that access took covers them."""
        if not self.locking or self.granularity is LockGranularity.TABLE:
            return
        if table not in ctx.intents:
            self._lock_intent(ctx, table, LockMode.INTENTION_SHARED)
        txn = ctx.txn_id
        waiting = self.locks.acquire_many(
            txn, map(row_id, zip(repeat(table), rids)), LockMode.SHARED)
        if waiting is not None:
            raise WouldBlock(txn, waiting)

    def _lock_moved_keys(
        self,
        txn: int,
        table,
        table_name: str,
        keys: Iterable[tuple[tuple[str, ...], tuple]],
        vacated,
    ) -> None:
        """Lock the keys an insert, a delete or an update moves a row
        into or out of: IX on each, except a primary key in ``vacated``,
        which takes X.  It is unique, so an inserter of the vacated key
        (IX) must wait for this write's outcome: were it let in, an abort
        could not give the key back to the row.

        Under TABLE granularity only primary keys are locked: readers'
        table S already conflicts with every writer's table IX, but two
        writers meet only on rows, and a vacated primary key is the one
        conflict between them that no row carries."""
        if not self.locking:
            return
        primary = table.schema.primary_key
        fine = self.granularity is LockGranularity.FINE
        for key in keys:
            if key[0] == primary:
                mode = (
                    LockMode.EXCLUSIVE if key in vacated
                    else LockMode.INTENTION_EXCLUSIVE)
            elif fine:
                mode = LockMode.INTENTION_EXCLUSIVE
            else:
                continue
            self._lock(txn, index_key_resource(table_name, *key), mode)

    def _lock_gap_successors(
        self,
        txn: int,
        table,
        table_name: str,
        keys: Iterable[tuple[tuple[str, ...], tuple]],
    ) -> None:
        """IX-lock the *successor* of every key a write is about to create
        — the other half of next-key locking.  A range reader S-locks each
        in-range key plus its right fencepost; an inserter of key ``k``
        IX-locks the first existing key strictly above ``k`` (SUPREMUM
        when none), so a phantom insert into a scanned range conflicts
        with the reader while same-gap inserters (IX/IX) stay compatible.
        Must run *before* the physical write, while ``k`` is still absent.
        """
        if not self.locking or self.granularity is not LockGranularity.FINE:
            return
        for columns, key in keys:
            fence = table.successor_key(columns, key, strict=True)
            self._lock(
                txn,
                index_key_resource(table_name, columns, fence),
                LockMode.INTENTION_EXCLUSIVE,
            )

    @_locked
    def release_read_locks(self, txn: int) -> list[int]:
        """Ablation hook: early release of S locks (non-strict reads)."""
        self._context(txn).intents.clear()
        return self.locks.release_shared(txn)

    # -- MVCC helpers -----------------------------------------------------------------

    @_locked
    def snapshot_provider(self, txn: int) -> SnapshotDatabase:
        """A lock-free table provider bound to ``txn``'s snapshot.

        The entangled coordinator grounds SNAPSHOT transactions' queries
        through this provider instead of the live database, so grounding
        never takes (or waits for) a read lock.
        """
        ctx = self._context(txn)
        return SnapshotDatabase(self.db, txn, ctx.read_ts, mutex=self.mutex)

    @_locked
    def snapshot_view(self, name: str, txn: int, read_ts: int) -> SnapshotView:
        """One table as ``txn`` sees it at ``read_ts`` — the read a
        sharded coordinator serves at this shard's component of a vector
        snapshot.  ``read_ts`` is the caller's, not this engine's idea of
        the transaction: a coordinator's snapshot transaction may never
        have begun here.  The view serializes its own reads on the
        engine mutex."""
        return SnapshotView(self.db.table(name), txn, read_ts, mutex=self.mutex)

    def _observe_snapshot_read(self, txn: int, access: ReadAccess) -> None:
        self.mvcc_stats["snapshot_reads"] += 1
        self._ssi_observe_read(txn, access)

    #: Read observer for snapshot evaluation: count and (for
    #: SERIALIZABLE transactions) record the access in the SSI read set.
    #: Never locks, never raises — a doomed reader fails at its own
    #: commit, not mid-evaluation.
    observe_snapshot_read = _locked(_observe_snapshot_read)

    def _observe_snapshot_reads(
        self, txn: int, table: str, rids: Sequence[int],
        path: "ReadAccess | None",
    ) -> None:
        self.mvcc_stats["snapshot_reads"] += len(rids) + (path is not None)
        self.ssi.record_read(txn, ssi_batch_items(table, rids, path))

    def _ssi_observe_read(self, txn: int, access: ReadAccess) -> None:
        self.ssi.record_read(txn, ssi_read_items(access))

    serialization_doomed = _locked(StoreBase.serialization_doomed)
    serialization_doomed_group = _locked(StoreBase.serialization_doomed_group)

    #: A grounding's read hooks, each entering the mutex itself:
    #: grounding runs on the coordinator's thread, between this engine's
    #: calls.
    _latched_lock_read_access = _locked(_lock_read_access)
    _latched_lock_read_rows = _locked(_lock_read_rows)
    _latched_observe_snapshot_reads = _locked(_observe_snapshot_reads)

    def _read_hooks(self, snapshot: bool, grounding: bool) -> tuple:
        if not grounding:
            return super()._read_hooks(snapshot, grounding)
        if snapshot:
            return (
                self.observe_snapshot_read,
                self._latched_observe_snapshot_reads)
        return self._latched_lock_read_access, self._latched_lock_read_rows

    grounding_hooks = _locked(StoreBase.grounding_hooks)

    reads_from = _locked(StoreBase.reads_from)

    def _read_position(self, ctx: TxnContext) -> int:
        return ctx.read_ts

    park_snapshot = _locked(StoreBase.park_snapshot)
    unpark_snapshot = _locked(StoreBase.unpark_snapshot)
    pin_snapshot = _locked(StoreBase.pin_snapshot)
    refresh_snapshot = _locked(StoreBase.refresh_snapshot)

    def _release_horizon(self, txn: int) -> None:
        self.oracle.release_snapshot(txn)

    def _holds_horizon(self, txn: int) -> bool:
        return self.oracle.snapshot_of(txn) is not None

    def _resnapshot(self, ctx: TxnContext) -> bool:
        fresh = self.oracle.last_commit_ts
        if ctx.read_ts == fresh and self._holds_horizon(ctx.txn_id):
            return False
        ctx.read_ts = fresh
        self.oracle.register_snapshot(ctx.txn_id, fresh)
        self.ssi.refresh(ctx.txn_id, fresh)
        return True

    @_locked
    def oldest_snapshot_ts(self) -> int:
        """The vacuum horizon: no active snapshot reads below this."""
        return self.oracle.oldest_active()

    @_locked
    def vacuum(self, horizon: int | None = None) -> int:
        """Prune version chains up to ``horizon`` (default: the oldest
        active snapshot).  Returns the number of versions removed.
        Passing an explicit horizon newer than an active snapshot forces
        that snapshot's next read to restart (SnapshotTooOldError)."""
        if horizon is None:
            horizon = self.oldest_snapshot_ts()
        removed = 0
        for name in self.db.table_names():
            removed += self.db.table(name).prune_versions(horizon)
        self._trim_writer_logs(horizon)
        self._commits_since_vacuum = 0
        return removed

    @_locked
    def metrics(self) -> dict[str, int]:
        """Every counter, keyed as :data:`~repro.storage.store.METRICS`,
        with the version-chain footprint across all tables as the
        ``versions`` / ``max_chain`` gauges.  One timeline: nothing
        spans shards, no follower answers."""
        total = 0
        longest = 0
        for name in self.db.table_names():
            table_total, table_longest = self.db.table(name).version_stats()
            total += table_total
            longest = max(longest, table_longest)
        return dict(zip(METRICS, (
            *self.locks.stats.values(), *self.mvcc_stats.values(),
            total, longest, *self.checkpoint_stats.values(),
            self.commit_count, self.abort_count, *self.ssi.stats.values(),
            *self.plan_stats.values(), 0, 0,
        )))

    @_locked
    def chain_histograms(self) -> dict[str, dict[int, int]]:
        """Per-table version-chain-length histograms (length -> #rids)."""
        return {
            name: self.db.table(name).chain_histogram()
            for name in self.db.table_names()
        }

    # -- checkpointing ----------------------------------------------------------------

    @_locked
    def checkpoint(self):
        """Write a CHECKPOINT image and truncate the log before it.

        The image captures the committed state (current rows with their
        begin timestamps, per-table rid counters, the commit timeline and
        the transaction-id counter); restart recovery restores it and
        replays only the log suffix, so restart cost stops scaling with
        history length.  Checkpoints are *quiescent*: taken only when no
        active transaction holds writes — an active writer's pre-image
        records would otherwise be truncated away while its COMMIT could
        still land after the checkpoint.  Returns the CHECKPOINT record,
        or None when skipped (an active writer exists).
        """
        if self._active_writers:
            self.checkpoint_stats["skipped"] += 1
            return None
        image = CheckpointImage(
            last_commit_ts=self.oracle.last_commit_ts,
            next_txn=self._next_txn,
            tables={
                name: self.db.table(name).checkpoint_image()
                for name in self.db.table_names()
            },
        )
        record = self.wal.append(LogRecordType.CHECKPOINT, 0, image=image)
        self.wal.flush(record.lsn)
        self.wal.truncate_before(record.lsn)
        self.checkpoint_stats["taken"] += 1
        return record

    # -- sharding protocol --------------------------------------------------------------

    #: A plain engine is its own single shard; the sharded engine
    #: overrides all of these.  Keeping them on the base protocol lets
    #: the middle tier report per-shard counters uniformly.

    @property
    def n_shards(self) -> int:
        return 1

    def commit_funnel(self):
        """The engine's commit critical section (the sharded engine
        overrides this with its global two-phase funnel): coordinators
        hold it across the validate+commit sequence of an atomic commit
        group.  For a single engine it is simply the engine mutex."""
        return self.mutex

    def wals(self) -> list[WriteAheadLog]:
        """Every WAL backing this engine (one per shard)."""
        return [self.wal]

    def durably_committed_txns(self) -> set[int]:
        """Transactions whose commit survived to durable storage."""
        return self.wal.committed_txns(durable_only=True)

    @_locked
    def written_shards(self, txn: int) -> list[int]:
        """Shard indexes ``txn`` wrote to (commit-flush cost accounting)."""
        ctx = self._contexts.get(txn)
        return [0] if ctx is not None and ctx.written_tables else []

    def _check_write_conflict(self, ctx: TxnContext, table, rid: int) -> None:
        """First-updater-wins: a SNAPSHOT writer loses against any version
        of the row committed after its snapshot (the first updater already
        won).  Called with the row X lock held, so the chain is stable."""
        if not ctx.isolation.uses_snapshot:
            return
        for version in table.versions_of(rid):
            begin = version.begin_ts or 0
            end = version.end_ts or 0
            if begin > ctx.read_ts or end > ctx.read_ts:
                self.mvcc_stats["write_conflicts"] += 1
                raise WriteConflictError(
                    f"transaction {ctx.txn_id} (snapshot ts {ctx.read_ts}) "
                    f"lost a write-write conflict on {table.name}#{rid}: "
                    f"the row changed at commit ts {max(begin, end)}"
                )

    # -- reads ------------------------------------------------------------------------

    query = _locked(StoreBase.query)

    read_table = _locked(StoreBase.read_table)

    # -- writes -----------------------------------------------------------------------

    @_locked
    def insert(
        self,
        txn: int,
        table_name: str,
        values: Sequence[Any],
    ) -> Row:
        ctx = self._context(txn)
        # IX on the table (conflicts with full scans but not with other
        # writers), IX on every index key the new row carries (conflicts
        # with keyed readers — the fine-grained phantom guard — but not
        # with other inserters), then X on the new row.  Keys are locked
        # *before* the physical insert so a WouldBlock leaves the table
        # untouched.
        self._lock_intent(ctx, table_name, LockMode.INTENTION_EXCLUSIVE)
        table = self.db.table(table_name)
        canonical = table.schema.validate_row(values)
        keys = table.schema.index_keys(canonical)
        self._lock_moved_keys(txn, table, table_name, keys, ())
        self._lock_gap_successors(txn, table, table_name, keys)
        row = table.insert(canonical, validated=True, writer=txn)
        self._lock(txn, RowId(table_name, row.rid), LockMode.EXCLUSIVE)
        self.wal.append(
            LogRecordType.INSERT, txn, table_name, row.rid, None, row.values
        )
        ctx.undo.append(_UndoEntry(LogRecordType.INSERT, table_name, row.rid, None, row.values))
        ctx.written_tables.add(table_name)
        self._active_writers.add(txn)
        self._notify(txn, "write", table_name)
        return row

    @_locked
    def insert_many(
        self,
        txn: int,
        table_name: str,
        rows: Iterable[Sequence[Any]],
    ) -> int:
        """A bulk load's rows (see :meth:`~repro.storage.protocol.
        ShardEngine.insert_many`): every row is validated before the
        table's X lock is asked for, so a malformed load writes and
        locks nothing."""
        ctx = self._context(txn)
        table = self.db.table(table_name)
        validate = table.schema.validate_row
        rows = [validate(values) for values in rows]
        if not rows:
            return 0
        self._lock(txn, table_resource(table_name), LockMode.EXCLUSIVE)
        ctx.written_tables.add(table_name)
        self._active_writers.add(txn)
        for canonical in rows:
            row = table.insert(canonical, validated=True, writer=txn)
            self.wal.append(
                LogRecordType.INSERT, txn, table_name, row.rid, None, row.values
            )
            ctx.undo.append(_UndoEntry(
                LogRecordType.INSERT, table_name, row.rid, None, row.values))
            self._notify(txn, "write", table_name)
        return len(rows)

    @_locked
    def update(
        self,
        txn: int,
        table_name: str,
        rid: int,
        values: Sequence[Any],
    ) -> tuple[Row, Row]:
        ctx = self._context(txn)
        self._lock_intent(ctx, table_name, LockMode.INTENTION_EXCLUSIVE)
        self._lock(txn, RowId(table_name, rid), LockMode.EXCLUSIVE)
        table = self.db.table(table_name)
        self._check_write_conflict(ctx, table, rid)
        if self.locking:
            # Keys the row *gains or vacates* need IX: moving a row into
            # an index key is an insert from the perspective of a reader
            # holding that key's S lock, and moving it *out* changes what
            # a (possibly negative) probe of the old key observes — both
            # membership changes must conflict with key-S readers.  Keys
            # the row keeps are covered by the row X lock (any reader who
            # saw the row under that key holds row S).
            canonical = table.schema.validate_row(values)
            index_keys = table.schema.index_keys
            old_keys = set(index_keys(table.get(rid).values))
            new_keys = set(index_keys(canonical))
            # Deterministic acquisition order; key=repr because key tuples
            # may mix NULL with values, which don't compare directly.
            self._lock_moved_keys(
                txn, table, table_name, sorted(old_keys ^ new_keys, key=repr),
                old_keys - new_keys,
            )
            # Keys the row *gains* are inserts from a range reader's
            # perspective: gap-lock their successors too.
            self._lock_gap_successors(
                txn, table, table_name, sorted(new_keys - old_keys, key=repr)
            )
            old, new = table.update(
                rid, canonical, validated=True, writer=txn,
                rekeyed=old_keys != new_keys,
                prune_horizon=self.oracle.oldest_active(),
            )
        else:
            old, new = table.update(
                rid, values, writer=txn,
                prune_horizon=self.oracle.oldest_active(),
            )
        self.mvcc_stats["supersede_prunes"] += table.take_supersede_pruned()
        self.wal.append(
            LogRecordType.UPDATE, txn, table_name, rid, old.values, new.values
        )
        ctx.undo.append(_UndoEntry(LogRecordType.UPDATE, table_name, rid, old.values, new.values))
        ctx.written_tables.add(table_name)
        self._active_writers.add(txn)
        self._notify(txn, "write", table_name)
        return old, new

    @_locked
    def delete(self, txn: int, table_name: str, rid: int) -> Row:
        ctx = self._context(txn)
        self._lock_intent(ctx, table_name, LockMode.INTENTION_EXCLUSIVE)
        self._lock(txn, RowId(table_name, rid), LockMode.EXCLUSIVE)
        table = self.db.table(table_name)
        self._check_write_conflict(ctx, table, rid)
        if self.locking:
            # The delete vacates every key the row carries: a reader
            # probing one of them (perhaps getting a miss) must not see
            # the uncommitted removal, so each key takes IX first.  The
            # primary key takes X (see _lock_moved_keys).
            keys = table.schema.index_keys(table.get(rid).values)
            self._lock_moved_keys(txn, table, table_name, keys, keys)
        old = table.delete(
            rid, writer=txn, prune_horizon=self.oracle.oldest_active()
        )
        self.mvcc_stats["supersede_prunes"] += table.take_supersede_pruned()
        self.wal.append(
            LogRecordType.DELETE, txn, table_name, rid, old.values, None
        )
        ctx.undo.append(_UndoEntry(LogRecordType.DELETE, table_name, rid, old.values, None))
        ctx.written_tables.add(table_name)
        self._active_writers.add(txn)
        self._notify(txn, "write", table_name)
        return old

    @_locked
    def update_where(
        self,
        txn: int,
        table_name: str,
        predicate: Callable[[Row], bool],
        new_values: Callable[[Row], Sequence[Any]],
        where: "Expr | None" = None,
    ) -> list[tuple[Row, Row]]:
        """Update all rows matching ``predicate``; returns the
        ``(old, new)`` row pairs it changed.

        One call is the whole statement — candidate probe and locks,
        first-updater-wins check, update — so a shard router can ship it
        to a shard as one frame.  ``where`` optionally carries the
        compiled WHERE expression the ``predicate`` was built from; when
        its equality conjuncts cover an index, candidate rows come from
        that index under IX-table + key X locks instead of a table X lock.
        """
        return [
            self.update(txn, table_name, row.rid, list(new_values(row)))
            for row in self._write_candidates(txn, table_name, where)
            if predicate(row)
        ]

    @_locked
    def delete_where(
        self,
        txn: int,
        table_name: str,
        predicate: Callable[[Row], bool],
        where: "Expr | None" = None,
    ) -> list[Row]:
        """Delete all rows matching ``predicate``; returns the rows
        removed.  ``where`` enables the same index pushdown as
        :meth:`update_where`."""
        return [
            self.delete(txn, table_name, row.rid)
            for row in self._write_candidates(txn, table_name, where)
            if predicate(row)
        ]

    def _write_candidates(
        self, txn: int, table_name: str, where: "Expr | None"
    ) -> list[Row]:
        """Candidate rows for a predicate write, with the right locks.

        When the predicate pins an index key, take IX on the table, X on
        that key — the key X keeps the candidate set stable (no insert or
        update can add a matching row while we hold it) and conflicts
        with keyed readers — and X on every candidate row *before* the
        caller evaluates its predicate, so the match decision never reads
        another transaction's uncommitted values.  Otherwise fall back to
        the table X lock.

        SNAPSHOT transactions choose their targets on the *snapshot*
        instead (SI semantics): the rows the snapshot saw, located
        through the snapshot view.  A target a later transaction already
        changed or deleted is not silently skipped — it reaches
        ``update``/``delete``, whose first-updater-wins check raises
        :class:`WriteConflictError`.  No key locks are needed: rows
        inserted after the snapshot are rightly invisible to the write,
        and the candidate set cannot shift mid-statement in the
        cooperative single-threaded engine.

        Nothing is written here: a router whose statement spans shards
        calls this on each before any of them writes.
        """
        table = self.db.table(table_name)
        ctx = self._context(txn)
        if ctx.isolation.uses_snapshot:
            self._lock_intent(ctx, table_name, LockMode.INTENTION_EXCLUSIVE)
            view = self.snapshot_provider(txn).table(table_name)
            bindings = (
                equality_bindings(where, table) if where is not None else {}
            )
            path = index_path_for(table, bindings)
            if path is not None:
                cols, key, is_pk = path
                # The probe (even a miss) and the produced rows are
                # snapshot reads that pick the write's targets: they
                # enter the SSI read set like any other access path.
                self._ssi_observe_read(
                    txn,
                    ReadAccess.index_key(table_name, cols, key),
                )
                if is_pk:
                    row = view.lookup_pk(key)
                    rows = [row] if row is not None else []
                else:
                    rows = view.lookup_index(cols, key)
            else:
                self._ssi_observe_read(txn, ReadAccess.scan(table_name))
                rows = list(view.scan())
            for row in rows:
                self._ssi_observe_read(txn, ReadAccess.row(table_name, row.rid))
            return self._lock_candidate_rows(txn, table_name, rows)
        if self.locking and self.granularity is LockGranularity.FINE and where is not None:
            path = index_path_for(table, equality_bindings(where, table))
            if path is not None:
                cols, key, is_pk = path
                self._lock_intent(
                    ctx, table_name, LockMode.INTENTION_EXCLUSIVE)
                # X, not an inserter's IX: it also excludes concurrent
                # inserters of the key, so the candidate set stays stable.
                self._lock(
                    txn, index_key_resource(table_name, cols, key),
                    LockMode.EXCLUSIVE)
                if is_pk:
                    row = table.lookup_pk(key)
                    rows = [row] if row is not None else []
                else:
                    rows = list(table.lookup_index(cols, key))
                return self._lock_candidate_rows(txn, table_name, rows)
        self._lock(txn, table_resource(table_name), LockMode.EXCLUSIVE)
        return list(table.scan())

    #: the statement's lock-and-probe half alone, as a shard verb.
    lock_write_candidates = _locked(_write_candidates)

    def _lock_candidate_rows(
        self, txn: int, table_name: str, rows: list[Row]
    ) -> list[Row]:
        """X-lock every row an index probe produced for a predicate write
        (like InnoDB, non-matching candidates stay locked too — the price
        of deciding the predicate on committed values only)."""
        for row in rows:
            self._lock(txn, RowId(table_name, row.rid), LockMode.EXCLUSIVE)
        return rows

    # -- crash simulation ---------------------------------------------------------------

    def crash(self) -> "StorageEngine":
        """Simulate a crash: volatile state (tables, locks, contexts) is
        lost; the flushed WAL prefix survives.  Returns a fresh engine on
        an empty database with the surviving log, ready for
        :meth:`recover` — a shard member's successor is a member of the
        same ensemble.
        """
        self.wal.truncate_to_flushed()
        settings = {
            "locking": self.locking,
            "granularity": self.granularity,
            "ordered_indexes": self.ordered_indexes,
        }
        if self._member is None:
            survivor = StorageEngine(Database(self.db.name), **settings)
        else:
            survivor = StorageEngine.shard_member(*self._member, **settings)
        for schema in self.db.schemas():
            survivor.create_table(schema)
        survivor.wal = self.wal
        survivor._next_txn = self._next_txn
        survivor.vacuum_interval = self.vacuum_interval
        survivor.checkpoint_interval = self.checkpoint_interval
        return survivor

    @_locked
    def recover(self, demote: Iterable[int] = frozenset()) -> RecoveryReport:
        """Restart recovery of this engine's own durable log (see
        :mod:`repro.storage.recovery`); committed transactions in
        ``demote`` are rolled back with the losers."""
        return replay_log(self, set(demote))
