"""The sharded storage engine: N shard-local engines behind one router.

This is the scaling step the ROADMAP's sharding item asks for: version
chains + commit timestamps are the natural unit of replication, so each
**shard** here is a complete :class:`~repro.storage.engine.StorageEngine`
— its own lock manager, version chains, write-ahead log, and
:class:`~repro.storage.oracle.TimestampOracle` — holding the subset of
every table's rows whose *routing key* hashes to it.  Shards commit
independently; coordination happens only when a transaction actually
crosses shard boundaries.

Routing
-------

A row's routing key is its primary key when the table has one (so a pk
probe is answered by exactly one shard, and pk uniqueness stays a
shard-local check), else its first secondary-index key, else the whole
value tuple.  The hash is ``zlib.crc32`` over a canonicalized repr —
stable across processes and insensitive to int/float spelling of the
same number.  Rows of pk-less tables never migrate (reads of those
tables consult every shard anyway); a pk *update* that re-routes the key
executes as delete-at-source + insert-at-destination inside the same
transaction.

Row ids are namespaced — shard *i* of *N* assigns rids ``i+1, i+1+N,
...`` — so a rid names its shard in O(1) and ``RowId`` lock/SSI
resources stay globally unique with zero coordination.

Vector snapshots
----------------

Each shard's oracle advances independently, so "the database at time t"
is not a single number.  A ``SNAPSHOT``/``SERIALIZABLE`` transaction
therefore captures a **vector** of begin timestamps — one per shard —
at ``begin``, the classical vector-clock consistent cut (cf. PAPERS.md,
"Spacetime-Entangled Networks (I)": observers of independently-stepping
timelines need one coordinate per timeline).  Every shard-local read is
served at that shard's vector component, so cross-shard reads observe a
consistent cut: the engine is single-threaded, hence the vector equals
the global prefix of commits at begin-time, and observational
equivalence with the single-shard engine holds (property-tested).

Shard-local transactions are begun lazily — a single-shard transaction
touches exactly its home shard and pays nothing for the others — but the
vector (and the vacuum-horizon registration in every shard's oracle) is
captured eagerly, so a lazily-begun shard transaction still reads the
original cut.

Cross-shard commit
------------------

Commit is an ordered two-phase prepare.  Phase 1 pulls each written
shard's write set (``prepare``, skipped while no serializable
transaction is tracked) and validates the commit with **no side
effects**: the single *global* SSI tracker (below) checks the would-be
dangerous structures exactly as the single-shard engine does (including
group validation for entanglement groups, which runs the same pull for
every member first).  Phase 2 commits the shard-local transactions in
shard order, each allocating its shard's next commit timestamp and
flushing its shard's WAL.  The engine is single-threaded, so nothing
interleaves between the phases; a crash between shard flushes is still
possible in principle, so sharded restart recovery demotes *torn*
transactions (COMMIT durable in some written shard but not all) before
replaying each shard's WAL independently.

Global SSI
----------

rw-antidependencies do not respect shard boundaries (T1 reads x on shard
A and writes y on shard B; T2 the converse — each shard alone sees only
half the dangerous structure).  The sharded engine therefore runs ONE
:class:`~repro.storage.ssi.SSITracker` over a **global commit sequence**
(one tick per writing commit, any shard); per-shard trackers are
off (:meth:`StorageEngine.shard_member`).  Items reuse the lock-manager
vocabulary unchanged — rid namespacing makes ``RowId`` globally unique,
and index-key/table items name the same logical objects in every shard.
"""

from __future__ import annotations

import heapq
import itertools
import zlib
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.analysis.latch import Latch, allow_blocking
from repro.errors import TransactionStateError, UnknownTableError
from repro.storage.bptree import value_sort_key
from repro.storage.catalog import _sort_key
from repro.storage.engine import (
    LockGranularity,
    StorageEngine,
    TxnIsolation,
    TxnStatus,
    ssi_batch_items,
    ssi_read_items,
)
from repro.storage.expressions import Expr
from repro.storage.query import (
    ReadAccess,
    AccessKind,
    equality_bindings,
    index_path_for,
)
from repro.storage.protocol import ShardEngine, TableView
from repro.storage.recovery import RecoveryReport
from repro.storage.row import Row, ValueTuple
from repro.storage.schema import TableSchema
from repro.storage.ssi import SSITracker
from repro.storage.store import ENSEMBLE_METRICS, METRICS, StoreBase
from repro.storage.wal import LogRecordType, WriteAheadLog


# -- routing ------------------------------------------------------------------------


def _canonical_key(key: Sequence) -> str:
    """A stable, type-insensitive spelling of a routing key.

    Numeric values that compare equal (``1`` vs ``1.0``) must route to
    the same shard — the hash indexes treat them as the same key — and
    the result must not depend on the process hash seed (ints/strs hash
    differently across runs; crc32 of this repr does not).
    """
    parts = []
    for value in key:
        if isinstance(value, bool):
            parts.append(f"b:{int(value)}")
        elif isinstance(value, (int, float)):
            parts.append(f"n:{float(value)!r}")
        elif value is None:
            parts.append("null")
        else:
            parts.append(f"{type(value).__name__}:{value!r}")
    return "|".join(parts)


def shard_for_key(key: Sequence, n_shards: int, table_name: str = "") -> int:
    """The home shard of a routing key (deterministic, process-stable).

    Deliberately *not* salted by the table name: equal key values
    co-locate across tables (an account row and its journal entries land
    on one shard — classical co-partitioning by join key), which is what
    lets the router pin a whole single-key transaction to its home
    shard.  ``table_name`` is accepted for future partition-scheme
    overrides but unused by the default scheme.
    """
    del table_name
    return zlib.crc32(_canonical_key(key).encode()) % n_shards


# -- union views over the shards ----------------------------------------------------


def _merge_key_order(
    schema: TableSchema,
    column_names: Sequence[str],
    fragments: list[list[Row]],
    reverse: bool,
    limit: "int | None",
) -> list[Row]:
    """Re-establish global (index key, rid) order over per-shard ordered
    fragments — the sharded half of ``Table.range_scan``'s contract.  A
    merge, not a sort: the fragments arrive in order, and with a
    ``limit`` only the rows that reach the head are ever keyed."""
    positions = [schema.column_index(c) for c in column_names]
    merged = heapq.merge(
        *fragments,
        key=lambda r: ([value_sort_key(r.values[p]) for p in positions], r.rid),
        reverse=reverse,
    )
    return list(itertools.islice(merged, limit))


class ShardedTableView:
    """The union of one table's shard-local parts — live, or at a vector
    of shard timestamps.

    A :class:`~repro.storage.protocol.TableView`: pk probes route to
    the key's home shard, index probes and scans union every shard, all
    in deterministic rid order.

    One class serves both providers; what differs is how a shard's part
    is obtained.  Live (``vector is None``): the shard's table, read
    under that shard's engine mutex (one shard at a time, never nested)
    so a concurrent worker-thread write to another row of the table
    cannot upset the traversal.  Snapshot: the engine's versioned-read
    chokepoint ``_snapshot_view(i, name, txn, vector[i])`` — shard *i*'s
    own ``snapshot_view`` unless replication routes the read to a
    follower — whose views serialize their own reads.
    """

    def __init__(
        self, engine: "ShardedStorageEngine", name: str,
        txn: "int | None" = None, vector: "Sequence[int] | None" = None,
    ):
        self._engine = engine
        self._name = name
        self._txn = txn
        self._vector = None if vector is None else tuple(vector)
        #: every shard declares the same schema; shard 0's copy speaks.
        self.schema = engine.shards[0].db.table(name).schema

    @property
    def name(self) -> str:
        return self._name

    def _part(self, shard_idx: int, read: Callable[[Any], Any]) -> Any:
        """``read`` applied to one shard's part of the table (``read``
        must materialize its result before returning)."""
        if self._vector is None:
            shard = self._engine.shards[shard_idx]
            with shard.mutex:
                return read(shard.db.table(self._name))
        return read(self._engine._snapshot_view(
            shard_idx, self._name, self._txn, self._vector[shard_idx]))

    def _union(self, read: Callable[[Any], Iterable[Row]]) -> list[Row]:
        rows: list[Row] = []
        for shard_idx in range(len(self._engine.shards)):
            rows.extend(self._part(shard_idx, read))
        return rows

    def __len__(self) -> int:
        return sum(
            self._part(i, len) for i in range(len(self._engine.shards)))

    def row_estimate(self) -> int:
        return sum(
            shard.db.table(self._name).row_estimate()
            for shard in self._engine.shards)

    def scan(self) -> Iterator[Row]:
        rows = self._union(lambda part: list(part.scan()))
        return iter(sorted(rows, key=lambda r: r.rid))

    def lookup_pk(self, key: tuple) -> Row | None:
        # A row carrying pk ``key`` can only ever have lived in the key's
        # home shard (inserts route there; re-routing pk updates migrate
        # the row), so one shard's probe answers exactly.
        home = self._engine.route_key(self._name, key)
        return self._part(home, lambda part: part.lookup_pk(key))

    def lookup_index(self, column_names: Sequence[str], key: tuple) -> list[Row]:
        rows = self._union(lambda part: part.lookup_index(column_names, key))
        return sorted(rows, key=lambda r: r.rid)

    def range_scan(
        self,
        column_names: Sequence[str],
        lo: "tuple | None",
        hi: "tuple | None",
        *,
        lo_inc: bool = True,
        hi_inc: bool = True,
        reverse: bool = False,
        limit: "int | None" = None,
    ) -> list[Row]:
        """Union ordered-range scan: each shard's B+ tree fragment is
        walked, then the fragments merge back into one global key order
        (rid-tiebroken, like the shard scans themselves).  With a
        ``limit`` each shard ships only its first ``limit`` rows in scan
        order — the global first ``limit`` are among them."""
        fragments = [
            self._part(shard_idx, lambda part: part.range_scan(
                column_names, lo, hi, lo_inc=lo_inc, hi_inc=hi_inc,
                reverse=reverse, limit=limit))
            for shard_idx in range(len(self._engine.shards))
        ]
        return _merge_key_order(
            self.schema, column_names, fragments, reverse, limit)


class ShardedDatabase:
    """The TableProvider facade over every shard's catalog.

    This is what the middle tier sees as ``store.db``: compile against
    its schemas, evaluate 2PL reads through its union views, create
    tables through it (fanned out to every shard).
    """

    def __init__(self, engine: "ShardedStorageEngine"):
        self._engine = engine
        #: the coordinator's prepared plans (it plans over union views;
        #: the shards' own databases plan only what reaches them whole).
        self.plans: dict = {}

    @property
    def name(self) -> str:
        return self._engine.shards[0].db.name

    def create_table(self, schema: TableSchema) -> ShardedTableView:
        return self._engine.create_table(schema)

    def has_table(self, name: str) -> bool:
        return self._engine.shards[0].db.has_table(name)

    def table(self, name: str) -> ShardedTableView:
        if not self.has_table(name):
            raise UnknownTableError(f"no table {name!r}")
        return ShardedTableView(self._engine, name)

    def table_names(self) -> list[str]:
        return self._engine.shards[0].db.table_names()

    def schemas(self) -> list[TableSchema]:
        return self._engine.shards[0].db.schemas()

    def snapshot(self) -> dict[str, list[tuple[int, ValueTuple]]]:
        """Deep union snapshot (rid-keyed; rids are globally unique)."""
        merged: dict[str, list[tuple[int, ValueTuple]]] = {}
        for name in self.table_names():
            rows: list[tuple[int, ValueTuple]] = []
            for shard in self._engine.shards:
                rows.extend(shard.db.table(name).snapshot())
            merged[name] = sorted(rows)
        return merged

    def content_equal(self, other) -> bool:
        """Value-multiset equality against a Database or another facade."""
        if set(self.table_names()) != set(other.table_names()):
            return False
        for name in self.table_names():
            mine = sorted(
                (row.values for row in self.table(name).scan()), key=_sort_key
            )
            theirs = sorted(
                (row.values for row in other.table(name).scan()), key=_sort_key
            )
            if mine != theirs:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardedDatabase(shards={len(self._engine.shards)})"


class ShardedSnapshotDatabase:
    """TableProvider serving every table at one transaction's vector cut."""

    def __init__(
        self, engine: "ShardedStorageEngine", txn: int, vector: Sequence[int]
    ):
        self._engine = engine
        self.txn = txn
        self.vector = tuple(vector)
        self.plans = engine.db.plans

    def table(self, name: str) -> ShardedTableView:
        return ShardedTableView(self._engine, name, self.txn, self.vector)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardedSnapshotDatabase(txn={self.txn}, vector={self.vector})"


# -- transaction bookkeeping ---------------------------------------------------------


@dataclass
class ShardedTxnContext:
    """Coordinator-level book-keeping for one global transaction."""

    txn_id: int
    isolation: TxnIsolation
    #: global commit-sequence number at begin (the SSI/reads-from cut).
    read_seq: int
    #: per-shard begin timestamps — the vector snapshot.
    vector: tuple[int, ...]
    #: per-shard WAL positions at begin: everything the vector cut can
    #: observe lives at-or-below these LSNs, so a writing commit must
    #: not become durable before they are (reads-from durability).
    dep_lsns: tuple[int, ...] = ()
    status: TxnStatus = TxnStatus.ACTIVE
    #: global commit-sequence number stamped at commit (writers only).
    commit_seq: int | None = None
    snapshot_pinned: bool = False
    #: shards with a begun shard-local transaction, in begin order.
    begun: list[int] = field(default_factory=list)
    #: shards this transaction wrote in.
    written: set[int] = field(default_factory=set)
    #: written shards whose write set is in the global SSI tracker and
    #: has not been written since (see ``_prepare_shards``).
    staged: set[int] = field(default_factory=set)
    reads: list[str] = field(default_factory=list)
    #: the tables it wrote (the rows are in the shards' undo logs).
    written_tables: set[str] = field(default_factory=set)
    #: per-shard WAL flush targets parked by ``commit(flush=False)``
    #: until the coordinator's :meth:`ShardedStorageEngine.flush_commits`.
    flush_targets: dict[int, int] = field(default_factory=dict)


class _AggregateLocks:
    """Read-only facade over the shard lock managers."""

    def __init__(self, engine: "ShardedStorageEngine"):
        self._engine = engine

    def waiting(self, txn: int) -> bool:
        return any(shard.locks.waiting(txn) for shard in self._engine.shards)

    def held_resources(self, txn: int):
        held = set()
        for shard in self._engine.shards:
            held |= shard.locks.held_resources(txn)
        return frozenset(held)


# -- the engine ----------------------------------------------------------------------


class ShardedStorageEngine(StoreBase):
    """N shard-local engines behind the :class:`~repro.storage.protocol.
    Store` contract.

    Drop-in for the single-shard engine everywhere the middle tier uses
    one: the run-based scheduler, the interactive broker, the recovery
    manager and the benchmarks all work unchanged (``n_shards=1`` is the
    degenerate configuration, property-tested observationally equivalent
    to a plain :class:`StorageEngine`).  The contract members that mean
    the same over N timelines as over one — ``query``, ``read_table``,
    ``grounding_hooks``, ``reads_from``, ``load`` — are
    :class:`~repro.storage.store.StoreBase`'s; this class supplies the
    primitives they stand on.
    """

    #: Latch discipline, machine-checked by ``latchlint`` (LL005): the
    #: coordinator's mutable bookkeeping and the latch each field may
    #: only be *written* under.  Visibility-ordering state rides the
    #: commit funnel; counters too cheap for the funnel take the meta
    #: latch.  Mutating any of these outside its declared latch is a
    #: lint error.
    _GUARDED_FIELDS = {
        "_contexts": "commit-funnel",
        "_next_txn": "commit-funnel",
        "_commit_seq": "commit-funnel",
        "_active_seqs": "commit-funnel",
        "_table_writers": "commit-funnel",
        "commit_count": "commit-funnel",
        "cross_shard_commit_count": "commit-funnel",
        "_commits_since_checkpoint": "commit-funnel",
        "_checkpoints": "commit-funnel",
        "_active_writers": "shard-meta",
        "abort_count": "shard-meta",
        "plan_stats": "shard-meta",
        "_mvcc_local": "shard-meta",
    }

    def __init__(
        self,
        n_shards: int = 2,
        *,
        locking: bool = True,
        granularity: LockGranularity = LockGranularity.FINE,
        shards: "list[ShardEngine] | None" = None,
        ordered_indexes: bool = True,
    ):
        if shards is not None:
            self.shards = shards
        else:
            if n_shards < 1:
                raise TransactionStateError(f"need >= 1 shard, got {n_shards}")
            self.shards = [
                StorageEngine.shard_member(
                    i, n_shards, locking=locking, granularity=granularity,
                    ordered_indexes=ordered_indexes,
                )
                for i in range(n_shards)
            ]
        self.locking = locking
        self.granularity = granularity
        self.ordered_indexes = ordered_indexes
        #: coordinator-level planner counters (the coordinator plans the
        #: query once over the union views, so counters live here, not in
        #: any shard).
        self.plan_stats = {
            "index_range_scans": 0,
            "seq_scans_avoided": 0,
            "sorts_elided": 0,
        }
        #: the global commit funnel: holds every ensemble-visibility
        #: transition (vector capture at begin, two-phase commit, vector
        #: refresh) so per-shard worker threads always observe
        #: prefix-consistent cuts.  Physical WAL flushes happen *outside*
        #: it — see :meth:`commit` — so fsync latencies overlap.
        self._commit_lock = Latch("commit-funnel")
        #: guards the small coordinator counters that are not worth the
        #: commit funnel (mvcc tallies, abort counts).
        self._meta_lock = Latch("shard-meta", reentrant=False)
        # One waits-for graph across all shard lock managers: a 2PL
        # wait cycle that spans shards (A blocks in shard 0, B in shard
        # 1) is invisible to either manager alone; sharing the edge map
        # lets the closing request raise DeadlockError exactly as it
        # would on a single-shard engine.  The managers share one mutex
        # with the map, so the deadlock DFS never reads another shard's
        # edges mid-update.
        shared_waits: dict[int, set[int]] = defaultdict(set)
        shared_waits_mutex = Latch("lock-manager")
        for shard in self.shards:
            shard.locks.share_waits_for(shared_waits, shared_waits_mutex)
        # Kept so topology changes (replication promotes a follower into
        # ``self.shards``) can join the successor to the shared graph.
        self._shared_waits = shared_waits
        self._shared_waits_mutex = shared_waits_mutex
        self.locks = _AggregateLocks(self)
        self.db = ShardedDatabase(self)
        #: the single global SSI tracker (see module docstring) running
        #: on the global commit sequence.
        self.ssi = SSITracker()
        self._contexts: dict[int, ShardedTxnContext] = {}
        #: active transactions holding writes (O(1) checkpoint
        #: quiescence test, mirroring StorageEngine._active_writers).
        self._active_writers: set[int] = set()
        self._next_txn = 1
        #: global commit sequence: one tick per writing commit, any shard.
        self._commit_seq = 0
        #: active snapshot transactions' read_seq (global reads-from GC).
        self._active_seqs: dict[int, int] = {}
        #: per-table committed-writer log on the global sequence.
        self._table_writers: dict[str, list[tuple[int, int]]] = {}
        self.observers: list[Callable[[int, str, str, "int | None"], None]] = []
        self._mvcc_local = {"snapshot_reads": 0, "snapshot_refreshes": 0}
        self.commit_count = 0
        self.abort_count = 0
        self.cross_shard_commit_count = 0
        #: ensemble checkpoint cadence (writing commits between
        #: checkpoints; 0 disables).  The members' own auto-checkpoints
        #: are off by construction: one shard truncating alone would
        #: erase the participant-stamped COMMIT records (and
        #: entanglement-group markers) that torn-commit analysis and
        #: group recovery read from the *other* shards' perspective —
        #: see :meth:`checkpoint`.
        self._checkpoint_interval = 0
        self._commits_since_checkpoint = 0
        #: ensemble checkpoints, each counted once (a shard counts its own).
        self._checkpoints = {"taken": 0, "skipped": 0}

    # -- routing -----------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def route_key(self, table_name: str, key: Sequence) -> int:
        """The home shard of a (primary) routing key."""
        return shard_for_key(key, self.n_shards, table_name)

    def route_row(self, table_name: str, canonical: ValueTuple) -> int:
        """The shard a freshly inserted row belongs to."""
        schema = self.shards[0].db.table(table_name).schema
        key = schema.key_of(canonical)
        if key is None:
            for columns in schema.indexes:
                positions = [schema.column_index(c) for c in columns]
                key = tuple(canonical[p] for p in positions)
                break
            else:
                key = canonical
        return self.route_key(table_name, key)

    def shard_of_rid(self, rid: int) -> int:
        """Rid namespacing: shard *i* assigns rids ``i+1 (mod N)``
        (:meth:`StorageEngine.shard_member`)."""
        return (rid - 1) % self.n_shards

    # -- DDL / loading -------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> ShardedTableView:
        for shard in self.shards:
            shard.create_table(schema)
        return ShardedTableView(self, schema.name)

    # -- transaction lifecycle ------------------------------------------------------

    def begin(
        self,
        isolation: TxnIsolation = TxnIsolation.TWO_PL,
        *,
        min_vector: "tuple[int, ...] | None" = None,
    ) -> int:
        # Under the commit funnel so the vector is a prefix-consistent
        # cut even while other threads run two-phase commits: no begin
        # can observe shard A past a cross-shard commit but shard B
        # before it.
        with self._commit_lock:
            txn = self._next_txn
            self._next_txn += 1
            read_seq, vector, dep_lsns = self._begin_cut(isolation, min_vector)
            ctx = ShardedTxnContext(
                txn, isolation, read_seq=read_seq, vector=vector,
                dep_lsns=dep_lsns,
            )
            self._contexts[txn] = ctx
            if isolation.uses_snapshot:
                # The vector is captured (and pinned into every shard's
                # vacuum horizon) eagerly even though shard-local
                # transactions begin lazily: the cut must be the begin-time
                # one, and no shard may prune below it meanwhile.
                self._active_seqs[txn] = ctx.read_seq
                for shard, read_ts in zip(self.shards, vector):
                    shard.oracle.register_snapshot(txn, read_ts)
            self.ssi.begin(
                txn, ctx.read_seq,
                serializable=isolation is TxnIsolation.SERIALIZABLE,
            )
            return txn

    def _begin_cut(
        self,
        isolation: TxnIsolation,
        min_vector: "tuple[int, ...] | None",
    ) -> "tuple[int, tuple[int, ...], tuple[int, ...]]":
        """The ``(read_seq, vector, dep_lsns)`` cut a transaction begins on.

        Called under the commit funnel.  The base engine always serves
        the freshest cut — which trivially dominates any ``min_vector``
        a session derived from its own earlier commits — so the bound is
        ignored here; the replicated engine overrides this to serve an
        older recorded cut (bounded by ``max_staleness``) that followers
        can satisfy, subject to the same domination requirement.
        """
        del isolation, min_vector
        return (
            self._commit_seq,
            tuple(s.oracle.last_commit_ts for s in self.shards),
            tuple(s.wal.last_lsn for s in self.shards),
        )

    def _ensure_shard_txn(self, txn: int, shard_idx: int) -> ShardEngine:
        """Begin ``txn``'s shard-local transaction on first touch."""
        ctx = self._context(txn)
        shard = self.shards[shard_idx]
        if shard_idx not in ctx.begun:
            shard.begin(
                ctx.isolation, txn_id=txn, read_ts=ctx.vector[shard_idx]
            )
            ctx.begun.append(shard_idx)
        return shard

    def _snapshot_view(
        self, shard_idx: int, name: str, txn: int, read_ts: int
    ) -> TableView:
        """One shard's versioned view of ``name`` at ``read_ts`` — where
        the replicated engine routes a read to a follower instead."""
        return self.shards[shard_idx].snapshot_view(name, txn, read_ts)

    def _prepare_shards(self, ctx: ShardedTxnContext) -> None:
        """Phase one of 2PC, in shard order under the commit funnel: each
        written shard reports its undo-derived write set (``prepare`` —
        a method call in process, one frame to a worker), merged into
        the global SSI tracker before validation runs.  The only way a
        write set reaches that tracker, for a commit and for a group
        validation alike; a shard staged by the latter and not written
        since is not asked again.

        With no serializable transaction tracked the round is skipped
        outright — begins register under this same funnel, so any
        serializable transaction starting later snapshots at or past
        this commit and can never form an edge to it."""
        if not self.ssi.has_serializable():
            return
        for shard_idx in sorted(ctx.written - ctx.staged):
            items = self.shards[shard_idx].prepare(ctx.txn_id)
            if items:
                self.ssi.record_write(ctx.txn_id, items)
            ctx.staged.add(shard_idx)

    def _stage_write_sets(self, txns: Iterable[int]) -> None:
        with self._commit_lock:
            for txn in txns:
                ctx = self._contexts.get(txn)
                if ctx is not None and ctx.status is TxnStatus.ACTIVE:
                    self._prepare_shards(ctx)

    def commit(self, txn: int, *, flush: bool = True) -> list[int]:
        """Ordered two-phase commit across the touched shards.

        Phase 1 — validate with no side effects: the global SSI tracker
        raises :class:`~repro.errors.SerializationFailureError` before
        any shard committed anything (the caller aborts and retries).
        Phase 2 — commit each begun shard in shard order; each allocates
        its own commit timestamp.  Both phases run inside the global
        commit funnel, so nothing interleaves between them even with the
        per-shard worker threads active; the physical WAL flushes run
        *after* the funnel is released — fsync latencies of commits
        landing on different shards overlap in wall-clock time, and the
        commit is acknowledged (this method returns) only once every
        written shard's log is durable.

        ``flush=False`` defers the physical flushes entirely: the
        targets are parked on the transaction's context and the caller
        *must* follow up with :meth:`flush_commits` before
        acknowledging the commit.  Group-commit coordinators use this —
        they hold the (re-entrant) funnel across every member's commit,
        so an eager flush here would block inside it.
        """
        ctx = self._context(txn)
        with self._commit_lock:
            written = sorted(ctx.written)
            self._prepare_shards(ctx)
            self.ssi.on_commit(
                txn, self._commit_seq + 1 if written else self._commit_seq
            )
            # Cross-shard writers stamp the participant set on every shard's
            # COMMIT record: a crash between the per-shard flushes leaves at
            # least one durable COMMIT naming the shards that must also have
            # one, which is how recovery detects (and rolls back) torn
            # commits.
            participants = tuple(written) if len(written) > 1 else None
            woken: list[int] = []
            for shard_idx in sorted(ctx.begun):
                woken.extend(
                    self.shards[shard_idx].commit(
                        txn, participants=participants, flush=False
                    )
                )
            if written:
                self._commit_seq += 1
                ctx.commit_seq = self._commit_seq
                for name in ctx.written_tables:
                    self._table_writers.setdefault(name, []).append(
                        (self._commit_seq, txn)
                    )
                if len(written) > 1:
                    self.cross_shard_commit_count += 1
            if ctx.isolation.uses_snapshot:
                self._release_horizon(txn)
            ctx.status = TxnStatus.COMMITTED
            with self._meta_lock:
                self._active_writers.discard(txn)
            self.commit_count += 1
            self._notify(txn, "commit", "")
            # Flush targets, captured inside the funnel: the shards this
            # transaction wrote or begun in (their logs now hold its
            # COMMIT, and a 2PL read begins its shard transaction), plus
            # — for writers — every shard its begin-time vector could
            # have observed (``dep_lsns``): durable state must stay
            # closed under reads-from, or a crash could keep this commit
            # while losing a commit it read.  Dependencies that are
            # already durable cost nothing below.
            flush_targets: dict[int, int] = {}
            if written:
                for shard_idx in set(ctx.begun) | set(written):
                    flush_targets[shard_idx] = (
                        self.shards[shard_idx].wal.last_lsn
                    )
                if ctx.isolation.uses_snapshot:
                    for shard_idx, dep_lsn in enumerate(ctx.dep_lsns):
                        if flush_targets.get(shard_idx, 0) < dep_lsn:
                            flush_targets[shard_idx] = dep_lsn
            ctx.flush_targets = flush_targets
        if flush:
            self.flush_commits((txn,))
        if written and self._checkpoint_interval:
            with self._commit_lock:
                self._commits_since_checkpoint += 1
                if self._commits_since_checkpoint >= self._checkpoint_interval:
                    if self.checkpoint():
                        self._commits_since_checkpoint = 0
        return woken

    def flush_commits(self, txns: Iterable[int]) -> None:
        """Flush the WALs behind commits taken with ``flush=False``.

        Per-transaction targets (parked on each context by
        :meth:`commit`) are merged so each shard's log flushes at most
        once to the maximum required LSN — the group-commit batching a
        real engine gets from sharing one fsync.  Must be called with
        the commit funnel *released*: flushes block, the funnel must
        not.
        """
        merged: dict[int, int] = {}
        for txn in txns:
            ctx = self._contexts.get(txn)
            if ctx is None:
                continue
            for shard_idx, lsn in ctx.flush_targets.items():
                if merged.get(shard_idx, 0) < lsn:
                    merged[shard_idx] = lsn
            ctx.flush_targets = {}
        for shard_idx, lsn in sorted(merged.items()):
            wal = self.shards[shard_idx].wal
            # Skip already-durable targets without touching the WAL
            # mutex (a dependency mid-fsync would otherwise stall us for
            # nothing when our own target is already covered).
            if wal.flushed_lsn < lsn:
                wal.flush(lsn)

    def abort(self, txn: int) -> list[int]:
        return self._abort(txn)

    def _abort(self, txn: int, dead_shard: "int | None" = None) -> list[int]:
        """The one abort body: roll back every begun shard — except
        ``dead_shard``, whose leader took the transaction's state there
        down with it (failover) — then release the vector snapshot,
        count, tell SSI and the observers, exactly once."""
        # Under the commit funnel like commit/begin/vacuum: ``_active_seqs``
        # and the context status are read under it everywhere else, so the
        # one writer that skipped it would race them.
        with self._commit_lock:
            ctx = self._context(txn)
            woken: list[int] = []
            for shard_idx in sorted(ctx.begun):
                if shard_idx != dead_shard:
                    woken.extend(self.shards[shard_idx].abort(txn))
            if ctx.isolation.uses_snapshot:
                self._release_horizon(txn)
            ctx.status = TxnStatus.ABORTED
            with self._meta_lock:
                self._active_writers.discard(txn)
                self.abort_count += 1
            self.ssi.on_abort(txn)
            self._notify(txn, "abort", "")
            return woken

    def commit_funnel(self):
        """The ensemble's commit critical section: coordinators hold it
        across the validate+commit sequence of an atomic commit group so
        no other thread's commit can wedge between a group validation
        and its members' commits (which would re-admit widowed groups).
        Re-entrant — :meth:`commit` re-acquires it freely."""
        return self._commit_lock

    # -- locking ---------------------------------------------------------------------

    def _shards_for_access(self, access: ReadAccess) -> list[int]:
        """Which shards one observed read access covers.

        pk-key probes pin the key's home shard (the only shard a row
        with that key can live in); row accesses pin the rid's shard;
        scans and non-pk index probes observe every shard's state.
        """
        if access.kind is AccessKind.ROW:
            assert access.rid is not None
            return [self.shard_of_rid(access.rid)]
        if access.kind is AccessKind.INDEX_KEY:
            schema = self.shards[0].db.table(access.table).schema
            if access.index == tuple(schema.primary_key):
                assert access.key is not None
                return [self.route_key(access.table, access.key)]
        return list(range(self.n_shards))

    def lock_read_access(self, txn: int, access: ReadAccess) -> None:
        for shard_idx in self._shards_for_access(access):
            shard = self._ensure_shard_txn(txn, shard_idx)
            shard.lock_read_access(txn, access)

    def _lock_read_access(self, ctx: ShardedTxnContext, access: ReadAccess) -> None:
        self.lock_read_access(ctx.txn_id, access)

    def _lock_read_rows(
        self,
        ctx: ShardedTxnContext,
        table: str,
        rids: Sequence[int],
        path: "ReadAccess | None" = None,
    ) -> None:
        """A leaf's rows, split by the shard each rid names: one
        ``lock_read_rows`` per shard, in the order the shards first
        appear (one frame each to a worker).  ``path`` was locked before
        the probe."""
        txn = ctx.txn_id
        by_shard: dict[int, list[int]] = {}
        for rid in rids:
            by_shard.setdefault(self.shard_of_rid(rid), []).append(rid)
        for shard_idx, part in by_shard.items():
            self._ensure_shard_txn(txn, shard_idx).lock_read_rows(txn, table, part)

    def release_read_locks(self, txn: int) -> list[int]:
        ctx = self._context(txn)
        woken: list[int] = []
        for shard_idx in ctx.begun:
            woken.extend(self.shards[shard_idx].release_read_locks(txn))
        return woken

    # -- MVCC / SSI helpers ------------------------------------------------------------

    def snapshot_provider(self, txn: int) -> ShardedSnapshotDatabase:
        ctx = self._context(txn)
        return ShardedSnapshotDatabase(self, txn, ctx.vector)

    def _observe_snapshot_read(self, txn: int, access: ReadAccess) -> None:
        with self._meta_lock:
            self._mvcc_local["snapshot_reads"] += 1
        self.ssi.record_read(txn, ssi_read_items(access))

    observe_snapshot_read = _observe_snapshot_read

    def _observe_snapshot_reads(
        self, txn: int, table: str, rids: Sequence[int],
        path: "ReadAccess | None",
    ) -> None:
        with self._meta_lock:
            self._mvcc_local["snapshot_reads"] += len(rids) + (path is not None)
        self.ssi.record_read(txn, ssi_batch_items(table, rids, path))

    def _read_position(self, ctx: ShardedTxnContext) -> int:
        """Version attribution runs on the *global* commit sequence.

        The vector cut is captured atomically at begin (under the commit
        funnel), so it equals the global prefix of commits at that
        instant — the last global writer at/below the transaction's
        begin sequence is exactly the writer whose table state the
        vector observes, whichever shards it wrote.
        """
        return ctx.read_seq

    def _release_horizon(self, txn: int) -> None:
        """Out of the reads-from GC floor and every shard's vacuum
        horizon (a vector snapshot pins N of them)."""
        with self._commit_lock:
            self._active_seqs.pop(txn, None)
            for shard in self.shards:
                shard.oracle.release_snapshot(txn)

    def _holds_horizon(self, txn: int) -> bool:
        return txn in self._active_seqs

    def _resnapshot(self, ctx: ShardedTxnContext) -> bool:
        txn = ctx.txn_id
        with self._commit_lock:
            parked = not self._holds_horizon(txn)
            vector = tuple(s.oracle.last_commit_ts for s in self.shards)
            if not parked and (ctx.read_seq, ctx.vector) == (
                    self._commit_seq, vector):
                return False
            ctx.vector = vector
            ctx.read_seq = self._commit_seq
            self._active_seqs[txn] = ctx.read_seq
            # Begun shard transactions move their shard-local read_ts
            # through the member's own verb; every shard's horizon then
            # holds the new component.
            for shard_idx in ctx.begun:
                shard = self.shards[shard_idx]
                (shard.unpark_snapshot if parked else shard.refresh_snapshot)(txn)
            for shard, read_ts in zip(self.shards, vector):
                shard.oracle.register_snapshot(txn, read_ts)
            self.ssi.refresh(txn, ctx.read_seq)
            return True

    def oldest_snapshot_vector(self) -> tuple[int, ...]:
        """Per-shard vacuum horizons (each shard's oldest registration)."""
        return tuple(s.oracle.oldest_active() for s in self.shards)

    def oldest_snapshot_ts(self) -> int:
        """The most conservative component of the horizon vector."""
        return min(self.oldest_snapshot_vector())

    def vacuum(self, horizon: int | None = None) -> int:
        """Vacuum every shard.

        An explicit ``horizon`` is a *scalar* against N independent
        timelines, so it is clamped per shard to that shard's own last
        commit timestamp: the intended semantics — force snapshots older
        than the horizon to restart — survive, while a fast shard's
        large timestamp can no longer push a slow shard's prune floor
        beyond its entire timeline (which would poison every future
        snapshot there with SnapshotTooOldError).
        """
        removed = 0
        for shard in self.shards:
            removed += shard.vacuum(
                None if horizon is None
                else min(horizon, shard.oracle.last_commit_ts)
            )
        # The global reads-from log is kept on the commit sequence, so
        # its horizon is the oldest live snapshot's sequence.
        with self._commit_lock:
            self._trim_writer_logs(
                min(self._active_seqs.values(), default=self._commit_seq))
        return removed

    def metrics(self) -> dict[str, int]:
        """The shards' lock, MVCC and version counters summed
        (``max_chain``: the longest), plus this coordinator's own
        snapshot reads and refreshes; the counts it keeps for the whole
        ensemble — checkpoints, SSI, planner, cross-shard and follower
        reads, commits, aborts — replace the shards' shares.  On a
        process fleet each shard's reading is a mirror: no frame."""
        reading = dict.fromkeys(METRICS, 0)
        longest = 0
        for shard in self.shards:
            member = shard.metrics()
            longest = max(longest, member["max_chain"])
            for key, value in member.items():
                reading[key] += value
        reading["max_chain"] = longest
        for key, value in self._mvcc_local.items():
            reading[f"mvcc.{key}"] += value
        reading.update(zip(ENSEMBLE_METRICS, (
            *self._checkpoints.values(), self.commit_count, self.abort_count,
            *self.ssi.stats.values(), *self.plan_stats.values(),
            self.cross_shard_commit_count, self.follower_read_count,
        )))
        return reading

    def chain_histograms(self) -> dict[str, dict[int, int]]:
        merged: dict[str, dict[int, int]] = {}
        for shard in self.shards:
            for name, histogram in shard.chain_histograms().items():
                bucket = merged.setdefault(name, {})
                for length, count in histogram.items():
                    bucket[length] = bucket.get(length, 0) + count
        return merged

    @property
    def vacuum_interval(self) -> int:
        return self.shards[0].vacuum_interval

    @vacuum_interval.setter
    def vacuum_interval(self, value: int) -> None:
        for shard in self.shards:
            shard.vacuum_interval = value

    @property
    def checkpoint_interval(self) -> int:
        return self._checkpoint_interval

    @checkpoint_interval.setter
    def checkpoint_interval(self, value: int) -> None:
        # Deliberately NOT forwarded to the shards: sharded checkpoints
        # must be ensemble-wide (see :meth:`checkpoint`).
        self._checkpoint_interval = value

    def checkpoint(self) -> list:
        """Checkpoint the whole ensemble at one quiescent instant.

        Shards must never truncate independently: shard A's truncation
        would erase A's copy of a cross-shard COMMIT while shard B's
        copy still names A as a participant — restart recovery would
        misread the (fully committed) transaction as torn and roll back
        B's half; the entanglement-group markers scattered over the
        shard WALs have the same problem.  Checkpointing every shard at
        the same globally-quiescent point keeps the evidence consistent:
        a pre-checkpoint commit disappears from *every* WAL at once
        (fully subsumed by the images), a post-checkpoint one is fully
        present.  Returns the per-shard CHECKPOINT records, or [] when
        skipped (some transaction holds writes).
        """
        with self._commit_lock:
            with self._meta_lock:
                busy = bool(self._active_writers)
            if busy:
                self._checkpoints["skipped"] += 1
                return []
            # Latch-discipline waiver: the per-shard checkpoint flushes
            # (and truncates) each WAL *under* the commit funnel.  That
            # is deliberate — the whole method exists to cut every log
            # at one globally-quiescent instant, so the flushes cannot
            # be hoisted outside without re-admitting the torn-evidence
            # races described above.  Checkpoints are rare (cadence- or
            # shutdown-driven) and the ensemble is quiescent here, so
            # no commit is stalled behind these fsyncs.
            with allow_blocking("quiescent ensemble checkpoint cuts all "
                                "shard WALs at one instant"):
                records = [shard.checkpoint() for shard in self.shards]
            assert all(record is not None for record in records), (
                "shard checkpoint skipped despite global quiescence"
            )
            self._checkpoints["taken"] += 1
            return records

    # -- reads (bodies in StoreBase) ------------------------------------------------------

    # -- writes -------------------------------------------------------------------------

    def _record_write(
        self, ctx: ShardedTxnContext, shard_idx: int, table_name: str,
    ) -> None:
        """Book one row write on ``shard_idx``: transaction bookkeeping
        only.  The write set itself stays with the shard until
        :meth:`_prepare_shards` pulls it — active write sets are never
        consulted before a validation (readers only sweep *committed*
        writers) — so all this owes SSI is forgetting the shard was
        staged."""
        ctx.written.add(shard_idx)
        ctx.staged.discard(shard_idx)
        ctx.written_tables.add(table_name)
        # Under the meta latch, not the funnel: this runs on every write
        # statement, and the funnel is reserved for commit-visibility
        # transitions.  Readers of ``_active_writers`` (checkpoint
        # quiescence, commit/abort cleanup) take the same latch.
        with self._meta_lock:
            self._active_writers.add(ctx.txn_id)

    def insert(self, txn: int, table_name: str, values: Sequence[Any]) -> Row:
        ctx = self._context(txn)
        schema = self.shards[0].db.table(table_name).schema
        canonical = schema.validate_row(values)
        shard_idx = self.route_row(table_name, canonical)
        shard = self._ensure_shard_txn(txn, shard_idx)
        row = shard.insert(txn, table_name, canonical)
        self._record_write(ctx, shard_idx, table_name)
        self._notify(txn, "write", table_name)
        return row

    def insert_many(
        self, txn: int, table_name: str, rows: Iterable[Sequence[Any]]
    ) -> int:
        """A bulk load's rows: validated and routed here, then one call —
        one frame under process execution — per shard they land on, in
        shard order.  Each shard keeps its rows in load order, so rids and
        WAL records are the ones per-row inserts would have left."""
        ctx = self._context(txn)
        schema = self.shards[0].db.table(table_name).schema
        routed: dict[int, list] = {}
        for values in rows:
            canonical = schema.validate_row(values)
            routed.setdefault(
                self.route_row(table_name, canonical), []).append(canonical)
        for shard_idx in sorted(routed):
            shard = self._ensure_shard_txn(txn, shard_idx)
            # Booked first: a shard that fails part-way has still written
            # rows, and commit flushes and stamps booked shards only.
            self._record_write(ctx, shard_idx, table_name)
            shard.insert_many(txn, table_name, routed[shard_idx])
            for _ in routed[shard_idx]:
                self._notify(txn, "write", table_name)
        return sum(map(len, routed.values()))

    def update(
        self, txn: int, table_name: str, rid: int, values: Sequence[Any]
    ) -> tuple[Row, Row]:
        ctx = self._context(txn)
        schema = self.shards[0].db.table(table_name).schema
        canonical = schema.validate_row(values)
        src = self.shard_of_rid(rid)
        new_key = schema.key_of(canonical)
        dst = src if new_key is None else self.route_key(table_name, new_key)
        if dst == src:
            shard = self._ensure_shard_txn(txn, src)
            old, new = shard.update(txn, table_name, rid, canonical)
            self._record_write(ctx, src, table_name)
            self._notify(txn, "write", table_name)
            return old, new
        # The new primary key routes to a different shard: the update
        # migrates as delete-at-source + insert-at-destination (both
        # inside this transaction; undo/WAL/versioning in each shard).
        src_shard = self._ensure_shard_txn(txn, src)
        dst_shard = self._ensure_shard_txn(txn, dst)
        old = src_shard.delete(txn, table_name, rid)
        self._record_write(ctx, src, table_name)
        new = dst_shard.insert(txn, table_name, canonical)
        self._record_write(ctx, dst, table_name)
        self._notify(txn, "write", table_name)
        return old, new

    def delete(self, txn: int, table_name: str, rid: int) -> Row:
        ctx = self._context(txn)
        shard_idx = self.shard_of_rid(rid)
        shard = self._ensure_shard_txn(txn, shard_idx)
        old = shard.delete(txn, table_name, rid)
        self._record_write(ctx, shard_idx, table_name)
        self._notify(txn, "write", table_name)
        return old

    def update_where(
        self,
        txn: int,
        table_name: str,
        predicate: Callable[[Row], bool],
        new_values: Callable[[Row], Sequence[Any]],
        *,
        where: "Expr | None" = None,
    ) -> list[tuple[Row, Row]]:
        """Route the statement to its target shards; each applies it
        whole through its own ``update_where`` (one frame when the shard
        is remote).  Only assignments that may move a row's routing key
        — a primary-key column, or an opaque callable — run row at a
        time through :meth:`update`, which migrates across shards."""
        ctx = self._context(txn)
        targets = self._write_targets(ctx, table_name, where)
        pk = self.shards[0].db.table(table_name).schema.primary_key
        assigned = getattr(new_values, "assigned_columns", None)
        if assigned is None or assigned() & set(pk):
            rows = self._lock_candidates(txn, table_name, where, targets)
            rows.sort(key=lambda r: r.rid)
            return [
                self.update(txn, table_name, row.rid, list(new_values(row)))
                for row in rows if predicate(row)
            ]
        if len(targets) > 1:
            self._lock_candidates(txn, table_name, where, targets)
        changed: list[tuple[Row, Row]] = []
        for shard_idx in targets:
            shard = self._ensure_shard_txn(txn, shard_idx)
            for old, new in shard.update_where(
                txn, table_name, predicate, new_values, where
            ):
                self._record_write(ctx, shard_idx, table_name)
                self._notify(txn, "write", table_name)
                changed.append((old, new))
        return changed

    def delete_where(
        self,
        txn: int,
        table_name: str,
        predicate: Callable[[Row], bool],
        *,
        where: "Expr | None" = None,
    ) -> list[Row]:
        ctx = self._context(txn)
        targets = self._write_targets(ctx, table_name, where)
        if len(targets) > 1:
            self._lock_candidates(txn, table_name, where, targets)
        removed: list[Row] = []
        for shard_idx in targets:
            shard = self._ensure_shard_txn(txn, shard_idx)
            for old in shard.delete_where(txn, table_name, predicate, where):
                self._record_write(ctx, shard_idx, table_name)
                self._notify(txn, "write", table_name)
                removed.append(old)
        return removed

    def _write_targets(
        self, ctx: ShardedTxnContext, table_name: str, where: "Expr | None"
    ) -> list[int]:
        """The shards a predicate write must visit: the key's home shard
        when ``where`` pins the primary key (and the shards will take the
        index path), else all of them.  Snapshot writers' target probe
        enters the global SSI read set here; the shards' own trackers
        are off."""
        table = self.shards[0].db.table(table_name)
        path = index_path_for(table, equality_bindings(where, table))
        snapshot = ctx.isolation.uses_snapshot
        if snapshot:
            self.ssi.record_read(ctx.txn_id, ssi_read_items(
                ReadAccess.scan(table_name) if path is None
                else ReadAccess.index_key(table_name, path[0], path[1])
            ))
        indexed = snapshot or (
            self.locking and self.granularity is LockGranularity.FINE
        )
        if path is not None and path[2] and indexed:
            return [self.route_key(table_name, path[1])]
        return list(range(self.n_shards))

    def _lock_candidates(
        self, txn: int, table_name: str, where: "Expr | None",
        targets: list[int],
    ) -> list[Row]:
        """Lock (and fetch) the statement's candidate rows on every
        target before any of them writes, so a WouldBlock on a later
        shard cannot leave an earlier one applied for the retry to
        apply twice."""
        rows: list[Row] = []
        for shard_idx in targets:
            shard = self._ensure_shard_txn(txn, shard_idx)
            rows.extend(shard.lock_write_candidates(txn, table_name, where))
        return rows

    # -- sharding protocol (reporting) -----------------------------------------------

    def wals(self) -> list[WriteAheadLog]:
        return [shard.wal for shard in self.shards]

    def durably_committed_txns(self) -> set[int]:
        """Committed-everywhere transactions (torn commits excluded)."""
        committed, torn = _commit_analysis(self.shards)
        return committed - torn

    def written_shards(self, txn: int) -> list[int]:
        ctx = self._contexts.get(txn)
        return sorted(ctx.written) if ctx is not None else []

    # -- crash simulation ----------------------------------------------------------------

    def crash(self) -> "ShardedStorageEngine":
        """Crash every shard; the per-shard flushed WAL prefixes survive."""
        survivor = ShardedStorageEngine(
            self.n_shards,
            locking=self.locking,
            granularity=self.granularity,
            shards=[shard.crash() for shard in self.shards],
            ordered_indexes=self.ordered_indexes,
        )
        survivor._next_txn = self._next_txn
        survivor._checkpoint_interval = self._checkpoint_interval
        return survivor

    def recover(self, demote: Iterable[int] = frozenset()) -> RecoveryReport:
        """Restart recovery of the ensemble (post-:meth:`crash`)."""
        return recover_sharded(self, demote_to_loser=demote)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardedStorageEngine(n_shards={self.n_shards})"


def build_storage_engine(
    shards: int = 1,
    *,
    locking: bool = True,
    granularity: LockGranularity = LockGranularity.FINE,
    ordered_indexes: bool = True,
) -> "StorageEngine | ShardedStorageEngine":
    """The one construction policy for callers that name a shard count
    rather than a store (``connect(shards=...)``, the bench harness):
    one shard means a plain engine, more means the sharded router."""
    if shards > 1:
        return ShardedStorageEngine(
            shards, locking=locking, granularity=granularity,
            ordered_indexes=ordered_indexes,
        )
    return StorageEngine(
        locking=locking, granularity=granularity,
        ordered_indexes=ordered_indexes,
    )


# -- restart recovery -----------------------------------------------------------------


def _commit_analysis(
    shards: Sequence[ShardEngine],
) -> tuple[set[int], set[int]]:
    """(committed anywhere, torn) over the shards' durable WALs.

    A transaction is *torn* when the crash landed between its per-shard
    commit flushes: some written shard has its durable COMMIT, another
    does not.  Two detection channels, either sufficient:

    * the surviving COMMIT's ``participants`` stamp names every written
      shard — this catches the common shape where the losing shard's
      records were never flushed at all (its WAL shows no trace);
    * a shard whose durable log holds the transaction's row records but
      no COMMIT — defense in depth for manually-torn logs.

    Atomicity demands the whole transaction roll back everywhere.
    """
    committed_by_shard = [
        shard.wal.committed_txns(durable_only=True) for shard in shards
    ]
    ops_by_shard: list[set[int]] = []
    participants_of: dict[int, set[int]] = {}
    for shard in shards:
        ops: set[int] = set()
        for record in shard.wal.records(durable_only=True):
            if record.type in (
                LogRecordType.INSERT,
                LogRecordType.UPDATE,
                LogRecordType.DELETE,
            ):
                ops.add(record.txn)
            elif (
                record.type is LogRecordType.COMMIT
                and record.participants is not None
            ):
                participants_of.setdefault(record.txn, set()).update(
                    record.participants
                )
        ops_by_shard.append(ops)
    committed_anywhere: set[int] = set()
    for committed in committed_by_shard:
        committed_anywhere |= committed
    torn: set[int] = set()
    for txn, shard_idxs in participants_of.items():
        if any(
            idx < len(shards) and txn not in committed_by_shard[idx]
            for idx in shard_idxs
        ):
            torn.add(txn)
    for txn in committed_anywhere:
        for committed, ops in zip(committed_by_shard, ops_by_shard):
            if txn in ops and txn not in committed:
                torn.add(txn)
                break
    return committed_anywhere, torn


def recover_sharded(
    engine: ShardedStorageEngine,
    *,
    demote_to_loser: Iterable[int] = frozenset(),
) -> RecoveryReport:
    """Restart recovery for a sharded engine (post-:meth:`crash`).

    Each shard replays its own WAL, where that WAL lives — redo rebuilds
    its version chains and its oracle reconverges to the exact pre-crash
    component of the commit-timestamp vector — after a global analysis
    pass over the coordinator's view of the durable logs extends
    the demotion set with *torn* cross-shard transactions, so a commit
    that was durable in only some of its written shards rolls back
    everywhere (cross-shard atomicity through the crash).
    """
    _committed, torn = _commit_analysis(engine.shards)
    demote = set(demote_to_loser) | torn
    merged = RecoveryReport()
    for shard in engine.shards:
        report = shard.recover(demote)
        merged.winners |= report.winners
        merged.losers |= report.losers
        merged.redone += report.redone
        merged.undone += report.undone
    merged.winners -= merged.losers
    # The recovered state is the new epoch's initial state: the global
    # commit sequence restarts ahead of everything recovered, and
    # reads-from attribution treats pre-crash writes as the initial load
    # (annotation 0), exactly like bulk-loaded data.
    engine._commit_seq = sum(
        shard.oracle.last_commit_ts for shard in engine.shards
    )
    engine._table_writers = {}
    engine._active_seqs = {}
    return merged
