"""The storage contracts, declared once.

Three structural interfaces everything above the storage substrate
stands on.  Declarations only — no behaviour lives here.

:class:`Store` is what the middle tier — :mod:`repro.core`,
:mod:`repro.client`, :mod:`repro.entangled` — calls on a store,
enumerated from those call sites.  :class:`~repro.storage.engine.
StorageEngine` and :class:`~repro.storage.sharding.ShardedStorageEngine`
(with its process-backed and replicated subclasses) implement it; the
members that mean the same over one timeline as over N have one body,
in :class:`repro.storage.store.StoreBase`.

:class:`ShardEngine` is what a sharded coordinator
(:class:`~repro.storage.sharding.ShardedStorageEngine` and its
replicated and process-backed subclasses) calls on one shard, enumerated
from those call sites.  :class:`~repro.storage.engine.StorageEngine`
implements it in process (:meth:`~repro.storage.engine.StorageEngine.
shard_member` builds one that knows its place in an ensemble);
:class:`~repro.transport.proxy.RemoteShardEngine` implements it over a
pipe, where the verb table :data:`repro.transport.verbs.VERBS` is the
same contract spelled as frames.  A follower replica *has* a shard
engine (:attr:`~repro.replication.follower.FollowerShard.engine`) fed by
WAL shipping rather than by these calls.

:class:`TableView` is what the planner and the volcano operators —
hence statements and entangled grounding alike — call on a table,
whichever of the five providers in ``src/`` hands it out: a live
:class:`~repro.storage.table.Table`, a
:class:`~repro.storage.snapshot.SnapshotView`, the sharded union view
(live or at a vector), or the remote view (live or at a snapshot).
Seven members: the table's ``schema`` — which answers everything that
is a function of the declaration: column names, types, ``has_index``,
``index_keys`` — a count, an estimate, and four ways to fetch rows.

All are ``runtime_checkable``.  ``tests/storage/test_store_contract.py``
fails when the middle tier calls a store member :class:`Store` does not
declare and drives one script over every store, step by step;
``tests/storage/test_engine_contract.py`` does the same for a local and
a remote shard.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Any, Callable, ContextManager, Iterable, Protocol,
    Mapping, Sequence, runtime_checkable,
)

if TYPE_CHECKING:
    from repro.storage.engine import TxnIsolation
    from repro.storage.query import SPJQuery
    from repro.storage.expressions import Expr
    from repro.storage.oracle import TimestampOracle
    from repro.storage.query import ReadAccess, Reads
    from repro.storage.recovery import RecoveryReport
    from repro.storage.row import Row
    from repro.storage.schema import TableSchema
    from repro.storage.wal import LogRecord, WriteAheadLog


@runtime_checkable
class TableView(Protocol):
    """One table as the read path sees it."""

    schema: TableSchema

    def __len__(self) -> int: ...

    def row_estimate(self) -> int:
        """Roughly how many rows, in O(1) and without a round trip — the
        live count, whatever the view's snapshot.  Costing reads this;
        ``len`` is exact and may scan."""

    def scan(self) -> Iterable[Row]:
        """Every row, in rid order."""

    def lookup_pk(self, key: tuple) -> Row | None: ...

    def lookup_index(self, column_names: Sequence[str], key: tuple) -> list[Row]: ...

    def range_scan(
        self, column_names: Sequence[str], lo: tuple | None, hi: tuple | None,
        *, lo_inc: bool = True, hi_inc: bool = True, reverse: bool = False,
        limit: int | None = None,
    ) -> list[Row]:
        """Rows whose ordered-index key lies in the bounds, in (key, rid)
        order (reversed under ``reverse``), at most ``limit`` of them."""


@runtime_checkable
class ShardEngine(Protocol):
    """One shard of an ensemble.

    The coordinator names every transaction (``begin`` takes its id and
    its component of the vector snapshot) and owns SSI, flush ordering
    and checkpoint cadence; the shard owns locks, version chains, the
    undo log and its WAL.
    """

    mutex: ContextManager
    #: ``last_commit_ts``, the snapshot registry, ``oldest_active``.
    oracle: TimestampOracle
    #: ``flush``, ``last_lsn`` / ``flushed_lsn``, ``records`` and the
    #: commit analysis over them, ``flush_latency``.
    wal: WriteAheadLog
    #: the lock manager: ``stats``, ``waiting``, ``held_resources``,
    #: ``waits_edges``, ``cancel_wait``, ``share_waits_for``.
    locks: Any
    #: the catalog: ``name``, ``has_table``, ``table`` (a live
    #: :class:`TableView` plus ``snapshot``),
    #: ``table_names``, ``schemas``.
    db: Any
    commit_count: int
    abort_count: int
    #: auto-vacuum cadence in writing commits (0 disables).
    vacuum_interval: int
    #: always 0 for a member: ensembles checkpoint as a whole.
    checkpoint_interval: int
    checkpoint_stats: dict[str, int]
    mvcc_stats: dict[str, int]

    # -- transactions ----------------------------------------------------------------

    def begin(
        self, isolation: TxnIsolation, *, txn_id: int, read_ts: int | None
    ) -> int: ...

    def prepare(self, txn: int) -> list:
        """Phase one of 2PC: the SSI write items of ``txn``'s undo log —
        how its write set reaches the coordinator's tracker, for a
        commit and for a group validation alike."""

    def commit(
        self, txn: int, *, participants: tuple[int, ...] | None = None,
        flush: bool = True,
    ) -> list[int]:
        """Commit in memory; returns the transactions the released locks
        woke.  The coordinator always passes ``flush=False`` and flushes
        :attr:`wal` itself, outside its commit funnel."""

    def abort(self, txn: int) -> list[int]: ...

    # -- statements (values arrive validated against the shared schema) --------------

    def insert(self, txn: int, table_name: str, values: Sequence) -> Row: ...

    def insert_many(
        self, txn: int, table_name: str, rows: Sequence[Sequence]
    ) -> int:
        """A bulk load's rows on this shard, in order: one table X lock
        (multi-granularity: it covers every key, gap and row lock a
        per-row insert takes, as every reader asks for the table's IS or
        S first), then per row only what the data needs — the row, its
        WAL ``INSERT`` record, its undo entry, the write notification —
        so recovery, shipping, the undo-derived SSI write set and abort
        see what per-row inserts leave.  One frame to a worker.  Returns
        the number of rows."""

    def update(
        self, txn: int, table_name: str, rid: int, values: Sequence
    ) -> tuple[Row, Row]: ...

    def delete(self, txn: int, table_name: str, rid: int) -> Row: ...

    def update_where(
        self, txn: int, table_name: str, predicate: Callable[[Row], bool],
        new_values: Callable[[Row], Sequence], where: Expr | None = None,
    ) -> list[tuple[Row, Row]]:
        """The whole statement on this shard: probe, locks,
        first-updater-wins check, writes."""

    def delete_where(
        self, txn: int, table_name: str, predicate: Callable[[Row], bool],
        where: Expr | None = None,
    ) -> list[Row]: ...

    # -- locks -------------------------------------------------------------------------

    def lock_write_candidates(
        self, txn: int, table_name: str, where: Expr | None
    ) -> list[Row]:
        """A predicate write's probe and locks alone, nothing written."""

    def lock_read_access(self, txn: int, access: ReadAccess) -> None: ...

    def lock_read_rows(self, txn: int, table: str, rids: Sequence[int]) -> None:
        """Row S on each of ``rids`` of ``table`` — the rows of one leaf
        that live here — in order, as one request: one lock-manager call,
        one frame to a worker.  Raises ``WouldBlock`` on the first that
        must wait, the ones before it granted."""

    def release_read_locks(self, txn: int) -> list[int]: ...

    # -- snapshots ---------------------------------------------------------------------

    def snapshot_view(self, name: str, txn: int, read_ts: int) -> TableView:
        """This shard's part of ``name`` as ``txn`` sees it at ``read_ts``."""

    def unpark_snapshot(self, txn: int) -> None: ...

    def refresh_snapshot(self, txn: int) -> bool: ...

    # -- DDL / maintenance ---------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> TableView: ...

    def vacuum(self, horizon: int | None = None) -> int: ...

    def checkpoint(self) -> LogRecord | None: ...

    def recover(self, demote: set[int]) -> RecoveryReport:
        """Restart recovery of this shard's own durable log, rolling the
        committed transactions in ``demote`` back with the losers."""

    # -- statistics --------------------------------------------------------------------

    def version_stats(self) -> dict[str, int]: ...

    def chain_histograms(self) -> dict[str, dict[int, int]]: ...


@runtime_checkable
class Store(Protocol):
    """A whole store, as the middle tier sees it.

    One timeline or N shards, in this process or in workers, with or
    without followers: the middle tier cannot tell and never asks.  A
    topology with nothing to report for a member reports zero.
    """

    #: the catalog and live table provider: ``has_table``, ``table``,
    #: ``create_table``, ``table_names``, ``plans``.
    db: Any
    #: the lock manager (or the sum of the shards'): ``stats``,
    #: ``waiting(txn)``.
    locks: Any
    #: the SSI tracker deciding commits: ``stats``.
    ssi: Any
    #: callbacks ``(txn, "read" | "write" | "commit" | "abort", table,
    #: reads_from)`` — how the schedule recorder listens.
    observers: list
    #: planner counters: ``index_range_scans``, ``seq_scans_avoided``,
    #: ``sorts_elided``.
    plan_stats: dict[str, int]
    #: writing commits between automatic checkpoints (0 disables).
    checkpoint_interval: int
    #: writing commits whose writes spanned shards (two-phase commits).
    cross_shard_commit_count: int
    #: snapshot probes answered by a follower.
    follower_read_count: int

    @property
    def n_shards(self) -> int: ...

    # -- transactions ----------------------------------------------------------------

    def begin(
        self, isolation: TxnIsolation = ...,
        *, min_vector: tuple[int, ...] | None = None,
    ) -> int:
        """Begin on a cut that dominates ``min_vector`` (what
        :meth:`commit_vector` returned for commits the caller must see)."""

    def commit(self, txn: int, *, flush: bool = True) -> list[int]:
        """``flush=False`` defers the WAL flush to :meth:`flush_commits`;
        the commit must not be acknowledged before it."""

    def flush_commits(self, txns: Iterable[int]) -> None: ...

    def abort(self, txn: int) -> list[int]: ...

    def commit_funnel(self) -> ContextManager:
        """Held across an atomic group's validate-and-commit sequence."""

    def isolation_of(self, txn: int) -> TxnIsolation: ...

    def serialization_doomed_group(self, txns: Sequence[int]) -> bool: ...

    def commit_vector(self, txn: int) -> tuple[int, ...] | None: ...

    # -- statements ------------------------------------------------------------------

    def query(
        self, txn: int, query: SPJQuery, params: Mapping | None = None,
        bound=None,
    ) -> list[tuple]: ...

    def read_table(self, txn: int, table: str) -> list[Row]: ...

    def insert(self, txn: int, table_name: str, values: Sequence) -> Row: ...

    def update(
        self, txn: int, table_name: str, rid: int, values: Sequence
    ) -> tuple[Row, Row]: ...

    def delete(self, txn: int, table_name: str, rid: int) -> Row: ...

    def update_where(
        self, txn: int, table_name: str, predicate: Callable[[Row], bool],
        new_values: Callable[[Row], Sequence], *, where: Expr | None = None,
    ) -> list[tuple[Row, Row]]: ...

    def delete_where(
        self, txn: int, table_name: str, predicate: Callable[[Row], bool],
        *, where: Expr | None = None,
    ) -> list[Row]: ...

    # -- entangled evaluation and the schedule recorder ------------------------------

    def grounding_hooks(self, txn: int) -> tuple[Reads, Any]:
        """``(read observer, snapshot provider or None)`` for grounding
        one of ``txn``'s entangled queries: a fresh observer each call."""

    def reads_from(self, txn: int, table: str) -> int | None: ...

    def release_read_locks(self, txn: int) -> list[int]: ...

    # -- snapshot lifetime of an idle interactive session ----------------------------

    def park_snapshot(self, txn: int) -> bool: ...

    def unpark_snapshot(self, txn: int) -> None: ...

    def pin_snapshot(self, txn: int) -> None: ...

    def refresh_snapshot(self, txn: int) -> bool: ...

    # -- DDL / durability --------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> TableView: ...

    def load(self, table: str, rows: Iterable[Sequence]) -> int:
        """All of ``rows`` in one system transaction, or none of them."""

    def checkpoint(self) -> Any:
        """Falsy when skipped (an active transaction holds writes)."""

    def wals(self) -> list[WriteAheadLog]: ...

    def durably_committed_txns(self) -> set[int]: ...

    def crash(self) -> Store:
        """Lose volatile state; the successor holds the flushed logs."""

    def recover(self, demote: Iterable[int] = ...) -> RecoveryReport: ...

    def close(self) -> None: ...

    # -- statistics --------------------------------------------------------------------

    def written_shards(self, txn: int) -> list[int]: ...

    def version_stats(self) -> dict[str, int]: ...

    def chain_histograms(self) -> dict[str, dict[int, int]]: ...

    def read_probe_counts(self) -> dict[str, int]: ...
