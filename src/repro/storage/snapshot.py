"""Snapshot table views: MVCC reads that never take a lock.

A :class:`SnapshotDatabase` is a :class:`~repro.storage.query.TableProvider`
facade over a live :class:`~repro.storage.catalog.Database` bound to one
transaction's snapshot timestamp.  Each :class:`SnapshotView` is a
:class:`~repro.storage.protocol.TableView` — the table's own ``schema``
and ``row_estimate``, and ``scan`` / ``lookup_pk`` / ``lookup_index`` /
``range_scan`` answered by traversing the tables' version chains: the
reader sees, for every rid, exactly the version whose commit window
contains its ``read_ts`` — plus its own uncommitted writes — and never
observes, blocks on, or is blocked by concurrent writers.

Index lookups stay index-shaped: candidates come from the *current* hash
index (covering every row whose key did not change) plus the probed
key's posting in the index's *history tree* (rids deleted or re-keyed
away from that key since the oldest retained snapshot; the same tree a
range read merges with the current B+ tree), each filtered through
version visibility and a key re-check.  This keeps snapshot probes
O(matching + per-key history) — a delete/re-key-heavy window between
vacuums no longer degrades unrelated probes toward linear scans.

Reads against a snapshot older than the version-chain GC floor raise
:class:`~repro.errors.SnapshotTooOldError`; the middle tier aborts the
attempt and retries on a fresh snapshot (a *read restart*).
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Sequence

from repro.errors import SnapshotTooOldError
from repro.storage.catalog import Database
from repro.storage.row import Row
from repro.storage.table import Table


class SnapshotView:
    """A read-only, versioned view of one table at one snapshot.

    ``mutex`` (optional) is the owning engine's mutex: when the per-shard
    worker threads of :mod:`repro.core.executor` are active, version
    chains mutate concurrently with snapshot traversals, so each read
    entry point materializes its result while holding it.  ``None`` (the
    default) keeps the lock-free single-threaded behavior.
    """

    def __init__(self, table: Table, txn: int, read_ts: int, mutex=None):
        self._table = table
        self._txn = txn
        self._read_ts = read_ts
        self._mutex = mutex if mutex is not None else contextlib.nullcontext()
        self.schema = table.schema

    @property
    def name(self) -> str:
        return self._table.name

    @property
    def read_ts(self) -> int:
        return self._read_ts

    def _check_serveable(self) -> None:
        if self._read_ts < self._table.prune_floor:
            raise SnapshotTooOldError(
                f"snapshot at ts {self._read_ts} of table "
                f"{self._table.name!r} was pruned (floor "
                f"{self._table.prune_floor}); restart on a fresh snapshot"
            )

    def _visible(self, rid: int) -> Row | None:
        return self._table.version_read(rid, self._txn, self._read_ts)

    # -- the Table read interface the evaluator consumes ---------------------------

    def __len__(self) -> int:
        return sum(1 for _ in self.scan())

    def row_estimate(self) -> int:
        return self._table.row_estimate()

    def scan(self) -> Iterator[Row]:
        """Yield the visible version of every row, in rid order."""
        with self._mutex:
            self._check_serveable()
            rows = []
            for rid in self._table.snapshot_rids():
                row = self._visible(rid)
                if row is not None:
                    rows.append(row)
        return iter(rows)

    def lookup_pk(self, key: tuple) -> Row | None:
        with self._mutex:
            self._check_serveable()
            rid = self._table.pk_rid(key)
            if rid is not None:
                row = self._visible(rid)
                if row is not None and self.schema.key_of(row.values) == key:
                    return row
            # The key may have lived on a row that was since deleted or
            # re-keyed; only the rids that ever held *this* key are in
            # its history posting, so a miss stays O(per-key history)
            # rather than degrading to a scan of every historic rid.
            for rid in sorted(self._table.history_rids_for_pk(key)):
                row = self._visible(rid)
                if row is not None and self.schema.key_of(row.values) == key:
                    return row
            return None

    def lookup_index(self, column_names: Sequence[str], key: tuple) -> list[Row]:
        with self._mutex:
            self._check_serveable()
            wanted = tuple(column_names)
            index = self._table.secondary_index(wanted)
            # Current-index matches plus the rids that historically
            # carried this key: O(matching + per-key history), immune to
            # delete/re-key churn elsewhere in the table.
            candidates = sorted(
                set(index.lookup(key))
                | self._table.history_rids_for_index(index.column_names, key)
            )
            positions = [self.schema.column_index(c) for c in wanted]
            rows = []
            for rid in candidates:
                row = self._visible(rid)
                if row is None:
                    continue
                if tuple(row.values[p] for p in positions) == tuple(key):
                    rows.append(row)
            return rows

    def range_scan(
        self,
        column_names: Sequence[str],
        lo: tuple | None,
        hi: tuple | None,
        *,
        lo_inc: bool = True,
        hi_inc: bool = True,
        reverse: bool = False,
        limit: int | None = None,
    ) -> list[Row]:
        """Versioned range read: visible rows whose index key falls in the
        bounds, ordered by (key, rid); at most ``limit`` of them.

        An in-order walk that stops at the ``limit``-th visible row: per
        in-bounds key, ascending (descending under ``reverse``), the
        candidates are the *current* B+ tree posting plus the key's
        history bucket.  A candidate is a row of the answer only if its
        *visible* version still carries that key — a rid re-keyed since
        the snapshot is met again under its snapshot key, from the
        history side, so it is emitted there and never twice.  Work is
        the rows returned plus the candidates rejected before the last
        of them: keys past the prefix, and history under keys outside
        the bounds, are never touched.
        """
        with self._mutex:
            self._check_serveable()
            rows: list[Row] = []
            if limit is not None and limit <= 0:
                return rows
            positions = [self.schema.column_index(c) for c in column_names]
            visible, txn, read_ts = (
                self._table.version_read, self._txn, self._read_ts)
            for key, rids in self._table.ordered_candidates(
                column_names, lo, hi,
                lo_inc=lo_inc, hi_inc=hi_inc, reverse=reverse,
            ):
                if len(rids) > 1:
                    rids = sorted(rids, reverse=reverse)
                for rid in rids:
                    row = visible(rid, txn, read_ts)
                    if row is None:
                        continue
                    if tuple([row.values[p] for p in positions]) != key:
                        continue
                    rows.append(row)
                    if len(rows) == limit:
                        return rows
            return rows


class SnapshotDatabase:
    """TableProvider serving every table as of one snapshot timestamp."""

    def __init__(self, db: Database, txn: int, read_ts: int, mutex=None):
        self._db = db
        self.txn = txn
        self.read_ts = read_ts
        self._mutex = mutex
        #: plans are per database, not per snapshot.
        self.plans = db.plans

    def table(self, name: str) -> SnapshotView:
        return SnapshotView(
            self._db.table(name), self.txn, self.read_ts, mutex=self._mutex
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SnapshotDatabase(txn={self.txn}, read_ts={self.read_ts})"
