"""Heap tables with primary-key and secondary hash indexes — versioned.

A :class:`Table` owns its rows, assigns row ids, and keeps its indexes in
sync on every mutation.  It stays *mostly* unaware of transactions: the
:mod:`repro.storage.engine` layer mediates all access, installs undo
records, and takes locks before calling into the table.  The one
transactional concern tables do own is the **version chain**: every
mutation appends/stamps :class:`~repro.storage.row.RowVersion` records so
MVCC snapshot readers can reconstruct the row as of any commit timestamp.
Mutators take an optional ``writer`` transaction id — versions created by
a writer stay *pending* until the engine calls :meth:`commit_versions`
(stamping begin/end timestamps) or :meth:`abort_versions` (discarding
them).  ``writer=None`` means a non-transactional write, committed at
timestamp 0 (bulk loads, direct test mutation).  ``versioned=False``
bypasses chain maintenance entirely — only the engine's physical
undo/redo paths use it, because rollback of chains is handled separately.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from repro.errors import DuplicateKeyError, StorageError
from repro.storage.bptree import SUPREMUM, BPlusTree
from repro.storage.row import Row, RowVersion, ValueTuple
from repro.storage.schema import TableSchema
from repro.storage.wal import TableImage


class HashIndex:
    """A non-unique hash index over one of ``schema``'s declared indexes.

    Maps the indexed key tuple to the set of rids that currently carry it.
    """

    def __init__(self, column_names: Sequence[str], schema: TableSchema):
        self.column_names = tuple(column_names)
        self._positions = dict(schema.index_positions)[self.column_names]
        self._buckets: dict[tuple, set[int]] = {}

    def key_for(self, values: ValueTuple) -> tuple:
        return tuple(values[p] for p in self._positions)

    def add(self, rid: int, values: ValueTuple) -> None:
        self._buckets.setdefault(self.key_for(values), set()).add(rid)

    def remove(self, rid: int, values: ValueTuple) -> None:
        key = self.key_for(values)
        bucket = self._buckets.get(key)
        if bucket is None or rid not in bucket:
            raise StorageError(f"index corruption: rid {rid} missing for key {key!r}")
        bucket.discard(rid)
        if not bucket:
            del self._buckets[key]

    def lookup(self, key: tuple) -> frozenset[int]:
        return frozenset(self._buckets.get(key, frozenset()))

    def clear(self) -> None:
        """Drop every entry (bulk table truncation)."""
        self._buckets.clear()

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values())


class Table:
    """A heap table with optional primary key and secondary indexes."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: dict[int, Row] = {}
        self._next_rid = 1
        #: rid namespace: rids are assigned ``base, base+step, ...``.  The
        #: default (1, 1) is the classical dense numbering; a sharded
        #: engine gives shard *i* of *N* the namespace ``(i+1, N)`` so
        #: every rid names its shard (``(rid - 1) % N``) and RowId
        #: resources stay globally unique without coordination.
        self._rid_step = 1
        self._pk_index: dict[tuple, int] = {}
        self._secondary: list[HashIndex] = [
            HashIndex(cols, schema) for cols in schema.indexes
        ]
        #: every indexed column set (primary key included) also keeps an
        #: ordered B+ tree twin, so range predicates and ORDER BY pushdown
        #: have in-order access paths.  Maintained unconditionally — the
        #: planner's ``ordered_indexes`` flag gates *use*, not upkeep.
        self._ordered_positions: dict[tuple[str, ...], tuple[int, ...]] = (
            dict(schema.index_positions))
        self._ordered: dict[tuple[str, ...], BPlusTree] = {
            cols: BPlusTree() for cols in self._ordered_positions
        }
        #: MVCC state: per-rid version chains (oldest first), rids whose
        #: non-current versions may still be visible to some snapshot, the
        #: per-writer pending version sets, and the GC floor below which
        #: snapshots can no longer be served.
        self._versions: dict[int, list[RowVersion]] = {}
        self._history: set[int] = set()
        #: the historic-rid set, *per key*, one tree per ordered index:
        #: which rids may hold a snapshot-visible version under a primary
        #: key / index key that the current indexes no longer (or never)
        #: map there.  A snapshot point probe unions only its own key's
        #: posting instead of the whole historic set, which keeps it
        #: O(matching) through delete/re-key-heavy windows between
        #: vacuums; a snapshot range read merges the in-range slice with
        #: the current tree's and never visits a posting outside its
        #: bounds.
        self._history_ordered: dict[tuple[str, ...], BPlusTree] = {
            cols: BPlusTree() for cols in self._ordered
        }
        #: reverse map rid -> its ``(index columns, key)`` postings, so
        #: vacuum can shrink the trees exactly when it shrinks ``_history``.
        self._history_entries: dict[int, set[tuple]] = {}
        self._pending_created: dict[int, list[tuple[int, RowVersion]]] = {}
        self._pending_ended: dict[int, list[tuple[int, RowVersion]]] = {}
        #: rids whose chain holds an ended or deleted version, or that are
        #: historic: the only chains a vacuum can shrink and the only
        #: history entries it can retire, so the only ones it visits.
        self._prunable: set[int] = set()
        self._prune_floor = 0
        #: incrementally maintained footprint: total live version count
        #: and the longest-chain high-watermark (exact after each prune,
        #: may overstate between prunes once versions were discarded).
        self._total_versions = 0
        self._max_chain = 0
        #: chain length -> number of rids with a chain that long, kept in
        #: step with ``_versions`` wherever a chain grows or shrinks, so
        #: the per-run histogram costs O(distinct lengths), not O(rows).
        self._chain_lengths: dict[int, int] = {}
        #: versions dropped opportunistically at supersede time since the
        #: engine last collected the counter (horizon-aware vacuum).
        self._supersede_pruned = 0

    # -- basic properties ---------------------------------------------------------

    def set_rid_namespace(self, base: int, step: int) -> None:
        """Restrict rid assignment to ``base, base+step, base+2*step, ...``.

        Must be called before the first insert (shard construction time).
        """
        if self._rows or self._versions:
            raise StorageError(
                f"cannot re-namespace non-empty table {self.name!r}"
            )
        if base < 1 or step < 1:
            raise StorageError(f"invalid rid namespace ({base}, {step})")
        self._next_rid = base
        self._rid_step = step

    def _bump_next_rid_past(self, rid: int) -> None:
        """Advance the rid counter past ``rid`` staying in its namespace."""
        while self._next_rid <= rid:
            self._next_rid += self._rid_step

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    def row_estimate(self) -> int:
        """The live row count: what the planner costs an access path
        with (a snapshot view answers with this too — an estimate must
        never cost a visibility scan)."""
        return len(self._rows)

    def __contains__(self, rid: int) -> bool:
        return rid in self._rows

    def rids(self) -> list[int]:
        """All live row ids (sorted, so scans are deterministic)."""
        return sorted(self._rows)

    # -- reads --------------------------------------------------------------------

    def get(self, rid: int) -> Row:
        try:
            return self._rows[rid]
        except KeyError:
            raise StorageError(f"no row {rid} in table {self.name!r}") from None

    def scan(self) -> Iterator[Row]:
        """Yield all rows in rid order (deterministic)."""
        for rid in sorted(self._rows):
            yield self._rows[rid]

    def lookup_pk(self, key: tuple) -> Row | None:
        rid = self._pk_index.get(key)
        return self._rows[rid] if rid is not None else None

    def lookup_index(self, column_names: Sequence[str], key: tuple) -> list[Row]:
        """Lookup via the declared secondary index on ``column_names``.

        The planner probes declared indexes only, so a probe no index
        covers raises :class:`StorageError` instead of scanning.
        """
        index = self.secondary_index(column_names)
        return [self._rows[rid] for rid in sorted(index.lookup(key))]

    # -- ordered (B+ tree) access ---------------------------------------------------

    def _ordered_key(self, cols: tuple[str, ...], values: ValueTuple) -> tuple:
        return tuple(values[p] for p in self._ordered_positions[cols])

    def _ordered_add(self, rid: int, values: ValueTuple) -> None:
        for cols, tree in self._ordered.items():
            tree.add(self._ordered_key(cols, values), rid)

    def _ordered_remove(self, rid: int, values: ValueTuple) -> None:
        for cols, tree in self._ordered.items():
            tree.remove(self._ordered_key(cols, values), rid)

    def ordered_index(self, column_names: Sequence[str]) -> BPlusTree | None:
        return self._ordered.get(tuple(column_names))

    def ordered_keys_in_range(
        self,
        column_names: Sequence[str],
        lo: tuple | None,
        hi: tuple | None,
        *,
        lo_inc: bool = True,
        hi_inc: bool = True,
        reverse: bool = False,
        limit: int | None = None,
    ) -> list[tuple]:
        """What a next-key range reader S-locks, in the order it locks:
        the current index keys inside the bounds, in scan order, and the
        right fencepost (the successor of ``hi``).

        With a ``limit`` — the planner proved the scan's first ``limit``
        rows are the answer — the walk stops at the key whose posting
        completes them.  A forward scan that stops early takes no fence:
        the gap left of every locked key is guarded by that key, and a
        phantom right of the last one cannot change the answer.  A
        reverse scan starts at the fence, which guards the gap between
        its first key and ``hi``.
        """
        cols = tuple(column_names)
        fence = self.successor_key(cols, hi, strict=hi_inc)
        keys = [fence] if reverse else []
        covered = 0
        for key, rids in self._ordered[cols].items(
            lo, hi, lo_inc=lo_inc, hi_inc=hi_inc, reverse=reverse
        ):
            if limit is not None and covered >= limit:
                break
            keys.append(key)
            covered += len(rids)
        if not reverse and (limit is None or covered < limit):
            keys.append(fence)
        return keys

    def successor_key(
        self,
        column_names: Sequence[str],
        bound: tuple | None,
        *,
        strict: bool = True,
    ) -> tuple:
        """The right fencepost after ``bound`` (``SUPREMUM`` when none).

        Range readers lock the successor of their upper bound; inserters
        lock the successor of each key they are about to create — that
        shared fencepost is what makes phantoms collide.
        """
        tree = self._ordered.get(tuple(column_names))
        if tree is None:
            return SUPREMUM
        return tree.successor(bound, strict=strict)

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
        """Current rows whose index key falls in the bounds, in (key,
        rid) order — exactly reversed under ``reverse`` — stopping the
        tree walk once ``limit`` rows are in hand."""
        tree = self._ordered[tuple(column_names)]
        rows: list[Row] = []
        for _key, rids in tree.items(
            lo, hi, lo_inc=lo_inc, hi_inc=hi_inc, reverse=reverse
        ):
            if limit is not None and len(rows) >= limit:
                break
            rows.extend(self._rows[rid] for rid in sorted(rids, reverse=reverse))
        return rows[:limit]

    def ordered_candidates(
        self,
        column_names: Sequence[str],
        lo: tuple | None,
        hi: tuple | None,
        *,
        lo_inc: bool = True,
        hi_inc: bool = True,
        reverse: bool = False,
    ) -> Iterator[tuple[tuple, Iterable[int]]]:
        """``(key, rids)`` in key order: per in-bounds key, every rid a
        *snapshot* range read must consider under it — the current
        posting merged with the key's history bucket (rids that once
        carried it).  Lazy: a reader that stops after *k* rows has
        touched the keys up to the *k*-th and nothing past it."""
        cols = tuple(column_names)
        bounds = dict(lo_inc=lo_inc, hi_inc=hi_inc, reverse=reverse)
        history = self._history_ordered[cols].walk(lo, hi, **bounds)
        past = next(history, None)
        for skey, key, rids in self._ordered[cols].walk(lo, hi, **bounds):
            while past is not None and (
                past[0] > skey if reverse else past[0] < skey
            ):
                yield past[1], past[2]
                past = next(history, None)
            if past is not None and past[0] == skey:
                rids = rids | past[2]
                past = next(history, None)
            yield key, rids
        while past is not None:
            yield past[1], past[2]
            past = next(history, None)

    # -- mutations ----------------------------------------------------------------

    def insert(
        self,
        values: Sequence[Any],
        *,
        validated: bool = False,
        writer: int | None = None,
        versioned: bool = True,
    ) -> Row:
        """Validate and insert a row, returning the stored :class:`Row`.

        Raises :class:`DuplicateKeyError` when the primary key is taken.
        ``validated=True`` skips re-validation for values the caller just
        canonicalized via ``schema.validate_row`` (the engine does this to
        compute index-key locks without paying validation twice).
        ``writer`` tags the new version as pending for that transaction;
        ``versioned=False`` (undo/redo only) skips chain maintenance.
        """
        canonical = (
            tuple(values) if validated else self.schema.validate_row(values)
        )
        key = self.schema.key_of(canonical)
        if key is not None and key in self._pk_index:
            raise DuplicateKeyError(
                f"duplicate primary key {key!r} in table {self.name!r}"
            )
        rid = self._next_rid
        self._next_rid += self._rid_step
        row = Row(rid, canonical)
        self._rows[rid] = row
        if key is not None:
            self._pk_index[key] = rid
        for index in self._secondary:
            index.add(rid, canonical)
        self._ordered_add(rid, canonical)
        if versioned:
            self._chain_insert(rid, canonical, writer)
        return row

    def insert_with_rid(
        self,
        rid: int,
        values: Sequence[Any],
        *,
        writer: int | None = None,
        versioned: bool = True,
    ) -> Row:
        """Re-insert a row under a specific rid (undo/redo path only)."""
        if rid in self._rows:
            raise StorageError(f"rid {rid} already present in {self.name!r}")
        canonical = self.schema.validate_row(values)
        key = self.schema.key_of(canonical)
        if key is not None and key in self._pk_index:
            raise DuplicateKeyError(
                f"duplicate primary key {key!r} in table {self.name!r}"
            )
        row = Row(rid, canonical)
        self._rows[rid] = row
        self._bump_next_rid_past(rid)
        if key is not None:
            self._pk_index[key] = rid
        for index in self._secondary:
            index.add(rid, canonical)
        self._ordered_add(rid, canonical)
        if versioned:
            self._chain_insert(rid, canonical, writer)
        return row

    def update(
        self,
        rid: int,
        values: Sequence[Any],
        *,
        validated: bool = False,
        writer: int | None = None,
        versioned: bool = True,
        rekeyed: bool | None = None,
        prune_horizon: int | None = None,
    ) -> tuple[Row, Row]:
        """Replace the values of row ``rid``; returns ``(old, new)`` rows.

        ``rekeyed`` lets a caller that already compared the old and new
        index-key sets (the fine-granularity engine does, for locking)
        pass the verdict down instead of paying the comparison twice.
        ``prune_horizon`` (the engine's oldest-active-snapshot timestamp)
        enables horizon-aware vacuum: chain prefixes no live snapshot can
        see are dropped right here, at supersede time, instead of waiting
        for the next interval vacuum.
        """
        old = self.get(rid)
        canonical = (
            tuple(values) if validated else self.schema.validate_row(values)
        )
        new_key = self.schema.key_of(canonical)
        old_key = self.schema.key_of(old.values)
        if new_key != old_key and new_key is not None and new_key in self._pk_index:
            raise DuplicateKeyError(
                f"update would duplicate primary key {new_key!r} in {self.name!r}"
            )
        new = Row(rid, canonical)
        self._rows[rid] = new
        if old_key != new_key:
            if old_key is not None:
                del self._pk_index[old_key]
            if new_key is not None:
                self._pk_index[new_key] = rid
        # Only the indexes whose key the update changes are touched: a
        # row keeps its place in every bucket and tree it already
        # occupies under an equal key.
        for index in self._secondary:
            if index.key_for(old.values) != index.key_for(canonical):
                index.remove(rid, old.values)
                index.add(rid, canonical)
        for cols, tree in self._ordered.items():
            old_entry = self._ordered_key(cols, old.values)
            new_entry = self._ordered_key(cols, canonical)
            if old_entry != new_entry:
                tree.remove(old_entry, rid)
                tree.add(new_entry, rid)
        if versioned:
            # Only key-changing updates leave a historic rid behind: a
            # row whose index keys are unchanged stays reachable through
            # the current buckets at every timestamp.
            if rekeyed is None:
                rekeyed = (
                    self.schema.index_keys(old.values)
                    != self.schema.index_keys(canonical)
                )
            self._chain_supersede(
                rid, writer, values=old.values, track_history=rekeyed,
                prune_horizon=prune_horizon,
            )
            self._chain_insert(rid, canonical, writer)
        return old, new

    def delete(
        self,
        rid: int,
        *,
        writer: int | None = None,
        versioned: bool = True,
        prune_horizon: int | None = None,
    ) -> Row:
        """Remove row ``rid``; returns the deleted row."""
        old = self.get(rid)
        del self._rows[rid]
        key = self.schema.key_of(old.values)
        if key is not None:
            del self._pk_index[key]
        for index in self._secondary:
            index.remove(rid, old.values)
        self._ordered_remove(rid, old.values)
        if versioned:
            self._chain_supersede(
                rid, writer, values=old.values, prune_horizon=prune_horizon
            )
        return old

    # -- version chains (MVCC) ------------------------------------------------------

    def _chain_insert(self, rid: int, values: ValueTuple, writer: int | None) -> None:
        """Append a new version for ``rid`` (pending when ``writer`` set)."""
        version = RowVersion(values, created_by=writer)
        if writer is None:
            version.begin_ts = 0  # non-transactional: committed since t=0
        else:
            self._pending_created.setdefault(writer, []).append((rid, version))
        chain = self._versions.setdefault(rid, [])
        chain.append(version)
        self._total_versions += 1
        self._max_chain = max(self._max_chain, len(chain))
        self._chain_resized(len(chain) - 1, len(chain))

    def _chain_resized(self, before: int, after: int) -> None:
        """Move one rid from chain length ``before`` to ``after`` in the
        length histogram (0 = the rid has no chain)."""
        lengths = self._chain_lengths
        if before:
            if lengths[before] == 1:
                del lengths[before]
            else:
                lengths[before] -= 1
        if after:
            lengths[after] = lengths.get(after, 0) + 1

    def _chain_supersede(
        self,
        rid: int,
        writer: int | None,
        *,
        values: ValueTuple | None = None,
        track_history: bool = True,
        prune_horizon: int | None = None,
    ) -> None:
        """Mark ``rid``'s live version as superseded by ``writer``.

        ``values`` carries the superseded version's value tuple; its
        index keys say *which per-key history buckets* the rid joins, so
        a later snapshot probe of one of those keys (and only of those
        keys) re-examines this rid.

        ``track_history=False`` (in-place updates that change no index
        key) skips the historic-rid set: the rid stays reachable through
        every current index bucket, so snapshot lookups find its chain
        without the history detour — keeping the buckets small is what
        keeps snapshot index probes O(matching + per-key history).

        ``prune_horizon`` is the horizon-aware vacuum hook: versions of
        *this* chain whose end timestamp is at/below the horizon are
        invisible to every live snapshot, so the hottest rows — exactly
        the ones superseded most often — keep their chains short without
        waiting for the interval vacuum to walk the whole table.
        """
        chain = self._versions.get(rid)
        if not chain:
            return  # row predates versioning (restored without history)
        self._prunable.add(rid)
        superseded: RowVersion | None = None
        for version in reversed(chain):
            if version.end_ts is None and version.deleted_by is None:
                if writer is None:
                    version.end_ts = 0  # non-transactional: gone for all
                else:
                    version.deleted_by = writer
                    self._pending_ended.setdefault(writer, []).append(
                        (rid, version)
                    )
                superseded = version
                break
        if prune_horizon is not None and len(chain) > 1:
            keep = [
                v for v in chain
                if v.end_ts is None or v.end_ts > prune_horizon
            ]
            removed = len(chain) - len(keep)
            if removed:
                if keep:
                    chain[:] = keep
                else:
                    del self._versions[rid]
                self._chain_resized(len(keep) + removed, len(keep))
                self._total_versions -= removed
                self._supersede_pruned += removed
                self._prune_floor = max(self._prune_floor, prune_horizon)
        if track_history:
            if values is None and superseded is not None:
                values = superseded.values
            self._history_add(rid, values)

    def _history_add(self, rid: int, values: ValueTuple | None) -> None:
        """Track ``rid`` as historic under every key ``values`` carried."""
        self._history.add(rid)
        if values is None:
            return
        entries = self._history_entries.setdefault(rid, set())
        for cols, tree in self._history_ordered.items():
            key = self._ordered_key(cols, values)
            tree.add(key, rid)
            entries.add((cols, key))

    def _history_discard(self, rid: int) -> None:
        """Forget ``rid``'s history membership, key postings included."""
        self._history.discard(rid)
        for cols, key in self._history_entries.pop(rid, ()):
            self._history_ordered[cols].remove(key, rid)

    def commit_versions(self, txn: int, commit_ts: int) -> None:
        """Stamp every version ``txn`` created/superseded with ``commit_ts``."""
        for _rid, version in self._pending_created.pop(txn, ()):
            version.begin_ts = commit_ts
        for _rid, version in self._pending_ended.pop(txn, ()):
            version.end_ts = commit_ts
            version.deleted_by = None

    def abort_versions(self, txn: int) -> None:
        """Discard ``txn``'s pending versions and unmark its supersedes.

        Only the chains are touched; the physical row/index rollback is
        the engine's undo log's job (it replays with ``versioned=False``).
        """
        for rid, version in self._pending_created.pop(txn, ()):
            chain = self._versions.get(rid)
            if chain is None:
                continue
            before = len(chain)
            chain[:] = [v for v in chain if v is not version]
            self._total_versions -= before - len(chain)
            self._chain_resized(before, len(chain))
            if not chain:
                del self._versions[rid]
        for _rid, version in self._pending_ended.pop(txn, ()):
            if version.deleted_by == txn:
                version.deleted_by = None

    def version_read(self, rid: int, txn: int, read_ts: int) -> Row | None:
        """The row version ``txn`` sees at ``read_ts``, or None if invisible."""
        for version in reversed(self._versions.get(rid, ())):
            if version.visible_to(txn, read_ts):
                return Row(rid, version.values)
        return None

    def snapshot_rids(self) -> list[int]:
        """Every rid a snapshot read may need to consider (live + historic)."""
        return sorted(set(self._rows) | self._history)

    def history_rids(self) -> frozenset[int]:
        """Rids whose non-current versions may still be visible somewhere."""
        return frozenset(self._history)

    def history_rids_for_pk(self, key: tuple) -> frozenset[int]:
        """Historic rids that ever held primary key ``key`` — the only
        extra candidates a snapshot pk probe must examine."""
        return self.history_rids_for_index(self.schema.primary_key, key)

    def history_rids_for_index(
        self, column_names: Sequence[str], key: tuple
    ) -> frozenset[int]:
        """Historic rids that ever carried ``key`` in the given index —
        the only extra candidates a snapshot index probe must examine."""
        tree = self._history_ordered.get(tuple(column_names))
        return tree.get(key) if tree is not None else frozenset()

    @property
    def prune_floor(self) -> int:
        """Snapshots older than this timestamp can no longer be served."""
        return self._prune_floor

    def pk_rid(self, key: tuple) -> int | None:
        """The rid currently carrying primary key ``key`` (current state)."""
        return self._pk_index.get(key)

    def secondary_index(self, column_names: Sequence[str]) -> HashIndex:
        """The declared secondary index on exactly ``column_names``."""
        wanted = tuple(column_names)
        for index in self._secondary:
            if index.column_names == wanted:
                return index
        raise StorageError(
            f"table {self.name!r} declares no secondary index on {wanted!r}")

    def prune_versions(self, horizon: int) -> int:
        """Drop versions invisible to every snapshot at/after ``horizon``.

        Returns the number of versions removed.  Callers must pass a
        horizon no newer than the oldest active snapshot; once pruning
        removed anything, older snapshots raise
        :class:`~repro.errors.SnapshotTooOldError` on their next read.

        Only ``_prunable`` chains are visited: a chain of live versions
        alone has nothing at or below any horizon, and a rid that is not
        historic has no history entry to retire.
        """
        removed = 0
        for rid in list(self._prunable):
            chain = self._versions.get(rid)
            if chain is None:
                # Pruned away entirely in an earlier pass (or restored
                # without history): nothing below any horizon is left, so
                # the historic entry — and the per-key buckets built from
                # it — must not outlive the chain.
                self._history_discard(rid)
                self._prunable.discard(rid)
                continue
            keep = [
                v for v in chain
                if v.end_ts is None or v.end_ts > horizon
            ]
            if len(keep) != len(chain):
                removed += len(chain) - len(keep)
                self._chain_resized(len(chain), len(keep))
                if keep:
                    self._versions[rid] = keep
                else:
                    del self._versions[rid]
            if rid in self._history:
                # Historic no longer: the chain is gone, or it is down to
                # the one live version the current indexes already reach.
                if not keep or (
                    rid in self._rows and len(keep) == 1
                    and keep[0].end_ts is None and keep[0].deleted_by is None
                ):
                    self._history_discard(rid)
            if rid not in self._history and not any(
                v.end_ts is not None or v.deleted_by is not None for v in keep
            ):
                self._prunable.discard(rid)
        self._total_versions -= removed
        # The watermark resets to exact after a prune.
        self._max_chain = max(self._chain_lengths, default=0)
        if removed:
            self._prune_floor = max(self._prune_floor, horizon)
        return removed

    def version_chains(self) -> dict[int, tuple[RowVersion, ...]]:
        """A read-only view of every rid's version chain (oldest first)."""
        return {rid: tuple(chain) for rid, chain in self._versions.items()}

    def versions_of(self, rid: int) -> tuple[RowVersion, ...]:
        """The version chain of one rid (oldest first; empty if none)."""
        return tuple(self._versions.get(rid, ()))

    def version_stats(self) -> tuple[int, int]:
        """``(total versions, longest chain)`` — the MVCC footprint.

        O(1): maintained incrementally.  The chain-length figure is a
        high-watermark that resets to exact on every prune.
        """
        return self._total_versions, self._max_chain

    def chain_histogram(self) -> dict[int, int]:
        """Version-chain-length histogram: ``length -> #rids`` (exact;
        maintained incrementally, so O(distinct lengths))."""
        return dict(self._chain_lengths)

    def take_supersede_pruned(self) -> int:
        """Collect (and reset) the supersede-time prune counter."""
        pruned = self._supersede_pruned
        self._supersede_pruned = 0
        return pruned

    # -- checkpointing ---------------------------------------------------------------

    def checkpoint_image(self) -> TableImage:
        """The committed state this table contributes to a checkpoint.

        Callers (the engine) guarantee quiescence: no active transaction
        holds pending versions, so every live row's newest version is
        committed and its ``begin_ts`` is the one to preserve.
        """
        rows = []
        for rid in sorted(self._rows):
            begin_ts = 0
            for version in reversed(self._versions.get(rid, ())):
                if version.end_ts is None and version.deleted_by is None:
                    begin_ts = version.begin_ts or 0
                    break
            rows.append((rid, self._rows[rid].values, begin_ts))
        return TableImage(next_rid=self._next_rid, rows=tuple(rows))

    def restore_checkpoint(self, image: TableImage) -> None:
        """Rebuild contents from a checkpoint image (restart recovery).

        Each row comes back as a single-version chain stamped with its
        original ``begin_ts``, so post-restart snapshots see exactly the
        pre-crash visibility for pre-checkpoint data.
        """
        self.clear()
        for rid, values, begin_ts in image.rows:
            self.insert_with_rid(rid, values)
            self._versions[rid][-1].begin_ts = begin_ts
        self._next_rid = image.next_rid

    # -- whole-table helpers --------------------------------------------------------

    def clear(self) -> None:
        """Drop all rows (rid counter is preserved: rids are never reused)."""
        self._rows.clear()
        self._pk_index.clear()
        for index in self._secondary:
            index.clear()
        for tree in self._ordered.values():
            tree.clear()
        self._versions.clear()
        self._history.clear()
        for tree in self._history_ordered.values():
            tree.clear()
        self._history_entries.clear()
        self._pending_created.clear()
        self._pending_ended.clear()
        self._prunable.clear()
        self._prune_floor = 0
        self._total_versions = 0
        self._max_chain = 0
        self._chain_lengths.clear()
        self._supersede_pruned = 0

    def snapshot(self) -> list[tuple[int, ValueTuple]]:
        """A deterministic, deep-enough copy of the table contents."""
        return [(rid, self._rows[rid].values) for rid in sorted(self._rows)]

    def restore(self, snapshot: Iterable[tuple[int, ValueTuple]]) -> None:
        """Restore contents from a :meth:`snapshot` (recovery path)."""
        self.clear()
        for rid, values in snapshot:
            self.insert_with_rid(rid, values)
