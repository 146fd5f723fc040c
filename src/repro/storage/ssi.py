"""Serializable Snapshot Isolation: the rw-antidependency tracker.

``TxnIsolation.SERIALIZABLE`` runs exactly like ``SNAPSHOT`` — lock-free
versioned reads, first-updater-wins write-write conflicts — plus this
tracker, which upgrades the guarantee from snapshot isolation to full
serializability *without reintroducing read locks* (Cahill/Fekete SSI,
as in PostgreSQL).

The theory (Fekete et al.): every non-serializable SI history contains a
**dangerous structure** — a *pivot* transaction with an inbound and an
outbound rw antidependency that are consecutive in a serialization-graph
cycle.  Abort one transaction of every would-be structure and only
serializable histories can commit.  ``repro.model.conflicts.
find_non_si_cycles`` classifies exactly this shape after the fact; the
tracker prevents it at runtime, so the model oracle and the engine agree
on what "serializable" means.

An rw antidependency R → W exists when reader R observed, on its
snapshot, an *older* version of an item that concurrent writer W
committed a newer version of.  Items reuse the lock manager's resource
vocabulary (the SIREAD-lock granularity): ``RowId`` for produced rows,
``index_key_resource`` triples for index-key probes — positive *and*
negative, which is what keeps phantoms inside the net — and
``table_resource`` for full scans (a writer marks every table it touches,
so scan readers conflict with any write to the table).

Detection points, exploiting that active transactions can hold only
*outbound* edges (an inbound edge needs the writer's commit, and
uncommitted writes create no edges):

* **writer commit** — the committing transaction's write set is checked
  against every concurrent tracked reader's read set.  A new inbound
  edge on a committing transaction that already carries an outbound one
  makes it the pivot: it aborts (:class:`~repro.errors.
  SerializationFailureError`), no versions are installed, and the edges
  are discarded.  A new *outbound* edge landing on an already-committed
  reader that carries an inbound edge exposes a committed pivot — too
  late to abort the pivot, so the committing transaction aborts instead
  (conservatively, ``pivot=False``).
* **read** — a reader probing an item some already-committed concurrent
  writer superseded gains the outbound edge immediately (the commit-time
  sweep cannot see reads that happen after it).  If that committed
  writer carries an outbound edge of its own it is a committed pivot:
  the reader is **doomed** — the failure surfaces at the reader's own
  commit, never mid-evaluation, so grounding observers stay non-raising.

Aborting on in+out without proving a full cycle admits false positives
(Cahill's simplification); the bench ablation measures that abort tax
against the SNAPSHOT and 2PL arms.

Thread-safe: every public entry runs under one internal mutex, because
the sharded engine runs ONE global tracker that the per-shard worker
threads of :mod:`repro.core.executor` all report into.  Write sets are
recorded for *every* transaction (a SNAPSHOT writer can still be the W
of an R → W edge) — once, from its undo log (``StorageEngine.prepare``),
when its commit or its commit group's validation is about to read them;
read sets only for SERIALIZABLE transactions, as they read.
Committed state is garbage-collected once no live serializable snapshot
predates the commit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

from repro.analysis.latch import Latch
from repro.errors import SerializationFailureError
from repro.storage.bptree import sort_key

#: An SSI item: a lock-manager resource (RowId / index key / table), or a
#: range read ``("ixrange", table, cols, lo, hi, lo_inc, hi_inc)`` — the
#: predicate form of an ordered-index scan, matched against ixkey writes
#: by interval containment so phantom inserts form rw edges too.
Item = Hashable


def _is_range_item(item: Item) -> bool:
    return (
        isinstance(item, tuple) and len(item) == 7 and item[0] == "ixrange"
    )


def _range_covers(range_item, key_item) -> bool:
    """Does an ixrange read item cover an ixkey write item?

    True exactly when the write touches the same table + index columns and
    its key falls inside the recorded interval — i.e. the written key
    would have qualified for (or newly entered) the scanned range.
    """
    if not (
        isinstance(key_item, tuple)
        and len(key_item) == 4
        and key_item[0] == "ixkey"
    ):
        return False
    _tag, table, cols, lo, hi, lo_inc, hi_inc = range_item
    if key_item[1] != table or key_item[2] != cols:
        return False
    skey = sort_key(key_item[3])
    if lo is not None:
        slo = sort_key(lo)
        if skey < slo or (skey == slo and not lo_inc):
            return False
    if hi is not None:
        shi = sort_key(hi)
        if skey > shi or (skey == shi and not hi_inc):
            return False
    return True


def _reads_overlap(reads: "set[Item]", writes: "set[Item]") -> bool:
    """Read-set/write-set overlap, extended with interval containment:
    plain items intersect as sets; an ixrange read overlaps any ixkey
    write it covers."""
    if reads & writes:
        return True
    ranges = [r for r in reads if _is_range_item(r)]
    if not ranges:
        return False
    return any(
        _range_covers(r, w) for r in ranges for w in writes
    )


class _SSIStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"


@dataclass
class _SSITxn:
    """Tracker state for one transaction."""

    txn_id: int
    read_ts: int
    serializable: bool
    status: _SSIStatus = _SSIStatus.ACTIVE
    #: commit timestamp; read-only transactions get the last allocated
    #: timestamp at their commit so concurrency stays decidable.
    commit_ts: int | None = None
    reads: set[Item] = field(default_factory=set)
    writes: set[Item] = field(default_factory=set)
    #: transactions with an rw edge into this one (they read, we wrote).
    in_rw: set[int] = field(default_factory=set)
    #: transactions with an rw edge out of this one (we read, they wrote).
    out_rw: set[int] = field(default_factory=set)
    #: set when committing this transaction would expose a committed
    #: pivot; the failure is raised at this transaction's commit.
    doomed: bool = False


class SSITracker:
    """Tracks rw antidependencies and aborts dangerous structures."""

    def __init__(self) -> None:
        #: one mutex over all tracker state: the tracker is global under
        #: sharding, so per-shard worker threads call in concurrently.
        self._mutex = Latch("ssi-tracker")
        self._txns: dict[int, _SSITxn] = {}
        #: count of tracked SERIALIZABLE transactions (any status).  A
        #: plain int maintained under the mutex but *read* without it:
        #: :meth:`has_serializable` is an advisory fast path for a
        #: coordinator deciding whether its prepare round can matter.
        self._serializable_tracked = 0
        #: inverted index item -> committed transactions that wrote it,
        #: so a read's sweep for superseding committed writers is
        #: O(per item) instead of O(tracked transactions).
        self._committed_writes: dict[Item, set[int]] = {}
        #: the COMMITTED entries of ``_txns`` — all the garbage collector
        #: ever drops, so it walks these and not every live transaction.
        self._committed: dict[int, _SSITxn] = {}
        self.stats = {
            "rw_edges": 0,
            "pivot_aborts": 0,
            #: pivot aborts taken while *no* inbound-edge reader had
            #: committed yet: Cahill's in+out test fired, but Fekete's
            #: precise dangerous structure (which additionally needs the
            #: cycle through a committed T_in to materialize) was not yet
            #: proven — every such reader could still have aborted.  The
            #: bench's low-contention arm reports this as the runtime
            #: upper bound on the false-positive abort share.
            "pivot_aborts_unproven": 0,
            "conservative_aborts": 0,
            "doomed_reads": 0,
        }

    # -- lifecycle ------------------------------------------------------------------

    def begin(self, txn: int, read_ts: int, *, serializable: bool) -> None:
        with self._mutex:
            self._txns[txn] = _SSITxn(txn, read_ts, serializable)
            if serializable:
                self._serializable_tracked += 1

    def has_serializable(self) -> bool:
        """Whether any SERIALIZABLE transaction is tracked at all.

        When false, no write set recorded *now* can ever form an rw
        antidependency: every serializable transaction beginning later
        gets a snapshot at or past the recorder's eventual commit, so it
        reads the new versions and no edge exists.  Its one kind of
        caller is a sharded coordinator's prepare round
        (``ShardedStorageEngine._prepare_shards``, for a commit or a
        group validation): it holds the commit funnel, begins register
        under the same funnel, so it may skip pulling the shards' write
        sets entirely.
        """
        return self._serializable_tracked > 0

    def refresh(self, txn: int, read_ts: int) -> None:
        """Follow ``StorageEngine.refresh_snapshot``: the transaction
        re-snapshots because nothing it observed escaped, so any reads
        recorded for a discarded grounding attempt — and the edges they
        formed — are dropped along with the old snapshot."""
        with self._mutex:
            state = self._txns.get(txn)
            if state is None:
                return
            state.read_ts = read_ts
            state.reads.clear()
            for other in state.out_rw:
                peer = self._txns.get(other)
                if peer is not None:
                    peer.in_rw.discard(txn)
            state.out_rw.clear()
            state.doomed = False

    def on_abort(self, txn: int) -> None:
        """Discard an aborted transaction and every edge through it."""
        with self._mutex:
            state = self._txns.pop(txn, None)
            if state is None:
                return
            self._committed.pop(txn, None)
            if state.serializable:
                self._serializable_tracked -= 1
            for other in state.in_rw:
                peer = self._txns.get(other)
                if peer is not None:
                    peer.out_rw.discard(txn)
            for other in state.out_rw:
                peer = self._txns.get(other)
                if peer is not None:
                    peer.in_rw.discard(txn)
            self._collect()

    # -- recording ------------------------------------------------------------------

    def record_write(self, txn: int, items: Iterable[Item]) -> None:
        """Add items to ``txn``'s write set (any isolation level)."""
        with self._mutex:
            state = self._txns.get(txn)
            if state is not None:
                state.writes.update(items)

    def record_read(self, txn: int, items: Iterable[Item]) -> None:
        """Add items to a SERIALIZABLE ``txn``'s read set and form the
        outbound edges to concurrent writers that already committed a
        newer version of one of them.

        Never raises: exposing a committed pivot here only *dooms* the
        reader (its own commit fails), so this is safe to call from the
        grounding read observers inside batch evaluation.
        """
        with self._mutex:
            state = self._txns.get(txn)
            if state is None or not state.serializable:
                return
            fresh = [i for i in items if i not in state.reads]
            if not fresh:
                return
            state.reads.update(fresh)
            for item in fresh:
                if _is_range_item(item):
                    # Sweep committed ixkey writes the interval covers —
                    # a phantom the range read *didn't* see on its
                    # snapshot still forms the outbound edge.  Linear in
                    # committed items, which GC keeps bounded.
                    writer_ids: set[int] = set()
                    for witem, writers in self._committed_writes.items():
                        if _range_covers(item, witem):
                            writer_ids.update(writers)
                else:
                    writer_ids = self._committed_writes.get(item, set())
                for writer_id in writer_ids:
                    if writer_id == txn:
                        continue
                    writer = self._txns[writer_id]
                    if writer.commit_ts is None or writer.commit_ts <= state.read_ts:
                        continue  # visible to the snapshot: no antidependency
                    self._add_edge(reader=state, writer=writer)
                    if writer.out_rw - {txn}:
                        # The committed writer is now a pivot; it can no
                        # longer abort, so the reader must.
                        if not state.doomed:
                            state.doomed = True
                            self.stats["doomed_reads"] += 1

    # -- commit ---------------------------------------------------------------------

    def serialization_doomed(self, txn: int) -> bool:
        """Would :meth:`on_commit` currently fail for ``txn``?
        Side-effect-free; equivalent to a group of one."""
        return self.group_doomed((txn,))

    def group_doomed(self, txns: Sequence[int]) -> bool:
        """Would committing ``txns`` in this order — as one atomic unit,
        with each member's commit edges visible to the next — fail SSI
        validation for any member?

        Coordinators call this before committing any member of an
        entanglement group: committing members one by one and hitting a
        failure midway would leave the earlier members durably committed
        while the rest abort — a widowed group.  The simulation applies
        each member's would-be edges to an overlay (never to the real
        tracker state) and checks exactly the conditions
        :meth:`on_commit` raises on, including edges contributed by the
        group's own earlier members.
        """
        with self._mutex:
            return self._group_doomed_locked(txns)

    def _group_doomed_locked(self, txns: Sequence[int]) -> bool:
        virtual_out: dict[int, set[int]] = {}
        virtual_in: dict[int, set[int]] = {}
        virtual_committed: set[int] = set()
        for txn in txns:
            state = self._txns.get(txn)
            if state is None:
                continue
            readers = self._overlap_readers(state)
            if state.serializable:
                if state.doomed:
                    return True
                in_edges = state.in_rw | virtual_in.get(txn, set())
                out_edges = state.out_rw | virtual_out.get(txn, set())
                if out_edges and any(
                    r.txn_id not in in_edges for r in readers
                ):
                    return True  # this member would be the pivot
                for reader in readers:
                    committed = (
                        reader.status is _SSIStatus.COMMITTED
                        or reader.txn_id in virtual_committed
                    )
                    reader_in = reader.in_rw | virtual_in.get(
                        reader.txn_id, set()
                    )
                    reader_out = reader.out_rw | virtual_out.get(
                        reader.txn_id, set()
                    )
                    if committed and reader_in and txn not in reader_out:
                        return True  # would expose a committed pivot
            for reader in readers:
                virtual_out.setdefault(reader.txn_id, set()).add(txn)
                virtual_in.setdefault(txn, set()).add(reader.txn_id)
            virtual_committed.add(txn)
        return False

    def on_commit(self, txn: int, commit_ts: int) -> None:
        """Validate and finalize ``txn``'s commit at ``commit_ts``.

        Raises :class:`SerializationFailureError` — *before* recording
        any edge, so an aborted commit leaves no trace — when

        * ``txn`` was doomed by an earlier read (committed pivot),
        * the sweep's new inbound edges make ``txn`` itself the pivot
          (it already carries an outbound edge), or
        * a new outbound edge lands on a committed reader that already
          carries an inbound edge (committed pivot, conservative abort).

        Otherwise the edges are applied and the transaction is retained
        as committed until the GC horizon passes it.
        """
        with self._mutex:
            self._on_commit_locked(txn, commit_ts)

    def _on_commit_locked(self, txn: int, commit_ts: int) -> None:
        state = self._txns.get(txn)
        if state is None:
            return
        readers = self._overlap_readers(state)
        if state.serializable:
            if state.doomed:
                self.stats["conservative_aborts"] += 1
                raise SerializationFailureError(
                    f"transaction {txn} read from a committed pivot; "
                    f"serializable commit rejected", pivot=False,
                )
            new_inbound = [r for r in readers if r.txn_id not in state.in_rw]
            if state.out_rw and new_inbound:
                self.stats["pivot_aborts"] += 1
                # A transaction gains in_rw edges only at its *own*
                # commit (below), so at this point every inbound edge is
                # fresh from the sweep.  The structure is proven iff one
                # of those readers already committed; if all are still
                # active, each could yet abort and dissolve it — the
                # Cahill-not-yet-Fekete case the bench measures.
                if all(r.status is _SSIStatus.ACTIVE for r in new_inbound):
                    self.stats["pivot_aborts_unproven"] += 1
                raise SerializationFailureError(
                    f"transaction {txn} is the pivot of a dangerous "
                    f"structure (inbound rw from "
                    f"{sorted(r.txn_id for r in new_inbound)}, outbound rw "
                    f"to {sorted(state.out_rw)}); aborted to preserve "
                    f"serializability"
                )
            committed_pivots = [
                r for r in readers
                if r.status is _SSIStatus.COMMITTED
                and r.in_rw
                and txn not in r.out_rw
            ]
            if committed_pivots:
                self.stats["conservative_aborts"] += 1
                raise SerializationFailureError(
                    f"committing transaction {txn} would make committed "
                    f"transaction(s) "
                    f"{sorted(r.txn_id for r in committed_pivots)} a pivot; "
                    f"aborted conservatively", pivot=False,
                )
        # A non-serializable writer cannot itself be aborted by SSI, but
        # its commit still creates inbound edges on it — and outbound
        # edges on serializable readers — that later pivot checks need.
        for reader in readers:
            self._add_edge(reader=reader, writer=state)
        state.status = _SSIStatus.COMMITTED
        state.commit_ts = commit_ts
        self._committed[txn] = state
        for item in state.writes:
            self._committed_writes.setdefault(item, set()).add(txn)
        self._collect()

    def _overlap_readers(self, writer: _SSITxn) -> list[_SSITxn]:
        """Tracked serializable readers whose snapshot read sets overlap
        ``writer``'s write set and whose lifetime overlaps ``writer``'s."""
        if not writer.writes or not self._serializable_tracked:
            return []  # no serializable transaction, no reader to find
        readers = []
        for reader in self._txns.values():
            if reader.txn_id == writer.txn_id or not reader.serializable:
                continue
            # Concurrency: the reader's snapshot predates this commit by
            # construction (it is live or was live when the writer was);
            # the writer must additionally have begun before the reader
            # ended.
            if (
                reader.status is _SSIStatus.COMMITTED
                and reader.commit_ts is not None
                and reader.commit_ts <= writer.read_ts
            ):
                continue
            if _reads_overlap(reader.reads, writer.writes):
                readers.append(reader)
        return readers

    def _add_edge(self, *, reader: _SSITxn, writer: _SSITxn) -> None:
        if writer.txn_id not in reader.out_rw:
            reader.out_rw.add(writer.txn_id)
            writer.in_rw.add(reader.txn_id)
            self.stats["rw_edges"] += 1

    # -- garbage collection ------------------------------------------------------------

    def _collect(self) -> None:
        """Drop committed entries no live serializable snapshot predates.

        A committed transaction W can still gain edges only through an
        active serializable transaction whose snapshot is older than
        W's commit (a late read of the superseded version, or W's own
        read set meeting a writer that W overlapped).  Once every active
        serializable snapshot is at/after ``W.commit_ts``, W is inert.
        """
        if not self._committed:
            return
        horizon = None
        if self._serializable_tracked:
            horizon = min(
                (
                    t.read_ts
                    for t in self._txns.values()
                    if t.status is _SSIStatus.ACTIVE and t.serializable
                ),
                default=None,
            )
        for txn_id in [
            t.txn_id
            for t in self._committed.values()
            if horizon is None
            or (t.commit_ts is not None and t.commit_ts <= horizon)
        ]:
            del self._committed[txn_id]
            dead = self._txns.pop(txn_id)
            if dead.serializable:
                self._serializable_tracked -= 1
            for other in dead.in_rw:
                peer = self._txns.get(other)
                if peer is not None:
                    peer.out_rw.discard(txn_id)
            for other in dead.out_rw:
                peer = self._txns.get(other)
                if peer is not None:
                    peer.in_rw.discard(txn_id)
            for item in dead.writes:
                writers = self._committed_writes.get(item)
                if writers is not None:
                    writers.discard(txn_id)
                    if not writers:
                        del self._committed_writes[item]

    # -- introspection ------------------------------------------------------------------

    def tracked(self) -> int:
        """Number of transactions currently retained (tests, reports)."""
        with self._mutex:
            return len(self._txns)
