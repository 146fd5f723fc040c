"""Lock manager: multigranularity IS/IX/S/X locks, Strict 2PL, deadlocks.

The paper's prototype enforces full entangled isolation with Strict 2PL
implemented "using the lock manager of the DBMS" (Section 5.1).  This is
that lock manager.  It supports:

* **Modes** — shared (S), exclusive (X), and the intention modes IS/IX of
  classical multigranularity locking, with mode conversion along the
  supremum lattice (S+IX and any conversion that would need SIX escalates
  to X, which is conservative but sound).
* **Granularity** — arbitrary hashable resources.  The engine locks
  ``("table", name)`` at table granularity, ``RowId`` for individual rows,
  and :func:`index_key_resource` triples for index keys; the latter double
  as gap locks giving phantom protection to point and keyed-range reads.
  Table/row/key containment is resolved by the intention modes at the
  table granule, so conflicts stay local to each resource.
* **Strict 2PL** — locks are only released by :meth:`release_all` at
  commit/abort.  For the isolation-relaxation ablation (Section 3.3.3), the
  engine may call :meth:`release_shared` early, re-admitting unrepeatable
  quasi-reads.
* **Deadlock detection** — a waits-for graph is maintained; a request that
  would close a cycle raises :class:`DeadlockError` immediately (the
  requester is the victim), matching the immediate-abort policy the
  run-based scheduler wants.

The manager is *cooperative*: it never blocks a thread.  A conflicting
request returns :data:`LockOutcome.WAIT` after enqueueing the waiter; the
scheduler decides whether to suspend or abort the transaction.  It is
also **thread-safe**: every public operation runs under an internal
mutex, so the per-shard worker threads of
:mod:`repro.core.executor` can acquire and release concurrently.  Shard
ensembles that share one waits-for graph share the mutex too (see
:meth:`LockManager.share_waits_for`), so the deadlock DFS observes a
consistent cross-shard edge map.

**Cost model** — every operation costs what *its* transaction holds or
waits on, never the number of live transactions.  Each resource keeps
granted-mode counts, so the grant path tests conflicts in O(#modes);
holders are enumerated only on the WAIT path, where the blocker ids feed
the waits-for graph.  A per-transaction index of queued resources beside
the held index makes :meth:`release_all` O(held + queued) and
:meth:`waiting` a lookup.  Promotion visits only the resources a release
actually changed — sound because whether a resource's queue head is
grantable depends on that resource's holders and queue alone.  All three
indexes are insertion-ordered dicts, so the woken order never depends on
``PYTHONHASHSEED``.

Under MVCC (``TxnIsolation.SNAPSHOT``) readers bypass this manager
entirely — snapshot reads are served from version chains without S/IS
locks.  Writers keep the X/IX side of the protocol above, and the engine
layers first-updater-wins write-write conflict detection on top: the X
lock serializes same-row writers, and the commit-timestamp check after
the grant decides which of them loses.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

from repro.analysis.latch import Latch
from repro.errors import DeadlockError, LockError

#: A lockable resource.  The engine uses ("table", name), RowId values, and
#: ("ixkey", table, columns, key) tuples from :func:`index_key_resource`.
Resource = Hashable


class LockMode(enum.Enum):
    """The four multigranularity modes.

    The engine's protocol: point/keyed readers take table IS plus S on the
    index-key and row resources they touch; full scans take table S;
    writers take table IX plus X on the rows and index keys they disturb.
    IS is compatible with everything but X, so keyed readers and row-level
    writers of the same table proceed concurrently (as in InnoDB) and only
    collide when they meet on the same row or index key.  A genuine full
    scan's table S still excludes all writers — the conservative fallback.
    """

    INTENTION_SHARED = "IS"
    INTENTION_EXCLUSIVE = "IX"
    SHARED = "S"
    EXCLUSIVE = "X"

    #: position in ``_LockState.counts``; ``conflicts`` holds the positions
    #: of the incompatible modes and ``covered`` one flag per position —
    #: plain ints and tuples filled in below from the two tables, because
    #: hashing an enum member is a Python-level call the hot path avoids.
    index: int
    conflicts: tuple[int, ...]
    covered: tuple[bool, ...]

    def compatible(self, other: "LockMode") -> bool:
        return other.index not in self.conflicts

    def covers(self, other: "LockMode") -> bool:
        """True when holding ``self`` makes a request for ``other`` a no-op."""
        return self.covered[other.index]

    def combine(self, other: "LockMode") -> "LockMode":
        """The weakest single mode at least as strong as both (supremum).

        S+IX (and any pair whose true supremum would be SIX) escalates to
        X: stronger than necessary, but sound, and rare under the engine's
        protocol.
        """
        if self.covers(other):
            return self
        if other.covers(self):
            return other
        return LockMode.EXCLUSIVE


_COMPATIBLE: dict[LockMode, frozenset[LockMode]] = {
    LockMode.INTENTION_SHARED: frozenset(
        {LockMode.INTENTION_SHARED, LockMode.INTENTION_EXCLUSIVE, LockMode.SHARED}
    ),
    LockMode.INTENTION_EXCLUSIVE: frozenset(
        {LockMode.INTENTION_SHARED, LockMode.INTENTION_EXCLUSIVE}
    ),
    LockMode.SHARED: frozenset({LockMode.INTENTION_SHARED, LockMode.SHARED}),
    LockMode.EXCLUSIVE: frozenset(),
}

_COVERS: dict[LockMode, frozenset[LockMode]] = {
    LockMode.INTENTION_SHARED: frozenset({LockMode.INTENTION_SHARED}),
    LockMode.INTENTION_EXCLUSIVE: frozenset(
        {LockMode.INTENTION_EXCLUSIVE, LockMode.INTENTION_SHARED}
    ),
    LockMode.SHARED: frozenset({LockMode.SHARED, LockMode.INTENTION_SHARED}),
    LockMode.EXCLUSIVE: frozenset(LockMode),
}

for _index, _mode in enumerate(LockMode):
    _mode.index = _index
for _mode in LockMode:
    _mode.conflicts = tuple(
        m.index for m in LockMode if m not in _COMPATIBLE[_mode]
    )
    _mode.covered = tuple(m in _COVERS[_mode] for m in LockMode)


class LockOutcome(enum.Enum):
    GRANTED = "granted"
    WAIT = "wait"


@dataclass(slots=True)
class _LockState:
    """Per-resource lock state: holders by mode, how many holders each
    mode has (indexed by ``LockMode.index``), and the FIFO wait queue.
    A state exists only while it has a holder or a waiter."""

    holders: dict[int, LockMode] = field(default_factory=dict)
    counts: list[int] = field(default_factory=lambda: [0, 0, 0, 0])
    queue: list[tuple[int, LockMode]] = field(default_factory=list)

    def conflicts(self, mode: LockMode, held: LockMode | None = None) -> bool:
        """Does a holder *other than the requester* (which itself holds
        ``held``, if anything) hold a mode incompatible with ``mode``?"""
        own = -1 if held is None else held.index
        counts = self.counts
        for index in mode.conflicts:
            if counts[index] > (index == own):  # discount the requester
                return True
        return False


def table_resource(table_name: str) -> tuple[str, str]:
    """The canonical resource for a whole-table lock."""
    return ("table", table_name)


def index_key_resource(
    table_name: str, columns: Sequence[str], key: Sequence
) -> tuple:
    """The canonical resource for one key of one index of ``table_name``.

    Readers S-lock the keys they probe (even when no row matches — the
    lock then guards the *gap*, keeping negative reads repeatable);
    writers X-lock every key their row carries (inserts) or gains
    (updates).  That conflict is exactly the phantom protection point and
    keyed-range reads need without escalating to a table lock.
    """
    return ("ixkey", table_name, tuple(columns), tuple(key))


#: the counters in :attr:`LockManager.stats`, in reporting order (the
#: process transport ships them positionally).
LOCK_STATS = (
    "acquired", "waits", "deadlocks", "upgrades", "read_grants",
    "table_s_grants",
)


class LockManager:
    """A cooperative S/X lock manager with deadlock detection."""

    def __init__(self):
        self._locks: dict[Resource, _LockState] = {}
        #: txn -> resources it holds, and txn -> resources it is queued on
        #: (with its number of queue entries there).  Insertion-ordered
        #: dicts used as ordered sets: release walks them, and the order of
        #: the woken list must not depend on how resources hash.
        self._held: dict[int, dict[Resource, None]] = defaultdict(dict)
        self._queued: dict[int, dict[Resource, int]] = defaultdict(dict)
        #: resources whose queue :meth:`cancel_wait` shortened; the next
        #: release promotes on them, so waking stays on the release path.
        self._pending: dict[Resource, None] = {}
        self._waits_for: dict[int, set[int]] = defaultdict(set)
        #: guards all manager state; replaced by a *shared* mutex when the
        #: waits-for graph is shared across a shard ensemble.
        self._mutex = Latch("lock-manager")
        #: statistics for benchmarks and tests.  ``read_grants`` counts
        #: S/IS grants specifically: the MVCC ablation asserts snapshot
        #: transactions drive it to exactly zero (readers never lock).
        #: ``table_s_grants`` counts whole-table S grants — the range
        #: bench asserts next-key-locked range scans drive it to zero.
        self.stats = dict.fromkeys(LOCK_STATS, 0)

    def share_waits_for(
        self,
        graph: "dict[int, set[int]]",
        mutex: "Latch | None" = None,
    ) -> None:
        """Adopt a shared waits-for graph (sharded ensembles).

        Shard-local lock managers see only their own half of a
        cross-shard wait cycle; pointing every shard's deadlock DFS at
        one shared edge map makes the cycle visible to whichever shard
        receives the closing request.  Transaction ids are globally
        unique across shards, so edges compose without translation.
        Must be called before any lock is requested.

        ``mutex`` (when given) replaces the manager's internal mutex, so
        every manager sharing the graph also shares one lock — the
        deadlock DFS walks edges contributed by *other* shards' managers
        and must never observe them mid-update.
        """
        if self._waits_for:
            raise LockError("cannot share a waits-for graph mid-flight")
        self._waits_for = graph
        if mutex is not None:
            self._mutex = mutex

    # -- introspection -------------------------------------------------------------
    # Probes use ``.get``: looking at a resource must never create its state.

    def holders(self, resource: Resource) -> dict[int, LockMode]:
        with self._mutex:
            state = self._locks.get(resource)
            return dict(state.holders) if state is not None else {}

    def holds(self, txn: int, resource: Resource, mode: LockMode | None = None) -> bool:
        with self._mutex:
            state = self._locks.get(resource)
            held = state.holders.get(txn) if state is not None else None
        if held is None:
            return False
        return mode is None or held.covers(mode)

    def held_resources(self, txn: int) -> frozenset[Resource]:
        with self._mutex:
            return frozenset(self._held.get(txn, ()))

    def waiting(self, txn: int) -> bool:
        with self._mutex:
            return txn in self._queued

    def waits_edges(self) -> dict[int, set[int]]:
        """A consistent snapshot of the waits-for graph: waiter → blockers.

        The distributed deadlock detector (process-per-shard mode) probes
        each shard's manager for its local edges and unions them on the
        coordinator — transaction ids are globally unique across shards,
        so edges compose without translation, exactly as they do for
        :meth:`share_waits_for` ensembles.
        """
        with self._mutex:
            return {
                waiter: set(blockers)
                for waiter, blockers in self._waits_for.items()
                if blockers
            }

    # -- distributed deadlock support ------------------------------------------------

    def cancel_wait(self, txn: int, resource: Resource) -> bool:
        """Withdraw ``txn``'s queued request on ``resource`` (victim path).

        The coordinator's probe-based deadlock detector chooses a victim
        *after* the wait is already enqueued in the shard process (the
        shard-local manager saw no cycle — it only has its half of the
        edges).  Cancelling removes the queued request and the waiter's
        outgoing waits-for edges.  Counts as a detected deadlock when
        something was actually withdrawn.  Returns True when a wait was
        removed.
        """
        with self._mutex:
            entries = self._queued.get(txn, {}).get(resource)
            if entries is None:
                return False
            state = self._locks[resource]
            state.queue = [(w, m) for (w, m) in state.queue if w != txn]
            self._unindex_queued(txn, resource, entries)
            # Only this resource's wait is withdrawn; with one queued
            # request per cooperative transaction the waiter has no
            # other outgoing edges to keep.  Requests queued behind the
            # withdrawn one are not promoted here: the resource goes into
            # the pending set, which the next release_all/release_shared
            # of any transaction consumes — the victim's own abort at the
            # latest — so the scheduler's wake channel stays the release
            # path.
            if state.holders or state.queue:
                self._pending[resource] = None
            else:
                del self._locks[resource]
            self._waits_for.pop(txn, None)
            self.stats["deadlocks"] += 1
            return True

    # -- acquisition ---------------------------------------------------------------

    def acquire(self, txn: int, resource: Resource, mode: LockMode) -> LockOutcome:
        """Request ``mode`` on ``resource`` for transaction ``txn``.

        Returns GRANTED when the lock is held on return.  Returns WAIT when
        the request conflicts; the waiter is queued and the waits-for edges
        are recorded.  Raises :class:`DeadlockError` (and leaves no residue)
        when granting-by-waiting would create a waits-for cycle.
        """
        with self._mutex:
            state = self._locks.get(resource)
            if state is None:
                # Nothing held, nothing queued: grant.  (A state is only
                # ever created here, so a refused request leaks none.)
                state = self._locks[resource] = _LockState()
                self._grant(txn, resource, state, mode)
                return LockOutcome.GRANTED
            current = state.holders.get(txn)

            if current is not None:
                if current.covers(mode):
                    return LockOutcome.GRANTED  # already sufficient
                # Conversion: move up the lattice to the supremum of the held
                # and requested modes, provided no *other* holder conflicts
                # with the target.
                target = current.combine(mode)
                if not state.conflicts(target, held=current):
                    self._convert(txn, state, target)
                    return LockOutcome.GRANTED
                blockers = self._blockers(txn, state, target)
                self._enqueue(txn, resource, state, target, blockers)
                return LockOutcome.WAIT

            if not state.conflicts(mode):
                if not self._must_queue_behind(txn, state, mode):
                    self._grant(txn, resource, state, mode)
                    return LockOutcome.GRANTED
                blockers = [w for w, _ in state.queue if w != txn]
            else:
                blockers = self._blockers(txn, state, mode)
            self._enqueue(txn, resource, state, mode, blockers)
            return LockOutcome.WAIT

    def _grant(
        self, txn: int, resource: Resource, state: _LockState, mode: LockMode
    ) -> None:
        """Make ``txn`` a (new) holder of ``resource`` in ``mode``."""
        state.holders[txn] = mode
        state.counts[mode.index] += 1
        self._held[txn][resource] = None
        self.stats["acquired"] += 1
        if mode in (LockMode.SHARED, LockMode.INTENTION_SHARED):
            self.stats["read_grants"] += 1
        if mode is LockMode.SHARED and _is_table_resource(resource):
            self.stats["table_s_grants"] += 1

    def _convert(self, txn: int, state: _LockState, target: LockMode) -> None:
        """Move holder ``txn`` up the lattice to ``target``."""
        state.counts[state.holders[txn].index] -= 1
        state.counts[target.index] += 1
        state.holders[txn] = target
        self.stats["upgrades"] += 1

    def _must_queue_behind(self, txn: int, state: _LockState, mode: LockMode) -> bool:
        """FIFO fairness: a new request queues behind an incompatible waiter
        (e.g. an S request behind a waiting X), so writers cannot starve
        under a stream of readers."""
        return any(
            waiter != txn and not waiting_mode.compatible(mode)
            for waiter, waiting_mode in state.queue
        )

    def _blockers(self, txn: int, state: _LockState, mode: LockMode) -> list[int]:
        """Holders that conflict with ``mode`` — the WAIT path only: the
        grant path asks :meth:`_LockState.conflicts` and never enumerates.

        The multigranularity protocol (keyed readers: table IS + row/key
        S; scans: table S; writers: table IX + row/key X) makes conflicts
        local to each resource — table/row/key containment is resolved by
        the intention modes at the table granule, so no hierarchical walk
        is needed here.
        """
        return sorted(
            holder
            for holder, held_mode in state.holders.items()
            if holder != txn and not held_mode.compatible(mode)
        )

    def _enqueue(
        self,
        txn: int,
        resource: Resource,
        state: _LockState,
        mode: LockMode,
        blockers: Iterable[int],
    ) -> None:
        blockers = [b for b in set(blockers) if b != txn]
        self._check_deadlock(txn, blockers)
        if (txn, mode) not in state.queue:
            state.queue.append((txn, mode))
            queued = self._queued[txn]
            queued[resource] = queued.get(resource, 0) + 1
            # Count the conflict once per queued request: a retry of an
            # already-queued request is not a new wait.
            self.stats["waits"] += 1
        self._waits_for[txn].update(blockers)

    def _check_deadlock(self, txn: int, new_edges: Iterable[int]) -> None:
        """DFS over waits-for (with the tentative edges) looking for a path
        back to ``txn``; raise and record when found."""
        stack = list(new_edges)
        seen: set[int] = set()
        while stack:
            node = stack.pop()
            if node == txn:
                self.stats["deadlocks"] += 1
                raise DeadlockError(
                    f"transaction {txn} would deadlock (cycle via waits-for graph)"
                )
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._waits_for.get(node, ()))

    # -- release -------------------------------------------------------------------

    def release_all(self, txn: int) -> list[int]:
        """Release every lock and queued request of ``txn`` (commit/abort).

        Returns transaction ids whose queued requests became grantable and
        were granted — the scheduler uses this to wake suspended work.
        """
        with self._mutex:
            touched, self._pending = self._pending, {}
            for resource in self._held.pop(txn, ()):
                self._drop_holder(txn, resource)
                touched[resource] = None
            for resource in self._queued.pop(txn, ()):
                state = self._locks[resource]
                state.queue = [(w, m) for (w, m) in state.queue if w != txn]
                touched[resource] = None
            self._waits_for.pop(txn, None)
            for edges in self._waits_for.values():
                edges.discard(txn)
            return self._promote_waiters(touched)

    def release_shared(self, txn: int) -> list[int]:
        """Early release of all read locks (S and IS) held by ``txn``
        (isolation-relaxation ablation; Section 3.3.3 'altering the length
        of time locks are held')."""
        with self._mutex:
            touched, self._pending = self._pending, {}
            held = self._held.get(txn, {})
            for resource in list(held):
                mode = self._locks[resource].holders[txn]
                if mode is LockMode.SHARED or mode is LockMode.INTENTION_SHARED:
                    self._drop_holder(txn, resource)
                    del held[resource]
                    touched[resource] = None
            if not held:
                self._held.pop(txn, None)
            return self._promote_waiters(touched)

    def _drop_holder(self, txn: int, resource: Resource) -> None:
        state = self._locks[resource]
        state.counts[state.holders.pop(txn).index] -= 1

    def _unindex_queued(self, txn: int, resource: Resource, entries: int) -> None:
        """``entries`` of ``txn``'s requests left ``resource``'s queue."""
        queued = self._queued[txn]
        queued[resource] -= entries
        if not queued[resource]:
            del queued[resource]
            if not queued:
                del self._queued[txn]

    def _promote_waiters(self, touched: Iterable[Resource]) -> list[int]:
        """Grant queued requests that no longer conflict, FIFO per resource,
        on the resources a release changed; reclaim the states it emptied.
        Untouched resources cannot have become grantable: a queue head's
        fate depends only on its own resource's holders and queue."""
        woken: list[int] = []
        for resource in touched:
            state = self._locks[resource]
            while state.queue:
                waiter, mode = state.queue[0]
                held = state.holders.get(waiter)
                if state.conflicts(mode, held=held):
                    break
                state.queue.pop(0)
                self._unindex_queued(waiter, resource, 1)
                if held is None:
                    self._grant(waiter, resource, state, mode)
                elif not held.covers(mode):
                    self._convert(waiter, state, held.combine(mode))
                self._waits_for.pop(waiter, None)
                woken.append(waiter)
            if not state.holders and not state.queue:
                del self._locks[resource]
        return woken


def _is_table_resource(resource: Resource) -> bool:
    return (
        isinstance(resource, tuple)
        and len(resource) == 2
        and resource[0] == "table"
    )
