"""TEST-ONLY ORACLE: the lock manager as it stood before the flat-cost rewrite.

A verbatim copy of ``src/repro/storage/locks.py`` at the parent of that
change (whole-manager queue strip in ``release_all``, promote-to-fixpoint
over every state, holder scan per acquire).  Quadratic in live
transactions but obviously correct, which is what a reference is for:
``test_locks_differential.py`` drives it and the production manager with
the same operation sequences and requires identical decisions.  It has its
own ``LockMode``/``LockOutcome`` enums on purpose (independent
compatibility tables); compare members by ``.name``.  Never import this
from ``src/``.

Original module docstring follows.

Lock manager: multigranularity IS/IX/S/X locks, Strict 2PL, deadlocks.

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
:mod:`repro.core.executor` can acquire and release concurrently.

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
from repro.errors import DeadlockError

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

    def compatible(self, other: "LockMode") -> bool:
        return other in _COMPATIBLE[self]

    def covers(self, other: "LockMode") -> bool:
        """True when holding ``self`` makes a request for ``other`` a no-op."""
        return other in _COVERS[self]

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


class LockOutcome(enum.Enum):
    GRANTED = "granted"
    WAIT = "wait"


@dataclass
class _LockState:
    """Per-resource lock state: holders by mode plus FIFO wait queue."""

    holders: dict[int, LockMode] = field(default_factory=dict)
    queue: list[tuple[int, LockMode]] = field(default_factory=list)


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


class LockManager:
    """A cooperative S/X lock manager with deadlock detection."""

    def __init__(self):
        self._locks: dict[Resource, _LockState] = defaultdict(_LockState)
        self._held: dict[int, set[Resource]] = defaultdict(set)
        self._waits_for: dict[int, set[int]] = defaultdict(set)
        #: txn -> the resource its latest waiting request newly queued.
        self._fresh: dict[int, Resource] = {}
        #: guards all manager state.
        self._mutex = Latch("lock-manager")
        #: statistics for benchmarks and tests.  ``read_grants`` counts
        #: S/IS grants specifically: the MVCC ablation asserts snapshot
        #: transactions drive it to exactly zero (readers never lock).
        #: ``table_s_grants`` counts whole-table S grants — the range
        #: bench asserts next-key-locked range scans drive it to zero.
        self.stats = {
            "acquired": 0,
            "waits": 0,
            "deadlocks": 0,
            "upgrades": 0,
            "read_grants": 0,
            "table_s_grants": 0,
        }

    # -- introspection -------------------------------------------------------------

    def holders(self, resource: Resource) -> dict[int, LockMode]:
        with self._mutex:
            return dict(self._locks[resource].holders)

    def holds(self, txn: int, resource: Resource, mode: LockMode | None = None) -> bool:
        with self._mutex:
            held = self._locks[resource].holders.get(txn)
        if held is None:
            return False
        return mode is None or held.covers(mode)

    def held_resources(self, txn: int) -> frozenset[Resource]:
        with self._mutex:
            return frozenset(self._held.get(txn, ()))

    def waiting(self, txn: int) -> bool:
        with self._mutex:
            return any(
                waiter == txn
                for state in self._locks.values()
                for waiter, _ in state.queue
            )

    def waits_edges(self) -> dict[int, set[int]]:
        """A consistent snapshot of the waits-for graph: waiter → blockers.

        The router's deadlock probe reads every shard's manager for its
        local edges and unions them — transaction ids are globally unique
        across shards, so edges compose without translation.
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
        outgoing waits-for edges, then promotes any request the removal
        unblocked.  Counts as a detected deadlock when something was
        actually withdrawn, and not as a wait when ``txn``'s latest
        request queued it.  Returns True when a wait was removed.
        """
        with self._mutex:
            state = self._locks.get(resource)
            removed = False
            if state is not None:
                before = len(state.queue)
                state.queue = [(w, m) for (w, m) in state.queue if w != txn]
                removed = len(state.queue) != before
                if not state.holders and not state.queue:
                    del self._locks[resource]
            if removed:
                # Only this resource's wait is withdrawn; with one queued
                # request per cooperative transaction the waiter has no
                # other outgoing edges to keep.  Requests queued behind
                # the withdrawn one are promoted by the next release_all
                # (which re-scans every resource) — the victim's own
                # abort at the latest — so the scheduler's wake channel
                # stays the release path.
                self._waits_for.pop(txn, None)
                self.stats["deadlocks"] += 1
                if self._fresh.pop(txn, None) == resource:
                    self.stats["waits"] -= 1
            return removed

    # -- acquisition ---------------------------------------------------------------

    def acquire(self, txn: int, resource: Resource, mode: LockMode) -> LockOutcome:
        """Request ``mode`` on ``resource`` for transaction ``txn``.

        Returns GRANTED when the lock is held on return.  Returns WAIT when
        the request conflicts; the waiter is queued and the waits-for edges
        are recorded.  Raises :class:`DeadlockError` (and leaves no residue)
        when granting-by-waiting would create a waits-for cycle.
        """
        with self._mutex:
            state = self._locks[resource]
            current = state.holders.get(txn)

            if current is not None:
                if current.covers(mode):
                    return LockOutcome.GRANTED  # already sufficient
                # Conversion: move up the lattice to the supremum of the held
                # and requested modes, provided no *other* holder conflicts
                # with the target.
                target = current.combine(mode)
                others = [
                    holder
                    for holder, held_mode in state.holders.items()
                    if holder != txn and not held_mode.compatible(target)
                ]
                if not others:
                    state.holders[txn] = target
                    self.stats["upgrades"] += 1
                    return LockOutcome.GRANTED
                self._enqueue(txn, resource, target, blockers=others)
                return LockOutcome.WAIT

            blockers = self._blockers(txn, resource, mode)
            if not blockers and not self._must_queue_behind(txn, state, mode):
                state.holders[txn] = mode
                self._held[txn].add(resource)
                self.stats["acquired"] += 1
                if mode in (LockMode.SHARED, LockMode.INTENTION_SHARED):
                    self.stats["read_grants"] += 1
                if mode is LockMode.SHARED and _is_table_resource(resource):
                    self.stats["table_s_grants"] += 1
                return LockOutcome.GRANTED

            queue_blockers = blockers or [w for w, _ in state.queue if w != txn]
            self._enqueue(txn, resource, mode, blockers=queue_blockers)
            return LockOutcome.WAIT

    def _must_queue_behind(self, txn: int, state: _LockState, mode: LockMode) -> bool:
        """FIFO fairness: a new request queues behind an incompatible waiter
        (e.g. an S request behind a waiting X), so writers cannot starve
        under a stream of readers."""
        return any(
            waiter != txn and not waiting_mode.compatible(mode)
            for waiter, waiting_mode in state.queue
        )

    def _blockers(self, txn: int, resource: Resource, mode: LockMode) -> list[int]:
        """Holders that conflict with ``mode`` on ``resource``.

        The multigranularity protocol (keyed readers: table IS + row/key
        S; scans: table S; writers: table IX + row/key X) makes conflicts
        local to each resource — table/row/key containment is resolved by
        the intention modes at the table granule, so no hierarchical walk
        is needed here.
        """
        state = self._locks[resource]
        return sorted(
            holder
            for holder, held_mode in state.holders.items()
            if holder != txn and not held_mode.compatible(mode)
        )

    def _enqueue(
        self, txn: int, resource: Resource, mode: LockMode, blockers: Iterable[int]
    ) -> None:
        blockers = [b for b in set(blockers) if b != txn]
        self._check_deadlock(txn, blockers)
        state = self._locks[resource]
        if (txn, mode) not in state.queue:
            state.queue.append((txn, mode))
            # Count the conflict once per queued request: a retry of an
            # already-queued request is not a new wait.
            self.stats["waits"] += 1
            self._fresh[txn] = resource
        else:
            self._fresh.pop(txn, None)
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
            for resource in list(self._held.pop(txn, ())):
                state = self._locks[resource]
                state.holders.pop(txn, None)
            for resource, state in list(self._locks.items()):
                state.queue = [(w, m) for (w, m) in state.queue if w != txn]
                if not state.holders and not state.queue:
                    del self._locks[resource]
            self._waits_for.pop(txn, None)
            self._fresh.pop(txn, None)
            for edges in self._waits_for.values():
                edges.discard(txn)
            return self._promote_waiters()

    def release_shared(self, txn: int) -> list[int]:
        """Early release of all read locks (S and IS) held by ``txn``
        (isolation-relaxation ablation; Section 3.3.3 'altering the length
        of time locks are held')."""
        with self._mutex:
            for resource in list(self._held.get(txn, ())):
                state = self._locks[resource]
                held = state.holders.get(txn)
                if held is LockMode.SHARED or held is LockMode.INTENTION_SHARED:
                    del state.holders[txn]
                    self._held[txn].discard(resource)
            return self._promote_waiters()

    def _promote_waiters(self) -> list[int]:
        """Grant queued requests that no longer conflict, FIFO per resource."""
        woken: list[int] = []
        progress = True
        while progress:
            progress = False
            for resource, state in list(self._locks.items()):
                while state.queue:
                    waiter, mode = state.queue[0]
                    if self._blockers(waiter, resource, mode):
                        break
                    state.queue.pop(0)
                    held = state.holders.get(waiter)
                    if held is not None and not held.covers(mode):
                        state.holders[waiter] = held.combine(mode)
                        self.stats["upgrades"] += 1
                    elif held is None:
                        state.holders[waiter] = mode
                        self._held[waiter].add(resource)
                        self.stats["acquired"] += 1
                        if mode in (LockMode.SHARED, LockMode.INTENTION_SHARED):
                            self.stats["read_grants"] += 1
                        if mode is LockMode.SHARED and _is_table_resource(resource):
                            self.stats["table_s_grants"] += 1
                    self._waits_for.pop(waiter, None)
                    woken.append(waiter)
                    progress = True
        return woken


def _is_table_resource(resource: Resource) -> bool:
    return (
        isinstance(resource, tuple)
        and len(resource) == 2
        and resource[0] == "table"
    )
