"""Named latches and a lockdep-style runtime lock-order witness.

Since PR 5 the engine is genuinely multithreaded: per-shard workers, a
lock-manager mutex shared across shard ensembles, a global commit
funnel with WAL fsyncs hoisted outside it, and condition-variable
waiters in the client.  The latch discipline that keeps all of that
deadlock-free used to live only in commit messages; this module makes
it executable.

Every lock in the system is a :class:`Latch` — a named, ranked wrapper
around a ``threading`` primitive.  Names must come from :data:`LATTICE`,
the declared latch order (outermost first)::

    interactive-broker   10   session broker (group-commit matching)
    commit-funnel        20   ensemble-wide commit/abort/begin funnel
    replication-ship     25   per-shard WAL shipping / follower apply
    engine-mutex         30   per-shard storage engine (ordered peers)
    lock-manager         40   transaction-lock tables + waits-for graph
    oracle               50 ┐
    ssi-tracker          51 │
    wal                  52 │
    schedule-recorder    53 │ leaf latches: never held across a call
    shard-meta           54 │ into another subsystem
    run-report           55 │
    executor-pending     56 │
    deadlock-probe       57 ┘
    transport-state      58   coordinator RPC pending-table (process mode)
    transport-send       59   per-connection frame-write pipeline
    answer-cond          60   client-side answer condvar
    replication-meta     62   replica routing counters (innermost)

With ``REPRO_LOCKDEP=1`` (or after :func:`enable_lockdep`), every
acquire records edges from each latch the thread already holds into a
process-wide acquisition-order graph and raises
:class:`LatchOrderError` on the *first* cycle — the lockdep trick:
an A→B / B→A inversion is caught the first time both orders are ever
observed, not only on the run where they interleave fatally.  Rank
inversions (acquiring outward while holding an inner latch) raise
immediately even before a full cycle exists.  In a process where the
witness was never switched on, ``with latch:`` tests one flag
(``armed``) on the way in and on the way out and otherwise calls the
``threading`` primitive directly; nothing is recorded.

Blocking discipline rides on the same stack: latches named in
:data:`NO_BLOCK_LATCHES` must never be held across a blocking call
(WAL flush, simulated fsync sleep, condition wait).  Blocking entry
points call :func:`assert_may_block`; the few justified exceptions
wrap themselves in :func:`allow_blocking` with a reason string, which
doubles as the static checker's in-code waiver marker.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager

__all__ = [
    "LATTICE",
    "NO_BLOCK_LATCHES",
    "Latch",
    "LatchError",
    "LatchOrderError",
    "allow_blocking",
    "assert_may_block",
    "disable_lockdep",
    "enable_lockdep",
    "latch_condition",
    "lockdep_edges",
    "lockdep_enabled",
    "reset_lockdep",
]

#: The declared latch lattice: name → rank.  Latches must be acquired
#: in strictly increasing rank order; equal-rank latches (there are
#: none — every leaf has its own rank) must never nest.  Constructing
#: a :class:`Latch` with a name outside this table is an error: the
#: table *is* the named-latch registry the static checker enforces.
LATTICE: dict[str, int] = {
    "interactive-broker": 10,
    "commit-funnel": 20,
    "replication-ship": 25,
    "engine-mutex": 30,
    "lock-manager": 40,
    "oracle": 50,
    "ssi-tracker": 51,
    "wal": 52,
    "schedule-recorder": 53,
    "shard-meta": 54,
    "run-report": 55,
    "executor-pending": 56,
    "deadlock-probe": 57,
    "transport-state": 58,
    "transport-send": 59,
    "answer-cond": 60,
    "replication-meta": 62,
}

#: Latches that must never be held across a blocking call.  The commit
#: funnel serializes ensemble-wide transitions for *every* session, so
#: a WAL fsync (or any sleep/wait) under it stalls the whole system —
#: the funnel exists precisely so flushes can be hoisted outside it.
NO_BLOCK_LATCHES: frozenset[str] = frozenset({"commit-funnel"})


class LatchError(RuntimeError):
    """A latch was constructed or used outside the declared registry."""


class LatchOrderError(LatchError):
    """The lattice order was violated or an acquisition cycle closed."""


_instance_counters: defaultdict[str, "itertools.count[int]"] = defaultdict(
    itertools.count
)


def _call_site() -> str:
    """``file:line`` of the nearest frame outside this module."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename == __file__:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - defensive
        return "<unknown>"
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


class _Held:
    """One thread-local stack entry: a held latch + re-entrancy count."""

    __slots__ = ("latch", "count")

    def __init__(self, latch: "Latch") -> None:
        self.latch = latch
        self.count = 1


class _Witness:
    """The process-wide acquisition-order graph and per-thread stacks.

    The graph is keyed by latch *name* (the latch class, in lockdep
    terms), so an order observed between one pair of instances
    indicts every pair.  The witness's own bookkeeping lock is a raw
    ``threading.Lock`` — it is internal to the checker and excluded
    from the discipline it enforces.
    """

    def __init__(self) -> None:
        self.enabled = os.environ.get("REPRO_LOCKDEP", "0") not in ("", "0")
        #: the witness is, or has been, on in this process.  It never
        #: goes back: a latch taken while the witness was on is on some
        #: thread's held stack and must still be popped when it is
        #: released after :func:`disable_lockdep`.
        self.armed = self.enabled
        self._graph_lock = threading.Lock()
        #: name → set of names observed acquired *while holding* it.
        self._edges: dict[str, set[str]] = {}
        #: (held, acquired) → call site where the edge was first seen.
        self._sites: dict[tuple[str, str], str] = {}
        self._tls = threading.local()

    # -- per-thread state -------------------------------------------------------------

    def _stack(self) -> list[_Held]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _allow_depth(self) -> int:
        return getattr(self._tls, "allow_depth", 0)

    # -- acquire/release hooks --------------------------------------------------------

    def check(self, latch: "Latch") -> None:
        """Validate acquiring ``latch`` given this thread's held set.

        Runs *before* the underlying acquire so a would-be deadlock
        raises instead of wedging.  Records order edges as a side
        effect — lockdep records intent, not success.
        """
        stack = self._stack()
        if not stack:
            return
        for entry in stack:
            if entry.latch is latch:
                return  # re-entrant acquire of the same instance
        for entry in stack:
            held = entry.latch
            if held.name == latch.name:
                if latch.ordered and held.ordered and latch.instance > held.instance:
                    continue
                raise LatchOrderError(
                    f"latch {latch.name!r} (instance {latch.instance}) acquired "
                    f"while holding peer instance {held.instance}; peers must "
                    f"be declared ordered=True and acquired in instance order "
                    f"[at {_call_site()}]"
                )
            if latch.rank <= held.rank:
                chain = " -> ".join(e.latch.describe() for e in stack)
                raise LatchOrderError(
                    f"lattice inversion: acquiring {latch.describe()} while "
                    f"holding {held.describe()} (held chain: {chain}) "
                    f"[at {_call_site()}]"
                )
        self._record_edges(stack, latch)

    def _record_edges(self, stack: list[_Held], latch: "Latch") -> None:
        site = None
        with self._graph_lock:
            for entry in stack:
                a, b = entry.latch.name, latch.name
                if a == b:
                    continue
                successors = self._edges.setdefault(a, set())
                if b in successors:
                    continue
                if self._reaches(b, a):
                    cycle = self._cycle_path(b, a)
                    first = self._sites.get((b, cycle[1] if len(cycle) > 1 else a))
                    raise LatchOrderError(
                        f"lock-order cycle: acquiring {b!r} after {a!r}, but "
                        f"the reverse order {' -> '.join(cycle + [b])} was "
                        f"already observed"
                        + (f" (first at {first})" if first else "")
                        + f" [at {_call_site()}]"
                    )
                if site is None:
                    site = _call_site()
                successors.add(b)
                self._sites[(a, b)] = site

    def _reaches(self, src: str, dst: str) -> bool:
        seen = {src}
        frontier = [src]
        while frontier:
            node = frontier.pop()
            if node == dst:
                return True
            for nxt in self._edges.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def _cycle_path(self, src: str, dst: str) -> list[str]:
        """One ``src -> … -> dst`` path through the observed edges."""
        parent: dict[str, str] = {}
        frontier = [src]
        while frontier:
            node = frontier.pop()
            if node == dst:
                path = [dst]
                while path[-1] != src:
                    path.append(parent[path[-1]])
                return list(reversed(path))
            for nxt in self._edges.get(node, ()):
                if nxt not in parent and nxt != src:
                    parent[nxt] = node
                    frontier.append(nxt)
        return [src, dst]  # pragma: no cover - _reaches said a path exists

    def push(self, latch: "Latch") -> None:
        stack = self._stack()
        for entry in reversed(stack):
            if entry.latch is latch:
                entry.count += 1
                return
        stack.append(_Held(latch))

    def pop(self, latch: "Latch") -> None:
        stack = getattr(self._tls, "stack", None)
        if not stack:
            return
        for i in range(len(stack) - 1, -1, -1):
            if stack[i].latch is latch:
                stack[i].count -= 1
                if stack[i].count == 0:
                    del stack[i]
                return
        # Tolerate a release of a latch acquired while the witness was
        # disabled: no entry, nothing to unwind.

    # -- introspection ----------------------------------------------------------------

    def edges(self) -> dict[str, set[str]]:
        with self._graph_lock:
            return {name: set(succ) for name, succ in self._edges.items()}

    def reset(self) -> None:
        with self._graph_lock:
            self._edges.clear()
            self._sites.clear()
        self._tls.stack = []
        self._tls.allow_depth = 0


_witness = _Witness()


class Latch:
    """A named, ranked lock participating in the lockdep witness.

    ``reentrant`` selects ``RLock`` vs ``Lock`` semantics for the
    underlying primitive (condition-variable latches must be
    non-reentrant so ``threading.Condition`` ownership probing works).
    ``ordered=True`` marks a latch whose same-name peers may nest,
    provided instances are acquired in creation order — the per-shard
    engine mutexes, which the sharded commit path visits in shard
    order.
    """

    __slots__ = ("name", "rank", "instance", "ordered", "no_block", "_lock")

    def __init__(
        self, name: str, *, reentrant: bool = True, ordered: bool = False
    ) -> None:
        rank = LATTICE.get(name)
        if rank is None:
            raise LatchError(
                f"unknown latch name {name!r}: add it to "
                f"repro.analysis.latch.LATTICE with an explicit rank"
            )
        self.name = name
        self.rank = rank
        self.instance = next(_instance_counters[name])
        self.ordered = ordered
        self.no_block = name in NO_BLOCK_LATCHES
        self._lock: "threading.RLock | threading.Lock" = (
            threading.RLock() if reentrant else threading.Lock()
        )

    def describe(self) -> str:
        return f"{self.name!r}(rank {self.rank})"

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        witness = _witness
        if witness.enabled:
            witness.check(self)
        ok = self._lock.acquire(blocking, timeout)
        if ok and witness.enabled:
            witness.push(self)
        return ok

    def release(self) -> None:
        if _witness.armed:
            _witness.pop(self)
        self._lock.release()

    def __enter__(self) -> "Latch":
        if _witness.armed:
            self.acquire()
        else:
            self._lock.acquire()
        return self

    def __exit__(self, *_exc) -> None:
        if _witness.armed:
            _witness.pop(self)
        self._lock.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Latch({self.name!r}, rank={self.rank}, "
            f"instance={self.instance})"
        )


def latch_condition(name: str) -> "threading.Condition":
    """A condition variable whose lock is a (non-reentrant) named latch.

    This is the registry's sanctioned way to build a ``Condition``:
    the underlying latch participates in the witness exactly like any
    other — ``wait()`` releases it (popping the held stack) and the
    wakeup re-acquire runs the full order check.
    """
    return threading.Condition(Latch(name, reentrant=False))


# -- blocking discipline ------------------------------------------------------------


@contextmanager
def allow_blocking(reason: str):
    """Waive the no-block rule for a justified scope.

    ``reason`` is mandatory and non-empty: it is the in-code waiver
    the static checker (and the reviewer) reads.  Example — the
    ensemble checkpoint flushes every shard's WAL *under* the commit
    funnel because the checkpoint image must be a single quiescent
    cut across shards.
    """
    if not reason or not reason.strip():
        raise LatchError("allow_blocking() requires a non-empty justification")
    tls = _witness._tls
    tls.allow_depth = getattr(tls, "allow_depth", 0) + 1
    try:
        yield
    finally:
        tls.allow_depth -= 1


def assert_may_block(operation: str) -> None:
    """Raise if a no-block latch is held (and no waiver is in scope).

    Called by blocking entry points themselves — WAL flush before its
    simulated fsync sleep — so the rule is enforced at the point of
    blocking regardless of which caller wandered in.
    """
    witness = _witness
    if not witness.enabled or witness._allow_depth():
        return
    for entry in witness._stack():
        if entry.latch.no_block:
            raise LatchOrderError(
                f"blocking operation {operation!r} while holding no-block "
                f"latch {entry.latch.describe()}; hoist the blocking work "
                f"outside the latch or wrap a justified allow_blocking() "
                f"scope [at {_call_site()}]"
            )


# -- witness control (tests, CI) ----------------------------------------------------


def lockdep_enabled() -> bool:
    return _witness.enabled


def enable_lockdep() -> None:
    _witness.armed = True
    _witness.enabled = True


def disable_lockdep() -> None:
    _witness.enabled = False


def reset_lockdep() -> None:
    """Clear the order graph and the calling thread's held stack."""
    _witness.reset()


def lockdep_edges() -> dict[str, set[str]]:
    """A snapshot of the observed acquisition-order graph."""
    return _witness.edges()
