"""Entanglement groups and the group-commit constraint (Sections 3.3.3, 3.4).

"Widowed transactions can be avoided by enforcing group commits: if two
transactions entangle, both must either commit or abort.  This pairwise
requirement induces a requirement on groups of transactions that have
entangled with each other directly or transitively: all transactions in
such a group must either commit or abort."

:class:`GroupTracker` maintains that transitive closure.  It stores the
actual entanglement *edges* (not just a union-find) so that removing a
transaction — when a failed attempt is reset for retry — removes exactly
the links contributed by that transaction, including any bridging links.
:func:`commit_group` is the one routine that commits such a group, for
the batch engine and the interactive broker alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Sequence

from repro.errors import SerializationFailureError


@dataclass
class GroupTracker:
    """Entanglement-edge store with transitive group queries."""

    _edges: set[frozenset[int]] = field(default_factory=set)
    #: member -> directly entangled partners, kept in step with ``_edges``
    #: by every mutator so a group query walks only its own group (the
    #: commit path asks once per transaction; most groups are singletons).
    _adjacency: dict[int, set[int]] = field(default_factory=dict)

    def register(self, handle: int) -> None:
        """Ensure a singleton group exists for ``handle``."""
        self._adjacency.setdefault(handle, set())

    def entangle(self, *handles: int) -> None:
        """Record that these transactions entangled together (one
        entanglement operation links all its participants pairwise)."""
        for handle in handles:
            self.register(handle)
        ordered = sorted(handles)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                if a != b:
                    self._edges.add(frozenset((a, b)))
                    self._adjacency[a].add(b)
                    self._adjacency[b].add(a)

    def group_of(self, handle: int) -> frozenset[int]:
        """All transactions entangled directly or transitively with
        ``handle``, including itself."""
        if not self._adjacency.get(handle):
            return frozenset((handle,))
        seen = {handle}
        stack = [handle]
        while stack:
            for neighbor in self._adjacency[stack.pop()]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return frozenset(seen)

    def same_group(self, a: int, b: int) -> bool:
        return b in self.group_of(a)

    def groups(self) -> list[frozenset[int]]:
        """All groups (singletons included), sorted by smallest member."""
        remaining = set(self._adjacency)
        out = []
        while remaining:
            seed = min(remaining)
            group = self.group_of(seed)
            out.append(group)
            remaining -= group
        return sorted(out, key=min)

    def partners_of(self, handle: int) -> frozenset[int]:
        """Directly entangled partners (one hop)."""
        return frozenset(self._adjacency.get(handle, ()))

    def forget(self, handle: int) -> None:
        """Drop a transaction and every link it contributed (retry reset)."""
        for partner in self._adjacency.pop(handle, ()):
            self._adjacency[partner].discard(handle)
            self._edges.discard(frozenset((handle, partner)))

    def edges(self) -> list[tuple[int, int]]:
        """All entanglement edges (for persistence), sorted."""
        return sorted(tuple(sorted(e)) for e in self._edges)

    def clear(self) -> None:
        self._adjacency.clear()
        self._edges.clear()


class GroupCommit(NamedTuple):
    """What :func:`commit_group` did."""

    #: storage transactions whose commit stuck (already flushed).
    committed: list[int]
    #: the member whose own commit raised ``SerializationFailureError``
    #: (the members after it were not attempted), or ``None``.
    failed: Any
    #: the group failed SSI validation as a unit; nothing committed.
    doomed: bool


def commit_group(
    store,
    members: Sequence[Any],
    *,
    before: "Callable[[Any], None] | None" = None,
    after: "Callable[[Any], None] | None" = None,
) -> GroupCommit:
    """Commit an entanglement group (``members`` expose ``storage_txn``)
    as one widow-free unit.

    The rule, written once: inside the store's commit funnel — so no
    concurrent commit can wedge between the validation and the members'
    commits — a group of more than one is first SSI-validated
    *atomically* (the simulation includes the edges the group's own
    earlier members create; committing members one by one and failing
    midway would leave the earlier ones durably committed while the rest
    abort), then each member commits with its WAL flush *deferred*.  The
    funnel is never held across an fsync: the physical flushes run after
    it is released, one merged batch per shard log — and on the failure
    path too, because members that did commit before a failure must
    still become durable.

    ``before(member)`` / ``after(member)`` run inside the funnel around
    each member's commit (staging writes; commit bookkeeping).  Abort
    and report bookkeeping for a doomed group or a failed member is the
    caller's, after this returns.
    """
    committed: list[int] = []
    try:
        with store.commit_funnel():
            if len(members) > 1 and store.serialization_doomed_group(
                [member.storage_txn for member in members]
            ):
                return GroupCommit(committed, None, True)
            for member in members:
                if before is not None:
                    before(member)
                try:
                    store.commit(member.storage_txn, flush=False)
                except SerializationFailureError:
                    return GroupCommit(committed, member, False)
                committed.append(member.storage_txn)
                if after is not None:
                    after(member)
    finally:
        store.flush_commits(committed)
    return GroupCommit(committed, None, False)
