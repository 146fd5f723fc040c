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
"""

from __future__ import annotations

from dataclasses import dataclass, field


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
