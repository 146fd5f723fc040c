"""Synthetic social network standing in for the Slashdot graph.

The paper "created a set of users with friendship relations based on the
Slashdot social network data [1]" (soc-Slashdot0902 from SNAP: ~82k nodes,
~948k directed edges, heavy-tailed degrees, mostly reciprocal links).
This environment has no network access, so we substitute a synthetic graph
with the same statistics that matter to the workload generators:

* heavy-tailed degree distribution — Barabási–Albert preferential
  attachment;
* reciprocal friendships — the workloads coordinate pairs of mutual
  friends, and BA edges are treated as mutual;
* scale as a parameter — default 2,000 users (a 1:40 scale-down keeps the
  benchmark grid fast; pass ``n_users=82168`` to run at paper scale).

The generator only ever consumes the friendship relation (who may
coordinate with whom), never path structure, so any graph with abundant
mutual edges exercises the same code paths.  Documented in DESIGN.md as a
substitution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import WorkloadError

if TYPE_CHECKING:
    import networkx as nx


@dataclass
class SocialNetwork:
    """A deterministic synthetic friendship graph.

    Attributes:
        n_users: number of users (node ids are 1-based, matching the
            paper's uid style).
        attachment: BA attachment parameter (edges per new node).
        seed: RNG seed — everything downstream is deterministic in it.
    """

    n_users: int = 2_000
    attachment: int = 8
    seed: int = 2011
    _graph: nx.Graph = field(init=False, repr=False)
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_users <= self.attachment:
            raise WorkloadError(
                f"need more users ({self.n_users}) than the attachment "
                f"parameter ({self.attachment})"
            )
        # Here, not at module level: ``import repro.workloads`` must not
        # load networkx for the workloads that never build a graph.
        import networkx as nx

        base = nx.barabasi_albert_graph(
            self.n_users, self.attachment, seed=self.seed
        )
        # Relabel 0-based nodes to 1-based user ids.
        self._graph = nx.relabel_nodes(base, {i: i + 1 for i in base.nodes})
        self._rng = random.Random(self.seed)

    # -- queries ----------------------------------------------------------------------

    def users(self) -> list[int]:
        return sorted(self._graph.nodes)

    def friends_of(self, uid: int) -> list[int]:
        if uid not in self._graph:
            raise WorkloadError(f"unknown user {uid}")
        return sorted(self._graph.neighbors(uid))

    def are_friends(self, a: int, b: int) -> bool:
        return self._graph.has_edge(a, b)

    def friend_edges(self) -> list[tuple[int, int]]:
        """All friendships as symmetric pairs (both directions), the shape
        the ``Friends(uid1, uid2)`` table stores."""
        out = []
        for a, b in self._graph.edges:
            out.append((a, b))
            out.append((b, a))
        return sorted(out)

    def edge_count(self) -> int:
        return self._graph.number_of_edges()

    def degree_sequence(self) -> list[int]:
        return sorted((d for _n, d in self._graph.degree), reverse=True)

    # -- sampling (deterministic) --------------------------------------------------------

    def sample_disjoint_friend_pairs(self, count: int) -> list[tuple[int, int]]:
        """``count`` friendship pairs with all users distinct.

        Used to build batches where every entangled transaction finds its
        partner in-batch and nobody coordinates with two people at once.
        """
        pairs: list[tuple[int, int]] = []
        used: set[int] = set()
        edges = list(self._graph.edges)
        self._rng.shuffle(edges)
        for a, b in edges:
            if a in used or b in used:
                continue
            pairs.append((a, b))
            used.update((a, b))
            if len(pairs) == count:
                return pairs
        raise WorkloadError(
            f"graph too small for {count} disjoint friend pairs "
            f"(got {len(pairs)})"
        )

    def sample_star(self, spokes: int) -> tuple[int, list[int]]:
        """A hub with ``spokes`` distinct friends (for Spoke-hub workloads)."""
        candidates = [
            uid for uid in self.users()
            if self._graph.degree(uid) >= spokes
        ]
        if not candidates:
            raise WorkloadError(f"no user has {spokes} friends")
        hub = candidates[self._rng.randrange(len(candidates))]
        friends = self.friends_of(hub)
        self._rng.shuffle(friends)
        return hub, friends[:spokes]
