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
:func:`evaluate_round` is the one routine that evaluates a set of pending
entangled queries and says who entangled with whom, and
:func:`commit_group` the one that commits such a group, for the batch
engine and the interactive broker alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from repro.entangled.evaluator import EvaluationResult, evaluate_batch
from repro.entangled.ir import EntangledQuery
from repro.errors import SafetyViolationError, SerializationFailureError


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
        out: list[frozenset[int]] = []
        seen: set[int] = set()
        for seed in sorted(self._adjacency):  # a group's first is its smallest
            if seed not in seen:
                out.append(self.group_of(seed))
                seen |= out[-1]
        return out

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


class Round(NamedTuple):
    """What :func:`evaluate_round` found."""

    #: every query's outcome (and answer); None when the batch was poisoned.
    result: "EvaluationResult | None"
    #: the safety violation that poisoned the whole batch, or None.
    poisoned: "str | None"
    #: the queries answered together, one sorted list of query ids per
    #: entanglement operation (a query answered alone is a singleton),
    #: ordered by smallest member.
    components: list[list[str]]


def evaluate_round(
    store, pending: "Mapping[str, tuple[EntangledQuery, int]]"
) -> Round:
    """Evaluate ``{query id: (query, owner's storage txn)}`` as one batch
    (steps two of Figure 4's three, for a run and for an interactive
    matching round alike).

    Each query is grounded through its owner's
    :meth:`~repro.storage.protocol.Store.grounding_hooks`: 2PL owners
    take read locks at access-path granularity *during* evaluation (a
    conflict sidelines the query as ``BLOCKED``, a would-be deadlock
    victim as ``DEADLOCKED``), snapshot owners read their own snapshot
    lock-free (``RESTART`` when it was pruned mid-wait).  An ANSWER
    arity clash poisons the whole batch ("queries that directly cause
    safety violations are not answered"): it comes back as a verdict,
    not an exception, so the caller can abort every participant and the
    system keeps running.

    Queries whose chosen groundings are linked — one's head satisfies
    another's postcondition — entangled in one operation; the
    components are the transitive closure of those links.
    """
    observers, providers = {}, {}
    for query_id, (_query, storage_txn) in pending.items():
        observers[query_id], provider = store.grounding_hooks(storage_txn)
        if provider is not None:
            providers[query_id] = provider
    try:
        result = evaluate_batch(
            [query for query, _storage_txn in pending.values()], store.db,
            read_observer_for=observers, provider_for=providers or None,
        )
    except SafetyViolationError as exc:
        return Round(None, str(exc), [])
    chosen = {qid: result.match.chosen[qid] for qid in result.answered_ids()}
    providers_of: dict = {}
    for query_id, grounding in chosen.items():
        for atom in grounding.heads:
            providers_of.setdefault(atom, []).append(query_id)
    links = GroupTracker()
    for query_id, grounding in chosen.items():
        links.register(query_id)
        for atom in grounding.postconditions:
            links.entangle(query_id, *providers_of.get(atom, ()))
    return Round(result, None, [sorted(group) for group in links.groups()])


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
