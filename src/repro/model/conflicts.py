"""Conflict graphs over committed transactions (Appendix C.2.1).

"A pair of operations on the same object by two different transactions i
and j are conflicting if at least one is a write.  If the operation by i
occurs in the schedule first, we add an edge from i to j. ... the graph is
defined only for those transactions that commit."

Reads here include grounding reads and quasi-reads — that is exactly what
makes unrepeatable quasi-reads visible as cycles (Requirement C.2).  The
caller is expected to pass a quasi-expanded schedule; :func:`conflict_graph`
expands implicitly for safety.

**Multi-version extension.**  A read carrying an ``reads_from``
annotation (an MVCC snapshot read) does not read "the current value at
its schedule position", so the positional rule above misorders it.  For
annotated reads we instead build the multiversion serialization edges
directly from the annotation:

* ``wr`` — from the version's creator to the reader;
* ``rw`` — from the reader to every committed writer whose version of
  the object *supersedes* the one read (commits after the creator): the
  reader logically precedes all of them.

For single-version (unannotated) histories this coincides with the
classical graph; for snapshot-isolation histories it makes write skew
appear as the cycle of consecutive rw antidependencies it is —
:func:`find_non_si_cycles` then classifies which cycles snapshot
isolation could *not* have produced.

networkx is imported inside the functions that build a graph: the
product imports this module, and ``import repro`` must not pay for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.model.ops import Op, OpKind
from repro.model.quasi import expand_quasi_reads, has_explicit_quasi_reads
from repro.model.schedule import Schedule

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class ConflictEdge:
    """One conflicting operation pair contributing an edge."""

    src: int
    dst: int
    obj: str
    src_kind: OpKind
    dst_kind: OpKind

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.src_kind.value}{self.src}({self.obj}) -> "
            f"{self.dst_kind.value}{self.dst}({self.obj})"
        )


def conflict_edges(schedule: Schedule) -> list[ConflictEdge]:
    """All conflicting pairs between committed transactions.

    Positional (classical) edges for unannotated operations; version
    edges (wr to the reader, rw to every superseding committed writer)
    for ``reads_from``-annotated snapshot reads.
    """
    if not has_explicit_quasi_reads(schedule):
        schedule = expand_quasi_reads(schedule)
    committed = schedule.committed()
    data_ops = [
        op
        for op in schedule.ops
        if (op.kind.is_read or op.kind is OpKind.WRITE) and op.txn in committed
    ]
    # Multiversion mode: some read carries a version annotation.  The
    # version order of an object is then the writers' *commit* order (the
    # order their versions were stamped), so ww edges must follow it —
    # with row-level X locks, write position and commit position can
    # invert for table-granularity objects.
    multiversion = any(
        op.kind.is_read and op.reads_from is not None for op in data_ops
    )
    commit_pos: dict[int, int] = {
        op.txn: index
        for index, op in enumerate(schedule.ops)
        if op.kind is OpKind.COMMIT
    }
    edges = []
    for i, first in enumerate(data_ops):
        for second in data_ops[i + 1:]:
            if first.txn == second.txn or first.obj != second.obj:
                continue
            if first.kind is OpKind.WRITE or second.kind is OpKind.WRITE:
                # Annotated reads are ordered by their version, not their
                # schedule position — their edges come from the version
                # pass below.
                if first.kind.is_read and first.reads_from is not None:
                    continue
                if second.kind.is_read and second.reads_from is not None:
                    continue
                src, dst = first, second
                if (
                    multiversion
                    and first.kind is OpKind.WRITE
                    and second.kind is OpKind.WRITE
                    and commit_pos.get(second.txn, 0)
                    < commit_pos.get(first.txn, 0)
                ):
                    src, dst = second, first
                edges.append(
                    ConflictEdge(
                        src.txn, dst.txn, first.obj, src.kind, dst.kind
                    )
                )
    edges.extend(_version_edges(schedule, data_ops, committed, commit_pos))
    return edges


def _version_edges(
    schedule: Schedule,
    data_ops: list[Op],
    committed: set[int],
    commit_pos: dict[int, int],
) -> list[ConflictEdge]:
    """Multiversion edges contributed by ``reads_from``-annotated reads.

    The version order per object is the writers' commit order: with
    writers serialized by X locks, every committed writer of an object
    installs exactly one (table-granularity) version at its commit
    timestamp, so "``w`` supersedes the version ``r`` read" reduces to
    "``w`` committed after ``r``'s creator".
    """
    annotated = [
        op for op in data_ops
        if op.kind.is_read and op.reads_from is not None
    ]
    if not annotated:
        return []
    writers_of: dict[str, set[int]] = {}
    for op in data_ops:
        if op.kind is OpKind.WRITE:
            writers_of.setdefault(op.obj, set()).add(op.txn)
    edges = []
    for read in annotated:
        creator = read.reads_from
        reader = read.txn
        # wr: the creator's write flows into the reader.
        if creator not in (0, reader) and creator in committed:
            edges.append(
                ConflictEdge(creator, reader, read.obj, OpKind.WRITE, read.kind)
            )
        # rw: the reader precedes every writer of a later version.
        anchor = commit_pos.get(creator, -1) if creator else -1
        for writer in writers_of.get(read.obj, ()):
            if writer in (reader, creator):
                continue
            if commit_pos.get(writer, -1) > anchor:
                edges.append(
                    ConflictEdge(reader, writer, read.obj, read.kind, OpKind.WRITE)
                )
    return edges


def conflict_graph(schedule: Schedule) -> nx.DiGraph:
    """The conflict graph as a networkx digraph.

    Node set = committed transactions; each edge carries the list of
    contributing :class:`ConflictEdge` witnesses under key ``"witnesses"``.
    """
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(schedule.committed())
    for edge in conflict_edges(schedule):
        if graph.has_edge(edge.src, edge.dst):
            graph[edge.src][edge.dst]["witnesses"].append(edge)
        else:
            graph.add_edge(edge.src, edge.dst, witnesses=[edge])
    return graph


def has_cycle(schedule: Schedule) -> bool:
    """Requirement C.2 check: True when the conflict graph is cyclic."""
    import networkx as nx

    return not nx.is_directed_acyclic_graph(conflict_graph(schedule))


def find_cycle(schedule: Schedule) -> list[int] | None:
    """A witness cycle (list of transaction ids) or None when acyclic."""
    import networkx as nx

    graph = conflict_graph(schedule)
    try:
        cycle_edges = nx.find_cycle(graph)
    except nx.NetworkXNoCycle:
        return None
    return [src for src, _dst in cycle_edges]


def _is_antidependency(graph: nx.DiGraph, src: int, dst: int) -> bool:
    """True when some witness of edge ``src -> dst`` is read-then-write."""
    witnesses = graph[src][dst]["witnesses"]
    return any(
        w.src_kind.is_read and w.dst_kind is OpKind.WRITE for w in witnesses
    )


def find_non_si_cycles(
    schedule: Schedule, limit: int = 256
) -> list[list[int]]:
    """Conflict cycles snapshot isolation could not have produced.

    Fekete et al.'s dangerous-structure theorem: in any non-serializable
    SI history, every serialization-graph cycle contains two
    *consecutive* rw-antidependency edges (write skew is the canonical
    instance).  A cycle with no such consecutive pair — e.g. a pure
    ww/wr cycle — therefore witnesses a violation of snapshot isolation
    itself, not merely of serializability.  Returns up to ``limit``
    *offending* cycles (node lists); an empty result means every
    examined cycle is SI-explainable.  Enumeration is capped at
    ``64 * limit`` simple cycles so a pathologically dense graph cannot
    hang the check; a graph dense enough to exhaust the cap before the
    first offender surfaces would pass undetected — the check is
    best-effort beyond the cap (far larger than any schedule the engine
    or the fuzz harness produces).
    """
    import networkx as nx

    graph = conflict_graph(schedule)
    offending: list[list[int]] = []
    for examined, cycle in enumerate(nx.simple_cycles(graph)):
        if examined >= 64 * limit or len(offending) >= limit:
            break
        n = len(cycle)
        edges = [(cycle[i], cycle[(i + 1) % n]) for i in range(n)]
        has_consecutive_rw = any(
            _is_antidependency(graph, *edges[i])
            and _is_antidependency(graph, *edges[(i + 1) % n])
            for i in range(n)
        )
        if not has_consecutive_rw:
            offending.append(list(cycle))
    return offending


def topological_orders(schedule: Schedule, limit: int = 64) -> list[list[int]]:
    """Up to ``limit`` topological orders of the conflict graph.

    Theorem 3.6's proof serializes along a topological sort; exposing
    several lets the serializability checker try alternatives cheaply.
    """
    import networkx as nx

    graph = conflict_graph(schedule)
    if not nx.is_directed_acyclic_graph(graph):
        return []
    orders = []
    for order in nx.all_topological_sorts(graph):
        orders.append(list(order))
        if len(orders) >= limit:
            break
    return orders
