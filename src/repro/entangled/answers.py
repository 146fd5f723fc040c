"""ANSWER relations and answer tuples.

ANSWER relations "are not database tables; they serve only as names that
are shared among queries and permit entanglement" (Section 2).  During an
evaluation round the coordinator materializes one
:class:`AnswerRelationSet` holding the tuples contributed by the chosen
coordinating set; each query then receives its own head tuples from it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import AnswerRelationError

#: A fully ground answer tuple.
AnswerTuple = tuple["SQLValue | None", ...]


@dataclass(frozen=True)
class GroundAtom:
    """A ground atom ``R(v1, ..., vk)`` over an ANSWER relation."""

    relation: str
    values: AnswerTuple

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(repr(v) for v in self.values)
        return f"{self.relation}({inner})"


class AnswerRelationSet:
    """The materialized ANSWER relations produced by one evaluation round.

    Enforces per-relation arity consistency: mixing arities under one
    ANSWER name is a programming error the paper's safety analysis rejects.
    """

    def __init__(self):
        self._tuples: dict[str, set[AnswerTuple]] = defaultdict(set)
        self._arity: dict[str, int] = {}

    def add(self, atom: GroundAtom) -> None:
        known = self._arity.get(atom.relation)
        if known is None:
            self._arity[atom.relation] = len(atom.values)
        elif known != len(atom.values):
            raise AnswerRelationError(
                f"ANSWER relation {atom.relation!r} used with arity "
                f"{len(atom.values)} but previously {known}"
            )
        self._tuples[atom.relation].add(atom.values)

    def add_all(self, atoms: Iterable[GroundAtom]) -> None:
        for atom in atoms:
            self.add(atom)

    def contains(self, atom: GroundAtom) -> bool:
        return atom.values in self._tuples.get(atom.relation, ())

    def relation(self, name: str) -> frozenset[AnswerTuple]:
        return frozenset(self._tuples.get(name, frozenset()))

    def relations(self) -> list[str]:
        return sorted(self._tuples)

    def __len__(self) -> int:
        return sum(len(t) for t in self._tuples.values())

    def __iter__(self) -> Iterator[GroundAtom]:
        for relation in sorted(self._tuples):
            for values in sorted(self._tuples[relation], key=_tuple_key):
                yield GroundAtom(relation, values)

    def satisfies(self, atoms: Iterable[GroundAtom]) -> bool:
        """True when every atom is present (mutual-constraint check)."""
        return all(self.contains(atom) for atom in atoms)


def _tuple_key(values: AnswerTuple):
    return tuple((type(v).__name__, str(v)) for v in values)


@dataclass(frozen=True)
class QueryAnswer:
    """The answer delivered to a single entangled query.

    Attributes:
        query_id: the answered query.
        tuples: one ground head tuple per head atom (CHOOSE 1), keyed by
            ANSWER relation name in head order.
    """

    query_id: str
    tuples: tuple[GroundAtom, ...]

    def first(self) -> GroundAtom:
        if not self.tuples:
            raise AnswerRelationError(f"query {self.query_id} has an empty answer")
        return self.tuples[0]
