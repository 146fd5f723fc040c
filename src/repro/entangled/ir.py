"""Intermediate representation of entangled queries: ``{C} H <- B``.

Appendix A of the paper: a query in the intermediate representation has a
*head* ``H`` (conjunction of atoms over ANSWER relations — the query's own
contribution), a *postcondition* ``C`` (conjunction of atoms over ANSWER
relations — what it requires from others), and a *body* ``B`` (conjunction
of atoms over database relations, restricted to select-project-join).  All
variables of ``H`` and ``C`` must occur in ``B`` (range restriction).

Terms are constants or named variables.  The body additionally carries a
residual predicate (comparisons such as ``fdate >= '2011-05-01'``) over its
variables, which the SQL WHERE clause may contribute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

from repro.errors import RangeRestrictionError, SchemaError
from repro.entangled.answers import GroundAtom
from repro.storage.expressions import Expr
from repro.storage.types import SQLValue


@dataclass(frozen=True)
class Var:
    """A query variable, identified by name."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class Val:
    """A constant term."""

    value: "SQLValue | None"

    def __str__(self) -> str:
        return repr(self.value)


Term = Union[Var, Val]


@dataclass(frozen=True)
class Atom:
    """A relational atom ``R(t1, ..., tk)`` with constant/variable terms."""

    relation: str
    terms: tuple[Term, ...]

    def __post_init__(self):
        if not self.relation:
            raise SchemaError("atom relation name must be non-empty")

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> set[str]:
        return {t.name for t in self.terms if isinstance(t, Var)}

    def ground(self, valuation: Mapping[str, "SQLValue | None"]) -> GroundAtom:
        """Instantiate under a valuation; every variable must be bound."""
        values = []
        for term in self.terms:
            if isinstance(term, Val):
                values.append(term.value)
            else:
                if term.name not in valuation:
                    raise RangeRestrictionError(
                        f"variable {term.name!r} unbound when grounding "
                        f"{self.relation}"
                    )
                values.append(valuation[term.name])
        return GroundAtom(self.relation, tuple(values))

    def unifies_with(self, other: "Atom") -> bool:
        """Template-level unification: same relation and arity, and every
        constant/constant position agrees.  Variables unify with anything.

        This database-independent check is the paper's criterion for
        distinguishing *query failure* (no combined query could be
        formulated -> wait) from an *empty answer* (proceed); Appendix B.
        """
        if self.relation != other.relation or self.arity != other.arity:
            return False
        for mine, theirs in zip(self.terms, other.terms):
            if isinstance(mine, Val) and isinstance(theirs, Val):
                if mine.value != theirs.value:
                    return False
        return True

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(str(t) for t in self.terms)
        return f"{self.relation}({inner})"


@dataclass(frozen=True)
class EntangledQuery:
    """An entangled query in intermediate representation.

    Attributes:
        query_id: unique identifier within an evaluation batch (the
            coordinator uses the owning transaction's id plus a sequence
            number).
        heads: H — the query's own contribution to ANSWER relations.
        postconditions: C — required tuples from other participants.
        body_atoms: B — atoms over database relations; these define the
            variables (select-project-join only, per Section 2).
        body_predicate: residual comparisons over body variables (the
            non-join part of the SQL WHERE clause), or None.
        choose: how many answers the query wants (the paper's queries all
            use CHOOSE 1, which is also our default and the only value the
            coordinator currently serves).
        var_bindings: SQL-level ``AS @var`` bindings: maps host-variable
            name -> (head index, position) so the transaction layer can
            extract values from the answer (Section 3.1).
        body: for a query compiled from a prepared statement, its
            grounding body compiled once per statement template (see
            :func:`repro.entangled.grounding.compile_body`), as the
            :class:`~repro.storage.planner.BoundQuery` that plans it once,
            and the values its leaves read; None when grounding is to
            compile the body.
            Not part of the query's identity.
    """

    query_id: str
    heads: tuple[Atom, ...]
    postconditions: tuple[Atom, ...]
    body_atoms: tuple[Atom, ...]
    body_predicate: Expr | None = None
    choose: int = 1
    var_bindings: tuple[tuple[str, int, int], ...] = ()
    body: "tuple | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.heads:
            raise SchemaError(f"query {self.query_id!r} must have a head")
        if self.choose != 1:
            raise SchemaError(
                f"query {self.query_id!r}: only CHOOSE 1 is supported, "
                f"matching the paper's queries"
            )
        body_vars = self.body_variables()
        for atom in (*self.heads, *self.postconditions):
            loose = atom.variables() - body_vars
            if loose:
                raise RangeRestrictionError(
                    f"query {self.query_id!r}: variables {sorted(loose)} in "
                    f"{atom.relation} do not occur in the body "
                    f"(range restriction, Appendix A)"
                )

    def body_variables(self) -> set[str]:
        vars_: set[str] = set()
        for atom in self.body_atoms:
            vars_ |= atom.variables()
        return vars_

    def answer_relations(self) -> set[str]:
        """All ANSWER relation names this query mentions."""
        return {a.relation for a in self.heads} | {
            a.relation for a in self.postconditions
        }

    def database_relations(self) -> set[str]:
        """All database relations the body grounds on — these are the
        grounding-read targets for the formal model (Section 3.3.1)."""
        return {a.relation for a in self.body_atoms}

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        c = ", ".join(str(a) for a in self.postconditions)
        h = " ∧ ".join(str(a) for a in self.heads)
        b = " ∧ ".join(str(a) for a in self.body_atoms)
        if self.body_predicate is not None:
            b = f"{b} ∧ {self.body_predicate}"
        return f"{{{c}}} {h} <- {b}"


def check_arity_consistency(queries: Iterable[EntangledQuery]) -> dict[str, int]:
    """Verify every ANSWER relation is used with one arity across a batch.

    Returns the relation -> arity map.  Raises
    :class:`~repro.errors.AnswerRelationError` on inconsistency.  This is
    part of the safety analysis (see :mod:`repro.entangled.safety`).
    """
    from repro.errors import AnswerRelationError

    arity: dict[str, int] = {}
    for query in queries:
        for atom in (*query.heads, *query.postconditions):
            known = arity.get(atom.relation)
            if known is None:
                arity[atom.relation] = atom.arity
            elif known != atom.arity:
                raise AnswerRelationError(
                    f"ANSWER relation {atom.relation!r} used with arity "
                    f"{atom.arity} by query {query.query_id!r} but "
                    f"previously with arity {known}"
                )
    return arity
