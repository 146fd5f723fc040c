"""Valuations and groundings of entangled queries (Appendix A).

"If q is a query in the intermediate representation and the current
database is D, a valuation is simply an assignment of a value from D to
each variable of q.  Every valuation of a query is associated with a
grounding, which is q itself with the variables replaced by constants."

Grounding evaluates the body ``B`` — the portion of the WHERE clause that
does not refer to ANSWER relations — against the database.  We compile the
body atoms into a select-project-join query over the storage layer and
read each result row as a valuation.  The bodies of groundings are
discarded afterwards, exactly as in Figure 7(b).

The tables touched during grounding are reported to an observer: those are
the *grounding reads* (``RG``) of the formal model, which induce
quasi-reads on entanglement partners (Section 3.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.entangled.answers import GroundAtom
from repro.entangled.ir import EntangledQuery, Val
from repro.errors import EntangledQueryError
from repro.storage.expressions import STORAGE_NODES, Cmp, CmpOp, Col, Const, Expr, conjoin
from repro.storage.query import (
    ReadObserver,
    SPJQuery,
    TableProvider,
    TableRef,
    evaluate,
)
from repro.storage.types import SQLValue


@dataclass(frozen=True)
class Grounding:
    """A grounding of one query: its valuation plus instantiated H and C.

    Ground atoms are hashable, so matching can index them directly.
    """

    query_id: str
    valuation: tuple[tuple[str, "SQLValue | None"], ...]
    heads: tuple[GroundAtom, ...]
    postconditions: tuple[GroundAtom, ...]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        c = ", ".join(str(a) for a in self.postconditions)
        h = " ∧ ".join(str(a) for a in self.heads)
        return f"{{{c}}} {h}"


def compile_body(query: EntangledQuery, provider: TableProvider) -> SPJQuery:
    """Compile the body atoms + residual predicate into an SPJ plan.

    Each body atom becomes a FROM item with alias ``_b<i>``, and each of
    its positions the relation's column there, by its real name
    (``_b0.fno``): the IR is positional, the storage layer is not, and
    this is where one becomes the other — so the plan probes, locks and
    records exactly what a statement naming those columns would.
    Constant terms become equality conjuncts, repeated variables become
    join conjuncts, and each variable is selected once (first occurrence
    wins).  An atom whose arity is not its relation's is rejected.  A
    prepared statement's template query holds, for a constant, the
    expression its executions read the value from (``Val(Param(0))``);
    the conjunct compares with that expression.
    """
    if not query.body_atoms:
        raise EntangledQueryError(
            f"query {query.query_id!r} has an empty body; grounding "
            f"requires at least one database atom"
        )
    tables = []
    conjuncts: list[Expr] = []
    first_occurrence: dict[str, Col] = {}
    for i, atom in enumerate(query.body_atoms):
        alias = f"_b{i}"
        tables.append(TableRef(atom.relation, alias))
        names = provider.table(atom.relation).schema.column_names
        if len(names) != atom.arity:
            raise EntangledQueryError(
                f"query {query.query_id!r}: body atom {atom.relation} has "
                f"{atom.arity} terms, the relation has {len(names)} columns"
            )
        for name, term in zip(names, atom.terms):
            column = Col(f"{alias}.{name}")
            if isinstance(term, Val):
                value = term.value
                conjuncts.append(Cmp(CmpOp.EQ, column, value if isinstance(
                    value, Expr) else Const(value)))
            else:
                if term.name in first_occurrence:
                    conjuncts.append(
                        Cmp(CmpOp.EQ, column, first_occurrence[term.name])
                    )
                else:
                    first_occurrence[term.name] = column
    if query.body_predicate is not None:
        conjuncts.append(_rewrite_vars(query.body_predicate, first_occurrence))
    variables = sorted(first_occurrence)
    return SPJQuery(
        tables=tuple(tables),
        select=tuple(first_occurrence[v] for v in variables),
        select_names=tuple(variables),
        where=conjoin(conjuncts),
        distinct=True,
    )


def _rewrite_vars(expr: Expr, mapping: Mapping[str, Col]) -> Expr:
    """Replace variable references in the residual predicate with the
    columns chosen by :func:`compile_body`."""
    kind = type(expr)
    if kind is Col:
        return mapping.get(expr.name, expr)
    if kind not in STORAGE_NODES:
        raise EntangledQueryError(f"unsupported body predicate node {kind.__name__}")
    return expr.map(lambda node: _rewrite_vars(node, mapping))


def ground(
    query: EntangledQuery,
    provider: TableProvider,
    *,
    params: Mapping[str, "SQLValue | None"] | None = None,
    read_observer: ReadObserver | None = None,
) -> list[Grounding]:
    """Compute all groundings of ``query`` on the current database.

    ``params`` supplies host-variable values referenced by the body
    predicate (``@var``).  ``read_observer`` receives each
    :class:`~repro.storage.query.ReadAccess` performed against the
    database — the grounding reads of the formal model, at the access-path
    granularity the lock manager wants.

    Groundings are returned in a deterministic (sorted) order, which makes
    the whole evaluation pipeline deterministic as Appendix C.1 assumes.
    A query compiled from a prepared statement brings its body compiled
    and planned once (``query.body``): grounding runs it with the values
    it carries.
    """
    if query.body is None:
        plan, bound, values = compile_body(query, provider), None, params
    else:
        bound, values = query.body
        plan = bound.query
        if params:
            values = {**params, **values}
    rows = evaluate(
        plan, provider, params=values, read_observer=read_observer,
        bound=bound)
    names = plan.select_names
    groundings = []
    for row in rows:
        valuation = dict(zip(names, row))
        if params:
            # Host variables may appear in heads/postconditions as Vars too.
            for key, value in params.items():
                valuation.setdefault(key, value)
        groundings.append(
            Grounding(
                query_id=query.query_id,
                valuation=tuple(sorted(valuation.items())),
                heads=tuple(a.ground(valuation) for a in query.heads),
                postconditions=tuple(
                    a.ground(valuation) for a in query.postconditions
                ),
            )
        )
    groundings.sort(key=_grounding_key)
    return groundings


def _grounding_key(grounding: Grounding):
    return tuple(
        (name, type(value).__name__, str(value))
        for name, value in grounding.valuation
    )
