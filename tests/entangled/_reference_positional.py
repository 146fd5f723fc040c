"""TEST-ONLY ORACLE: grounding as it stood while the IR's positions
reached the storage layer as column names of their own.

The body of an entangled query is positional (an atom is ``R(t1..tn)``),
and grounding used to keep it that way one layer further down: the
compiled body named columns ``_b0.__col3``, and a facade over the
owner's table provider — a provider, a table and a schema class —
renamed every table's columns to ``__col<i>`` on the way in and turned
the names back on the way out (each probe, each range scan, and the
index every reported ``ReadAccess`` names, which is what lock and SIREAD
resources are built from).  ``repro.entangled.grounding`` now resolves
positions to real names once, in ``compile_body``, and evaluates against
the provider itself.

This module is that facade, kept as the reference
``test_grounding_differential.py`` compares against: same groundings in
the same order, same observed accesses, hence the same locks and the
same SSI read set.  Two adaptations to the table contract as it is now,
neither of which changes what it computes: the renamed schema is a real
``TableSchema`` (the planner asks a schema, not a view, about indexes
and column types), and the index names of an observed access are turned
back where the observer receives it (``IndexPoint`` no longer carries a
second spelling of its index for a view to supply).  It shares
``EntangledQuery`` / ``Grounding`` / ``SPJQuery`` / ``ReadAccess`` with
``src/`` on purpose, so results compare with ``==``.  Never import this
from ``src/``.
"""

from __future__ import annotations

from repro.entangled.grounding import Grounding, _grounding_key, _rewrite_vars
from repro.entangled.ir import Val
from repro.errors import EntangledQueryError
from repro.storage.expressions import Cmp, CmpOp, Col, Const, conjoin
from repro.storage.query import SPJQuery, TableRef, evaluate
from repro.storage.schema import Column, TableSchema


def compile_body(query) -> SPJQuery:
    """The body as an SPJ plan over positional column names."""
    if not query.body_atoms:
        raise EntangledQueryError(
            f"query {query.query_id!r} has an empty body; grounding "
            f"requires at least one database atom"
        )
    tables = []
    conjuncts = []
    first_occurrence: dict[str, Col] = {}
    for i, atom in enumerate(query.body_atoms):
        alias = f"_b{i}"
        tables.append(TableRef(atom.relation, alias))
        for position, term in enumerate(atom.terms):
            column = Col(f"{alias}.__col{position}")
            if isinstance(term, Val):
                conjuncts.append(Cmp(CmpOp.EQ, column, Const(term.value)))
            elif term.name in first_occurrence:
                conjuncts.append(
                    Cmp(CmpOp.EQ, column, first_occurrence[term.name]))
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


def _positional(schema: TableSchema, names) -> tuple:
    return tuple(f"__col{schema.column_index(c)}" for c in names)


def _real(schema: TableSchema, names) -> tuple:
    return tuple(
        schema.columns[int(c.removeprefix("__col"))].name for c in names)


class PositionalView:
    """A table provider whose tables' columns are named ``__col<i>``."""

    def __init__(self, provider):
        self._provider = provider

    def table(self, name: str) -> "PositionalTable":
        return PositionalTable(self._provider.table(name))


class PositionalTable:
    """A read-only positional facade over one table view."""

    def __init__(self, table):
        self._table = table
        real = self._real = table.schema
        self.schema = TableSchema(
            name=real.name,
            columns=tuple(
                Column(f"__col{i}", col.type, col.nullable)
                for i, col in enumerate(real.columns)),
            primary_key=_positional(real, real.primary_key),
            indexes=tuple(_positional(real, ix) for ix in real.indexes),
        )

    def __len__(self):
        return len(self._table)

    def row_estimate(self):
        return self._table.row_estimate()

    def scan(self):
        return self._table.scan()

    def lookup_pk(self, key):
        return self._table.lookup_pk(key)

    def lookup_index(self, column_names, key):
        return self._table.lookup_index(_real(self._real, column_names), key)

    def range_scan(self, column_names, lo, hi, **scan_options):
        return self._table.range_scan(
            _real(self._real, column_names), lo, hi, **scan_options)


class _RealIndexNames:
    """``observer``, told each access under the real index columns."""

    def __init__(self, observer, provider):
        self._observer = observer
        self._provider = provider
        many = getattr(observer, "many", None)
        if many is not None:
            self.many = lambda table, rids, path: many(
                table, rids, self._translate(path))

    def _translate(self, access):
        if access is None or access.index is None:
            return access
        schema = self._provider.table(access.table).schema
        return access._replace(index=_real(schema, access.index))

    def __call__(self, access) -> None:
        self._observer(self._translate(access))


def ground(query, provider, *, params=None, read_observer=None):
    """All groundings of ``query``, through the positional facade."""
    plan = compile_body(query)
    rows = evaluate(
        plan,
        PositionalView(provider),
        params=params,
        read_observer=(
            _RealIndexNames(read_observer, provider)
            if read_observer is not None else None),
    )
    names = plan.select_names
    groundings = []
    for row in rows:
        valuation = dict(zip(names, row))
        if params:
            for key, value in params.items():
                valuation.setdefault(key, value)
        groundings.append(
            Grounding(
                query_id=query.query_id,
                valuation=tuple(sorted(valuation.items())),
                heads=tuple(a.ground(valuation) for a in query.heads),
                postconditions=tuple(
                    a.ground(valuation) for a in query.postconditions),
            )
        )
    groundings.sort(key=_grounding_key)
    return groundings
