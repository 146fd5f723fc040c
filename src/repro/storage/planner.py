"""Prepared plans for SPJ queries over ordered + hash indexes.

A query is planned once per *shape* and executed many times.  The shape
is the query with its constants abstracted — FROM items, the column
names and comparison operators of each WHERE conjunct, which SELECT
items are plain columns, DISTINCT / ORDER BY, the names in scope before
the first table (host variables, and the parameters a prepared
statement's leaves read), and ``PlanHints.ordered_indexes`` — so the
thousands of scripts one statement template produces, and the grounding
bodies one entangled query shape produces, share one plan.  A table goes
by one set of column names whichever view serves it (a schema never
changes once created), so a FROM item's table name stands for its
columns.

* **Prepared once** (:func:`_prepare`, memoised in ``provider.plans``,
  one dict per ``Database``): the operator chain — Source -> one
  NestedLoopJoin per FROM item -> (Filter? -> Project)? -> Distinct? ->
  Sort?/pushdown -> Limit? — whether the ORDER BY can ride an ordered
  scan of the outermost table (sort elision) and whether the LIMIT may
  reach that leaf; the ambiguous-column set; and per FROM position a
  :class:`_LevelShape`: which conjuncts first become checkable there
  (every name they mention is bound by then — decided from aliases and
  schemas, never by trying), the equality-key recipe (own column <-
  the other side of a conjunct, evaluable from the outer bindings) with
  the index it probes, and the per-column range-bound recipes.  A plan
  holds names, positions and index column tuples only — never a table
  object, a view or a value: views are per transaction, values per
  execution.  What preparing asks about a table it asks the table's
  *schema* (``has_column``, ``has_index``, the declared indexes, column
  types and nullability); a view is asked for rows and a row estimate
  only.  A shape whose preparation raises is not remembered.

* **Bound per query object** (:class:`BoundQuery`): the conjunct list
  of the query is laid over the recipes (a recipe says "conjunct 2,
  right-hand side"; binding fetches that expression).  A statement
  template's SPJ query is one object for all its executions — its
  ``Param`` and ``@var`` leaves read the values each execution puts in
  its source environment (``base_env``) — and the statement's prepared
  form keeps its ``BoundQuery``: the WHERE split, the key and the bound
  join levels are made once, and an execution of a known statement is a
  dictionary lookup and an operator chain (:func:`build_plan`).  Any
  other query is split, keyed and bound per execution.

* **Decided per outer row** (:meth:`_JoinLevel.access`): only what
  depends on values or sizes.  The probe key is evaluated; when a
  component is NULL — ``col = NULL`` admits no row, so that column
  cannot key a probe — the level asks :func:`index_path_for` what the
  remaining bindings still cover.  Range bounds are evaluated, the
  tightest kept, and costed by the classical selectivity guesses —
  two-sided range ~ n/8, one-sided ~ n/3, scan = n — so a range path is
  taken only over a table of more than one row.  With the path goes
  what it *proves*: a conjunct the chosen path guarantees for every row
  it yields is not evaluated again.  That is an equality whose binding
  keyed the point probe, and a range conjunct on the scanned column
  whose bound was non-NULL and of a type ``comparable`` orders against
  the column's declared type (the used bound itself, or a looser one it
  implies) — unless the scan's lower end is open over a nullable column.
  Whenever that proof fails the conjunct stays among the level's checks,
  so a ``TypeMismatchError``, a NULL bound, a bound on a column the scan
  did not ride and every residual conjunct behave as under a filtered
  scan, and results always equal that baseline.  The same proof decides
  whether the query's LIMIT may reach the leaf.

* **By position, not by name**: when the SELECT list is plain columns
  of the innermost table and nothing above that level reads a row by
  name (no residual conjunct, no materialised sort key), the prepared
  plan carries ``emit`` — row values to output tuple — and that level
  yields output tuples itself; a row with no check left never becomes
  an environment.  Every other plan projects through
  :class:`~repro.storage.operators.Project`.

``PlanHints.ordered_indexes=False`` disables ordered access paths
entirely (the benchmark's hash-only baseline); tables maintain their
B+ trees regardless, the flag gates *use* only.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from operator import itemgetter
from typing import MutableMapping

from repro.storage.bptree import value_sort_key
from repro.storage.expressions import (
    Cmp,
    CmpOp,
    Col,
    Expr,
    names,
    split_conjuncts,
)
from repro.storage.operators import (
    Distinct,
    ExecContext,
    Filter,
    IndexPoint,
    IndexRange,
    Limit,
    NestedLoopJoin,
    Project,
    SeqScan,
    Sort,
    Source,
)
from repro.storage.query import SPJQuery, _own_column, index_path_for
from repro.storage.types import ColumnType


@dataclass
class PlanHints:
    """Engine-level knobs threaded into planning.

    ``stats`` (when provided) accumulates a store's ``plan_stats``:
    ``index_range_scans``, ``seq_scans_avoided``, ``sorts_elided`` —
    counted per execution, not per preparation.
    """

    ordered_indexes: bool = True
    stats: "MutableMapping | None" = None


DEFAULT_HINTS = PlanHints()

#: Prepared plans kept per ``Database`` — the front end's template table
#: holds as many statement shapes (``repro.sql.parser.TEMPLATE_CAP``), so
#: a plan is not evicted while its template is live.  Oldest out first.
PLAN_CAP = 512


@dataclass(frozen=True)
class _Bound:
    value: object
    inclusive: bool


#: col-OP-value orientation: which side of the range each operator bounds.
_UPPER_OPS = {CmpOp.LT: False, CmpOp.LE: True}
_LOWER_OPS = {CmpOp.GT: False, CmpOp.GE: True}


#: Per declared column type, the exact types ``comparable`` orders
#: against every non-NULL value such a column stores.  ``value_sort_key``
#: is laxer — a ``bool`` ranks among the numbers, anything against
#: anything — which is why a scan's bounds alone prove nothing.
_ORDERS_WITH = {
    ColumnType.INTEGER: (int, float),
    ColumnType.FLOAT: (int, float),
    ColumnType.TEXT: (str,),
    ColumnType.BOOLEAN: (bool,),
    ColumnType.DATE: (datetime.date,),
}


def _tighter_upper(value, inclusive: bool, current: _Bound) -> bool:
    new_k, cur_k = value_sort_key(value), value_sort_key(current.value)
    if new_k != cur_k:
        return new_k < cur_k
    return current.inclusive and not inclusive


def _tighter_lower(value, inclusive: bool, current: _Bound) -> bool:
    new_k, cur_k = value_sort_key(value), value_sort_key(current.value)
    if new_k != cur_k:
        return new_k > cur_k
    return current.inclusive and not inclusive


def _range_cost(n: int, lo: "_Bound | None", hi: "_Bound | None") -> int:
    """Classical selectivity guesses, in rows: two-sided ranges are
    assumed ~1/8 selective, one-sided ~1/3 (System R's heuristics)."""
    if lo is not None and hi is not None:
        return max(1, n // 8)
    return max(1, n // 3)


# -- the shape of a query: what a plan may depend on ---------------------------------


def _side(expr: Expr):
    """One side of a comparison as the planner sees it: a column by its
    name, anything else by the names it mentions."""
    if type(expr) is Col:
        return expr.name
    found: list = []
    names(expr, found)
    return tuple(found)


def _conjunct_shape(conj: Expr):
    """What planning reads off one conjunct: for an equality or ordering
    comparison the operator and both sides, otherwise just the names
    that decide where it can be checked."""
    if type(conj) is Cmp and conj.op is not CmpOp.NE:
        return conj.op, _side(conj.left), _side(conj.right)
    found: list = []
    names(conj, found)
    return tuple(found)


# -- prepared plans --------------------------------------------------------------------


class _LevelShape:
    """Everything about one FROM position that no value can change.

    A *recipe* names an expression of the executing query by position:
    ``(conjunct index, side)`` with side 0 = the conjunct's left operand,
    1 = its right.  Recipes are grouped per conjunct because a conjunct
    binds at most one column (its first orientation that yields a
    non-NULL value wins, as comparisons are tried left-to-right).
    """

    __slots__ = (
        "position", "ref_name", "qualified", "bare", "all_bare", "checks",
        "eq", "eq_columns", "point", "ranges", "forced", "n_pending",
        "not_null", "orders_with", "scan",
    )

    def __init__(self, position: int, ref_name: str):
        self.position = position
        self.ref_name = ref_name
        #: ``alias.column`` per column, zipped with a row's values.
        self.qualified: tuple = ()
        #: bare names bound here: the column names themselves when none is
        #: ambiguous (``all_bare``), else ``(name, value index)`` pairs.
        self.bare: tuple = ()
        self.all_bare = True
        #: indexes of the conjuncts first checkable at this level.
        self.checks: tuple = ()
        #: per conjunct, its index and the ``(own column, (conjunct, side
        #: of the other operand))`` orientations usable as an equality
        #: binding.
        self.eq: tuple = ()
        self.eq_columns = 0
        #: ``(index columns, is_pk)`` probed when every ``eq`` column
        #: binds non-NULL; None when they cover no index.
        self.point: "tuple | None" = None
        #: per conjunct, its index and the ``(own column, (conjunct,
        #: side), upper, inclusive)`` orientations usable as a range bound.
        self.ranges: tuple = ()
        #: ``(sort columns, reverse)`` when the ORDER BY rides this level.
        self.forced: "tuple | None" = None
        #: conjuncts still undecided on arrival here (leaf-limit rule).
        self.n_pending = 0
        #: columns declared NOT NULL (an open lower bound admits no NULL key).
        self.not_null: frozenset = frozenset()
        #: per column, its ``_ORDERS_WITH`` entry.
        self.orders_with: dict = {}
        self.scan = SeqScan(ref_name)


class _PreparedPlan:
    """The value-free part of a plan; see the module docstring."""

    __slots__ = (
        "levels", "residual", "order_exprs", "descending", "at_leaf", "emit",
    )

    def __init__(self, levels, residual, order_exprs, descending, at_leaf, emit):
        self.levels = levels
        #: conjuncts no level can check (unresolvable names; or no tables).
        self.residual = residual
        #: sort-key expressions when the sort is materialised, else ().
        self.order_exprs = order_exprs
        self.descending = descending
        #: the LIMIT reaches the single leaf: nothing above it drops or
        #: reorders rows.
        self.at_leaf = at_leaf
        #: ``row values -> output tuple`` when the SELECT list is plain
        #: columns of the innermost table and nothing above that level
        #: reads a row by name (no residual, no sort key), else None.
        self.emit = emit


def _sort_pushdown(
    query: SPJQuery, tables: list, conjuncts: list, hints: PlanHints
) -> "tuple | None":
    """Decide whether ORDER BY can ride an ordered scan of table 0.

    Requires a single sort column living on the outermost table with a
    single-column ordered index; outer-major nested-loop iteration then
    emits output already grouped in key order.  Declined when an equality
    conjunct touches table 0 — a point probe would beat the ordered scan,
    and the level must stay free to take it.
    """
    if not hints.ordered_indexes or len(query.order_by) != 1 or not tables:
        return None
    name, descending = query.order_by[0]
    ref, table = query.tables[0], tables[0]
    bare = name
    if "." in name:
        alias, bare = name.split(".", 1)
        if alias != ref.alias:
            return None
    elif len(tables) > 1:
        # A bare name in a join could belong to a later table.
        if not table.schema.has_column(bare) or any(
            t.schema.has_column(bare) for t in tables[1:]
        ):
            return None
    if not table.schema.has_column(bare):
        return None
    if not table.schema.has_index((bare,)):
        return None
    for conj in conjuncts:
        if isinstance(conj, Cmp) and conj.op is CmpOp.EQ:
            for side in (conj.left, conj.right):
                if _own_column(side, ref, table) is not None:
                    return None
    return ((bare,), bool(descending))


def _prepare(
    query: SPJQuery, tables: list, conjuncts: list, base_env: dict,
    hints: PlanHints,
) -> _PreparedPlan:
    """Plan ``query``'s shape.  ``tables`` and ``conjuncts`` are read for
    what every query of the shape shares — schemas, names, operators."""
    n = len(tables)
    # Column names occurring in more than one table must stay qualified.
    seen: set[str] = set()
    ambiguous: set[str] = set()
    for table in tables:
        for col in table.schema.column_names:
            if col in seen:
                ambiguous.add(col)
            seen.add(col)

    # The level at which each name is first bound: host variables before
    # any table (-1), then ``alias.column`` and unambiguous bare columns
    # per FROM position.
    bound_at: dict[str, int] = dict.fromkeys(base_env, -1)
    levels = []
    for position, (ref, table) in enumerate(zip(query.tables, tables)):
        level = _LevelShape(position, ref.name)
        columns = table.schema.column_names
        level.qualified = tuple(f"{ref.alias}.{col}" for col in columns)
        level.all_bare = not ambiguous.intersection(columns)
        level.bare = columns if level.all_bare else tuple(
            (col, i) for i, col in enumerate(columns) if col not in ambiguous
        )
        for name in level.qualified:
            bound_at.setdefault(name, position)
        for col in columns:
            if col not in ambiguous:
                bound_at.setdefault(col, position)
        level.not_null = frozenset(
            col.name for col in table.schema.columns if not col.nullable)
        level.orders_with = {
            col.name: _ORDERS_WITH[col.type] for col in table.schema.columns}
        levels.append(level)

    def level_of(expr: Expr) -> int:
        """The first level at which every name in ``expr`` resolves the
        way ``Col.eval`` resolves it (the name, else its bare suffix);
        ``n`` — past every table — when one never does."""
        found: list = []
        names(expr, found)
        latest = -1
        for name in found:
            first = bound_at.get(name, n)
            if "." in name:
                first = min(first, bound_at.get(name.rsplit(".", 1)[1], n))
            latest = max(latest, first)
        return latest

    # A conjunct is checked where its last name is bound (host-variable
    # only conjuncts with the first table); what no level can resolve is
    # the Filter's, which raises for the first row that reaches it.
    check_at = [max(level_of(conj), 0) for conj in conjuncts]
    residual = tuple(i for i, at in enumerate(check_at) if at == n)

    forced = _sort_pushdown(query, tables, conjuncts, hints)
    if forced is not None:
        levels[0].forced = forced

    for position, (ref, table) in enumerate(zip(query.tables, tables)):
        level = levels[position]
        level.checks = tuple(
            i for i, at in enumerate(check_at) if at == position)
        # Undecided on arrival: everything not checked at an earlier level.
        pending = [i for i, at in enumerate(check_at) if at >= position]
        level.n_pending = len(pending)
        eq, ranges, eq_columns = [], [], {}
        for i in pending:
            conj = conjuncts[i]
            if not isinstance(conj, Cmp):
                continue
            if conj.op is not CmpOp.EQ and (
                conj.op not in _UPPER_OPS and conj.op not in _LOWER_OPS
            ):
                continue
            usable = []
            for col_side, other, other_side, flipped in (
                (conj.left, conj.right, 1, False),
                (conj.right, conj.left, 0, True),
            ):
                column = _own_column(col_side, ref, table)
                if column is None or level_of(other) >= position:
                    continue
                if conj.op is CmpOp.EQ:
                    usable.append((column, (i, other_side)))
                    eq_columns[column] = None
                    continue
                if level.forced is not None:
                    if column not in level.forced[0]:
                        continue
                elif not table.schema.has_index((column,)):
                    continue
                # ``value OP col`` mirrors the bound direction.
                upper = (conj.op in _UPPER_OPS) != flipped
                inclusive = (
                    _UPPER_OPS[conj.op] if conj.op in _UPPER_OPS
                    else _LOWER_OPS[conj.op]
                )
                usable.append((column, (i, other_side), upper, inclusive))
            if usable:
                (eq if conj.op is CmpOp.EQ else ranges).append(
                    (i, tuple(usable)))
        if level.forced is not None:
            # The ordered scan is the access path; only bounds on the
            # sort column still prune it.
            level.ranges = tuple(ranges)
            continue
        level.eq = tuple(eq)
        level.eq_columns = len(eq_columns)
        path = index_path_for(table, eq_columns)
        if path is not None:
            cols, _key, is_pk = path
            level.point = (cols, is_pk)
        if hints.ordered_indexes:
            level.ranges = tuple(ranges)

    materialize_sort = bool(query.order_by) and forced is None
    # The LIMIT reaches the leaf only through a pipeline that neither
    # drops nor reorders rows above it: one FROM item, no DISTINCT, and
    # the sort elided or absent.
    at_leaf = n == 1 and not query.distinct and not materialize_sort
    emit = None
    if levels and not residual and not materialize_sort:
        emit = _positional(query.select, levels[-1])
    return _PreparedPlan(
        tuple(levels),
        residual,
        tuple(Col(name) for name, _desc in query.order_by)
        if materialize_sort else (),
        tuple(desc for _name, desc in query.order_by),
        at_leaf,
        emit,
    )


def _positional(select: tuple, level: _LevelShape):
    """``row values -> output tuple`` for a SELECT list of plain columns
    that ``level``'s own row binds, under the names it binds them by;
    None when one is anything else (an expression, a host variable,
    another table's column, a name only ``Col.eval``'s suffix rule
    finds)."""
    index_of = {name: i for i, name in enumerate(level.qualified)}
    index_of.update(
        zip(level.bare, range(len(level.bare))) if level.all_bare
        else level.bare)
    indexes = []
    for expr in select:
        if type(expr) is not Col or expr.name not in index_of:
            return None
        indexes.append(index_of[expr.name])
    if len(indexes) == 1:
        (only,) = indexes
        return lambda values: (values[only],)
    return itemgetter(*indexes) if indexes else None


# -- binding and executing ---------------------------------------------------------------


def _operand(conjuncts: list, recipe: tuple) -> Expr:
    index, side = recipe
    return conjuncts[index].right if side else conjuncts[index].left


class _JoinLevel:
    """One FROM position of a bound query: the prepared shape with the
    query's expressions laid over its recipes.  It holds nothing of an
    execution, so every execution of the query shares it."""

    __slots__ = ("shape", "checks", "eq", "ranges", "leaf_limit", "batch")

    def __init__(
        self, shape: _LevelShape, conjuncts: list, leaf_limit: "int | None",
        batch: bool,
    ):
        self.shape = shape
        self.checks = [conjuncts[i] for i in shape.checks]
        self.eq = [
            (index, [
                (column, _operand(conjuncts, recipe))
                for column, recipe in group])
            for index, group in shape.eq
        ]
        self.ranges = [
            (index, [
                (column, _operand(conjuncts, recipe), upper, inclusive)
                for column, recipe, upper, inclusive in group])
            for index, group in shape.ranges
        ]
        #: the query's LIMIT when nothing above the leaf can drop or
        #: reorder rows, else None.
        self.leaf_limit = leaf_limit
        #: the query has no LIMIT: every row a point probe yields is
        #: used, so it reports them as one batch.
        self.batch = batch

    def access(self, env: dict, table, ctx: ExecContext):
        """``(access operator, checks)`` for this position under ``env``:
        the row source, and the level's checks less those it proves."""
        shape = self.shape
        if shape.forced is not None:
            # A pushed-down ORDER BY pins the outermost table to an
            # ordered scan; range bounds on the sort column still prune.
            cols, reverse = shape.forced
            bounds, consumed = self._bounds(env)
            lo, hi = bounds.get(cols[0], (None, None))
            ctx.bump("sorts_elided")
            return self._ordered(cols[0], lo, hi, reverse, consumed)

        if self.eq:
            bindings: dict = {}
            bound_by: dict = {}
            for index, group in self.eq:
                for column, other in group:
                    if column in bindings:
                        continue
                    value = other.eval(env)
                    if value is not None:
                        bindings[column] = value
                        bound_by[column] = index
                        break
            if len(bindings) == shape.eq_columns:
                if shape.point is not None:
                    cols, is_pk = shape.point
                    return self._probe(
                        cols, tuple([bindings[c] for c in cols]), is_pk,
                        bound_by)
            else:
                # A NULL never keys a probe (``col = NULL`` admits no
                # row): probe what the remaining bindings still cover.
                path = index_path_for(table, bindings)
                if path is not None:
                    cols, key, is_pk = path
                    return self._probe(cols, key, is_pk, bound_by)

        if self.ranges:
            bounds, consumed = self._bounds(env)
            if bounds:
                n = table.row_estimate()
                best = None
                for column, (lo, hi) in bounds.items():
                    cost = _range_cost(n, lo, hi)
                    if cost < n and (best is None or cost < best[0]):
                        best = (cost, column, lo, hi)
                if best is not None:
                    _cost, column, lo, hi = best
                    return self._ordered(column, lo, hi, False, consumed)

        return shape.scan, self.checks

    def _probe(self, cols, key, is_pk, bound_by: dict):
        """``(operator, checks)`` for the point probe of ``key``: every
        row it yields carries the key, and ``=`` raises for no pair of
        types, so the conjuncts that bound ``cols`` need no check."""
        return (
            IndexPoint(self.shape.ref_name, cols, key, is_pk, self.batch),
            self._unproved([bound_by[c] for c in cols]))

    def _bounds(self, env: dict):
        """Per-column ``(lower, upper)`` bounds the range recipes admit
        under ``env``, and per column the conjuncts a scan between them
        *consumes*: those whose bound is non-NULL and of a type
        ``comparable`` orders against the column's.

        NULL bounds are discarded — a NULL comparison satisfies no row,
        and the level's checks handle that, so pruning on it buys
        nothing.  Overlapping conjuncts keep the *tightest* bound, which
        implies the looser ones.  A bound of any other type still prunes
        (``value_sort_key`` ranks anything) but its conjunct stays a
        check: it raises for the first row that comes back.
        """
        bounds: dict = {}
        consumed: dict = {}
        orders_with = self.shape.orders_with
        for index, group in self.ranges:
            for column, other, upper, inclusive in group:
                value = other.eval(env)
                if value is None:
                    continue
                lo, hi = bounds.get(column, (None, None))
                if upper:
                    if hi is None or _tighter_upper(value, inclusive, hi):
                        hi = _Bound(value, inclusive)
                else:
                    if lo is None or _tighter_lower(value, inclusive, lo):
                        lo = _Bound(value, inclusive)
                bounds[column] = (lo, hi)
                # ``value == value``: NaN orders with nothing.
                if type(value) in orders_with.get(column, ()) and value == value:
                    consumed.setdefault(column, []).append(index)
                break
        return bounds, consumed

    def _ordered(self, column: str, lo, hi, reverse: bool, consumed: dict):
        """``(operator, checks)`` for the ordered scan of ``column``
        between ``lo`` and ``hi``.  Every row it yields satisfies the
        conjuncts ``consumed`` on that column — unless the lower end is
        open over a nullable column: NULL keys sort first and fail any
        comparison.  ``leaf_limit`` reaches the scan when that is every
        conjunct still pending: its first rows are then the answer."""
        shape = self.shape
        proved = consumed.get(column, ())
        if lo is None and column not in shape.not_null:
            proved = ()
        limit = self.leaf_limit
        if limit is not None and len(proved) != shape.n_pending:
            limit = None
        checks = self._unproved(proved)
        if lo is None and hi is None:
            return SeqScan(
                shape.ref_name, order_cols=(column,), reverse=reverse,
                limit=limit), checks
        return IndexRange(
            shape.ref_name,
            (column,),
            (lo.value,) if lo is not None else None,
            (hi.value,) if hi is not None else None,
            lo_inc=lo.inclusive if lo is not None else True,
            hi_inc=hi.inclusive if hi is not None else True,
            reverse=reverse,
            limit=limit,
        ), checks

    def _unproved(self, proved) -> list:
        """The level's checks less the conjuncts (by index) the chosen
        access path already guarantees for every row it yields."""
        if not proved:
            return self.checks
        return [
            conj for index, conj in zip(self.shape.checks, self.checks)
            if index not in proved
        ]


class BoundQuery:
    """A query object planned once for all its executions: its WHERE
    conjuncts, the part of its plan key that is its own, and — per names
    in scope and ``ordered_indexes`` setting — its plan bound to those
    conjuncts, ``(plan, join levels)``.

    A prepared statement keeps one beside the SPJ query every execution
    of it runs (:mod:`repro.sql.compiler`), whose ``Param`` and ``@var``
    leaves read the values each execution puts in the source
    environment, and hands it to :func:`build_plan`; an execution of a
    known statement is then a dictionary lookup and an operator chain,
    with no split, no key and no binding.  Any other query is bound for
    its one execution.  The plan itself is shared through ``plans``, so
    every query of one shape has one.
    """

    __slots__ = ("query", "conjuncts", "shape", "bound")

    def __init__(self, query: SPJQuery):
        self.query = query
        self.conjuncts = split_conjuncts(query.where)
        self.shape = (
            query.tables,
            tuple([_conjunct_shape(conj) for conj in self.conjuncts]),
            query.distinct,
            query.order_by,
            # Which SELECT items are plain columns, and of what name.
            tuple([e.name if type(e) is Col else None for e in query.select]),
        )
        self.bound: dict = {}

    def plan(
        self, tables: list, base_env: dict, hints: PlanHints,
        plans: "MutableMapping | None",
    ) -> tuple:
        """``(plan, join levels)`` under ``base_env``'s names and
        ``hints``: the plan of the query's shape from ``plans`` (prepared
        and stored on first use; None = nothing is kept), bound to its
        conjuncts on first use."""
        names_in_scope = frozenset(base_env) if base_env else None
        slot = (names_in_scope, hints.ordered_indexes)
        found = self.bound.get(slot)
        if found is not None:
            return found
        key = (self.shape, names_in_scope, hints.ordered_indexes)
        plan = plans.get(key) if plans is not None else None
        if plan is None:
            plan = _prepare(self.query, tables, self.conjuncts, base_env, hints)
            if plans is not None:
                # Worker threads plan concurrently and no latch is taken: a
                # shape prepared twice stores equivalent plans, and an
                # eviction that loses a race just evicts on the next store.
                if len(plans) >= PLAN_CAP:
                    try:
                        del plans[next(iter(plans))]
                    except (KeyError, RuntimeError, StopIteration):
                        pass
                plans[key] = plan
        limit = self.query.limit
        leaf_limit = limit if plan.at_leaf else None
        found = self.bound[slot] = (plan, tuple([
            _JoinLevel(shape, self.conjuncts, leaf_limit, limit is None)
            for shape in plan.levels]))
        return found


def build_plan(
    query: SPJQuery,
    tables: list,
    base_env: dict,
    hints: PlanHints,
    plans: "MutableMapping | None" = None,
    bound: "BoundQuery | None" = None,
):
    """The operator pipeline for one execution of ``query``: its plan
    bound to its expressions (``bound``, the query's
    :class:`BoundQuery`, or one made for this execution), over a source
    of ``base_env``.  The root yields ``(output tuple, sort key)``
    pairs.
    """
    if bound is None:
        bound = BoundQuery(query)
    plan, levels = bound.plan(tables, base_env, hints, plans)
    node = Source(base_env)
    for level in levels:
        node = NestedLoopJoin(
            node, level,
            # The innermost level projects, when it can do so by position.
            plan.emit if level is levels[-1] else None)
    if plan.emit is None:
        if plan.residual:
            node = Filter(node, [bound.conjuncts[i] for i in plan.residual])
        node = Project(node, query.select, plan.order_exprs)
    if query.distinct:
        node = Distinct(node)
    if plan.order_exprs:
        node = Sort(node, plan.descending)
    if query.limit is not None:
        node = Limit(node, query.limit)
    return node


def execute(
    query: SPJQuery,
    tables: list,
    base_env: dict,
    observe,
    hints: "PlanHints | None" = None,
    plans: "MutableMapping | None" = None,
    bound: "BoundQuery | None" = None,
) -> list[tuple]:
    """Bind ``query`` to its prepared plan and run it; returns the output
    tuples in order."""
    hints = hints or DEFAULT_HINTS
    root = build_plan(query, tables, base_env, hints, plans, bound)
    ctx = ExecContext(tables, observe, hints.stats)
    return [output for output, _skey in root.run(ctx)]
