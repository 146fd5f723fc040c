"""TEST-ONLY ORACLE: the read path as it stood before plans were prepared.

A copy of ``src/repro/storage/operators.py`` and
``src/repro/storage/planner.py`` at the parent of that change (verbatim
but for three questions it asked a table view and now asks the view's
schema: ``has_index``, and the columns an observed index goes by), plus the
five helpers of ``src/repro/storage/query.py`` they were built on
(``_env_for``, ``_constant_eq_conjuncts``, ``_own_column``, the
*first-covered* ``index_path_for`` and ``evaluate``): the planner that
re-derives equality bindings, index path and range bounds from the
conjunct list per outer row, defers conjuncts by catching
``UnknownColumnError`` per row per level, and observes every probed row
before the pipeline pulls the first.  Slow but obviously correct, which
is what a reference is for: ``test_prepared_plans.py`` runs it and the
production path over the same queries and tables and requires identical
output rows in identical order, and ``test_read_lock_sets.py`` requires
the production path's observed rows to be a subset of this one's.  It
shares ``SPJQuery``/``ReadAccess``/the expression nodes with ``src/`` on
purpose, so results compare with ``==``.  Never import this from ``src/``.

Original operators docstring follows.
Volcano-style query operators over environment dictionaries.

The SPJ evaluator in :mod:`repro.storage.query` used to be one recursive
function; this module decomposes it into composable operators so the
cost-based planner (:mod:`repro.storage.planner`) can assemble different
plan shapes — index-range scans, ordered scans that elide a sort,
LIMIT-short-circuiting pipelines — from the same parts.

Two operator families:

* **Access operators** (:class:`SeqScan`, :class:`IndexPoint`,
  :class:`IndexRange`) are per-table-position row sources.  The planner's
  *chooser* instantiates one per outer-row binding, because which path is
  cheapest depends on the values already bound (a join key becomes a
  point probe only once the outer row fixes it).  Each access reports
  itself through the read observer *before* any covered row is used —
  that callback is where the engine takes IS + key/row/next-key locks,
  so an observer that raises aborts evaluation with nothing unlocked.

* **Pipeline operators** (:class:`NestedLoopJoin`, :class:`Filter`,
  :class:`Project`, :class:`Distinct`, :class:`Sort`, :class:`Limit`)
  stream ``(env, pending-conjuncts)`` pairs top-down.  Generators give
  LIMIT short-circuiting for free: when :class:`Limit` stops pulling,
  suspended scans never produce another row.  Conjunct handling keeps
  the historical contract: each join level checks every pending conjunct
  it *can* evaluate and defers the rest (``UnknownColumnError``) deeper;
  access paths only ever *prune* candidates, they never replace the
  final residual check — which is why an index-range plan returns
  exactly what a filtered full scan would.

Original planner docstring follows.
Cost-based planning for SPJ queries over ordered + hash indexes.

The planner owns every choice the volcano pipeline leaves open:

* **Static shape** (:func:`build_plan`): the operator chain —
  Source -> one NestedLoopJoin per FROM item -> Filter -> Project ->
  Distinct? -> Sort?/pushdown -> Limit? — and whether the ORDER BY can
  ride an ordered-index scan on the outermost table (sort elision).

* **Runtime access choice** (the *chooser* handed to each join level):
  with the outer row's bindings in hand, pick hash/pk point probe vs
  B+ tree range scan vs sequential scan.  Point probes win outright
  (cost ~1).  Otherwise range conjuncts (``col < v``, ``v <= col``, …)
  against outer-evaluable bounds are extracted per single-column ordered
  index and costed by the classical selectivity guesses — two-sided
  range ~ n/8, one-sided ~ n/3, scan = n — cheapest wins.  Extraction is
  *non-destructive*: bounding conjuncts stay in the residual filter, so
  an index range is purely a candidate generator and results always
  equal the filtered-scan baseline.

``PlanHints.ordered_indexes=False`` disables ordered access paths
entirely (the benchmark's hash-only baseline); tables maintain their
B+ trees regardless, the flag gates *use* only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, MutableMapping, Sequence

from repro.errors import UnknownColumnError
from repro.storage.bptree import value_sort_key
from repro.storage.expressions import (
    Cmp,
    CmpOp,
    Col,
    Expr,
    is_satisfied,
    split_conjuncts,
)
from repro.storage.query import (
    ReadAccess,
    ReadObserver,
    SPJQuery,
    TableProvider,
    TableRef,
)
from repro.storage.row import Row
from repro.storage.table import Table
from repro.storage.types import SQLValue

# -- query.py helpers ------------------------------------------------------------------


def _env_for(
    ref: TableRef,
    row: Row,
    table: Table,
    base: dict[str, "SQLValue | None"],
    ambiguous: set[str],
) -> dict[str, "SQLValue | None"]:
    """Extend ``base`` with the bindings contributed by ``row``."""
    env = dict(base)
    for col, value in zip(table.schema.column_names, row.values):
        env[f"{ref.alias}.{col}"] = value
        if col not in ambiguous:
            env[col] = value
    return env


def _constant_eq_conjuncts(
    conjuncts: Sequence[Expr],
    ref: TableRef,
    table: Table,
    outer: Mapping[str, "SQLValue | None"],
) -> tuple[dict[str, "SQLValue | None"], list[Expr]]:
    """Split conjuncts into index-usable ``col = const`` bindings vs. rest.

    A conjunct is index-usable for ``ref`` when it is an equality between a
    column of ``ref`` and an expression fully evaluable from ``outer``
    (constants, host variables, columns of earlier tables).
    """
    bindings: dict[str, "SQLValue | None"] = {}
    residual: list[Expr] = []
    for conj in conjuncts:
        usable = False
        if isinstance(conj, Cmp) and conj.op is CmpOp.EQ:
            for col_side, other in ((conj.left, conj.right), (conj.right, conj.left)):
                column = _own_column(col_side, ref, table)
                if column is None:
                    continue
                try:
                    value = other.eval(outer)
                except UnknownColumnError:
                    continue
                if value is not None and column not in bindings:
                    bindings[column] = value
                    usable = True
                    break
        if not usable:
            residual.append(conj)
    return bindings, residual


def _own_column(expr: Expr, ref: TableRef, table: Table) -> str | None:
    """Return the bare column name when ``expr`` names a column of ``ref``."""
    if not isinstance(expr, Col):
        return None
    name = expr.name
    if "." in name:
        alias, bare = name.split(".", 1)
        if alias != ref.alias:
            return None
        name = bare
    return name if table.schema.has_column(name) else None


def index_path_for(
    table: Table, bindings: Mapping[str, "SQLValue | None"]
) -> tuple[tuple[str, ...], tuple, bool] | None:
    """The index probe the equality ``bindings`` admit, or None for a scan.

    Returns ``(index columns, key, is_pk)`` — primary key first, then the
    first fully-covered secondary index.  Shared by the read path
    (:func:`evaluate`) and the predicate-write path
    (``StorageEngine.update_where``/``delete_where``) so both always
    choose — and lock — the same access path.
    """
    if not bindings:
        return None
    pk = table.schema.primary_key
    if pk and all(c in bindings for c in pk):
        return tuple(pk), tuple(bindings[c] for c in pk), True
    for cols in table.schema.indexes:
        if all(c in bindings for c in cols):
            return tuple(cols), tuple(bindings[c] for c in cols), False
    return None



# -- operators.py ---------------------------------------------------------------------

#: A pipeline element: the bindings accumulated so far plus the WHERE
#: conjuncts not yet checkable at this depth.
Env = dict
Item = "tuple[Env, list[Expr]]"


class ExecContext:
    """Everything an executing plan needs: resolved tables, the read
    observer, ambiguity info, and the plan-stat counters."""

    def __init__(
        self,
        query: SPJQuery,
        tables: list,
        observe: Callable[[ReadAccess], None],
        ambiguous: set[str],
        stats: "Mapping | None" = None,
    ):
        self.query = query
        self.tables = tables
        self.observe = observe
        self.ambiguous = ambiguous
        self.stats = stats

    def bump(self, counter: str, by: int = 1) -> None:
        if self.stats is not None:
            self.stats[counter] = self.stats.get(counter, 0) + by


# -- access operators (row sources for one table position) -------------------------


class SeqScan:
    """Full scan; with ``order_cols`` set, an *ordered* full scan via the
    B+ tree (same table-granularity access, but rows arrive sorted, which
    is what lets the planner elide an ORDER BY sort)."""

    def __init__(
        self,
        ref_name: str,
        order_cols: "tuple[str, ...] | None" = None,
        reverse: bool = False,
        limit: "int | None" = None,
    ):
        self.ref_name = ref_name
        self.order_cols = order_cols
        self.reverse = reverse
        self.limit = limit

    def rows(self, table, ctx: ExecContext) -> Iterable[Row]:
        ctx.observe(ReadAccess.scan(self.ref_name))
        if self.order_cols is None:
            return table.scan()
        return table.range_scan(
            self.order_cols, None, None, reverse=self.reverse,
            limit=self.limit,
        )


class IndexPoint:
    """Hash/pk point probe — the historical equality access path."""

    def __init__(self, ref_name: str, cols: tuple, key: tuple, is_pk: bool):
        self.ref_name = ref_name
        self.cols = cols
        self.key = key
        self.is_pk = is_pk

    def rows(self, table, ctx: ExecContext) -> Iterable[Row]:
        ctx.observe(
            ReadAccess.index_key(self.ref_name, self.cols, self.key)
        )
        if self.is_pk:
            row = table.lookup_pk(self.key)
            # Residual equality columns still need checking; the
            # pipeline's conjunct re-check covers that.
            rows = [row] if row is not None else []
        else:
            rows = table.lookup_index(self.cols, self.key)
        for row in rows:
            ctx.observe(ReadAccess.row(self.ref_name, row.rid))
        return rows


class IndexRange:
    """Ordered-index range scan: in-order candidates between bounds.

    The range access is observed first (the engine turns it into IS +
    next-key S locks: every in-range key plus the right fencepost), then
    each produced row (row S).  Bounds prune candidates only — residual
    conjuncts are still re-checked by the pipeline, so the result set is
    identical to a filtered scan.  ``limit`` (set by the planner only
    when the query's LIMIT provably applies here) caps the rows fetched
    and row-observed; the observed range access keeps its full bounds.
    """

    def __init__(
        self,
        ref_name: str,
        cols: tuple,
        lo: "tuple | None",
        hi: "tuple | None",
        lo_inc: bool = True,
        hi_inc: bool = True,
        reverse: bool = False,
        limit: "int | None" = None,
    ):
        self.ref_name = ref_name
        self.cols = cols
        self.lo = lo
        self.hi = hi
        self.lo_inc = lo_inc
        self.hi_inc = hi_inc
        self.reverse = reverse
        self.limit = limit

    def rows(self, table, ctx: ExecContext) -> Iterable[Row]:
        ctx.bump("index_range_scans")
        ctx.bump("seq_scans_avoided")
        ctx.observe(
            ReadAccess.index_range(
                self.ref_name,
                self.cols,
                self.lo,
                self.hi,
                lo_inc=self.lo_inc,
                hi_inc=self.hi_inc,
            )
        )
        rows = table.range_scan(
            self.cols,
            self.lo,
            self.hi,
            lo_inc=self.lo_inc,
            hi_inc=self.hi_inc,
            reverse=self.reverse,
            limit=self.limit,
        )
        for row in rows:
            ctx.observe(ReadAccess.row(self.ref_name, row.rid))
        return rows


#: The planner's runtime access chooser: (ctx, position, env, pending) ->
#: an access operator for that table position under those bindings.
AccessChooser = Callable[[ExecContext, int, Env, list], object]


# -- pipeline operators -------------------------------------------------------------


class Source:
    """The pipeline root: one item holding the host-variable bindings and
    the full conjunct list."""

    def __init__(self, base_env: Env, conjuncts: list):
        self.base_env = base_env
        self.conjuncts = conjuncts

    def run(self, ctx: ExecContext) -> Iterator[Item]:
        yield dict(self.base_env), list(self.conjuncts)


class NestedLoopJoin:
    """One join level: for every upstream item, choose an access path for
    this table position, extend the env per row, check what is now
    checkable, and defer the rest."""

    def __init__(self, child, position: int, chooser: AccessChooser):
        self.child = child
        self.position = position
        self.chooser = chooser

    def run(self, ctx: ExecContext) -> Iterator[Item]:
        ref = ctx.query.tables[self.position]
        table = ctx.tables[self.position]
        for env, pending in self.child.run(ctx):
            access = self.chooser(ctx, self.position, env, pending)
            for row in access.rows(table, ctx):
                env2 = _env_for(ref, row, table, env, ctx.ambiguous)
                deeper: list[Expr] = []
                ok = True
                for conj in pending:
                    try:
                        if not is_satisfied(conj, env2):
                            ok = False
                            break
                    except UnknownColumnError:
                        deeper.append(conj)
                if ok:
                    yield env2, deeper


class Filter:
    """Strictly evaluate whatever conjuncts survived every join level
    (for a table-less query: the whole WHERE clause)."""

    def __init__(self, child):
        self.child = child

    def run(self, ctx: ExecContext) -> Iterator[Item]:
        for env, pending in self.child.run(ctx):
            if all(is_satisfied(conj, env) for conj in pending):
                yield env, []


class Project:
    """Evaluate the SELECT list (and the ORDER BY sort key, which may
    reference non-projected columns, so it must be computed while the
    env is still in hand).  Emits ``(output tuple, sort key | None)``."""

    def __init__(self, child, select: tuple, order_exprs: tuple = ()):
        self.child = child
        self.select = select
        self.order_exprs = order_exprs

    def run(self, ctx: ExecContext) -> Iterator[tuple[tuple, "tuple | None"]]:
        for env, _pending in self.child.run(ctx):
            output = tuple(expr.eval(env) for expr in self.select)
            skey = (
                tuple(value_sort_key(expr.eval(env)) for expr in self.order_exprs)
                if self.order_exprs
                else None
            )
            yield output, skey


class Distinct:
    """Drop duplicate output tuples, keeping first occurrence order."""

    def __init__(self, child):
        self.child = child

    def run(self, ctx: ExecContext) -> Iterator[tuple[tuple, "tuple | None"]]:
        seen: set[tuple] = set()
        for output, skey in self.child.run(ctx):
            if output in seen:
                continue
            seen.add(output)
            yield output, skey


class Sort:
    """Materializing sort over the projected stream (used only when the
    planner could not push the ordering into an ordered scan).  Stable:
    equal keys keep pipeline order.  Mixed ASC/DESC is handled by
    successive stable sorts from least- to most-significant key."""

    def __init__(self, child, descending: tuple[bool, ...]):
        self.child = child
        self.descending = descending

    def run(self, ctx: ExecContext) -> Iterator[tuple[tuple, "tuple | None"]]:
        items = list(self.child.run(ctx))
        for pos in range(len(self.descending) - 1, -1, -1):
            items.sort(key=lambda item: item[1][pos], reverse=self.descending[pos])
        return iter(items)


class Limit:
    """Stop pulling after ``n`` rows — upstream generators suspend, so a
    pushed-down ordered scan reads only the prefix it needs."""

    def __init__(self, child, n: int):
        self.child = child
        self.n = n

    def run(self, ctx: ExecContext) -> Iterator[tuple[tuple, "tuple | None"]]:
        if self.n <= 0:
            return
        count = 0
        for item in self.child.run(ctx):
            yield item
            count += 1
            if count >= self.n:
                return


# -- planner.py -----------------------------------------------------------------------


@dataclass
class PlanHints:
    """Engine-level knobs threaded into planning.

    ``stats`` (when provided) accumulates the plan counters surfaced in
    run reports: ``index_range_scans``, ``seq_scans_avoided``,
    ``sorts_elided``.
    """

    ordered_indexes: bool = True
    stats: "MutableMapping | None" = None


DEFAULT_HINTS = PlanHints()


@dataclass(frozen=True)
class _Bound:
    value: object
    inclusive: bool


#: col-OP-value orientation: which side of the range each operator bounds.
_UPPER_OPS = {CmpOp.LT: False, CmpOp.LE: True}
_LOWER_OPS = {CmpOp.GT: False, CmpOp.GE: True}


def range_bounds_for(
    conjuncts: Sequence[Expr],
    ref,
    table,
    outer: Mapping,
    *,
    columns: "tuple[str, ...] | None" = None,
) -> dict[str, tuple["_Bound | None", "_Bound | None"]]:
    """Per-column (lower, upper) bounds the conjuncts admit right now.

    A conjunct contributes when it compares an own column of ``ref``
    (with a single-column ordered index, unless ``columns`` restricts the
    candidates) against an expression evaluable from ``outer``.  NULL
    bounds are discarded — a NULL comparison satisfies no row, and the
    residual filter already handles that, so pruning on it buys nothing.
    Overlapping conjuncts keep the *tightest* bound; the looser ones
    remain in the filter, which re-checks everything anyway.
    """
    bounds: dict[str, tuple["_Bound | None", "_Bound | None"]] = {}
    for conj in conjuncts:
        if not isinstance(conj, Cmp):
            continue
        if conj.op not in _UPPER_OPS and conj.op not in _LOWER_OPS:
            continue
        for col_side, other, flipped in (
            (conj.left, conj.right, False),
            (conj.right, conj.left, True),
        ):
            column = _own_column(col_side, ref, table)
            if column is None:
                continue
            if columns is not None and column not in columns:
                continue
            if columns is None and not table.schema.has_index((column,)):
                continue
            try:
                value = other.eval(outer)
            except UnknownColumnError:
                continue
            if value is None:
                continue
            op = conj.op
            # ``value OP col`` mirrors the bound direction.
            upper = (op in _UPPER_OPS) != flipped
            inclusive = _UPPER_OPS[op] if op in _UPPER_OPS else _LOWER_OPS[op]
            lo, hi = bounds.get(column, (None, None))
            if upper:
                if hi is None or _tighter_upper(value, inclusive, hi):
                    hi = _Bound(value, inclusive)
            else:
                if lo is None or _tighter_lower(value, inclusive, lo):
                    lo = _Bound(value, inclusive)
            bounds[column] = (lo, hi)
            break
    return bounds


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


def _leaf_limit(leaf_limit, pending, ref, table, env, column, lo):
    """``leaf_limit`` when every row an ordered scan of ``column`` yields
    is an output row, else None: each pending conjunct must be consumed
    by a non-NULL bound on that column, and an open lower end must not
    admit NULL keys (they sort first and fail any comparison)."""
    if leaf_limit is None or not pending:
        return leaf_limit
    if lo is None:
        column_of = getattr(table.schema, "column", None)
        if column_of is None or column_of(column).nullable:
            return None
    if all(
        range_bounds_for([conj], ref, table, env, columns=(column,))
        for conj in pending
    ):
        return leaf_limit
    return None


def make_chooser(
    hints: PlanHints,
    forced_order: "tuple | None" = None,
    leaf_limit: "int | None" = None,
):
    """Build the runtime access chooser the join levels call per outer row.

    ``forced_order`` — ``(position, cols, reverse)`` — pins the outermost
    table to an ordered scan on ``cols`` so a pushed-down ORDER BY stays
    truthful; range bounds on that same column still prune it.
    ``leaf_limit`` is the query's LIMIT when nothing above the leaf can
    drop or reorder rows; an ordered leaf whose bounds consume the whole
    WHERE clause (:func:`_leaf_limit`) then fetches only that many.
    """

    def choose(ctx: ExecContext, position: int, env: dict, pending: list):
        ref = ctx.query.tables[position]
        table = ctx.tables[position]

        if forced_order is not None and position == forced_order[0]:
            _pos, cols, reverse = forced_order
            bounds = range_bounds_for(pending, ref, table, env, columns=cols)
            lo, hi = bounds.get(cols[0], (None, None))
            ctx.bump("sorts_elided")
            limit = _leaf_limit(
                leaf_limit, pending, ref, table, env, cols[0], lo)
            if lo is None and hi is None:
                return SeqScan(
                    ref.name, order_cols=cols, reverse=reverse, limit=limit)
            return IndexRange(
                ref.name,
                cols,
                (lo.value,) if lo is not None else None,
                (hi.value,) if hi is not None else None,
                lo_inc=lo.inclusive if lo is not None else True,
                hi_inc=hi.inclusive if hi is not None else True,
                reverse=reverse,
                limit=limit,
            )

        bindings, _residual = _constant_eq_conjuncts(pending, ref, table, env)
        path = index_path_for(table, bindings)
        if path is not None:
            cols, key, is_pk = path
            return IndexPoint(ref.name, cols, key, is_pk)

        bounds = (
            range_bounds_for(pending, ref, table, env)
            if hints.ordered_indexes else {}
        )
        if bounds:
            # Only now is the table's size worth asking for: on a
            # snapshot view it costs a visibility scan.
            best = None
            try:
                n = len(table)
            except TypeError:
                n = 1024  # facade without __len__: assume scanning hurts
            for column, (lo, hi) in bounds.items():
                cost = _range_cost(n, lo, hi)
                if cost < n and (best is None or cost < best[0]):
                    best = (cost, column, lo, hi)
            if best is not None:
                _cost, column, lo, hi = best
                return IndexRange(
                    ref.name,
                    (column,),
                    (lo.value,) if lo is not None else None,
                    (hi.value,) if hi is not None else None,
                    lo_inc=lo.inclusive if lo is not None else True,
                    hi_inc=hi.inclusive if hi is not None else True,
                    limit=_leaf_limit(
                        leaf_limit, pending, ref, table, env, column, lo),
                )

        return SeqScan(ref.name)

    return choose


def _sort_pushdown(
    query: SPJQuery, tables: list, conjuncts: list, hints: PlanHints
) -> "tuple | None":
    """Decide whether ORDER BY can ride an ordered scan of table 0.

    Requires a single sort column living on the outermost table with a
    single-column ordered index; outer-major nested-loop iteration then
    emits output already grouped in key order.  Declined when an equality
    conjunct touches table 0 — a point probe would beat the ordered scan,
    and the chooser must stay free to take it.
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
    return (0, (bare,), bool(descending))


def build_plan(
    query: SPJQuery, tables: list, base_env: dict, hints: PlanHints
):
    """Assemble the operator pipeline for ``query``.

    Returns ``(root operator, ambiguous column names)``; the root yields
    ``(output tuple, sort key)`` pairs.
    """
    conjuncts = split_conjuncts(query.where)
    forced_order = _sort_pushdown(query, tables, conjuncts, hints)
    # The LIMIT reaches the leaf only through a pipeline that neither
    # drops nor reorders rows above it: one FROM item, no DISTINCT, and
    # the sort elided or absent.
    at_leaf = (
        len(query.tables) == 1
        and not query.distinct
        and (not query.order_by or forced_order is not None)
    )
    chooser = make_chooser(
        hints, forced_order, query.limit if at_leaf else None)

    node = Source(base_env, conjuncts)
    for position in range(len(query.tables)):
        node = NestedLoopJoin(node, position, chooser)
    node = Filter(node)

    materialize_sort = bool(query.order_by) and forced_order is None
    order_exprs = (
        tuple(Col(name) for name, _desc in query.order_by)
        if materialize_sort
        else ()
    )
    node = Project(node, query.select, order_exprs)
    if query.distinct:
        node = Distinct(node)
    if materialize_sort:
        node = Sort(node, tuple(desc for _name, desc in query.order_by))
    if query.limit is not None:
        node = Limit(node, query.limit)

    # Column names occurring in more than one table must stay qualified.
    seen: set[str] = set()
    ambiguous: set[str] = set()
    for table in tables:
        for col in table.schema.column_names:
            if col in seen:
                ambiguous.add(col)
            seen.add(col)
    return node, ambiguous


def execute(
    query: SPJQuery,
    tables: list,
    base_env: dict,
    observe,
    hints: "PlanHints | None" = None,
) -> list[tuple]:
    """Plan and run ``query``; returns the output tuples in order."""
    hints = hints or DEFAULT_HINTS
    root, ambiguous = build_plan(query, tables, base_env, hints)
    ctx = ExecContext(query, tables, observe, ambiguous, hints.stats)
    return [output for output, _skey in root.run(ctx)]


# -- query.evaluate ---------------------------------------------------------------------


def evaluate(
    query: SPJQuery,
    provider: TableProvider,
    params: Mapping[str, "SQLValue | None"] | None = None,
    read_observer: ReadObserver | None = None,
    hints=None,
) -> list[tuple["SQLValue | None", ...]]:
    """Evaluate an SPJ query, returning output tuples in deterministic order.

    ``params`` supplies host-variable bindings (keys like ``"@x"``).
    ``read_observer`` receives each distinct :class:`ReadAccess` before the
    rows it covers are used — the transactional engine uses this to take
    fine-grained read locks, so an observer that raises (e.g. on a lock
    conflict) aborts the evaluation with no unlocked data consumed.

    Execution is delegated to the cost-based planner
    (:mod:`repro.storage.planner`), which assembles a volcano pipeline
    choosing point / range / scan access per table position.  ``hints``
    (a :class:`~repro.storage.planner.PlanHints`) carries the engine's
    planner knobs and stat counters; None means defaults (ordered
    indexes allowed, no counters).
    """
    tables = [provider.table(ref.name) for ref in query.tables]

    reported: set[ReadAccess] = set()

    def observe(access: ReadAccess) -> None:
        if read_observer is not None and access not in reported:
            reported.add(access)
            read_observer(access)

    base_env: dict[str, "SQLValue | None"] = dict(params or {})
    return execute(query, tables, base_env, observe, hints)
