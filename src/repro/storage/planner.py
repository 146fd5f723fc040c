"""Cost-based planning for SPJ queries over ordered + hash indexes.

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
from typing import Mapping, MutableMapping, Sequence

from repro.errors import UnknownColumnError
from repro.storage.bptree import value_sort_key
from repro.storage.expressions import (
    Cmp,
    CmpOp,
    Col,
    Expr,
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
from repro.storage.query import (
    SPJQuery,
    _constant_eq_conjuncts,
    _own_column,
    index_path_for,
)


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
            if columns is None and not table.has_ordered_index((column,)):
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
    if not table.has_ordered_index((bare,)):
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
