"""Volcano-style query operators over environment dictionaries.

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
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import UnknownColumnError
from repro.storage.bptree import value_sort_key
from repro.storage.expressions import Expr, is_satisfied
from repro.storage.query import ReadAccess, SPJQuery, _env_for
from repro.storage.row import Row

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
            ReadAccess.index_key(
                self.ref_name, table.canonical_index(self.cols), self.key
            )
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
                table.canonical_index(self.cols),
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
