"""Volcano-style query operators over environment dictionaries.

The SPJ evaluator in :mod:`repro.storage.query` used to be one recursive
function; this module decomposes it into composable operators so the
planner (:mod:`repro.storage.planner`) can assemble different plan
shapes — index-range scans, ordered scans that elide a sort,
LIMIT-short-circuiting pipelines — from the same parts.

Two operator families:

* **Access operators** (:class:`SeqScan`, :class:`IndexPoint`,
  :class:`IndexRange`) are per-table-position row sources.  Which one a
  join level uses was decided when the statement's shape was prepared;
  per outer row the level only binds the values — the probe key, the
  range bounds — and instantiates it (the planner's ``_JoinLevel``).
  Each reports itself through the read observer in two steps: the access
  path *before* it is probed (that callback is where the engine takes IS
  + key / next-key locks and records SIREAD keys and ranges), then its
  rows before they are used (row S, the SSI ROW read).  Under a
  ``LIMIT`` a point probe observes each row *immediately before*
  yielding it, so its row locks are bounded by the rows the pipeline
  *examines*: a ``LIMIT`` that is met, or a join level that stops
  pulling, leaves the rest of the probed key's rows unobserved (a
  materialising :class:`Sort` or :class:`Distinct` above still examines
  every row).  With no ``LIMIT`` the pipeline uses every row, and the
  probe observes them as one batch before the first.  A range scan
  observes the rows it fetched in one batch, before the first is used —
  and fetches, like it locks, only the prefix the consumer pulls when
  the planner handed it the query's LIMIT — as ``(table, rids, the range
  as consumed)``, not an access object per row.  Either way an observer
  that raises aborts evaluation with nothing unlocked consumed.

* **Pipeline operators** (:class:`NestedLoopJoin`, :class:`Filter`,
  :class:`Project`, :class:`Distinct`, :class:`Sort`, :class:`Limit`)
  stream environments top-down.  Generators give LIMIT short-circuiting
  for free: when :class:`Limit` stops pulling, suspended scans never
  produce another row.  Each WHERE conjunct is checked at the join level
  where its last column becomes bound — decided from aliases and schemas
  when the plan is prepared, never by probing — and a conjunct naming
  something no table or host variable provides is left to
  :class:`Filter`, which raises ``UnknownColumnError`` for the first row
  that reaches it.  A conjunct the level's access path *proves* for
  every row it yields — the equality that keyed a point probe, a
  well-typed non-NULL bound of the range scan — is not checked again
  (the planner's ``_JoinLevel.access`` hands back the checks that are
  left, per access); every other conjunct is, and all of them whenever
  the proof fails — which is why an index-range plan returns exactly
  what a filtered full scan would.  The innermost level may be given the
  projection (``emit``, by position): its rows with no check left go
  from the leaf to their output tuple without becoming an environment.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Mapping

from repro.storage.bptree import value_sort_key
from repro.storage.expressions import Expr, is_satisfied
from repro.storage.query import AccessKind, ReadAccess, Reads
from repro.storage.row import Row

#: A pipeline element below :class:`Project`: the bindings accumulated so
#: far (host variables, then ``alias.column`` / bare column per table).
Env = dict


class ExecContext:
    """What an executing plan needs besides its own operators: the
    resolved table views (per transaction, so never part of a plan), the
    read observer (a :class:`~repro.storage.query.Reads`, None when
    nobody listens) and the plan-stat counters."""

    __slots__ = ("tables", "observe", "stats")

    def __init__(
        self,
        tables: list,
        observe: "Reads | None",
        stats: "Mapping | None" = None,
    ):
        self.tables = tables
        self.observe = observe
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
        if ctx.observe is not None:
            ctx.observe(ReadAccess.scan(self.ref_name))
        if self.order_cols is None:
            return table.scan()
        return table.range_scan(
            self.order_cols, None, None, reverse=self.reverse,
            limit=self.limit,
        )


def _observed(rows: Iterable[Row], ref_name: str, observe) -> Iterator[Row]:
    """``rows``, each observed (= locked) immediately before it is used."""
    row_used = observe.row
    for row in rows:
        row_used(ref_name, row.rid)
        yield row


class IndexPoint:
    """Hash/pk point probe — the equality access path.  ``cols`` is the
    probed index by its declared columns, the names lock and SSI
    resources are built from.  ``batch`` (set by the planner when the
    query has no LIMIT, so every row the probe yields is used) reports
    the key's rows as one batch before the first is used, instead of
    each as the pipeline pulls it."""

    def __init__(
        self, ref_name: str, cols: tuple, key: tuple, is_pk: bool, batch: bool
    ):
        self.ref_name = ref_name
        self.cols = cols
        self.key = key
        self.is_pk = is_pk
        self.batch = batch

    def rows(self, table, ctx: ExecContext) -> Iterable[Row]:
        observe = ctx.observe
        if observe is not None:
            observe(ReadAccess(
                AccessKind.INDEX_KEY, self.ref_name,
                index=self.cols, key=self.key,
            ))
        if self.is_pk:
            row = table.lookup_pk(self.key)
            # Equality columns outside the key still need checking:
            # their conjuncts stay among the level's checks.
            rows = (row,) if row is not None else ()
        else:
            rows = table.lookup_index(self.cols, self.key)
        if observe is None or not rows:
            return rows
        if self.batch:
            observe.many(self.ref_name, [row.rid for row in rows], None)
            return rows
        return _observed(rows, self.ref_name, observe)


class IndexRange:
    """Ordered-index range scan: in-order candidates between bounds.

    Every row returned carries a key inside the bounds, which is what
    lets the planner drop the conjuncts the bounds came from (when it
    can prove the comparison well-typed; see ``_JoinLevel._bounds``);
    the rest are still checked by the pipeline, so the result set is
    identical to a filtered scan.  ``limit`` is set by the planner only
    when the query's LIMIT provably applies here: the scan's first
    ``limit`` rows are the answer, so that prefix is all the leaf
    fetches and all it reports.  Three steps, in this order:

    1. the range access is observed *before* the probe, carrying the
       bounds, the direction and the budget — under 2PL the engine turns
       it into IS + next-key S locks on the keys that prefix sits under
       (every in-range key plus the right fencepost when there is no
       budget);
    2. the fetch;
    3. every fetched row is observed (row S) before the first is used,
       as one batch — the table and the rids, not a ``ReadAccess`` per
       row: who needs one builds it — together with the range access
       *as consumed*: with the budget spent its ``stop`` is the last
       fetched row's key, and that — not ``hi`` — is where the SIREAD
       interval ends.
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
        #: bound inclusivity, direction and budget: what the scan and the
        #: observed access are both given.
        self.scan = dict(
            lo_inc=lo_inc, hi_inc=hi_inc, reverse=reverse, limit=limit)

    def rows(self, table, ctx: ExecContext) -> Iterable[Row]:
        ctx.bump("index_range_scans")
        ctx.bump("seq_scans_avoided")
        observe = ctx.observe
        if observe is None:
            return table.range_scan(self.cols, self.lo, self.hi, **self.scan)
        path = ReadAccess.index_range(
            self.ref_name, self.cols, self.lo, self.hi, **self.scan)
        observe.range(path)
        rows = table.range_scan(self.cols, self.lo, self.hi, **self.scan)
        if rows and len(rows) == path.limit:
            positions = [table.schema.column_index(c) for c in self.cols]
            last = rows[-1].values
            path = path._replace(stop=tuple([last[p] for p in positions]))
        observe.many(self.ref_name, [row.rid for row in rows], path)
        return rows


# -- pipeline operators -------------------------------------------------------------


class Source:
    """The pipeline root: one environment holding the host-variable
    bindings."""

    def __init__(self, base_env: Env):
        self.base_env = base_env

    def run(self, ctx: ExecContext) -> Iterator[Env]:
        yield dict(self.base_env)


class NestedLoopJoin:
    """One join level: for every upstream environment, let the prepared
    level pick its access path under those bindings, extend the
    environment per row, and check the conjuncts whose last column this
    table binds — those of them the access path did not already prove.

    With ``emit`` set (the planner sets it on the innermost level when
    the SELECT list is plain columns of this table and nothing above
    reads a row by name) the level yields :class:`Project`'s ``(output
    tuple, None)`` pairs itself, by position; and a row whose every
    check the access path proved goes from the leaf to its output tuple
    without ever becoming an environment."""

    def __init__(self, child, level, emit=None):
        self.child = child
        #: the planner's per-execution level: ``access(env, table, ctx)``
        #: and the prepared names in ``level.shape``.
        self.level = level
        self.emit = emit

    def run(self, ctx: ExecContext) -> Iterator:
        level = self.level
        shape = level.shape
        table = ctx.tables[shape.position]
        qualified, bare, all_bare = shape.qualified, shape.bare, shape.all_bare
        emit = self.emit
        for env in self.child.run(ctx):
            operator, checks = level.access(env, table, ctx)
            rows = operator.rows(table, ctx)
            if emit is not None and not checks:
                for row in rows:
                    yield emit(row.values), None
                continue
            for row in rows:
                values = row.values
                env2 = dict(env)
                env2.update(zip(qualified, values))
                if all_bare:
                    env2.update(zip(bare, values))
                else:
                    for name, index in bare:
                        env2[name] = values[index]
                for conj in checks:
                    if not is_satisfied(conj, env2):
                        break
                else:
                    yield env2 if emit is None else (emit(values), None)


class Filter:
    """Strictly evaluate the conjuncts no join level could take: those
    naming something no table provides (``UnknownColumnError`` for the
    first row that gets here) and, for a table-less query, the whole
    WHERE clause."""

    def __init__(self, child, conjuncts: "list[Expr]"):
        self.child = child
        self.conjuncts = conjuncts

    def run(self, ctx: ExecContext) -> Iterator[Env]:
        conjuncts = self.conjuncts
        for env in self.child.run(ctx):
            if all(is_satisfied(conj, env) for conj in conjuncts):
                yield env


class Project:
    """Evaluate the SELECT list (and the ORDER BY sort key, which may
    reference non-projected columns, so it must be computed while the
    env is still in hand).  Emits ``(output tuple, sort key | None)``."""

    def __init__(self, child, select: tuple, order_exprs: tuple = ()):
        self.child = child
        self.select = select
        self.order_exprs = order_exprs

    def run(self, ctx: ExecContext) -> Iterator[tuple[tuple, "tuple | None"]]:
        select, order_exprs = self.select, self.order_exprs
        for env in self.child.run(ctx):
            output = tuple([expr.eval(env) for expr in select])
            skey = (
                tuple([value_sort_key(expr.eval(env)) for expr in order_exprs])
                if order_exprs
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
        # ``LIMIT 0`` never starts the child: a Sort would run eagerly.
        return islice(self.child.run(ctx), self.n) if self.n > 0 else iter(())
