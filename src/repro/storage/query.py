"""Select-project-join evaluation over the storage substrate.

The paper restricts entangled WHERE clauses to select-project-join queries
(Section 2); the classical statements in the workloads are also SPJ plus
INSERT.  This module provides :class:`SPJQuery` — a declarative SPJ plan —
and an evaluator that runs it against a :class:`repro.storage.catalog.Database`
(or any object exposing ``table(name)``).

Evaluation is a straightforward nested-loop join with two optimizations
that matter for the benchmark workloads: equality predicates against
constants are pushed down to index lookups when the table has a matching
index, and join predicates between the next table and already-bound columns
use index lookups when available.

The evaluator reports every *access path* it takes through an optional
``read_observer`` callback: a :class:`ReadAccess` per index-key probe
(table, index columns, key), per row produced by an index probe, and per
genuine full scan.  This is how the engine layer takes fine-grained read
locks (IS-table + key/row S instead of a table S lock) and how grounding
reads reach the formal model.  An access path is observed before it is
probed and each row immediately before it is *used* — handed to the
pipeline — so a lock-acquiring observer that raises aborts the
evaluation without any result escaping unlocked, and a row the pipeline
never pulls (a ``LIMIT`` was met, a join level stopped) is never locked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Protocol, Sequence

from repro.errors import CompileError, UnknownColumnError
from repro.storage.expressions import Cmp, CmpOp, Col, Expr, split_conjuncts
from repro.storage.protocol import TableView
from repro.storage.table import Table
from repro.storage.types import SQLValue


class TableProvider(Protocol):
    """Anything that can resolve a table name to a
    :class:`~repro.storage.protocol.TableView`.

    ``plans`` is the planner's memo of prepared plans (query shape ->
    plan, see :func:`repro.storage.planner.build_plan`): one dict per
    :class:`~repro.storage.catalog.Database`, which every view provider
    over that database hands on, so a shape is planned once whichever
    transaction's views execute it."""

    plans: dict

    def table(self, name: str) -> TableView:  # pragma: no cover - protocol
        ...


@dataclass(frozen=True)
class TableRef:
    """A FROM-clause item: table name plus alias (alias defaults to name)."""

    name: str
    alias: str = ""

    def __post_init__(self):
        if not self.alias:
            object.__setattr__(self, "alias", self.name)


@dataclass(frozen=True)
class SPJQuery:
    """A select-project-join query plan.

    Attributes:
        tables: FROM items, joined in order.
        where: predicate over qualified column names, or None.
        select: output expressions (must be provided; ``*`` is expanded by
            the SQL compiler before reaching this layer).
        select_names: output column names, parallel to ``select``.
        distinct: drop duplicate output rows.
        order_by: ``(column name, descending)`` pairs applied after
            projection; column names are qualified like SELECT columns.
        limit: keep at most this many output rows (None = no limit).
    """

    tables: tuple[TableRef, ...]
    select: tuple[Expr, ...]
    select_names: tuple[str, ...]
    where: Expr | None = None
    distinct: bool = False
    limit: int | None = None
    order_by: tuple[tuple[str, bool], ...] = ()

    def __post_init__(self):
        if len(self.select) != len(self.select_names):
            raise CompileError("select expressions and names must align")
        aliases = [t.alias for t in self.tables]
        if len(set(aliases)) != len(aliases):
            raise CompileError(f"duplicate FROM aliases: {aliases}")


class AccessKind(enum.Enum):
    """How the evaluator touched a table."""

    TABLE_SCAN = "scan"
    INDEX_KEY = "index-key"
    INDEX_RANGE = "index-range"
    ROW = "row"


class ReadAccess(NamedTuple):
    """One observed read access — a named tuple: the evaluator builds
    and hashes one per probed key and per row it uses.

    * ``TABLE_SCAN`` — the whole table was scanned; ``rid``/``index``/
      ``key`` are None.  The engine answers with a table S lock.
    * ``INDEX_KEY`` — an index (or primary key) was probed with ``key`` on
      ``index`` columns; reported even when no row matched, so negative
      reads stay repeatable.  The engine answers with IS-table + key S.
    * ``INDEX_RANGE`` — an ordered index on ``index`` columns was scanned
      between ``lo`` and ``hi`` (either may be None for an open end;
      ``lo_inc``/``hi_inc`` give bound inclusivity).  The engine answers
      with IS-table + *next-key* S locks: every in-range key plus the
      right-fencepost successor, so phantom inserts collide without any
      table S lock.  ``lo``/``hi`` are always the query's bounds; what
      the consumer takes of them travels beside:

      - ``reverse`` / ``limit`` — the scan's direction, and the leaf's
        budget: set only when the planner proved the scan's first
        ``limit`` rows *are* the answer.  Known before the probe:
        next-key locking stops at the key that completes them.
      - ``stop`` — the key of the last row fetched, set once the budget
        was spent (None while unknown, and when the range ran out
        first).  Known after the fetch: SSI records the interval
        ``[lo, stop]`` (``[stop, hi]`` for a reverse scan, end
        inclusive) instead of ``[lo, hi]``.
    * ``ROW`` — a row produced by an index probe; the engine answers with
      IS-table + row S.
    """

    kind: AccessKind
    table: str
    rid: int | None = None
    index: tuple[str, ...] | None = None
    key: tuple | None = None
    lo: tuple | None = None
    hi: tuple | None = None
    lo_inc: bool = True
    hi_inc: bool = True
    limit: int | None = None
    reverse: bool = False
    stop: tuple | None = None

    @classmethod
    def scan(cls, table: str) -> "ReadAccess":
        return cls(AccessKind.TABLE_SCAN, table)

    @classmethod
    def row(cls, table: str, rid: int) -> "ReadAccess":
        return cls(AccessKind.ROW, table, rid=rid)

    @classmethod
    def index_key(
        cls, table: str, columns: Sequence[str], key: Sequence
    ) -> "ReadAccess":
        return cls(
            AccessKind.INDEX_KEY, table, index=tuple(columns), key=tuple(key)
        )

    @classmethod
    def index_range(
        cls,
        table: str,
        columns: Sequence[str],
        lo: Sequence | None,
        hi: Sequence | None,
        *,
        lo_inc: bool = True,
        hi_inc: bool = True,
        limit: int | None = None,
        reverse: bool = False,
    ) -> "ReadAccess":
        return cls(
            AccessKind.INDEX_RANGE,
            table,
            index=tuple(columns),
            lo=tuple(lo) if lo is not None else None,
            hi=tuple(hi) if hi is not None else None,
            lo_inc=lo_inc,
            hi_inc=hi_inc,
            limit=limit,
            reverse=reverse,
        )


#: Called with each :class:`ReadAccess` the evaluator performs, before the
#: covered rows are used.  An observer may also offer ``many(table, rids,
#: path)``: the rows of one range leaf's batch in one call, after its
#: fetch — the table's name and the rids in scan order, no ``ROW`` access
#: built per row: an observer that wants them as accesses (to lock each)
#: builds them, one that only counts or feeds a lazy read set need not —
#: with ``path`` the leaf's own access as consumed (``stop`` set if its
#: budget was spent; None if this evaluation already reported it).  One
#: that does not is called once per row instead with the ``ROW`` access,
#: in the same order, and never sees the consumed path.
ReadObserver = Callable[[ReadAccess], None]


class _EachAccessOnce:
    """``observer``, told each distinct access once per evaluation."""

    __slots__ = ("_observer", "_many", "_reported", "_rows")

    def __init__(self, observer: ReadObserver):
        self._observer = observer
        self._many = getattr(observer, "many", None)
        self._reported: set = set()
        #: per table, the rids reported — singly or in a batch.
        self._rows: dict[str, set[int]] = {}

    def __call__(self, access: ReadAccess) -> None:
        if access.kind is AccessKind.ROW:
            seen = self._rows.setdefault(access.table, set())
            if access.rid in seen:
                return
            seen.add(access.rid)
        elif access in self._reported:
            return
        else:
            self._reported.add(access)
        self._observer(access)

    def many(self, table: str, rids: list[int], path: ReadAccess) -> None:
        seen = self._rows.get(table)
        if seen is None:
            self._rows[table] = set(rids)
        else:
            rids = [rid for rid in rids if rid not in seen]
            seen.update(rids)
        if self._many is None:
            for rid in rids:
                self._observer(ReadAccess.row(table, rid))
            return
        # ``path`` itself went in before the fetch; as consumed it may
        # be the same tuple, so it is remembered under a key of its own.
        consumed = ("consumed", path)
        if consumed in self._reported:
            path = None
        self._reported.add(consumed)
        self._many(table, rids, path)


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
    *widest* fully-covered secondary index (the first declared among
    equals).  Widest is dominance, not a heuristic: the rows matching
    ``(a, b)`` are a subset of those matching ``(a)``, so the wider probe
    fetches — and locks — no row the narrower one would not, and writers
    lock every index key a row carries, so the phantom guard is the same
    on either key.  Shared by the read path (:func:`evaluate`) and the
    predicate-write path (``StorageEngine.update_where``/``delete_where``,
    the sharded router's target choice) so all always choose — and lock —
    the same access path.
    """
    if not bindings:
        return None
    pk = table.schema.primary_key
    if pk and all(c in bindings for c in pk):
        return tuple(pk), tuple(bindings[c] for c in pk), True
    widest = None
    for cols in table.schema.indexes:
        if (widest is None or len(cols) > len(widest)) and all(
            c in bindings for c in cols
        ):
            widest = cols
    if widest is None:
        return None
    return tuple(widest), tuple(bindings[c] for c in widest), False


def evaluate(
    query: SPJQuery,
    provider: TableProvider,
    params: Mapping[str, "SQLValue | None"] | None = None,
    read_observer: ReadObserver | None = None,
    hints=None,
    bound=None,
) -> list[tuple["SQLValue | None", ...]]:
    """Evaluate an SPJ query, returning output tuples in deterministic order.

    ``params`` supplies host-variable bindings (keys like ``"@x"``).
    ``read_observer`` receives each distinct :class:`ReadAccess` — an
    access path before it is probed, a row before it is handed to the
    pipeline — the transactional engine uses this to take fine-grained
    read locks, so an observer that raises (e.g. on a lock conflict)
    aborts the evaluation with no unlocked data consumed.

    Execution is delegated to the planner (:mod:`repro.storage.planner`):
    the plan for this query's *shape* is prepared on first use and kept
    in ``provider.plans``; each call binds this query's values to it and
    runs the volcano pipeline.  ``hints`` (a
    :class:`~repro.storage.planner.PlanHints`) carries the engine's
    planner knobs and stat counters; None means defaults (ordered
    indexes allowed, no counters).  ``bound`` is the query's
    :class:`~repro.storage.planner.BoundQuery` when it has one kept (a
    prepared statement's), so its plan is bound once, not per call.
    """
    from repro.storage.planner import execute as _plan_execute

    tables = [provider.table(ref.name) for ref in query.tables]

    observe = (
        _EachAccessOnce(read_observer) if read_observer is not None else None)
    return _plan_execute(
        query, tables, dict(params or {}), observe, hints, provider.plans,
        bound)


def equality_bindings(
    where: Expr | None,
    table: Table,
    params: Mapping[str, "SQLValue | None"] | None = None,
) -> dict[str, "SQLValue | None"]:
    """Extract ``column = constant`` bindings from a predicate over ``table``.

    The write path (``UPDATE``/``DELETE`` with a WHERE clause) uses this to
    choose an index access path and lock rows + index keys instead of the
    whole table.  Only top-level conjuncts count; anything under OR/NOT is
    ignored, which keeps the result sound (a subset of the true bindings).
    """
    if where is None:
        return {}
    ref = TableRef(table.name)
    bindings, _ = _constant_eq_conjuncts(
        split_conjuncts(where), ref, table, dict(params or {})
    )
    return bindings


def evaluate_single(
    query: SPJQuery,
    provider: TableProvider,
    params: Mapping[str, "SQLValue | None"] | None = None,
    read_observer: ReadObserver | None = None,
    hints=None,
) -> tuple["SQLValue | None", ...] | None:
    """Evaluate and return the first row, or None when empty."""
    limited = SPJQuery(
        tables=query.tables,
        select=query.select,
        select_names=query.select_names,
        where=query.where,
        distinct=query.distinct,
        limit=1,
        order_by=query.order_by,
    )
    rows = evaluate(limited, provider, params, read_observer, hints)
    return rows[0] if rows else None
