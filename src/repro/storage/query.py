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
read observer (a :class:`Reads`): a :class:`ReadAccess` per index-key
probe (table, index columns, key), per range probe and per genuine full
scan, and each row an index probe produces, by table and rid.  This is
how the engine layer takes fine-grained read locks (IS-table + key/row S
instead of a table S lock) and how grounding reads reach the formal
model.  An access path is observed before it is
probed and each row immediately before it is *used* — handed to the
pipeline — so a lock-acquiring observer that raises aborts the
evaluation without any result escaping unlocked, and a row the pipeline
never pulls (a ``LIMIT`` was met, a join level stopped) is never locked.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Protocol, Sequence

from repro.errors import CompileError
from repro.storage.expressions import Col, Expr
from repro.storage.protocol import TableView
from repro.storage.table import Table
from repro.storage.types import SQLValue


class TableProvider(Protocol):
    """Anything that can resolve a table name to a
    :class:`~repro.storage.protocol.TableView`.  It keeps no plan: a
    query's plan lives in its
    :class:`~repro.storage.planner.BoundQuery`, and serves every view of
    the tables it was planned over."""

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

    #: Members are singletons, so identity is equality: a
    #: :class:`ReadAccess` hashes its kind in C, not through
    #: ``Enum.__hash__``.
    __hash__ = object.__hash__


class ReadAccess(NamedTuple):
    """One observed read access — a named tuple: the evaluator builds
    and hashes one per access path it probes (a row it uses goes to
    :meth:`Reads.row` by table and rid).

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


#: A plain read observer: called with each distinct :class:`ReadAccess`
#: the evaluator performs — an access path before it is probed, a row
#: (``ROW``) before it is used.  One may also offer ``many(table, rids,
#: path)``: then every row reaches it through that instead — a range
#: leaf's rows in one call after its fetch, with ``path`` the leaf's own
#: access as consumed (``stop`` set if its budget was spent; None if this
#: evaluation already reported it), any other row alone, with ``path``
#: None.  :func:`evaluate` wraps a plain observer in :class:`Reads`.
ReadObserver = Callable[[ReadAccess], None]

_ROW = AccessKind.ROW


def _ignore(*_args) -> None:
    pass


class Reads:
    """The read observer of one evaluation — one statement, one
    grounding: it reports each distinct access once, and books the
    tables read.

    The operators tell it an access path before its probe (a call with
    the :class:`ReadAccess`; a range leaf calls :meth:`range`), a row
    before it is used (:meth:`row`, by table and rid: no access object
    is built per row), and the rows of one leaf as a batch after their
    fetch (:meth:`many`).  What it reports goes to the hooks it was
    built with, each given ``owner`` first:

    * ``on_path(owner, access)`` — each scan, index-key and range access;
    * ``on_rows(owner, table, rids, path)`` — rows not reported before,
      one (``path`` None) or a leaf's batch with ``path`` the range as
      consumed (None when there is none, or it was reported already);
    * ``on_table(table)`` — the first access of each table, after its
      ``on_path`` returned; :attr:`tables` keeps them all.

    With ``defer_ranges`` a range reaches ``on_path`` only as consumed,
    through ``on_rows`` — a snapshot read records the interval its leaf
    actually read; without, before its probe — a 2PL read must hold the
    next-key locks first.  Called like a plain observer with a range
    access, it reports it at once: there is no batch to wait for.
    A hook that raises aborts the evaluation with nothing unreported
    used.
    """

    __slots__ = (
        "tables", "_owner", "_on_path", "_on_rows", "_on_table",
        "_defer_ranges", "_paths", "_rows")

    def __init__(
        self,
        owner=None,
        on_path: Callable = _ignore,
        on_rows: Callable = _ignore,
        on_table: "Callable | None" = None,
        *,
        defer_ranges: bool = False,
    ):
        self.tables: set[str] = set()
        self._owner = owner
        self._on_path = on_path
        self._on_rows = on_rows
        self._on_table = on_table or _ignore
        self._defer_ranges = defer_ranges
        self._paths: set = set()
        #: per table, the rids reported — singly or in a batch.
        self._rows: dict[str, set[int]] = {}

    @classmethod
    def of(cls, observer: "ReadObserver | Reads | None") -> "Reads | None":
        """``observer`` as a :class:`Reads` (a plain one wrapped)."""
        if observer is None or isinstance(observer, Reads):
            return observer
        return cls(observer, _tell, _tell_rows)

    def __call__(self, access: ReadAccess) -> None:
        if access.kind is _ROW:
            self.row(access.table, access.rid)
        elif access not in self._paths:
            self._paths.add(access)
            self._on_path(self._owner, access)
            table = access.table
            if table not in self.tables:
                self.tables.add(table)
                self._on_table(table)

    def range(self, path: ReadAccess) -> None:
        """A range leaf's access, before its probe."""
        if not self._defer_ranges:
            self(path)
        elif path.table not in self.tables:
            self.tables.add(path.table)
            self._on_table(path.table)

    def row(self, table: str, rid: int) -> None:
        seen = self._rows.get(table)
        if seen is None:
            self._rows[table] = {rid}
        elif rid in seen:
            return
        else:
            seen.add(rid)
        self._on_rows(self._owner, table, (rid,), None)

    def many(
        self, table: str, rids: Sequence[int], path: "ReadAccess | None"
    ) -> None:
        """One leaf's rows, after its fetch and before the first is used;
        ``path`` is a range leaf's access as consumed (the access itself
        went in before the probe, and may be the same tuple, so it is
        remembered under a key of its own), None for a point probe."""
        seen = self._rows.get(table)
        if seen is None:
            self._rows[table] = set(rids)
        else:
            rids = [rid for rid in rids if rid not in seen]
            seen.update(rids)
        if path is not None:
            consumed = ("consumed", path)
            if consumed in self._paths:
                path = None
            else:
                self._paths.add(consumed)
        if rids or path is not None:
            self._on_rows(self._owner, table, rids, path)


def _tell(observer: ReadObserver, access: ReadAccess) -> None:
    observer(access)


def _tell_rows(observer, table: str, rids, path) -> None:
    many = getattr(observer, "many", None)
    if many is not None:
        many(table, rids, path)
    else:
        for rid in rids:
            observer(ReadAccess.row(table, rid))


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
    on either key.  The planner asks it once per shape for the index
    its equality recipes cover, and again when a NULL leaves fewer
    bindings (:meth:`~repro.storage.planner._JoinLevel.equality_key`);
    that one chooser keys reads and, through the ``RowPredicate.key`` the
    compiler binds, UPDATE and DELETE, so all choose — and lock — the
    same access path.
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
    ``read_observer`` — a :class:`Reads`, or a plain observer, which is
    wrapped in one — receives each distinct :class:`ReadAccess` — an
    access path before it is probed, a row before it is handed to the
    pipeline — the transactional engine uses this to take fine-grained
    read locks, so an observer that raises (e.g. on a lock conflict)
    aborts the evaluation with no unlocked data consumed.

    Execution is delegated to the planner (:mod:`repro.storage.planner`),
    which runs the volcano pipeline of the query's plan.  ``hints`` (a
    :class:`~repro.storage.planner.PlanHints`) carries the engine's
    planner knobs and stat counters; None means defaults (ordered
    indexes allowed, no counters).  ``bound`` is the query's
    :class:`~repro.storage.planner.BoundQuery` when it has one kept (a
    prepared statement's), whose plan is made on its first execution and
    kept there; without one, the query is planned for this call.
    """
    from repro.storage.planner import execute as _plan_execute

    tables = [provider.table(ref.name) for ref in query.tables]
    return _plan_execute(
        query, tables, dict(params or {}), Reads.of(read_observer), hints,
        bound)
