"""Compile SQL ASTs to storage plans and entangled-query IR.

Statements arrive as shared *templates* plus their text's ``params``
(see :mod:`repro.sql.parser`), from every front end — a batch script, an
interactive session, a direct transaction, ``Client.query``; a literal
statement is the ``params=()`` case.  **Every statement executes from
its prepared form**, one per ``Database`` (``Statement.resolutions``),
made on its first execution against that catalog; a preparation that
raises is not remembered.  The form holds what depends on no literal,
its ``Param`` and ``@var`` leaves in place.  An execution only reads the
values those leaves stand for — each parameter under its index, each
host variable under its name — and hands them on beside the form, whose
leaves read them there:

* **Classical SELECT** compiles against the catalog into an
  :class:`~repro.storage.query.SPJQuery`, qualified but unbound, with its
  **resolution** — table refs, column qualification, output names, ``AS
  @var`` bindings, ORDER BY: one query object for every execution, kept
  with its :class:`~repro.storage.planner.BoundQuery`, which keeps the
  plan the planner makes and binds on its first execution.  The store
  evaluates it with the execution's values as its parameters.  An ``IN
  (SELECT ...)`` in its WHERE clause (uncorrelated in this dialect) is a
  prepared subquery of its own, and in the outer query an
  :class:`~repro.storage.expressions.InRows` test whose rows are a value
  of the execution: the statement's executor runs each subquery through
  the store, in the statement's transaction and before the outer query,
  so it reads under the same locks, snapshot and SSI read set as any
  other read of that transaction.
* **INSERT** evaluates its values over the execution's values, placed by
  the column positions the form holds.  **UPDATE** and **DELETE** hand the
  store their template WHERE clause and SET list, at the column positions
  the form holds, as a :class:`~repro.storage.expressions.RowPredicate`
  and :class:`~repro.storage.expressions.RowAssignments` that carry the
  values.  The form plans the WHERE clause once as a single-table query
  (its ``IN (SELECT ...)`` prepared as a SELECT's, and run the same way,
  before the write); each execution binds the index key its candidates
  come from with the planner's chooser, the one a read of that WHERE
  clause would probe, into ``RowPredicate.key``.  **SET** evaluates its
  expression over them.

* **Entangled SELECT statements** compile into the intermediate
  representation ``{C} H <- B`` of Appendix A.  The translation follows
  the paper: the SELECT-INTO clause becomes the head ``H``; ``... IN
  ANSWER R`` conditions become the postcondition ``C``; ``... IN (SELECT
  ...)`` conditions contribute the body ``B`` (atoms over database
  relations); remaining comparisons become the residual body predicate.
  Variables are unified with a union-find over column occurrences, outer
  names, and constants, so that e.g. ``fno, fdate IN (SELECT fno, fdate
  FROM Flights WHERE dest='LA')`` makes ``fno``/``fdate`` variables bound
  by the ``Flights`` atom with ``dest`` fixed to ``'LA'``.  The prepared
  form is that translation run once over the template, each constant the
  value leaf that supplies it: the union-find classes, aliases and
  canonical variable names are the template's, the grounding body is
  compiled once, and an execution compares the pairs of leaves that met
  in one class and instantiates the query with its values.  The residual
  predicate keeps its value leaves; grounding reads them from the
  execution's values, as it does the body's.

Errors are those a statement raised when each execution bound a copy
of its tree (``inline_hostvars`` before compiling), and of several, the
one that binding met first.  The prepared form keeps, in that order, the
steps whose outcome depends on an execution's values: the inputs its
leaves read (an unbound host variable) and, for an entangled SELECT, the
pairs of leaves unification met in one class (two constants that
differ); an INSERT evaluates its values in order and raises a count
mismatch after them.  A preparation that fails is not remembered, and
its execution runs the steps it recorded before the fault, then raises
the fault (:func:`_prepared`).  What executing a statement raises — a
subquery's included — comes after all of them: a subquery runs once its
statement has read every value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.entangled.grounding import compile_body
from repro.entangled.ir import Atom, EntangledQuery, Val, Var
from repro.errors import CompileError, ReproError, UnknownColumnError
from repro.sql.ast import (
    DeleteStmt,
    EntangledSelectStmt,
    Env,
    InAnswer,
    InSelect,
    InsertStmt,
    Param,
    Params,
    SelectItem,
    SelectStmt,
    SetStmt,
    UpdateStmt,
    inline_hostvars,
)
from repro.storage.catalog import Database
from repro.storage.expressions import (
    CONNECTIVES,
    STORAGE_NODES,
    Cmp,
    CmpOp,
    Col,
    Const,
    Expr,
    InRows,
    RowAssignments,
    RowPredicate,
    conjoin,
    split_conjuncts,
)
from repro.storage.planner import DEFAULT_HINTS, BoundQuery
from repro.storage.query import SPJQuery, TableRef
from repro.storage.types import SQLValue


# ---------------------------------------------------------------------------
# Prepared forms
# ---------------------------------------------------------------------------


def _prepared(stmt, db: Database, prepare, env: Env, params: Params):
    """``stmt``'s prepared form against ``db``: ``prepare(stmt, db,
    steps)``, run on first use and kept in ``stmt.resolutions``.

    A preparation that raises is not remembered (a table created later
    may mend it).  It has recorded in ``steps`` what binding read and
    compared before the fault (see :func:`_run`), so this execution
    raises the error binding met first: one of those, else the
    preparation's own."""
    forms = stmt.resolutions
    form = forms.get(db)
    if form is not None:
        return form
    steps: list = []
    try:
        form = forms[db] = prepare(stmt, db, steps)
        return form
    except ReproError as error:
        failure = error
    _run(steps, env, params, {})
    raise failure


def _inputs(expr: Expr | None, out: list) -> None:
    """Append the index of every ``Param`` and the name of every ``@var``
    under ``expr`` (subqueries included) to ``out``, in walk order."""
    kind = type(expr)
    if kind is Param:
        out.append(expr.index)
    elif kind is Col:
        if expr.name.startswith("@"):
            out.append(expr.name)
    elif kind is InSelect:
        for item in expr.items:
            _inputs(item, out)
        for item in expr.subquery.items:
            _inputs(item.expr, out)
        _inputs(expr.subquery.where, out)
    elif expr is not None:
        expr.map(lambda node: _inputs(node, out) or node)


def _distinct(found: list) -> tuple:
    return tuple(dict.fromkeys(found))


#: What unification raises where two constants of one class differ.
_CONTRADICTORY = "contradictory constants {!r} and {!r} unified"
_BOUND_TWICE = "slot bound to both {!r} and {!r}"


def _run(steps, env: Env, params: Params, values: dict) -> dict:
    """Fill ``values`` as an execution's ``Param`` and ``@var`` leaves
    read them, step by step in order: a parameter's index reads the
    parameter, a ``@name`` the host variable — unbound, it is a compile
    error, as in :func:`~repro.sql.ast.inline_hostvars` — and ``(message,
    a, b)`` compares two value leaves unification met in one class
    (:class:`_UnionFind`), raising ``message`` when they differ."""
    for step in steps:
        kind = type(step)
        if kind is int:
            values[step] = params[step]
        elif kind is str:
            if step not in env:
                raise CompileError(f"unbound host variable {step}")
            values[step] = env[step]
        else:
            message, a, b = step
            a, b = a.eval(values), b.eval(values)
            if a != b:
                raise CompileError(message.format(a, b))
    return values


def _is_value(expr) -> bool:
    """A leaf an execution supplies: a literal, a parameter or a host
    variable."""
    kind = type(expr)
    return kind is Const or kind is Param or (
        kind is Col and expr.name.startswith("@"))


# ---------------------------------------------------------------------------
# Classical SELECT
# ---------------------------------------------------------------------------


class CompiledSelect(NamedTuple):
    """An executable classical SELECT plus the host-variable bindings to
    apply to its first result row (``AS @var`` / bare ``@var`` select
    items), as ``(var name, output index)`` pairs.

    ``query`` is the statement's prepared SPJ query, whose ``Param`` and
    ``@var`` leaves read ``values`` (pass them to the store as the
    query's parameters), and ``bound`` its
    :class:`~repro.storage.planner.BoundQuery`.  ``subqueries`` holds the
    ``(key, BoundQuery)`` of each ``IN (SELECT ...)``, in the order they
    run: each one's rows go into ``values`` under its key before the
    next runs, and all before ``query``.
    """

    query: SPJQuery
    bindings: tuple[tuple[str, int], ...]
    values: dict
    bound: BoundQuery
    subqueries: tuple[tuple[str, BoundQuery], ...]


class _ResolvedSelect(NamedTuple):
    """The literal-independent half of a compiled SELECT.  ``select`` and
    ``where`` are qualified but unbound: they still hold the template's
    ``Param`` and ``@var`` leaves, and ``where`` its ``IN (SELECT ...)``
    nodes (under AND/OR/NOT only)."""

    refs: tuple[TableRef, ...]
    select: tuple[Expr, ...]
    names: tuple[str, ...]
    bindings: tuple[tuple[str, int], ...]
    where: Expr | None
    order_by: tuple[tuple[str, bool], ...]


class _PreparedSelect(NamedTuple):
    """A SELECT's prepared form: its ``AS @var`` bindings, the SPJ query
    every execution runs, planned once (``bound.query``), those of its
    subqueries, and the inputs their leaves read."""

    bindings: tuple[tuple[str, int], ...]
    bound: BoundQuery
    subqueries: tuple[tuple[str, BoundQuery], ...]
    inputs: tuple


def compile_select(
    stmt: SelectStmt, db: Database, env: Env, params: Params = ()
) -> CompiledSelect:
    """Compile a classical SELECT against the catalog."""
    form = _prepared(stmt, db, _prepare_select, env, params)
    return CompiledSelect(
        form.bound.query, form.bindings, _run(form.inputs, env, params, {}),
        form.bound, form.subqueries)


def _prepare_select(
    stmt: SelectStmt, db: Database, steps: list
) -> _PreparedSelect:
    subqueries: list = []
    bound, bindings = _prepare_query(stmt, db, steps, subqueries)
    return _PreparedSelect(bindings, bound, tuple(subqueries), _distinct(steps))


def _prepare_query(
    stmt: SelectStmt, db: Database, steps: list, subqueries: list
) -> tuple[BoundQuery, tuple]:
    """``stmt`` resolved and planned once, with its bindings.  Records
    the inputs its leaves read in ``steps`` and appends its subqueries to
    ``subqueries``, in the order binding met them."""
    resolved = _resolve_select(stmt, db)
    for expr in resolved.select:
        _inputs(expr, steps)
    where = resolved.where
    if where is not None:
        where = _prepare_where(where, db, steps, subqueries)
    query = SPJQuery(resolved.refs, resolved.select, resolved.names, where,
                     stmt.distinct, stmt.limit, resolved.order_by)
    return BoundQuery(query), resolved.bindings


def _prepare_where(expr: Expr, db: Database, steps: list, subqueries: list) -> Expr:
    """A resolved WHERE clause with each ``IN (SELECT ...)`` prepared as
    a subquery, and tested in its place as the rows that subquery puts
    under its key (:class:`~repro.storage.expressions.InRows`)."""
    if isinstance(expr, CONNECTIVES):
        return expr.map(lambda node: _prepare_where(node, db, steps, subqueries))
    if type(expr) is not InSelect:
        _inputs(expr, steps)
        return expr
    for item in expr.items:
        _inputs(item, steps)
    bound, _bindings = _prepare_query(expr.subquery, db, steps, subqueries)
    key = f"?in{len(subqueries)}"
    subqueries.append((key, bound))
    return InRows(expr.items, key)


def _resolve_select(stmt: SelectStmt, db: Database) -> _ResolvedSelect:
    if not stmt.tables and not stmt.star:
        # Table-less SELECT (constant row) — allowed for convenience.
        select = tuple(item.expr or Const(None) for item in stmt.items)
        names = tuple(
            item.alias or f"c{i}" for i, item in enumerate(stmt.items)
        )
        bindings = tuple(
            (f"@{item.bind_var}", i)
            for i, item in enumerate(stmt.items)
            if item.bind_var
        )
        return _ResolvedSelect((), select, names, bindings, None, ())

    refs = tuple(
        TableRef(source.name, source.alias or source.name)
        for source in stmt.tables
    )
    schemas = {ref.alias: db.table(ref.name).schema for ref in refs}

    def resolve_bare(column: str) -> str:
        owners = [alias for alias, schema in schemas.items()
                  if schema.has_column(column)]
        if not owners:
            raise UnknownColumnError(f"no table provides column {column!r}")
        if len(owners) > 1:
            raise CompileError(
                f"column {column!r} is ambiguous across {sorted(owners)}"
            )
        return f"{owners[0]}.{column}"

    select: list[Expr] = []
    names: list[str] = []
    bindings: list[tuple[str, int]] = []
    if stmt.star:
        for ref in refs:
            for column in schemas[ref.alias].column_names:
                select.append(Col(f"{ref.alias}.{column}"))
                names.append(f"{ref.alias}.{column}")
    else:
        for i, item in enumerate(stmt.items):
            if item.expr is None:
                # Bare @var: bind from the like-named column.
                assert item.bind_var is not None
                qualified = resolve_bare(item.bind_var)
                select.append(Col(qualified))
                names.append(item.bind_var)
                bindings.append((f"@{item.bind_var}", i))
                continue
            select.append(_qualify(item.expr, resolve_bare))
            names.append(item.alias or f"c{i}")
            if item.bind_var:
                bindings.append((f"@{item.bind_var}", i))

    where = None
    if stmt.where is not None:
        where = _qualify_where(stmt.where, resolve_bare)
    order_by: list[tuple[str, bool]] = []
    for name, descending in stmt.order_by:
        if "." in name:
            alias, bare = name.split(".", 1)
            if alias not in schemas:
                raise UnknownColumnError(
                    f"unknown alias {alias!r} in ORDER BY"
                )
            if not schemas[alias].has_column(bare):
                raise UnknownColumnError(
                    f"no column {bare!r} in {alias!r}"
                )
            order_by.append((name, descending))
        else:
            order_by.append((resolve_bare(name), descending))
    return _ResolvedSelect(refs, tuple(select), tuple(names), tuple(bindings),
                           where, tuple(order_by))


def _qualify(expr: Expr, resolve_bare) -> Expr:
    """Qualify bare column references so the evaluator resolves them even
    when names collide across joined tables."""
    if isinstance(expr, Col):
        if "." in expr.name or expr.name.startswith("@"):
            return expr
        return Col(resolve_bare(expr.name))
    if isinstance(expr, (InSelect, InAnswer)):
        raise CompileError(
            f"unsupported expression in classical statement: {type(expr).__name__}"
        )
    return expr.map(lambda node: _qualify(node, resolve_bare))


def _qualify_where(expr: Expr, resolve_bare) -> Expr:
    """:func:`_qualify` for a WHERE clause, whose AND/OR/NOT skeleton is
    where ``IN (SELECT ...)`` may stand: there it has its tuple items
    qualified and its subquery left for :func:`_prepare_where`."""
    if isinstance(expr, CONNECTIVES):
        return expr.map(lambda node: _qualify_where(node, resolve_bare))
    if isinstance(expr, InSelect):
        return expr.map(lambda item: _qualify(item, resolve_bare))
    if isinstance(expr, InAnswer):
        raise CompileError(
            "IN ANSWER is only allowed in entangled SELECT ... INTO ANSWER"
        )
    return _qualify(expr, resolve_bare)


# ---------------------------------------------------------------------------
# Entangled SELECT -> IR
# ---------------------------------------------------------------------------


class _UnionFind:
    """Union-find over term slots, tracking an optional constant per class.

    A template is unified over the value leaves (``Const``, ``Param``,
    ``@var``) that stand for its constants.  Where two of them meet in a
    class, ``(message, a, b)`` is appended to ``checks`` and the class
    keeps the constant comparing them would have kept: each execution
    compares the pairs (:func:`_run`).
    """

    def __init__(self, checks: list):
        self._parent: dict = {}
        self._constant: dict = {}
        self.checks = checks

    def find(self, slot):
        self._parent.setdefault(slot, slot)
        root = slot
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[slot] != root:
            self._parent[slot], slot = root, self._parent[slot]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        ca, cb = self._constant.get(ra), self._constant.get(rb)
        if ca is not None and cb is not None:
            self.checks.append((_CONTRADICTORY, ca[0], cb[0]))
        # Deterministic root choice: smaller repr wins.
        root, child = sorted((ra, rb), key=repr)
        self._parent[child] = root
        merged = ca if ca is not None else cb
        if merged is not None:
            self._constant[root] = merged
            self._constant.pop(child, None)

    def bind_constant(self, slot, value) -> None:
        root = self.find(slot)
        existing = self._constant.get(root)
        if existing is not None:
            self.checks.append((_BOUND_TWICE, existing[0], value))
        self._constant[root] = (value,)

    def constant_of(self, slot):
        return self._constant.get(self.find(slot))


@dataclass
class _EntangledContext:
    """Working state for one entangled-query translation."""

    db: Database
    uf: _UnionFind
    #: (alias, relation, [slot per column]) for each body atom.
    body_atoms: list[tuple[str, str, list]] = field(default_factory=list)
    residual: list[Expr] = field(default_factory=list)
    used_aliases: set[str] = field(default_factory=set)
    #: slots for bare outer names ("fno") shared across the statement.
    outer_name_slots: dict[str, tuple] = field(default_factory=dict)

    def outer_slot(self, name: str):
        if name not in self.outer_name_slots:
            self.outer_name_slots[name] = ("name", name)
        return self.outer_name_slots[name]

    def fresh_alias(self, base: str) -> str:
        alias = base
        counter = 0
        while alias in self.used_aliases:
            counter += 1
            alias = f"{base}_{counter}"
        self.used_aliases.add(alias)
        return alias


class _PreparedEntangled(NamedTuple):
    """An entangled SELECT's prepared form: the query it translates to,
    with each constant term a ``Val`` holding the value leaf it reads and
    its residual predicate holding its own; the steps of :func:`_run` in
    the order binding met them — the inputs the leaves read, and the
    pairs of leaves unification met in one class; and the grounding
    body, compiled and planned once (None when compiling it fails:
    grounding then compiles, and raises, per query)."""

    query: EntangledQuery
    steps: tuple
    body: BoundQuery | None


def compile_entangled(
    stmt: EntangledSelectStmt,
    db: Database,
    env: Env,
    query_id: str,
    params: Params = (),
) -> EntangledQuery:
    """Compile an entangled SELECT into IR (see module docstring).

    An execution runs its prepared form's steps — reading its values and
    comparing the leaves unification put in one class, so it raises
    what binding raised, where binding raised it — and instantiates the
    prepared query.
    """
    form = _prepared(stmt, db, _prepare_entangled, env, params)
    values = _run(form.steps, env, params, {})
    return _instantiate(form.query, query_id, values, form.body)


def _prepare_entangled(
    stmt: EntangledSelectStmt, db: Database, steps: list
) -> _PreparedEntangled:
    query = _translate(stmt, db, steps)
    try:
        body = BoundQuery(compile_body(query, db))
    except ReproError:
        body = None
    return _PreparedEntangled(query, tuple(steps), body)


def _atoms(atoms: tuple, values: dict) -> tuple:
    """``atoms`` with each ``Val`` term's leaf read from ``values``."""
    return tuple([
        Atom(atom.relation, tuple([
            Val(term.value.eval(values)) if type(term) is Val else term
            for term in atom.terms]))
        for atom in atoms])


def _instantiate(
    query: EntangledQuery, query_id: str, values: dict, body
) -> EntangledQuery:
    """The prepared ``query`` with every value leaf of its atoms read
    from ``values``; its residual predicate reads them in grounding."""
    return EntangledQuery(
        query_id=query_id,
        heads=_atoms(query.heads, values),
        postconditions=_atoms(query.postconditions, values),
        body_atoms=_atoms(query.body_atoms, values),
        body_predicate=query.body_predicate,
        choose=query.choose,
        var_bindings=query.var_bindings,
        body=None if body is None else (body, values),
    )


def _translate(
    stmt: EntangledSelectStmt, db: Database, steps: list
) -> EntangledQuery:
    """The translation of the module docstring, over the template: the
    inputs each WHERE conjunct and head item reads are recorded in
    ``steps`` before it is translated, and its value leaves stand for
    the constants they will be (the pairs of them unification meets go
    to ``steps`` too: see :class:`_UnionFind`)."""
    ctx = _EntangledContext(db, _UnionFind(steps))
    postcondition_specs: list[tuple[tuple[Expr, ...], str]] = []

    for conjunct in split_conjuncts(stmt.where):
        _inputs(conjunct, steps)
        if isinstance(conjunct, InSelect):
            _absorb_in_select(ctx, conjunct)
        elif isinstance(conjunct, InAnswer):
            postcondition_specs.append((conjunct.items, conjunct.answer_relation))
        else:
            ctx.residual.append(conjunct)

    # Build the head: one atom per INTO ANSWER relation, all carrying the
    # same tuple (the grammar permits multiple ANSWER targets).
    head_terms = []
    var_bindings: list[tuple[str, int, int]] = []
    for position, item in enumerate(stmt.items):
        expr = item.expr
        if expr is None:
            # A bare @var item in an entangled SELECT is the variable's
            # current *value* (Figure 2: "SELECT 'Mickey', hid,
            # @ArrivalDay, @StayLength INTO ANSWER HotelRes").  This
            # differs from classical SELECT, where a bare @var binds from
            # the like-named column (Appendix D).
            assert item.bind_var is not None
            expr = Col(f"@{item.bind_var}")
            item = SelectItem(expr=expr, bind_var=None, alias=None)
        _inputs(expr, steps)
        term = _expr_to_term(ctx, expr)
        head_terms.append(term)
        if item.bind_var:
            for head_index in range(len(stmt.answer_relations)):
                var_bindings.append((f"@{item.bind_var}", head_index, position))
    heads = tuple(
        Atom(relation, tuple(head_terms)) for relation in stmt.answer_relations
    )

    postconditions = []
    for items, relation in postcondition_specs:
        terms = tuple(_expr_to_term(ctx, item) for item in items)
        postconditions.append(Atom(relation, terms))

    body_atoms = tuple(
        Atom(relation, tuple(_slot_to_term(ctx, slot) for slot in slots))
        for _alias, relation, slots in ctx.body_atoms
    )
    body_predicate = conjoin(
        _residual_to_vars(ctx, conj) for conj in ctx.residual
    )
    return EntangledQuery(
        query_id="",
        heads=heads,
        postconditions=tuple(postconditions),
        body_atoms=body_atoms,
        body_predicate=body_predicate,
        choose=stmt.choose,
        var_bindings=tuple(var_bindings),
    )


def _absorb_in_select(ctx: _EntangledContext, node: InSelect) -> None:
    """Fold one ``(items) IN (SELECT ...)`` into body atoms + unification."""
    sub = node.subquery
    if sub.star:
        raise CompileError("SELECT * is not allowed inside entangled IN (...)")
    alias_map: dict[str, tuple[str, object]] = {}
    for source in sub.tables:
        schema = ctx.db.table(source.name).schema
        alias = ctx.fresh_alias(source.alias or source.name)
        slots = [("col", alias, column) for column in schema.column_names]
        ctx.body_atoms.append((alias, source.name, slots))
        alias_map[source.alias or source.name] = (alias, schema)

    def resolve(column: str):
        """Resolve a column reference inside the subquery to its slot."""
        if "." in column:
            prefix, bare = column.split(".", 1)
            if prefix not in alias_map:
                raise UnknownColumnError(
                    f"unknown alias {prefix!r} in entangled subquery"
                )
            alias, schema = alias_map[prefix]
            if not schema.has_column(bare):
                raise UnknownColumnError(
                    f"no column {bare!r} in {prefix!r}"
                )
            return ("col", alias, bare)
        owners = [
            (alias, schema)
            for alias, schema in alias_map.values()
            if schema.has_column(column)
        ]
        if not owners:
            raise UnknownColumnError(
                f"no subquery table provides column {column!r}"
            )
        if len(owners) > 1:
            # The paper's own listings use bare columns that occur in two
            # joined tables when an equality join has already identified
            # them (Minnie's "SELECT fno, fdate FROM Flights F, Airlines A
            # WHERE ... F.fno = A.fno").  Accept the ambiguity when every
            # candidate slot is in the same union-find class.
            slots = [("col", alias, column) for alias, _schema in owners]
            roots = {ctx.uf.find(slot) for slot in slots}
            if len(roots) > 1:
                raise CompileError(
                    f"column {column!r} is ambiguous in entangled subquery"
                )
            return slots[0]
        return ("col", owners[0][0], column)

    # Subquery WHERE: equalities feed unification; the rest is residual.
    for conjunct in split_conjuncts(sub.where):
        if isinstance(conjunct, Cmp) and conjunct.op is CmpOp.EQ:
            left, right = conjunct.left, conjunct.right
            left_value, right_value = _is_value(left), _is_value(right)
            if type(left) is Col and not left_value:
                if type(right) is Col and not right_value:
                    ctx.uf.union(resolve(left.name), resolve(right.name))
                    continue
                if right_value:
                    ctx.uf.bind_constant(resolve(left.name), right)
                    continue
            elif left_value and type(right) is Col and not right_value:
                ctx.uf.bind_constant(resolve(right.name), left)
                continue
        ctx.residual.append(_rebind_subquery_columns(conjunct, resolve))

    # Unify the outer items with the subquery's select columns.
    if len(node.items) != len(sub.items):
        raise CompileError(
            f"IN tuple arity {len(node.items)} does not match subquery "
            f"select arity {len(sub.items)}"
        )
    for outer, inner in zip(node.items, sub.items):
        if (inner.expr is None or type(inner.expr) is not Col
                or _is_value(inner.expr)):
            raise CompileError(
                "entangled subquery select items must be column references"
            )
        inner_slot = resolve(inner.expr.name)
        if _is_value(outer):
            ctx.uf.bind_constant(inner_slot, outer)
        elif type(outer) is Col:
            ctx.uf.union(ctx.outer_slot(outer.name), inner_slot)
        else:
            raise CompileError(
                "IN tuple items must be columns, constants or host variables"
            )


def _rebind_subquery_columns(expr: Expr, resolve) -> Expr:
    """Rewrite subquery column refs to canonical slot names for residuals
    (a value leaf stays as it is)."""
    kind = type(expr)
    if kind is Col and not expr.name.startswith("@"):
        return Col(_slot_name(resolve(expr.name)))
    if kind not in STORAGE_NODES:
        raise CompileError(
            f"unsupported predicate in entangled subquery: {kind.__name__}")
    return expr.map(lambda node: _rebind_subquery_columns(node, resolve))


def _slot_name(slot) -> str:
    """The canonical variable name for a slot (pre-unification)."""
    if slot[0] == "name":
        return slot[1]
    return f"{slot[1]}_{slot[2]}"


def _canonical_var(ctx: _EntangledContext, slot) -> str:
    """The variable name of a slot's class: prefer outer names."""
    root = ctx.uf.find(slot)
    members = [s for s in ctx.uf._parent if ctx.uf.find(s) == root]
    outer = sorted(s[1] for s in members if s[0] == "name")
    if outer:
        return outer[0]
    cols = sorted(_slot_name(s) for s in members if s[0] == "col")
    if cols:
        return cols[0]
    return _slot_name(slot)  # pragma: no cover - defensive


def _slot_to_term(ctx: _EntangledContext, slot):
    constant = ctx.uf.constant_of(slot)
    if constant is not None:
        return Val(constant[0])
    return Var(_canonical_var(ctx, slot))


def _expr_to_term(ctx: _EntangledContext, expr: Expr):
    """Convert a head/postcondition item to an IR term: a value leaf is
    the constant it reads."""
    if _is_value(expr):
        return Val(expr)
    if type(expr) is Col:
        return _slot_to_term(ctx, ctx.outer_slot(expr.name))
    raise CompileError(
        "entangled head/postcondition items must be columns, constants or "
        "host variables"
    )


def _residual_to_vars(ctx: _EntangledContext, expr: Expr) -> Expr:
    """Rewrite residual predicates to use canonical variable names (a
    value leaf stays as it is, and a column unified with a constant
    becomes the leaf that supplies it)."""
    kind = type(expr)
    if kind is Col and not expr.name.startswith("@"):
        # Either an outer name or an already-canonical subquery slot name.
        if ("name", expr.name) in ctx.uf._parent or expr.name in ctx.outer_name_slots:
            slot = ctx.outer_slot(expr.name)
        else:
            slot = _find_slot_by_name(ctx, expr.name)
        constant = ctx.uf.constant_of(slot)
        if constant is not None:
            return constant[0]
        return Col(_canonical_var(ctx, slot))
    if kind not in STORAGE_NODES:
        raise CompileError(f"unsupported residual predicate: {kind.__name__}")
    return expr.map(lambda node: _residual_to_vars(ctx, node))


def _find_slot_by_name(ctx: _EntangledContext, name: str):
    for _alias, _relation, slots in ctx.body_atoms:
        for slot in slots:
            if _slot_name(slot) == name:
                return slot
    raise UnknownColumnError(
        f"predicate references unknown name {name!r} in entangled query"
    )


# ---------------------------------------------------------------------------
# INSERT / UPDATE / DELETE / SET
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledInsert:
    """Full-row positional values, ready for the storage engine."""

    table: str
    values: tuple["SQLValue | None", ...]


class _PreparedInsert(NamedTuple):
    """An INSERT's prepared form: per column of the table, the position
    of the value it takes (None: NULL); the parameters its values read,
    read at once (reading one never fails), and per value the host
    variables it reads, read just before it evaluates (where binding
    met an unbound one); and the count mismatch to raise once the values
    evaluate, if the statement has one."""

    positions: tuple
    params: tuple
    host_vars: tuple
    mismatch: str | None


def compile_insert(
    stmt: InsertStmt, db: Database, env: Env, params: Params = ()
) -> CompiledInsert:
    """The row an INSERT writes: its values evaluated, in order, over
    the inputs they read."""
    form = _prepared(stmt, db, _prepare_insert, env, params)
    values = _run(form.params, env, params, {})
    row = []
    for expr, names in zip(stmt.values, form.host_vars):
        if names:
            _run(names, env, params, values)
        try:
            row.append(expr.eval(values))
        except Exception as exc:
            raise CompileError(
                "expected a constant expression, got "
                f"{inline_hostvars(expr, env, params)}") from exc
    if form.mismatch is not None:
        raise CompileError(form.mismatch)
    return CompiledInsert(stmt.table, tuple([
        None if at is None else row[at] for at in form.positions]))


def _prepare_insert(
    stmt: InsertStmt, db: Database, steps: list
) -> _PreparedInsert:
    schema = db.table(stmt.table).schema
    host_vars = []
    for expr in stmt.values:
        found: list = []
        _inputs(expr, found)
        steps.extend(key for key in found if type(key) is int)
        host_vars.append(_distinct([key for key in found if type(key) is str]))
    positions, mismatch = (), None
    if stmt.columns:
        if len(stmt.columns) != len(stmt.values):
            mismatch = f"INSERT column/value count mismatch on {stmt.table!r}"
        else:
            at = {column: i for i, column in enumerate(stmt.columns)}
            positions = tuple(at.get(c.name) for c in schema.columns)
    elif len(stmt.values) != schema.arity:
        mismatch = (f"INSERT into {stmt.table!r} expects {schema.arity} "
                    f"values, got {len(stmt.values)}")
    else:
        positions = tuple(range(schema.arity))
    return _PreparedInsert(
        positions, _distinct(steps), tuple(host_vars), mismatch)


class CompiledUpdate(NamedTuple):
    """An UPDATE as the store's ``update_where`` takes it: the rows it
    changes, keyed, and their new values, as data whose ``Param`` and
    ``@var`` leaves read the execution's values, which both carry.
    ``subqueries`` are its ``IN (SELECT ...)`` subqueries, as a
    :class:`CompiledSelect`'s: each one's rows go into those values
    under its key, all before the write."""

    table: str
    predicate: RowPredicate
    assignments: RowAssignments
    subqueries: tuple[tuple[str, BoundQuery], ...]


class CompiledDelete(NamedTuple):
    """A DELETE as the store's ``delete_where`` takes it (see
    :class:`CompiledUpdate`)."""

    table: str
    predicate: RowPredicate
    subqueries: tuple[tuple[str, BoundQuery], ...]


class _PreparedWrite(NamedTuple):
    """An UPDATE's or DELETE's prepared form: the table's column names,
    the SET list as ``(column position, expression)`` pairs, the WHERE
    clause as a single-table query planned once (``bound.query.where``,
    its ``IN (SELECT ...)`` tests prepared as a SELECT's), those
    subqueries, and the inputs its leaves read."""

    columns: tuple[str, ...]
    assignments: tuple[tuple[int, Expr], ...]
    bound: BoundQuery
    subqueries: tuple[tuple[str, BoundQuery], ...]
    inputs: tuple


def compile_update(
    stmt: UpdateStmt, db: Database, env: Env, params: Params = ()
) -> CompiledUpdate:
    form = _prepared(stmt, db, _prepare_write, env, params)
    values = _run(form.inputs, env, params, {})
    return CompiledUpdate(
        stmt.table, _keyed(form, db, values),
        RowAssignments(form.columns, form.assignments, values),
        form.subqueries)


def compile_delete(
    stmt: DeleteStmt, db: Database, env: Env, params: Params = ()
) -> CompiledDelete:
    form = _prepared(stmt, db, _prepare_write, env, params)
    return CompiledDelete(
        stmt.table, _keyed(form, db, _run(form.inputs, env, params, {})),
        form.subqueries)


def _keyed(form: _PreparedWrite, db: Database, values: dict) -> RowPredicate:
    """The write's WHERE clause over ``values``, keyed by the probe its
    plan's one level chooses under them, as a read of it would."""
    bound = form.bound
    table = db.table(bound.query.tables[0].name)
    _plan, (level,) = bound.plan([table], values, DEFAULT_HINTS)
    key, _bound_by = level.equality_key(values, table)
    return RowPredicate(form.columns, bound.query.where, values, key)


def _prepare_write(
    stmt: UpdateStmt | DeleteStmt, db: Database, steps: list
) -> _PreparedWrite:
    schema = db.table(stmt.table).schema
    assignments = stmt.assignments if type(stmt) is UpdateStmt else ()
    for _column, expr in assignments:
        _inputs(expr, steps)
    where, subqueries = stmt.where, []
    if where is not None:
        where = _prepare_where(where, db, steps, subqueries)
    positions = tuple(
        (schema.column_index(column), expr) for column, expr in assignments)
    query = SPJQuery((TableRef(stmt.table),), (), (), where)
    return _PreparedWrite(schema.column_names, positions, BoundQuery(query),
                          tuple(subqueries), _distinct(steps))


def compile_set(
    stmt: SetStmt, db: Database, env: Env, params: Params = ()
) -> "SQLValue | None":
    """The value ``SET @var = expr`` assigns: ``expr`` over the inputs
    it reads."""
    inputs = _prepared(stmt, db, _prepare_set, env, params)
    return stmt.expr.eval(_run(inputs, env, params, {}))


def _prepare_set(stmt: SetStmt, db: Database, steps: list) -> tuple:
    _inputs(stmt.expr, steps)
    return _distinct(steps)
