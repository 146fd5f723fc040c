"""TEST-ONLY ORACLE: the bind path as it stood before statements were prepared.

A verbatim copy of ``src/repro/sql/compiler.py`` (every execution binds a
copy of the statement's tree with :func:`~repro.sql.ast.inline_hostvars`,
and unifies an entangled query afresh) and of ``build_plan`` / ``execute``
of ``src/repro/storage/planner.py`` (every execution splits its WHERE
clause and keys its plan by the conjuncts' shapes) at the parent of that
change.  Slow but obviously correct, which is what a reference is for:
``test_prepared_execution.py`` runs it and the production path on the
same statements and values and requires the same rows, host-variable
bindings, ``EntangledQuery`` and errors.  Two deviations, both forced:
the resolution memo the copy kept on ``SelectStmt.resolutions`` is not
kept (that attribute now holds the production path's prepared forms),
and ``build_plan`` imports the production planner's ``_prepare`` and
operators, which it shares on purpose.  One addition: :func:`literal`,
which reads a production compiled SELECT as the plan this path binds, for
the suites that inspect or run that plan.  Never import this from ``src/``.

Original compiler docstring follows.

Compile SQL ASTs to storage plans and entangled-query IR.

Two jobs:

* **Classical statements** compile against the catalog into
  :class:`~repro.storage.query.SPJQuery` plans (SELECT) or row-operation
  plans (INSERT/UPDATE/DELETE), with host variables inlined as constants
  from the current environment — statements execute one at a time inside a
  transaction, so the environment is known at compile time.  Statements
  arrive as shared *templates* plus the script's ``params`` (see
  :mod:`repro.sql.parser`); a literal statement is the ``params=()`` case.
  Compiling a SELECT is split along that line: its **resolution** against
  the catalog — table refs, column qualification, output names, ``AS
  @var`` bindings, ORDER BY — depends on no literal and is computed once
  per template statement per ``Database`` (``SelectStmt.resolutions``);
  only **binding** — parameters and host variables to constants, in the
  one walk of :func:`~repro.sql.ast.inline_hostvars`, and the eager
  ``IN (SELECT ...)`` rewrite — runs per execution.  A resolution that
  fails raises and is not remembered.

* **Entangled SELECT statements** compile into the intermediate
  representation ``{C} H <- B`` of Appendix A.  The translation follows
  the paper: the SELECT-INTO clause becomes the head ``H``; ``... IN
  ANSWER R`` conditions become the postcondition ``C``; ``... IN (SELECT
  ...)`` conditions contribute the body ``B`` (atoms over database
  relations); remaining comparisons become the residual body predicate.
  Variables are unified with a union-find over column occurrences, outer
  names, and constants, so that e.g. ``fno, fdate IN (SELECT fno, fdate
  FROM Flights WHERE dest='LA')`` makes ``fno``/``fdate`` variables bound
  by the ``Flights`` atom with ``dest`` fixed to ``'LA'``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.entangled.ir import Atom, EntangledQuery, Val, Var
from repro.errors import CompileError, UnknownColumnError
from repro.sql.ast import (
    DeleteStmt,
    EntangledSelectStmt,
    Env,
    InAnswer,
    InSelect,
    InsertStmt,
    Params,
    SelectItem,
    SelectStmt,
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
    InList,
    Or,
    conjoin,
    split_conjuncts,
)
from repro.storage.query import SPJQuery, TableRef, evaluate
from repro.storage.types import SQLValue


# ---------------------------------------------------------------------------
# Classical SELECT
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledSelect:
    """An executable classical SELECT: the SPJ plan plus the host-variable
    bindings to apply to the first result row (``AS @var`` / bare ``@var``
    select items), as ``(var name, output index)`` pairs."""

    plan: SPJQuery
    bindings: tuple[tuple[str, int], ...] = ()


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


def literal(compiled) -> SPJQuery:
    """A production ``repro.sql.compiler.CompiledSelect`` read as the plan
    this path binds: its query with every ``Param`` and ``@var`` leaf
    bound to the value it reads from ``compiled.values``.  Not part of
    the copied bind path."""
    q, values = compiled.query, compiled.values
    if not values:
        return q
    return SPJQuery(
        q.tables,
        tuple(inline_hostvars(e, values, values) for e in q.select),
        q.select_names,
        None if q.where is None else inline_hostvars(q.where, values, values),
        q.distinct, q.limit, q.order_by,
    )


def compile_select(
    stmt: SelectStmt, db: Database, env: Env, params: Params = ()
) -> CompiledSelect:
    """Compile a classical SELECT against the catalog."""
    resolved = _resolve_select(stmt, db)
    select = tuple(inline_hostvars(e, env, params) for e in resolved.select)
    where = None
    if resolved.where is not None:
        where = _bind_where(resolved.where, db, env, params)
    plan = SPJQuery(resolved.refs, select, resolved.names, where,
                    stmt.distinct, stmt.limit, resolved.order_by)
    return CompiledSelect(plan, resolved.bindings)


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
    qualified and its subquery left for :func:`_bind_where` to evaluate
    per execution."""
    if isinstance(expr, CONNECTIVES):
        return expr.map(lambda node: _qualify_where(node, resolve_bare))
    if isinstance(expr, InSelect):
        return expr.map(lambda item: _qualify(item, resolve_bare))
    if isinstance(expr, InAnswer):
        raise CompileError(
            "IN ANSWER is only allowed in entangled SELECT ... INTO ANSWER"
        )
    return _qualify(expr, resolve_bare)


def _bind_where(expr: Expr, db: Database, env: Env, params: Params) -> Expr:
    """Bind a resolved WHERE clause for one execution.

    ``IN (SELECT ...)`` is uncorrelated in this dialect, so the subquery
    is evaluated eagerly and replaced by a literal membership test;
    everything else is :func:`inline_hostvars`.
    """
    if isinstance(expr, CONNECTIVES):
        return expr.map(lambda node: _bind_where(node, db, env, params))
    if isinstance(expr, InSelect):
        return _membership_test(expr, db, env, params)
    return inline_hostvars(expr, env, params)


def _membership_test(
    node: InSelect, db: Database, env: Env, params: Params
) -> Expr:
    items = tuple(inline_hostvars(i, env, params) for i in node.items)
    compiled = compile_select(node.subquery, db, env, params)
    rows = evaluate(compiled.plan, db)
    if len(items) == 1:
        return InList(items[0], tuple(Const(row[0]) for row in rows))
    # Tuple membership: expand into a disjunction of conjunctions.
    disjuncts: list[Expr] = []
    for row in rows:
        parts = [
            Cmp(CmpOp.EQ, item, Const(value))
            for item, value in zip(items, row)
        ]
        combined = conjoin(parts)
        if combined is not None:
            disjuncts.append(combined)
    if not disjuncts:
        return Const(False)
    out = disjuncts[0]
    for d in disjuncts[1:]:
        out = Or(out, d)
    return out


# ---------------------------------------------------------------------------
# Entangled SELECT -> IR
# ---------------------------------------------------------------------------


class _UnionFind:
    """Union-find over term slots, tracking an optional constant per class."""

    def __init__(self):
        self._parent: dict = {}
        self._constant: dict = {}

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
        if ca is not None and cb is not None and ca != cb:
            raise CompileError(
                f"contradictory constants {ca[0]!r} and {cb[0]!r} unified"
            )
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
        if existing is not None and existing[0] != value:
            raise CompileError(
                f"slot bound to both {existing[0]!r} and {value!r}"
            )
        self._constant[root] = (value,)

    def constant_of(self, slot):
        return self._constant.get(self.find(slot))


@dataclass
class _EntangledContext:
    """Working state for one entangled-query compilation."""

    db: Database
    env: Env
    uf: _UnionFind = field(default_factory=_UnionFind)
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


def compile_entangled(
    stmt: EntangledSelectStmt,
    db: Database,
    env: Env,
    query_id: str,
    params: Params = (),
) -> EntangledQuery:
    """Compile an entangled SELECT into IR (see module docstring)."""
    ctx = _EntangledContext(db, env)
    postcondition_specs: list[tuple[tuple[Expr, ...], str]] = []

    for conjunct in split_conjuncts(stmt.where):
        conjunct = inline_hostvars(conjunct, env, params)
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
        term = _expr_to_term(ctx, inline_hostvars(expr, env, params))
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
        query_id=query_id,
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
            if isinstance(left, Col) and isinstance(right, Col):
                ctx.uf.union(resolve(left.name), resolve(right.name))
                continue
            if isinstance(left, Col) and isinstance(right, Const):
                ctx.uf.bind_constant(resolve(left.name), right.value)
                continue
            if isinstance(left, Const) and isinstance(right, Col):
                ctx.uf.bind_constant(resolve(right.name), left.value)
                continue
        ctx.residual.append(_rebind_subquery_columns(conjunct, resolve))

    # Unify the outer items with the subquery's select columns.
    if len(node.items) != len(sub.items):
        raise CompileError(
            f"IN tuple arity {len(node.items)} does not match subquery "
            f"select arity {len(sub.items)}"
        )
    for outer, inner in zip(node.items, sub.items):
        if inner.expr is None or not isinstance(inner.expr, Col):
            raise CompileError(
                "entangled subquery select items must be column references"
            )
        inner_slot = resolve(inner.expr.name)
        if isinstance(outer, Const):
            ctx.uf.bind_constant(inner_slot, outer.value)
        elif isinstance(outer, Col):
            ctx.uf.union(ctx.outer_slot(outer.name), inner_slot)
        else:
            raise CompileError(
                "IN tuple items must be columns, constants or host variables"
            )


def _rebind_subquery_columns(expr: Expr, resolve) -> Expr:
    """Rewrite subquery column refs to canonical slot names for residuals."""
    kind = type(expr)
    if kind is Col:
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
    """Convert a head/postcondition item to an IR term."""
    if isinstance(expr, Const):
        return Val(expr.value)
    if isinstance(expr, Col):
        if expr.name.startswith("@"):
            raise CompileError(f"unbound host variable {expr.name}")
        slot = ctx.outer_slot(expr.name)
        return _slot_to_term(ctx, slot)
    raise CompileError(
        "entangled head/postcondition items must be columns, constants or "
        "host variables"
    )


def _residual_to_vars(ctx: _EntangledContext, expr: Expr) -> Expr:
    """Rewrite residual predicates to use canonical variable names."""
    kind = type(expr)
    if kind is Col:
        if expr.name.startswith("@"):
            raise CompileError(f"unbound host variable {expr.name}")
        # Either an outer name or an already-canonical subquery slot name.
        if ("name", expr.name) in ctx.uf._parent or expr.name in ctx.outer_name_slots:
            slot = ctx.outer_slot(expr.name)
        else:
            slot = _find_slot_by_name(ctx, expr.name)
        constant = ctx.uf.constant_of(slot)
        if constant is not None:
            return Const(constant[0])
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
# INSERT / UPDATE / DELETE
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledInsert:
    """Full-row positional values, ready for the storage engine."""

    table: str
    values: tuple["SQLValue | None", ...]


def compile_insert(
    stmt: InsertStmt, db: Database, env: Env, params: Params = ()
) -> CompiledInsert:
    schema = db.table(stmt.table).schema
    values = [_eval_const(inline_hostvars(v, env, params)) for v in stmt.values]
    if stmt.columns:
        if len(stmt.columns) != len(values):
            raise CompileError(
                f"INSERT column/value count mismatch on {stmt.table!r}"
            )
        by_column = dict(zip(stmt.columns, values))
        row = [by_column.get(c.name) for c in schema.columns]
    else:
        if len(values) != schema.arity:
            raise CompileError(
                f"INSERT into {stmt.table!r} expects {schema.arity} values, "
                f"got {len(values)}"
            )
        row = values
    return CompiledInsert(stmt.table, tuple(row))


@dataclass(frozen=True)
class CompiledUpdate:
    table: str
    assignments: tuple[tuple[str, Expr], ...]
    predicate: Expr | None


def compile_update(
    stmt: UpdateStmt, db: Database, env: Env, params: Params = ()
) -> CompiledUpdate:
    db.table(stmt.table)  # existence check
    assignments = tuple(
        (column, inline_hostvars(value, env, params))
        for column, value in stmt.assignments
    )
    predicate = None
    if stmt.where is not None:
        predicate = inline_hostvars(stmt.where, env, params)
    return CompiledUpdate(stmt.table, assignments, predicate)


@dataclass(frozen=True)
class CompiledDelete:
    table: str
    predicate: Expr | None


def compile_delete(
    stmt: DeleteStmt, db: Database, env: Env, params: Params = ()
) -> CompiledDelete:
    db.table(stmt.table)
    predicate = None
    if stmt.where is not None:
        predicate = inline_hostvars(stmt.where, env, params)
    return CompiledDelete(stmt.table, predicate)


def _eval_const(expr: Expr):
    """Evaluate a host-var-free expression to a constant."""
    try:
        return expr.eval({})
    except Exception as exc:
        raise CompileError(f"expected a constant expression, got {expr}") from exc


# ---------------------------------------------------------------------------
# build_plan / execute, per-execution keyed
# ---------------------------------------------------------------------------

from repro.storage.operators import (  # noqa: E402
    Distinct,
    ExecContext,
    Filter,
    Limit,
    NestedLoopJoin,
    Project,
    Sort,
    Source,
)
from repro.storage.planner import (  # noqa: E402
    DEFAULT_HINTS,
    PLAN_CAP,
    PlanHints,
    _conjunct_shape,
    _JoinLevel,
    _prepare,
)
from typing import MutableMapping  # noqa: E402


def build_plan(
    query: SPJQuery,
    tables: list,
    base_env: dict,
    hints: PlanHints,
    plans: "MutableMapping | None" = None,
):
    """The operator pipeline for one execution of ``query``: fetch the
    prepared plan of its shape from ``plans`` (preparing and storing it
    on first use; None = nothing is kept) and bind this query's
    expressions to it.  The root yields ``(output tuple, sort key)``
    pairs.
    """
    conjuncts = split_conjuncts(query.where)
    key = (
        query.tables,
        tuple([_conjunct_shape(conj) for conj in conjuncts]),
        query.distinct,
        query.order_by,
        frozenset(base_env) if base_env else None,
        hints.ordered_indexes,
        # Which SELECT items are plain columns, and of what name.
        tuple([e.name if type(e) is Col else None for e in query.select]),
    )
    plan = plans.get(key) if plans is not None else None
    if plan is None:
        plan = _prepare(query, tables, conjuncts, base_env, hints)
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

    leaf_limit = query.limit if plan.at_leaf else None
    node = Source(base_env)
    for shape in plan.levels:
        node = NestedLoopJoin(
            node, _JoinLevel(shape, conjuncts, leaf_limit),
            # The innermost level projects, when it can do so by position.
            plan.emit if shape is plan.levels[-1] else None)
    if plan.emit is None:
        if plan.residual:
            node = Filter(node, [conjuncts[i] for i in plan.residual])
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
) -> list[tuple]:
    """Bind ``query`` to its prepared plan and run it; returns the output
    tuples in order."""
    hints = hints or DEFAULT_HINTS
    root = build_plan(query, tables, base_env, hints, plans)
    ctx = ExecContext(tables, observe, hints.stats)
    return [output for output, _skey in root.run(ctx)]
