"""Every expression walker against its hand-written predecessor.

Each walker of the expression tree is a visitor over ``Expr.map``; the
recursions they replaced are kept verbatim in ``_reference_walkers.py``.
Over the same generated trees — ``test_unparse.py``'s ``simple_exprs()``
kinds plus ``Param``, ``IsNull``, ``InList``, ``Not``, ``InSelect`` and
``InAnswer`` at every depth, over columns, host variables and slot names
— every pair must give the same result (``==``) or raise the same
exception (type and message), and ``names`` must list the same names in
the same order: the planner keys plans on it.

The second half pins the identity rule ``map`` declares: binding shares
every subtree that holds no ``Param`` and no host variable, of every node
kind, and a bound template statement shares those with its template.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference_walkers as reference
from test_unparse import identifiers, literals, simple_exprs

from repro.entangled.grounding import _rewrite_vars
from repro.errors import CompileError, EntangledQueryError, UnknownColumnError
from repro.sql import parse_transaction
from repro.sql.ast import (
    InAnswer,
    InSelect,
    Param,
    SelectItem,
    SelectStmt,
    TableSource,
    inline_hostvars,
)
from repro.sql.compiler import (
    _EntangledContext,
    _bind_where,
    _qualify,
    _qualify_where,
    _rebind_subquery_columns,
    _residual_to_vars,
)
from repro.storage import Database, TableSchema
from repro.storage.expressions import (
    And,
    Arith,
    ArithOp,
    Cmp,
    CmpOp,
    Col,
    Const,
    InList,
    IsNull,
    Not,
    Or,
    names,
    substitute,
)
from repro.storage.types import ColumnType

#: one value per ``Param`` index (numbers: a negated parameter negates).
PARAMS = (7, -2, 0, 3.5)
ENV = {"@v": 1, "@w": "LA"}
#: ``simple_exprs``' identifiers, plus a qualified column, an entangled
#: slot name and host variables (``@u`` is unbound).
NAMES = st.one_of(identifiers, st.sampled_from(["T.x", "F_x", "@v", "@w", "@u"]))


@st.composite
def walker_exprs(draw, depth=0):
    """``simple_exprs()`` with every node kind a walker meets, at every
    depth (``InSelect`` carries a subquery with a generated WHERE)."""
    if depth >= 3 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["const", "col", "param"]))
        if leaf == "const":
            return draw(simple_exprs(depth=2)) if draw(st.booleans()) else Const(
                draw(literals))
        if leaf == "col":
            return Col(draw(NAMES))
        return Param(draw(st.integers(0, len(PARAMS) - 1)), draw(st.booleans()))
    child = walker_exprs(depth + 1)
    kind = draw(st.sampled_from([
        "cmp", "and", "or", "not", "arith", "isnull", "inlist", "inselect",
        "inanswer",
    ]))
    if kind == "cmp":
        return Cmp(draw(st.sampled_from(list(CmpOp))), draw(child), draw(child))
    if kind == "and":
        return And(draw(child), draw(child))
    if kind == "or":
        return Or(draw(child), draw(child))
    if kind == "not":
        return Not(draw(child))
    if kind == "arith":
        return Arith(draw(st.sampled_from(list(ArithOp))), draw(child), draw(child))
    if kind == "isnull":
        return IsNull(draw(child), draw(st.booleans()))
    items = tuple(draw(st.lists(child, min_size=1, max_size=3)))
    if kind == "inlist":
        return InList(items[0], items[1:])
    if kind == "inanswer":
        return InAnswer(items, draw(st.sampled_from(["R", "S"])))
    where = draw(st.one_of(st.none(), child))
    subquery = SelectStmt((SelectItem(Col("x")),), (TableSource("T"),), where)
    return InSelect(items[:1], subquery)


def outcome(call):
    try:
        return "ok", call()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return "raised", type(exc), str(exc)


def same(new, old):
    assert outcome(new) == outcome(old)


def listed(expr) -> list:
    found: list = []
    names(expr, found)
    return found


def has_in_node(expr) -> bool:
    if isinstance(expr, (InSelect, InAnswer)):
        return True
    found = []
    expr.map(lambda child: found.append(has_in_node(child)) or child)
    return any(found)


# -- the walkers' environments ---------------------------------------------------


def _database() -> Database:
    db = Database("walkers")
    db.create_table(TableSchema.build(
        "T",
        [("x", ColumnType.INTEGER), ("y", ColumnType.INTEGER),
         ("uid", ColumnType.INTEGER), ("fno", ColumnType.INTEGER),
         ("dest", ColumnType.TEXT)],
        primary_key=["x"],
    ))
    db.load("T", [(i, i % 3, i, 100 + i, "LA" if i % 2 else "Paris")
                  for i in range(6)])
    return db


DB = _database()


def resolve_bare(name: str) -> str:
    if name in ("T", "Flights"):
        raise UnknownColumnError(f"no table provides column {name!r}")
    if name == "dest":
        raise CompileError(f"column {name!r} is ambiguous across ['a', 'b']")
    return f"T.{name}"


def resolve_slot(name: str):
    bare = name.split(".", 1)[-1]
    if bare in ("Flights", "F_x"):
        raise UnknownColumnError(f"no subquery table provides column {name!r}")
    return ("col", "F", bare)


def entangled_context() -> _EntangledContext:
    """Body atom ``F(x, y, uid, fno, dest)``; ``fno`` and ``dest`` are
    outer names, ``dest`` unified with ``F.dest`` and ``y`` fixed to 3."""
    ctx = _EntangledContext(DB, ENV)
    ctx.body_atoms.append(
        ("F", "T", [("col", "F", c) for c in ("x", "y", "uid", "fno", "dest")]))
    ctx.uf.union(ctx.outer_slot("dest"), ("col", "F", "dest"))
    ctx.outer_slot("fno")
    ctx.uf.bind_constant(("col", "F", "y"), 3)
    return ctx


# -- the differential --------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(expr=walker_exprs())
def test_walkers_match_their_references(expr):
    bindings = {"x": 1, "@v": 2, "T.x": None}
    same(lambda: substitute(expr, bindings),
         lambda: reference.substitute(expr, bindings))

    mapping = {"x": Col("_b0.x"), "fno": Col("_b1.fno"), "@v": Col("_b0.y")}
    same(lambda: _rewrite_vars(expr, mapping),
         lambda: reference._rewrite_vars(expr, mapping))

    same(lambda: _qualify(expr, resolve_bare),
         lambda: reference._qualify(expr, resolve_bare))
    same(lambda: _qualify_where(expr, resolve_bare),
         lambda: reference._qualify_where(expr, resolve_bare))
    same(lambda: _bind_where(expr, DB, ENV, PARAMS),
         lambda: reference._bind_where(expr, DB, ENV, PARAMS))

    same(lambda: _rebind_subquery_columns(expr, resolve_slot),
         lambda: reference._rebind_subquery_columns(expr, resolve_slot))
    same(lambda: _residual_to_vars(entangled_context(), expr),
         lambda: reference._residual_to_vars(entangled_context(), expr))

    for env in (ENV, None):
        same(lambda: inline_hostvars(expr, env, PARAMS),
             lambda: reference.inline_hostvars(expr, env, PARAMS))

    assert expr.columns() == reference.columns(expr)
    old: list = []
    reference._names(expr, old)
    if has_in_node(expr):
        # The old fallback listed an IN node's names sorted and once each;
        # no plan ever sees one (binding rewrites or rejects them first).
        assert set(listed(expr)) == set(old)
    else:
        assert listed(expr) == old


def test_names_lists_left_to_right_with_repeats():
    expr = Or(Cmp(CmpOp.LT, Col("b"), Arith(ArithOp.ADD, Col("a"), Const(1))),
              InList(Col("b"), (Col("@v"), IsNull(Col("c")))))
    assert listed(expr) == ["b", "a", "b", "@v", "c"]
    assert expr.columns() == {"a", "b", "c", "@v"}


@pytest.mark.parametrize("node", [
    Param(0),
    InSelect((Col("x"),), SelectStmt((SelectItem(Col("x")),), (TableSource("T"),))),
    InAnswer((Col("x"),), "R"),
])
def test_a_sql_node_below_the_sql_layer_is_a_typed_error(node):
    """Nested where no walker below the SQL layer can take it, a SQL-only
    node is the walker's own error, never ``NotImplementedError`` at
    ``eval``."""
    expr = Not(Cmp(CmpOp.EQ, Col("fno"), node))
    with pytest.raises(CompileError, match="cannot substitute"):
        substitute(expr, {})
    with pytest.raises(EntangledQueryError, match="unsupported body predicate"):
        _rewrite_vars(expr, {})
    with pytest.raises(CompileError, match="entangled subquery"):
        _rebind_subquery_columns(expr, resolve_slot)
    with pytest.raises(CompileError, match="residual predicate"):
        _residual_to_vars(entangled_context(), expr)


def test_walking_leaves_no_garbage_cycles():
    """The walkers run per statement.  One that recursed through a nested
    function referring to itself would leave a reference cycle per call
    for the cyclic collector (measured on the end-to-end benchmark: twice
    the collections per transaction on travel_entangled)."""
    sql = And(Not(IsNull(Col("@v"))), InList(Param(0), (Col("x"), Param(1, True))))
    plain = And(Not(IsNull(Col("fno"))),
                InList(Col("fno"), (Const(1), Arith(ArithOp.ADD, Col("dest"), Const(2)))))
    ctx = entangled_context()
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            inline_hostvars(sql, ENV, PARAMS)
            listed(sql)
            plain.columns()
            _qualify(sql, resolve_bare)
            _qualify_where(sql, resolve_bare)
            _bind_where(sql, DB, ENV, PARAMS)
            substitute(plain, {"fno": 3})
            _rewrite_vars(plain, {"fno": Col("_b0.fno")})
            _rebind_subquery_columns(plain, resolve_slot)
            _residual_to_vars(ctx, plain)
        assert gc.collect() < 100
    finally:
        gc.enable()


# -- sharing: the identity rule of ``map`` ---------------------------------------


def children(node) -> list:
    out: list = []
    node.map(lambda child: out.append(child) or child)
    return out


def constant(node) -> bool:
    """Holds no ``Param``, no host variable and no subquery to bind."""
    if isinstance(node, (Param, InSelect)):
        return False
    if isinstance(node, Col) and node.name.startswith("@"):
        return False
    return all(constant(child) for child in children(node))


def assert_shared(before, after) -> None:
    """Every subtree of ``before`` binding leaves unchanged is ``after``'s."""
    if constant(before):
        assert after is before, before
        return
    assert type(after) is type(before) or isinstance(before, (Param, Col))
    if type(after) is type(before):
        for old, new in zip(children(before), children(after)):
            assert_shared(old, new)


OPERAND = Cmp(CmpOp.GT, Col("x"), Const(1))


@pytest.mark.parametrize("expr", [
    Const(3), Col("x"), Col("T.x"), OPERAND,
    And(OPERAND, Col("y")), Or(OPERAND, Col("y")), Not(OPERAND),
    IsNull(Col("x"), True), Arith(ArithOp.MUL, Col("x"), Const(2)),
    InList(Col("x"), (Const(1), Col("y"))), InAnswer((Col("x"), Const(1)), "R"),
], ids=lambda e: type(e).__name__)
def test_binding_shares_a_subtree_with_nothing_to_bind(expr):
    assert inline_hostvars(expr, ENV, PARAMS) is expr
    assert inline_hostvars(expr, None, PARAMS) is expr
    # ... and under a node that does change, the untouched sibling.
    bound = inline_hostvars(And(Param(0), expr), ENV, PARAMS)
    assert bound.left == Const(7) and bound.right is expr


@settings(max_examples=200, deadline=None)
@given(expr=walker_exprs())
def test_binding_shares_every_untouched_subtree(expr):
    env = {"@v": 1, "@w": 2, "@u": 3}
    assert_shared(expr, inline_hostvars(expr, env, PARAMS))


def test_a_bound_template_shares_its_untouched_subtrees():
    program = parse_transaction("""
        BEGIN TRANSACTION;
        SELECT x AS @a FROM T WHERE NOT (y IS NULL) AND x IN (y, uid) AND x = 5;
        UPDATE T SET y = y + 1 WHERE NOT (x IN (uid, fno)) AND fno = 9;
        INSERT INTO T (x, y) VALUES (4, NULL);
        SET @z = (x IS NOT NULL) OR (y < -2);
        COMMIT;
    """)
    assert program.params
    for template, bound in zip(program.template, program.statements):
        if isinstance(template, SelectStmt):
            pairs = [(template.where, bound.where)] + [
                (t.expr, b.expr) for t, b in zip(template.items, bound.items)]
        elif hasattr(template, "assignments"):
            pairs = [(template.where, bound.where)] + [
                (t, b) for (_c, t), (_c2, b) in zip(
                    template.assignments, bound.assignments)]
        elif hasattr(template, "values"):
            pairs = list(zip(template.values, bound.values))
        else:
            pairs = [(template.expr, bound.expr)]
        assert pairs
        for before, after in pairs:
            assert_shared(before, after)
    # The sharing is real, not vacuous: the first WHERE's NOT subtree.
    where = program.statements[0].where
    assert where.left.left is program.template[0].where.left.left

