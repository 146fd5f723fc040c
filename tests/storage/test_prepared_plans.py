"""The prepared read path returns what the per-execution planner returned.

``_reference_planner.py`` is the planner as it stood before plans were
prepared: it re-derives every access decision per outer row and defers
conjuncts by catching ``UnknownColumnError``.  The property: for any SPJ
query of the family below — 1 to 3 FROM items (a table may appear twice),
equality / range / residual / IN-list conjuncts against literals (NULL
included), host variables and other tables' columns, DISTINCT, ORDER BY
asc/desc, LIMIT — the production path returns **identical rows in
identical order**, on the first execution of a query's
:class:`~repro.storage.planner.BoundQuery` (which prepares the plan) and
on the next (which reuses it), over live tables, snapshot views and
sharded union views, also phrased the way entangled grounding phrases a
body (every column ``alias.column``); and the query as a prepared
statement's template — every literal a ``Param`` leaf — runs its values
and shifted ones on *one* plan.

The second half pins where a plan is kept: in the query's
``BoundQuery``, per names in scope and ``ordered_indexes``, serving
every view of its database; that nothing failing is kept; and that
threads sharing one ``BoundQuery`` agree with the reference.
"""

import sys
import threading
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.entangled import ground
from repro.errors import ReproError, UnknownColumnError, UnknownTableError
from repro.sql import parse_statement, parse_transaction
from repro.sql.parser import prepare_statement
from repro.sql.ast import Param
from repro.sql.compiler import compile_entangled, compile_select
from repro.storage import (
    And,
    Arith,
    ArithOp,
    Cmp,
    CmpOp,
    Col,
    ColumnType,
    Const,
    Database,
    InList,
    IsNull,
    Not,
    Or,
    ShardedStorageEngine,
    SPJQuery,
    StorageEngine,
    TableRef,
    TableSchema,
    TxnIsolation,
    evaluate,
)
from repro.storage import planner
from repro.storage.planner import BoundQuery, PlanHints

import _reference_planner as reference

# -- three small tables, NULLs included -------------------------------------------------

INT = ColumnType.INTEGER
SCHEMAS = {
    # nested secondary indexes: (g) is declared before (g, v) on purpose.
    "A": TableSchema.build(
        "A", [("id", INT), ("g", INT, True), ("v", INT, True)],
        primary_key=["id"], indexes=[["g"], ["g", "v"]]),
    "B": TableSchema.build(
        "B", [("id", INT), ("a_id", INT, True), ("w", INT, True)],
        primary_key=["id"], indexes=[["a_id"], ["w"]]),
    # no primary key, like the paper's Friends relation.
    "C": TableSchema.build(
        "C", [("k", INT), ("x", INT, True)], indexes=[["k", "x"], ["k"]]),
}
DATASETS = {
    "full": {
        "A": [(i, None if i % 5 == 4 else i % 3, None if i % 4 == 3 else i % 2)
              for i in range(12)],
        "B": [(i, None if i % 6 == 5 else i % 7, None if i % 3 == 2 else i % 4)
              for i in range(10)],
        "C": [(i % 3, None if i % 4 == 1 else i % 2) for i in range(8)],
    },
    # sizes 1, 0 and 2: the ``len(table) > 1`` test before a range path.
    "tiny": {"A": [(3, 1, None)], "B": [], "C": [(0, 1), (1, None)]},
}


def _install(create_table, load, data):
    for schema in SCHEMAS.values():
        create_table(schema)
    for name, rows in data.items():
        load(name, rows)


def _live(data):
    db = Database("live")
    _install(db.create_table, db.load, data)
    return db, (lambda: None)


def _snapshot(data):
    """A snapshot the live tables have since moved away from: rows were
    re-keyed, deleted and inserted after it was taken."""
    engine = StorageEngine()
    _install(engine.create_table, engine.load, data)
    reader = engine.begin(TxnIsolation.SNAPSHOT)
    writer = engine.begin()
    for row in list(engine.db.table("A").scan())[::3]:
        engine.update(writer, "A", row.rid, (row.values[0], 2, 1))
    for row in list(engine.db.table("C").scan())[::2]:
        engine.delete(writer, "C", row.rid)
    engine.insert(writer, "B", (99, 1, 1))
    engine.commit(writer)
    return engine.snapshot_provider(reader), (lambda: None)


def _sharded(data):
    store = ShardedStorageEngine(2)
    _install(store.create_table, store.load, data)
    return store.db, getattr(store, "close", lambda: None)


def _sharded_snapshot(data):
    store = ShardedStorageEngine(2)
    _install(store.create_table, store.load, data)
    reader = store.begin(TxnIsolation.SNAPSHOT)
    writer = store.begin()
    store.insert(writer, "A", (50, 0, 0))
    store.commit(writer)
    return store.snapshot_provider(reader), getattr(store, "close", lambda: None)


PROVIDERS = {
    "table": _live, "snapshot": _snapshot, "sharded": _sharded,
    "sharded-snapshot": _sharded_snapshot,
}


@pytest.fixture(scope="module", params=[
    (kind, dataset) for kind in PROVIDERS for dataset in DATASETS
], ids=lambda p: f"{p[0]}-{p[1]}")
def provider(request):
    kind, dataset = request.param
    built, close = PROVIDERS[kind](DATASETS[dataset])
    yield built
    close()


# -- the query family ---------------------------------------------------------------------

VALUES = st.one_of(st.none(), st.integers(0, 4))
RANGE_OPS = (CmpOp.LT, CmpOp.LE, CmpOp.GT, CmpOp.GE)


@st.composite
def queries(draw, *, limits=True, leaf=False):
    """``(SPJQuery, params)``: every column reference is qualified (as
    the SQL compiler leaves them) unless the query has one FROM item,
    where bare names resolve too.  ``leaf=True`` narrows the family to
    where a LIMIT may reach an ordered leaf: one table, mostly range
    conjuncts against values, no DISTINCT, at most one sort column."""
    names = draw(st.lists(
        st.sampled_from("ABC"), min_size=1, max_size=1 if leaf else 3))
    refs = tuple(TableRef(name, f"t{i}") for i, name in enumerate(names))
    bare_ok = len(refs) == 1

    def column(ref=None):
        ref = ref or draw(st.sampled_from(refs))
        col = draw(st.sampled_from(SCHEMAS[ref.name].column_names))
        if bare_ok and draw(st.booleans()):
            return Col(col)
        return Col(f"{ref.alias}.{col}")

    def value():
        kind = draw(st.sampled_from(["const", "const", "host", "column"]))
        if kind == "host":
            return Col("@h")
        if kind == "column":
            return column()
        return Const(draw(VALUES))

    def conjunct():
        kind = draw(st.sampled_from(
            ["range", "range", "range", "ne", "isnull"] if leaf else
            ["eq", "eq", "eq", "range", "range", "ne", "arith", "or", "not",
             "isnull", "in", "unknown"]))
        if kind == "eq":
            sides = [column(), value()]
            if draw(st.booleans()):
                sides.reverse()
            return Cmp(CmpOp.EQ, *sides)
        if kind == "range":
            sides = [column(), value()]
            if draw(st.booleans()):
                sides.reverse()
            return Cmp(draw(st.sampled_from(RANGE_OPS)), *sides)
        if kind == "ne":
            return Cmp(CmpOp.NE, column(), value())
        if kind == "arith":
            return Cmp(
                draw(st.sampled_from((CmpOp.EQ,) + RANGE_OPS)),
                column(), Arith(ArithOp.ADD, value(), Const(1)))
        if kind == "or":
            return Or(Cmp(CmpOp.EQ, column(), value()),
                      Cmp(draw(st.sampled_from(RANGE_OPS)), column(), value()))
        # NOT and IN stay inside one table: the reference may decide
        # such a conjunct early when its *later* columns never get
        # evaluated (a short-circuit), which would make its lock set —
        # not its rows — narrower than a plan that waits for every name.
        ref = draw(st.sampled_from(refs))
        if kind == "not":
            return Not(Or(Cmp(CmpOp.EQ, column(ref), Const(draw(VALUES))),
                          IsNull(column(ref))))
        if kind == "isnull":
            return IsNull(column(ref), negated=draw(st.booleans()))
        if kind == "in":
            return InList(column(ref), tuple(
                Const(v) for v in draw(st.lists(VALUES, max_size=3))))
        return Cmp(CmpOp.EQ, column(), Col("nowhere.nothing"))

    where = None
    for _ in range(draw(st.integers(0, 4))):
        part = conjunct()
        where = part if where is None else And(where, part)
    select = tuple(
        column() if draw(st.booleans()) else Const(7)
        for _ in range(draw(st.integers(1, 3))))
    order_by = tuple(
        (column().name, draw(st.booleans()))
        for _ in range(draw(st.integers(0, 1 if leaf else 2))))
    query = SPJQuery(
        tables=refs, select=select,
        select_names=tuple(f"c{i}" for i in range(len(select))),
        where=where, distinct=not leaf and draw(st.booleans()),
        limit=draw(st.one_of(st.none(), st.integers(0, 5))) if limits else None,
        order_by=order_by,
    )
    params = draw(st.sampled_from([None, {"@h": None}, {"@h": 1}, {"@h": 3}]))
    return query, params


def rebuild(expr, *, column=lambda name: name, leaf=Const):
    """``expr`` with every column name mapped and every literal value
    replaced by the leaf ``leaf`` makes of it."""
    if expr is None:
        return None
    go = lambda e: rebuild(e, column=column, leaf=leaf)  # noqa: E731
    if isinstance(expr, Col):
        return Col(column(expr.name))
    if isinstance(expr, Const):
        return leaf(expr.value)
    if isinstance(expr, (Cmp, Arith)):
        return type(expr)(expr.op, go(expr.left), go(expr.right))
    if isinstance(expr, (And, Or)):
        return type(expr)(go(expr.left), go(expr.right))
    if isinstance(expr, Not):
        return Not(go(expr.operand))
    if isinstance(expr, IsNull):
        return IsNull(go(expr.operand), expr.negated)
    assert isinstance(expr, InList)
    return InList(go(expr.operand), tuple(go(o) for o in expr.options))


def remap(query, **maps):
    order_by = tuple(
        (maps.get("column", lambda n: n)(name), desc)
        for name, desc in query.order_by)
    return SPJQuery(
        tables=query.tables,
        select=tuple(rebuild(e, **maps) for e in query.select),
        select_names=query.select_names,
        where=rebuild(query.where, **maps),
        distinct=query.distinct, limit=query.limit, order_by=order_by,
    )


def shifted(query):
    """The same shape, every non-NULL literal moved by one."""
    return remap(query, leaf=lambda v: Const(v if v is None else v + 1))


def lifted(query):
    """``(template, values)``: the query as a prepared statement keeps
    it, every non-NULL literal a ``Param`` leaf, and the values an
    execution puts under the leaves' indexes."""
    values: dict = {}

    def leaf(value):
        if value is None:
            return Const(None)
        values[len(values)] = value
        return Param(len(values) - 1)

    return remap(query, leaf=leaf), values


def qualified(query):
    """The query as entangled grounding phrases a body: every column by
    ``alias.column``, none by its bare name."""
    only = query.tables[0].alias

    def column(name):
        if name.startswith("@") or "." in name:
            return name
        return f"{only}.{name}"

    return remap(query, column=column)


def outcome(run):
    """Rows, or the class of what a statement error raised: a name no
    table provides fails the statement only for a row that reaches it."""
    try:
        return run()
    except ReproError as exc:
        return type(exc)


def assert_same_rows(query, target, params):
    want = outcome(lambda: reference.evaluate(query, target, params))
    bound = BoundQuery(query)
    first = outcome(lambda: evaluate(query, target, params, bound=bound))
    (plan,) = bound.bound.values()
    hit = outcome(lambda: evaluate(query, target, params, bound=bound))
    assert first == want and hit == want
    assert len(bound.bound) == 1 and next(iter(bound.bound.values())) is plan
    # Shifted literals: the reference's answer, unprepared or prepared.
    twin = shifted(query)
    assert outcome(lambda: evaluate(twin, target, params)) == outcome(
        lambda: reference.evaluate(twin, target, params))
    template, values = lifted(query)
    kept = BoundQuery(template)
    for literal, given in ((query, values),
                           (twin, {i: v + 1 for i, v in values.items()})):
        assert outcome(lambda: evaluate(
            template, target, {**(params or {}), **given}, bound=kept)) == outcome(
            lambda: reference.evaluate(literal, target, params))
    assert len(kept.bound) == 1


RELAXED = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@RELAXED
@given(case=queries())
def test_prepared_path_equals_the_reference(provider, case):
    query, params = case
    assert_same_rows(query, provider, params)


@RELAXED
@given(case=queries(leaf=True))
def test_a_limit_at_the_leaf_equals_the_reference(provider, case):
    query, params = case
    assert_same_rows(query, provider, params)


@RELAXED
@given(case=queries())
def test_grounding_phrasing_equals_the_reference(case):
    query, params = case
    db, _close = _live(DATASETS["full"])
    assert_same_rows(qualified(query), db, params)


@settings(max_examples=100, deadline=None)
@given(case=queries())
def test_hash_only_plans_equal_the_reference(case):
    """``ordered_indexes=False`` (the hash-only baseline arm) is part of
    the plan's key and changes only the access paths."""
    query, params = case
    db, _close = _live(DATASETS["full"])
    want = outcome(lambda: reference.evaluate(
        query, db, params, hints=reference.PlanHints(ordered_indexes=False)))
    hints = PlanHints(ordered_indexes=False)
    assert outcome(lambda: evaluate(query, db, params, hints=hints)) == want
    assert outcome(lambda: evaluate(query, db, params, hints=hints)) == want


# -- where a plan is kept -----------------------------------------------------------------

POINT = SPJQuery(
    tables=(TableRef("A"),), select=(Col("v"),), select_names=("v",),
    where=Cmp(CmpOp.EQ, Col("id"), Param(0)))


def test_a_plan_survives_create_table_of_another_table():
    db, _close = _live(DATASETS["full"])
    bound = BoundQuery(POINT)
    assert evaluate(POINT, db, {0: 3}, bound=bound) == [(None,)]
    (plan,) = bound.bound.values()
    db.create_table(TableSchema.build("Later", [("z", INT)]))
    assert evaluate(POINT, db, {0: 4}, bound=bound) == [(0,)]
    assert list(bound.bound.values()) == [plan]


def test_a_plan_is_kept_per_names_in_scope_and_ordered_indexes_setting():
    db, _ = _live(DATASETS["full"])
    ranged = SPJQuery(
        tables=(TableRef("A"),), select=(Col("id"),), select_names=("id",),
        where=Cmp(CmpOp.LT, Col("id"), Const(3)))
    bound = BoundQuery(ranged)
    evaluate(ranged, db, bound=bound)
    assert len(bound.bound) == 1
    stats = {}
    evaluate(ranged, db, hints=PlanHints(ordered_indexes=False, stats=stats),
             bound=bound)
    assert len(bound.bound) == 2 and not stats
    evaluate(ranged, db, hints=PlanHints(stats=stats), bound=bound)
    assert len(bound.bound) == 2 and stats["index_range_scans"] == 1
    evaluate(ranged, db, {"@h": 1}, bound=bound)
    assert len(bound.bound) == 3


def test_a_snapshot_and_a_grounding_body_run_their_statements_plan():
    engine = StorageEngine()
    _install(engine.create_table, engine.load, DATASETS["full"])
    txn = engine.begin(TxnIsolation.SNAPSHOT)
    bound = BoundQuery(POINT)
    evaluate(POINT, engine.snapshot_provider(txn), {0: 3}, bound=bound)
    (plan,) = bound.bound.values()
    evaluate(POINT, engine.snapshot_provider(engine.begin(TxnIsolation.SNAPSHOT)),
             {0: 3}, bound=bound)
    evaluate(POINT, engine.db, {0: 3}, bound=bound)
    assert list(bound.bound.values()) == [plan]
    # A body is a statement like any other: planned once per prepared
    # statement, whichever provider grounds it and whatever its values.
    def body(key):
        stmt, params = prepare_statement(
            f"SELECT v INTO ANSWER R WHERE ({key}, g, v) IN "
            "(SELECT id, g, v FROM A) CHOOSE 1")
        return compile_entangled(stmt, engine.db, {}, "q", params)

    query = body(4)
    kept, _values = query.body
    assert [g.heads[0].values for g in ground(query, engine.db)] == [(0,)]
    (plan,) = kept.bound.values()
    again = body(3)
    assert again.body[0] is kept
    assert ground(again, engine.snapshot_provider(txn))[0].heads[0].values == (None,)
    assert list(kept.bound.values()) == [plan]


def test_a_failing_statement_keeps_nothing():
    db, _close = _live(DATASETS["full"])
    nowhere = SPJQuery(
        tables=(TableRef("Nowhere"),), select=(Col("v"),), select_names=("v",))
    bound = BoundQuery(nowhere)
    with pytest.raises(UnknownTableError):
        evaluate(nowhere, db, bound=bound)
    assert not bound.bound
    stmt = parse_statement("SELECT nothing FROM A WHERE id = 1")
    with pytest.raises(UnknownColumnError):
        compile_select(stmt, db, {})
    assert db not in stmt.resolutions

    class NoCatalog:
        """A schema that fails the question preparing a probe asks it."""

        def __init__(self, schema):
            self._schema = schema

        def __getattr__(self, name):
            if name == "primary_key":
                raise RuntimeError("no catalog")
            return getattr(self._schema, name)

    class Broken:
        def __init__(self, table):
            self.schema = NoCatalog(table.schema)

    class BrokenProvider:
        def table(self, name):
            return Broken(db.table(name))

    bound = BoundQuery(POINT)
    with pytest.raises(RuntimeError):
        evaluate(POINT, BrokenProvider(), {0: 3}, bound=bound)
    assert not bound.bound


def test_scripts_of_one_template_share_one_plan_per_select(monkeypatch):
    prepared = Counter()
    prepare = planner._prepare
    monkeypatch.setattr(planner, "_prepare", lambda query, *rest: prepared.update(
        [query]) or prepare(query, *rest))
    client = repro.connect()
    client.create_table(SCHEMAS["A"])
    client.load("A", DATASETS["full"]["A"])
    session = client.session("s")
    script = ("BEGIN TRANSACTION; SELECT v AS @v FROM A WHERE id = {}; "
              "SELECT id AS @i FROM A WHERE g = @v AND v = {} LIMIT 1; COMMIT;")
    for key in range(12):
        handle = session.run_script(script.format(key, key % 2))
        handle.wait()
        assert handle.succeeded
    plans = [
        stmt.resolutions[client.store.db].bound.bound
        for stmt in parse_transaction(script.format(0, 0)).template]
    assert [len(plan) for plan in plans] == [1, 1]
    # One preparation per SELECT for the twelve scripts.
    assert sorted(prepared.values()) == [1, 1]
    client.close()


def test_threads_sharing_one_bound_query_agree_with_the_reference():
    """Four threads, a switch interval short enough to interleave them
    inside ``build_plan``, one shared ``BoundQuery`` with per-call
    values: every answer equals the reference's and one plan is left."""
    db, _close = _live(DATASETS["full"])
    literal = SPJQuery(
        tables=(TableRef("B", "b"), TableRef("A", "a")),
        select=(Col("b.id"), Col("a.v")), select_names=("b", "v"),
        where=And(Cmp(CmpOp.EQ, Col("a.id"), Col("b.a_id")),
                  Cmp(CmpOp.GE, Col("b.w"), Const(0))),
        order_by=(("b.id", True),))
    template, _values = lifted(literal)
    bound = BoundQuery(template)
    want = [
        reference.evaluate(remap(literal, leaf=lambda _v, k=k: Const(k % 4)), db)
        for k in range(200)]
    wrong: list = []

    def worker(offset):
        for k in range(offset, len(want), 4):
            got = evaluate(template, db, {0: k % 4}, bound=bound)
            if got != want[k]:
                wrong.append((k, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    assert len(bound.bound) == 1
