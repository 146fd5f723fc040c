"""The prepared read path returns what the per-execution planner returned.

``_reference_planner.py`` is the planner as it stood before plans were
prepared: it re-derives every access decision per outer row and defers
conjuncts by catching ``UnknownColumnError``.  The property: for any SPJ
query of the family below — 1 to 3 FROM items (a table may appear twice),
equality / range / residual / IN-list conjuncts against literals (NULL
included), host variables and other tables' columns, DISTINCT, ORDER BY
asc/desc, LIMIT — the production path returns **identical rows in
identical order**, on its first execution of the shape (which prepares
the plan) and on the next (a cache hit), over live tables, snapshot
views and sharded union views, also phrased the way entangled grounding
phrases a body (every column ``alias.column``); and a twin of the query
with every literal shifted runs on the *same* prepared plan.

The second half pins the plan cache itself: what it is keyed by, that
nothing failing is stored, that it is bounded, and that threads sharing
one template agree with the reference.
"""

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.entangled import Atom, EntangledQuery, Val, Var, compile_body, ground
from repro.errors import ReproError, UnknownColumnError, UnknownTableError
from repro.sql import parse_statement, parser
from repro.sql.compiler import compile_select
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
from repro.storage.planner import PlanHints

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


def rebuild(expr, *, column=lambda name: name, const=lambda value: value):
    """``expr`` with every column name / literal value mapped."""
    if expr is None:
        return None
    go = lambda e: rebuild(e, column=column, const=const)  # noqa: E731
    if isinstance(expr, Col):
        return Col(column(expr.name))
    if isinstance(expr, Const):
        return Const(const(expr.value))
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
    return remap(query, const=lambda v: v if v is None else v + 1)


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
    target.plans.clear()
    first = outcome(lambda: evaluate(query, target, params))
    assert len(target.plans) == 1
    (plan,) = target.plans.values()
    hit = outcome(lambda: evaluate(query, target, params))
    assert first == want and hit == want
    # Shifted literals: still one plan, still the reference's answer.
    twin = shifted(query)
    assert outcome(lambda: evaluate(twin, target, params)) == outcome(
        lambda: reference.evaluate(twin, target, params))
    assert list(target.plans.values()) == [plan]


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


# -- the cache ------------------------------------------------------------------------------

POINT = SPJQuery(
    tables=(TableRef("A"),), select=(Col("v"),), select_names=("v",),
    where=Cmp(CmpOp.EQ, Col("id"), Const(3)))


def test_a_plan_survives_create_table_of_another_table():
    db, _close = _live(DATASETS["full"])
    assert evaluate(POINT, db) == [(None,)]
    (plan,) = db.plans.values()
    db.create_table(TableSchema.build("Later", [("z", INT)]))
    assert evaluate(shifted(POINT), db) == [(0,)]
    assert list(db.plans.values()) == [plan]


def test_plans_are_per_database_and_per_ordered_indexes_setting():
    one, _ = _live(DATASETS["full"])
    other, _ = _live(DATASETS["tiny"])
    ranged = SPJQuery(
        tables=(TableRef("A"),), select=(Col("id"),), select_names=("id",),
        where=Cmp(CmpOp.LT, Col("id"), Const(3)))
    evaluate(ranged, one)
    assert len(one.plans) == 1 and not other.plans
    evaluate(ranged, other)
    (mine,), (theirs,) = one.plans.values(), other.plans.values()
    assert mine is not theirs
    stats = {}
    evaluate(ranged, one, hints=PlanHints(ordered_indexes=False, stats=stats))
    assert len(one.plans) == 2 and not stats
    evaluate(ranged, one, hints=PlanHints(stats=stats))
    assert len(one.plans) == 2 and stats["index_range_scans"] == 1


def test_a_snapshot_and_a_grounding_body_plan_into_their_database():
    engine = StorageEngine()
    _install(engine.create_table, engine.load, DATASETS["full"])
    txn = engine.begin(TxnIsolation.SNAPSHOT)
    evaluate(POINT, engine.snapshot_provider(txn))
    assert len(engine.db.plans) == 1
    evaluate(POINT, engine.snapshot_provider(engine.begin(TxnIsolation.SNAPSHOT)))
    evaluate(POINT, engine.db)
    assert len(engine.db.plans) == 1
    # A body is a statement like any other: planned once per shape,
    # whichever provider grounds it and whatever its constants.
    body = lambda key: EntangledQuery(  # noqa: E731
        "q", heads=(Atom("R", (Var("v"),)),), postconditions=(),
        body_atoms=(Atom("A", (Val(key), Var("g"), Var("v"))),))
    assert [g.heads[0].values for g in ground(body(4), engine.db)] == [(0,)]
    assert len(engine.db.plans) == 2
    assert ground(body(3), engine.snapshot_provider(txn))[0].heads[0].values == (None,)
    evaluate(compile_body(body(5), engine.db), engine.db)
    assert len(engine.db.plans) == 2


def test_a_failing_statement_stores_nothing():
    db, _close = _live(DATASETS["full"])
    nowhere = SPJQuery(
        tables=(TableRef("Nowhere"),), select=(Col("v"),), select_names=("v",))
    with pytest.raises(UnknownTableError):
        evaluate(nowhere, db)
    with pytest.raises(UnknownColumnError):
        compile_select(parse_statement("SELECT nothing FROM A WHERE id = 1"), db, {})
    assert not db.plans

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
        plans = db.plans

        def table(self, name):
            return Broken(db.table(name))

    with pytest.raises(RuntimeError):
        evaluate(POINT, BrokenProvider())
    assert not db.plans


def test_cached_plans_are_bounded_like_the_template_table():
    assert planner.PLAN_CAP == parser.TEMPLATE_CAP
    db, _close = _live(DATASETS["tiny"])
    for n in range(planner.PLAN_CAP + 40):
        # A fresh alias is a fresh shape.
        query = SPJQuery(
            tables=(TableRef("A", f"a{n}"),), select=(Col("g"),),
            select_names=("g",),
            where=Cmp(CmpOp.EQ, Col(f"a{n}.id"), Const(3)))
        assert evaluate(query, db) == [(1,)]
    assert len(db.plans) == planner.PLAN_CAP
    # Oldest out first: the newest shape is still a hit.
    newest = list(db.plans.values())[-1]
    evaluate(query, db)
    assert list(db.plans.values())[-1] is newest


def test_scripts_of_one_template_share_one_plan_per_select():
    client = repro.connect()
    client.create_table(SCHEMAS["A"])
    client.load("A", DATASETS["full"]["A"])
    session = client.session("s")
    for key in range(12):
        handle = session.run_script(
            f"BEGIN TRANSACTION; SELECT v AS @v FROM A WHERE id = {key}; "
            f"SELECT id AS @i FROM A WHERE g = @v AND v = {key % 2} LIMIT 1; "
            "COMMIT;")
        handle.wait()
        assert handle.succeeded
    assert len(client.store.db.plans) == 2
    client.close()


def test_threads_sharing_one_template_agree_with_the_reference():
    """Four threads, a switch interval short enough to interleave them
    inside ``build_plan``, one shared shape with per-call literals: every
    answer equals the reference's and one plan is left."""
    db, _close = _live(DATASETS["full"])
    template = SPJQuery(
        tables=(TableRef("B", "b"), TableRef("A", "a")),
        select=(Col("b.id"), Col("a.v")), select_names=("b", "v"),
        where=And(Cmp(CmpOp.EQ, Col("a.id"), Col("b.a_id")),
                  Cmp(CmpOp.GE, Col("b.w"), Const(0))),
        order_by=(("b.id", True),))
    cases = [
        remap(template, const=lambda v, k=k: k % 4) for k in range(200)]
    want = [reference.evaluate(query, db) for query in cases]
    wrong: list = []

    def worker(offset):
        for k in range(offset, len(cases), 4):
            got = evaluate(cases[k], db)
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
    assert len(db.plans) == 1
