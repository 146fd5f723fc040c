"""What the pipeline above a leaf does per row: nothing the access path
already did.

Three rules, each pinned by counting (the style of
``test_read_lock_sets.py``) and by a differential:

* a conjunct the chosen access path guarantees — a range bound on the
  scanned column, an equality that keyed the probe — is not evaluated
  again; every other conjunct still is, and so is every conjunct whenever
  the guarantee cannot be proved (a NULL bound, a bound of a type the
  column does not order with, an open lower end over a nullable column);
* a row nothing above the leaf reads by name goes to its output tuple by
  position, without an environment dict;
* a range leaf reports its rows as one ``(table, rids, path)`` batch: no
  ``ReadAccess`` per row unless the observer locks each (2PL), and
  SERIALIZABLE still records one SIREAD item per row.

The differential runs the same statement with the proof switched off
(``_JoinLevel._unproved`` keeping every check): rows *and* observed
accesses must be identical, and the rows must equal what
``_reference_planner.py`` — which re-checks every conjunct on every
candidate — returns or raises.
"""

import inspect
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import parse_statement
from repro.sql.compiler import compile_select
from repro.storage import (
    ColumnType,
    Database,
    ReadAccess,
    RowId,
    ShardedStorageEngine,
    StorageEngine,
    TableSchema,
    TxnIsolation,
    evaluate,
)
from repro.storage import operators, planner
from repro.storage.sharding import build_storage_engine
from repro.storage.ssi import SSITracker
from repro.workloads.payments import payment_schema

import _reference_planner as reference
from _reference_bind import literal
from test_leaf_limit import ENGINES, close
from test_prepared_plans import outcome
from test_read_lock_sets import held, read

INT, FLOAT, TEXT = ColumnType.INTEGER, ColumnType.FLOAT, ColumnType.TEXT
SHARD_COUNTS = (1, 2)


# -- counting: the ledger's time-window read ---------------------------------------------

LEDGER_READ = (
    "SELECT entry, src, dst, amount FROM Ledger "
    "WHERE at >= 1.0 AND at <= 3.5 {extra} ORDER BY at LIMIT 50")
ENTRIES = 400


def ledger(shards):
    store = build_storage_engine(shards)
    for schema in payment_schema():
        store.create_table(schema)
    store.load("Accounts", [(i, f"acct{i}", 1000.0) for i in range(8)])
    # 251 entries inside the read's bounds, the first 50 of them returned.
    store.load("Ledger", [
        (i, i % 8, (i + 1) % 8, float(i % 11), i * 0.01) for i in range(ENTRIES)])
    return store


class Counts:
    """What one statement cost above the leaf."""

    def __init__(self, monkeypatch):
        #: every conjunct ``is_satisfied`` was asked about, as text.
        self.checked: list[str] = []
        self.envs = 0
        self.row_accesses = 0
        is_satisfied, row = operators.is_satisfied, ReadAccess.row

        def checking(conj, env):
            self.checked.append(str(conj))
            return is_satisfied(conj, env)

        def env(*args, **kwargs):
            self.envs += bool(args)        # a copy, not a keyword literal
            return dict(*args, **kwargs)

        def counted_row(table, rid):
            self.row_accesses += 1
            return row(table, rid)

        monkeypatch.setattr(operators, "is_satisfied", checking)
        # A module global shadows the builtin the operators call.
        monkeypatch.setattr(operators, "dict", env, raising=False)
        monkeypatch.setattr(ReadAccess, "row", counted_row)


@pytest.fixture
def counts(monkeypatch):
    return Counts(monkeypatch)


def held_rows(store, txn):
    return {r for r in held(store, txn) if isinstance(r, RowId)}


def siread_rows(store, txn):
    return {item for item in store.ssi._txns[txn].reads if isinstance(item, RowId)}


class TestTheLedgerRead:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_snapshot_rows_reach_the_client_untouched(self, shards, counts):
        store = ledger(shards)
        txn = store.begin(TxnIsolation.SNAPSHOT)
        before = store.metrics()["mvcc.snapshot_reads"]
        rows = read(store, txn, LEDGER_READ.format(extra=""))
        assert rows == [
            (i, i % 8, (i + 1) % 8, float(i % 11)) for i in range(100, 150)]
        assert counts.checked == []
        assert counts.envs == 1            # the Source's, once per statement
        assert counts.row_accesses == 0
        # Still counted: the consumed range and the 50 rows.
        assert store.metrics()["mvcc.snapshot_reads"] - before == 51

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_two_phase_locking_still_locks_the_fifty_rows(self, shards, counts):
        store = ledger(shards)
        txn = store.begin(TxnIsolation.TWO_PL)
        rows = read(store, txn, LEDGER_READ.format(extra=""))
        assert len(rows) == 50 and counts.checked == [] and counts.envs == 1
        rids = {store.db.table("Ledger").lookup_pk((entry,)).rid
                for entry, *_rest in rows}
        assert held_rows(store, txn) == {RowId("Ledger", rid) for rid in rids}

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_serializable_still_records_fifty_siread_rows(self, shards, counts):
        store = ledger(shards)
        txn = store.begin(TxnIsolation.SERIALIZABLE)
        rows = read(store, txn, LEDGER_READ.format(extra=""))
        assert len(rows) == 50 and counts.checked == []
        assert counts.row_accesses == 0
        assert len(siread_rows(store, txn)) == 50
        ranges = [i for i in store.ssi._txns[txn].reads
                  if not isinstance(i, RowId) and i[0] == "ixrange"]
        # The interval ends where the leaf stopped, not at the bound.
        assert [(r[3], r[4]) for r in ranges] == [((1.0,), (1.49,))]

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_an_untracked_snapshot_reader_is_asked_for_no_item(
        self, shards, monkeypatch
    ):
        """``record_read`` is still called with the batch, and leaves it
        unconsumed: the items are built only for a tracked reader."""
        store = ledger(shards)
        states = []
        record_read = SSITracker.record_read

        def recording(tracker, txn, items):
            record_read(tracker, txn, items)
            states.append(inspect.getgeneratorstate(items))

        monkeypatch.setattr(SSITracker, "record_read", recording)
        txn = store.begin(TxnIsolation.SNAPSHOT)
        assert len(read(store, txn, LEDGER_READ.format(extra=""))) == 50
        assert states == [inspect.GEN_CREATED]


class TestExactlyTheUnconsumedConjunctsRun:
    def test_a_residual_conjunct_runs_once_per_row_in_the_bounds(self, counts):
        store = ledger(1)
        txn = store.begin(TxnIsolation.SNAPSHOT)
        rows = read(store, txn, LEDGER_READ.format(extra="AND amount > 5"))
        assert len(rows) == 50
        # The limit stays above the leaf; the scan is pulled until the
        # 50th survivor, each row checked for ``amount`` and nothing else.
        assert set(counts.checked) == {"(Ledger.amount > 5)"}
        examined = next(
            n for n in range(ENTRIES)
            if sum(i % 11 > 5 for i in range(100, 100 + n)) == 50)
        assert len(counts.checked) == examined
        assert counts.envs == 1 + examined

    def test_a_bound_on_a_column_not_scanned_still_runs(self, counts):
        store = ledger(1)
        txn = store.begin(TxnIsolation.SNAPSHOT)
        # Two-sided ``at`` beats one-sided ``entry``: ``at`` is scanned.
        rows = read(store, txn, LEDGER_READ.format(extra="AND entry >= 120"))
        assert [row[0] for row in rows] == list(range(120, 170))
        assert set(counts.checked) == {"(Ledger.entry >= 120)"}
        assert len(counts.checked) == 70
        counts.checked.clear()
        # Unordered, both columns offer a range; the looser one lost.
        rows = read(
            store, txn,
            "SELECT entry FROM Ledger WHERE at >= 1.0 AND at <= 3.5 AND entry >= 120")
        assert sorted(row[0] for row in rows) == list(range(120, 351))
        assert counts.checked == ["(Ledger.entry >= 120)"] * 251

    def test_a_join_checks_what_neither_probe_proved(self, counts):
        store = ledger(1)
        txn = store.begin(TxnIsolation.SNAPSHOT)
        rows = read(
            store, txn,
            "SELECT l.entry, a.owner FROM Ledger AS l, Accounts AS a "
            "WHERE l.at >= 1.0 AND l.at < 1.2 AND a.id = l.src "
            "AND a.balance > l.amount")
        assert len(rows) == 20
        # ``at`` rode the range, ``a.id = l.src`` keyed the pk probe: one
        # conjunct is left, once per joined row.
        assert counts.checked == ["(a.balance > l.amount)"] * 20
        # The outer rows are environments (the inner level reads them by
        # name); the select spans both tables, so the inner rows are too.
        assert counts.envs == 1 + 20 + 20

    def test_a_point_probe_keeps_its_residual_equality(self, counts):
        store = ledger(1)
        txn = store.begin(TxnIsolation.SNAPSHOT)
        assert read(
            store, txn, "SELECT owner FROM Accounts WHERE id = 3 AND balance = 1000.0"
        ) == [("acct3",)]
        assert counts.checked == ["(Accounts.balance = 1000.0)"]
        counts.checked.clear()
        assert read(store, txn, "SELECT owner FROM Accounts WHERE id = 3") == [
            ("acct3",)]
        assert counts.checked == [] and counts.envs == 2 + 1

    def test_a_second_equality_on_the_probed_column_is_checked(self, counts):
        store = ledger(1)
        txn = store.begin(TxnIsolation.SNAPSHOT)
        assert read(
            store, txn, "SELECT owner FROM Accounts WHERE id = 3 AND id = 4") == []
        assert counts.checked == ["(Accounts.id = 4)"]


# -- when the proof fails, every check runs ----------------------------------------------

MIXED = TableSchema.build(
    "M",
    [("id", INT), ("grp", TEXT), ("amount", INT), ("note", INT, True),
     ("rate", FLOAT)],
    primary_key=["id"], indexes=[["grp"], ["amount"], ["note"], ["rate"]],
)
MIXED_ROWS = [
    (i, "abc"[i % 3], i % 7, None if i % 4 == 0 else i % 5, i / 2)
    for i in range(24)
]
#: more than one row (a lone row is scanned, never ranged), all of
#: ``amount`` 0 and ``rate`` below 1.
ZEROES = [(i, "a", 0, None, i / 100) for i in range(4)]


def mixed_db(rows=MIXED_ROWS):
    db = Database("mixed")
    db.create_table(MIXED)
    db.load("M", rows)
    return db


def plan_of(sql, db, params=None):
    return literal(compile_select(parse_statement(sql), db, params or {}))


class TestBoundsThatProveNothing:
    """``value_sort_key`` ranks a bool among the numbers and a string
    after them, so the tree takes any bound; ``comparable`` refuses to
    order them.  What the statement returns or raises is what the
    reference planner — range candidates, every conjunct re-checked —
    returns or raises, with rows inside the tree's idea of the range and
    without."""

    @pytest.mark.parametrize("rows", [MIXED_ROWS, ZEROES, []],
                             ids=["rows-in-range", "none-in-range", "empty"])
    @pytest.mark.parametrize("sql, params", [
        ("SELECT id FROM M WHERE amount >= TRUE", None),
        ("SELECT id FROM M WHERE amount >= TRUE ORDER BY amount LIMIT 2", None),
        ("SELECT id FROM M WHERE amount >= 'b'", None),
        ("SELECT id FROM M WHERE grp <= 3", None),
        ("SELECT id FROM M WHERE rate >= TRUE AND rate <= 4.0", None),
        ("SELECT id FROM M WHERE amount >= @n AND amount <= 4", {"@n": None}),
        ("SELECT id FROM M WHERE amount >= 2 AND amount <= @n ORDER BY amount",
         {"@n": None}),
        ("SELECT id FROM M WHERE amount >= 2 AND amount >= TRUE", None),
        ("SELECT id FROM M WHERE note <= 3 ORDER BY note LIMIT 3", None),
    ])
    def test_mismatched_null_and_bool_bounds_match_the_reference(
        self, sql, params, rows
    ):
        db = mixed_db(rows)
        plan = plan_of(sql, db, params)
        want = outcome(lambda: reference.evaluate(plan, db))
        assert outcome(lambda: evaluate(plan, db)) == want
        assert outcome(lambda: evaluate(plan, db)) == want    # the plan-cache hit

    def test_a_bool_bound_raises_for_the_first_row_that_comes_back(self):
        db = mixed_db()
        plan = plan_of("SELECT id FROM M WHERE amount >= TRUE", db)
        assert outcome(lambda: evaluate(plan, db)).__name__ == "TypeMismatchError"
        # No row at or above 1: nothing comes back, nothing raises.
        db = mixed_db(ZEROES)
        assert evaluate(plan_of("SELECT id FROM M WHERE amount >= TRUE", db), db) == []

    def test_an_open_low_end_over_a_nullable_column_keeps_its_check(self, counts):
        db = mixed_db()
        plan = plan_of("SELECT id FROM M WHERE note <= 1 ORDER BY note", db)
        rows = evaluate(plan, db)
        assert rows == [(i,) for i in (5, 10, 15, 1, 6, 11, 21)]
        # The NULL-keyed rows were fetched and refused by the check.
        assert len(counts.checked) == len(rows) + 6


# -- the differential: proof on, proof off, reference ------------------------------------

NUMBERS = st.one_of(
    st.integers(-1, 8), st.sampled_from([0.5, 2.0, 2.5, 6.5]))
OPS = st.sampled_from(["<", "<=", ">", ">="])


@st.composite
def statements(draw):
    """``(sql, params)`` over ``M``: bounds doubled and loosened on one
    column, int against float, NULLs through ``@n``, an open low end on
    the nullable ``note``, DESC, point probes with a residual equality,
    contradictory equalities, and joins whose inner bounds and keys come
    from the outer row."""
    column = draw(st.sampled_from(["id", "amount", "note", "rate"]))
    value = lambda: draw(st.one_of(NUMBERS, st.just("@n")))  # noqa: E731
    bound = lambda col: f"{col} {draw(OPS)} {value()}"  # noqa: E731
    kind = draw(st.sampled_from(
        ["range", "range", "point", "contradiction", "join", "join-probe"]))
    if kind == "range":
        conjuncts = [bound(column) for _ in range(draw(st.integers(1, 4)))]
        if draw(st.booleans()):
            conjuncts.append(bound(draw(st.sampled_from(["amount", "rate"]))))
        if draw(st.booleans()):
            conjuncts.append("grp <> 'b'")
        select, source = "id, amount", "M"
    elif kind == "point":
        conjuncts = [
            draw(st.sampled_from(["id = {}", "grp = 'a' AND amount = {}"]))
            .format(draw(st.integers(0, 8))),
            draw(st.sampled_from(["grp = 'a'", "rate = 2.0", "note = 1"]))]
        select, source = "id, grp", "M"
    elif kind == "contradiction":
        conjuncts = [f"amount = {draw(st.integers(0, 3))}",
                     f"amount = {draw(st.integers(0, 3))}"]
        select, source = "id", "M"
    else:
        select, source = "o.id, i.id", "M AS o, M AS i"
        conjuncts = [f"o.id >= {draw(st.integers(0, 20))}",
                     f"o.id < {draw(st.integers(0, 24))}"]
        if kind == "join":
            conjuncts += [f"i.amount {draw(OPS)} o.amount",
                          f"i.amount {draw(OPS)} o.note"]
        else:
            conjuncts += ["i.id = o.amount", "i.grp = o.grp"]
    conjuncts = draw(st.permutations(conjuncts))
    sql = f"SELECT {select} FROM {source} WHERE {' AND '.join(conjuncts)}"
    if kind == "range" and draw(st.booleans()):
        sql += f" ORDER BY {column}" + draw(st.sampled_from(["", " DESC"]))
    limit = draw(st.one_of(st.none(), st.integers(0, 6)))
    if limit is not None:
        sql += f" LIMIT {limit}"
    return sql, {"@n": draw(st.one_of(st.none(), st.integers(0, 5)))}


def unelided():
    """The plan with its proof switched off: every check runs."""
    return mock.patch.object(
        planner._JoinLevel, "_unproved", lambda self, proved: self.checks)


def snapshot(rows):
    """A snapshot the live table has since moved away from."""
    engine = StorageEngine()
    engine.create_table(MIXED)
    engine.load("M", rows)
    reader = engine.begin(TxnIsolation.SNAPSHOT)
    writer = engine.begin()
    for row in list(engine.db.table("M").scan())[::3]:
        engine.update(writer, "M", row.rid, (row.values[0], "b", 6, 2, 9.5))
    engine.insert(writer, "M", (99, "a", 3, None, 1.5))
    engine.commit(writer)
    return engine.snapshot_provider(reader)


def sharded(rows):
    store = ShardedStorageEngine(2)
    store.create_table(MIXED)
    store.load("M", rows)
    return store.db


@pytest.fixture(scope="module", params=[mixed_db, snapshot, sharded])
def provider(request):
    return request.param(MIXED_ROWS)


@settings(max_examples=250, deadline=None)
@given(case=statements())
def test_elided_plans_equal_the_unelided_plan_and_the_reference(provider, case):
    sql, params = case
    plan = plan_of(sql, provider, params)

    def run():
        seen = []
        return outcome(
            lambda: evaluate(plan, provider, read_observer=seen.append)), seen

    got, accesses = run()
    with unelided():
        want, their_accesses = run()
    assert got == want, sql
    assert accesses == their_accesses, sql
    assert got == outcome(lambda: reference.evaluate(plan, provider)), sql


@pytest.fixture(scope="module")
def stores():
    built = {}
    for kind, build in ENGINES.items():
        store = built[kind] = build()
        store.create_table(MIXED)
        store.load("M", MIXED_ROWS)
    yield built
    for store in built.values():
        close(store)


@settings(max_examples=40, deadline=None)
@given(case=statements(), isolation=st.sampled_from(list(TxnIsolation)))
def test_every_engine_and_isolation_agrees_with_its_unelided_plan(
    stores, case, isolation
):
    """Single engine, 2-shard pool, 2-shard process engine (whose
    coordinator plans in this process; its shards are the workers): the
    same statement in a transaction of each isolation returns what it
    returns with the proof switched off, and — without a LIMIT, which
    picks among equal keys by shard-dependent rid — the reference's rows."""
    sql, params = case

    def run(store):
        txn = store.begin(isolation)
        try:
            return outcome(
                lambda: store.query(txn, plan_of(sql, store.db, params)))
        finally:
            store.abort(txn)

    want = outcome(lambda: reference.evaluate(
        plan_of(sql, stores["single"].db, params), stores["single"].db))
    for kind, store in stores.items():
        got = run(store)
        with unelided():
            assert got == run(store), (kind, sql)
        if "LIMIT" not in sql:
            assert sorted(got, key=repr) == sorted(want, key=repr), (kind, sql)
