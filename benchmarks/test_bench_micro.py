"""Micro-benchmarks of the performance-critical kernels.

These measure real host time (unlike the figure benchmarks, whose result
is virtual time): the coordinating-set search, entangled-query grounding
(a one-atom body on a bare database, and the Appendix D body through a
store's grounding hooks under 2PL and on a snapshot),
the SPJ evaluator's index paths and its planner (a cold plan against a
prepared-plan hit), a latch round trip against the bare primitive, the
lock manager, the SQL front end (a cold parse against a
prepared-statement hit), a table update that moves no index key, a
point probe through each storage engine's ``query``, a ``LIMIT``
range read — whose cost must follow the rows it returns, not the width
of its bounds or the history outside them — the pipeline above that
read's leaf, per returned row, and a snapshot primary-key probe beside
an empty and a populated history.
"""

import itertools
import threading
import timeit

import pytest

from repro.analysis import latch as latch_module
from repro.analysis.latch import Latch
from repro.entangled import (
    Atom,
    EntangledQuery,
    Val,
    Var,
    evaluate_batch,
    find_coordinating_set,
    ground,
)
from repro.entangled.grounding import Grounding
from repro.entangled.answers import GroundAtom
from repro.bench import make_travel_env
from repro.sql import parse_transaction
from repro.sql.ast import EntangledSelectStmt
from repro.sql.compiler import compile_entangled
from repro.storage import (
    And,
    Cmp,
    CmpOp,
    Col,
    ColumnType,
    Const,
    Database,
    LockManager,
    LockMode,
    ReadAccess,
    RowId,
    ShardedStorageEngine,
    SPJQuery,
    StorageEngine,
    TableRef,
    TableSchema,
    TxnIsolation,
    evaluate,
    index_key_resource,
    planner,
    table_resource,
)
from repro.workloads.payments import payment_schema
from repro.workloads.programs import entangled_program
from repro.workloads.socialnet import SocialNetwork
from repro.workloads.traveldb import TravelDatabase


def _pair_groundings(pairs: int, options: int):
    groundings = {}
    for pair in range(pairs):
        a, b = f"a{pair}", f"b{pair}"
        groundings[a] = [
            Grounding(a, (("i", i),),
                      (GroundAtom("R", (f"A{pair}", i)),),
                      (GroundAtom("R", (f"B{pair}", i)),))
            for i in range(options)
        ]
        groundings[b] = [
            Grounding(b, (("i", i),),
                      (GroundAtom("R", (f"B{pair}", i)),),
                      (GroundAtom("R", (f"A{pair}", i)),))
            for i in range(options)
        ]
    return groundings


@pytest.mark.benchmark(group="micro-matching")
def test_matching_100_pairs(benchmark):
    groundings = _pair_groundings(pairs=100, options=3)
    result = benchmark(find_coordinating_set, groundings)
    assert len(result.answered()) == 200


@pytest.mark.benchmark(group="micro-matching")
def test_matching_ring_of_10(benchmark):
    ring = {}
    k = 10
    for i in range(k):
        qid = f"m{i}"
        ring[qid] = [Grounding(
            qid, (("i", 0),),
            (GroundAtom("R", ("tok", i)),),
            (GroundAtom("R", ("tok", (i + 1) % k)),),
        )]
    result = benchmark(find_coordinating_set, ring)
    assert len(result.answered()) == k


def _flights_db(rows: int) -> Database:
    db = Database()
    db.create_table(TableSchema.build(
        "Flights",
        [("fno", ColumnType.INTEGER), ("fdate", ColumnType.TEXT),
         ("dest", ColumnType.TEXT)],
        primary_key=["fno"],
        indexes=[["dest"]],
    ))
    db.load("Flights", [
        (i, f"day{i % 30}", "LA" if i % 4 else "Paris") for i in range(rows)
    ])
    return db


@pytest.mark.benchmark(group="micro-grounding")
def test_grounding_indexed_1000_rows(benchmark):
    db = _flights_db(1_000)
    query = EntangledQuery(
        query_id="q",
        heads=(Atom("R", (Val("me"), Var("x"))),),
        postconditions=(Atom("R", (Val("you"), Var("x"))),),
        body_atoms=(Atom("Flights", (Var("x"), Var("y"), Val("Paris"))),),
    )
    groundings = benchmark(ground, query, db)
    assert len(groundings) == 250


@pytest.mark.benchmark(group="micro-grounding")
@pytest.mark.parametrize(
    "isolation", [TxnIsolation.TWO_PL, TxnIsolation.SNAPSHOT],
    ids=["2pl", "snapshot"])
def test_ground_travel_body(benchmark, isolation):
    """One ``ground()`` of the Appendix D body — Friends x User x User,
    every probe keyed by a constant — as the evaluation round runs it:
    the owner's provider and read observer from ``grounding_hooks``, a
    fresh pair of constants per call on one prepared plan."""
    env = make_travel_env(network=SocialNetwork(200, seed=7))
    store = env.client.store
    queries = itertools.cycle([
        compile_entangled(stmt, store.db, {}, f"q{uid}")
        for uid, friend in env.travel.same_hometown_pairs(16)
        for stmt in parse_transaction(
            entangled_program(uid, friend, "LAX", "JFK")).statements
        if isinstance(stmt, EntangledSelectStmt)
    ])
    txn = store.begin(isolation)
    observe, provider = store.grounding_hooks(txn)
    groundings = benchmark(lambda: ground(
        next(queries), provider or store.db, read_observer=observe))
    assert len(groundings) == 1
    store.abort(txn)
    env.client.close()


@pytest.mark.benchmark(group="micro-spj")
def test_spj_index_point_lookup(benchmark):
    db = _flights_db(5_000)
    plan = SPJQuery(
        tables=(TableRef("Flights"),),
        select=(Col("fdate"),),
        select_names=("fdate",),
        where=Cmp(CmpOp.EQ, Col("fno"), Const(4_321)),
    )
    rows = benchmark(evaluate, plan, db)
    assert len(rows) == 1


@pytest.mark.benchmark(group="micro-spj")
def test_spj_join_with_pushdown(benchmark):
    db = _flights_db(2_000)
    db.create_table(TableSchema.build(
        "Airlines",
        [("fno", ColumnType.INTEGER), ("airline", ColumnType.TEXT)],
        primary_key=["fno"],
    ))
    db.load("Airlines", [
        (i, "United" if i % 2 else "Delta") for i in range(2_000)
    ])
    plan = SPJQuery(
        tables=(TableRef("Flights", "F"), TableRef("Airlines", "A")),
        select=(Col("F.fno"),),
        select_names=("fno",),
        where=Cmp(CmpOp.EQ, Col("F.fno"), Col("A.fno")),
    )
    rows = benchmark(evaluate, plan, db)
    assert len(rows) == 2_000


def _social_join(uid: int) -> SPJQuery:
    """Social-T's friend lookup (Appendix D) as the compiler hands it to
    storage: Friends x User x User, the host variable inlined, LIMIT 1."""

    def eq(left, right):
        return Cmp(CmpOp.EQ, left, right)

    return SPJQuery(
        tables=(TableRef("Friends"), TableRef("User", "u1"), TableRef("User", "u2")),
        select=(Col("Friends.uid2"),),
        select_names=("uid2",),
        where=And(And(And(
            eq(Col("Friends.uid1"), Const(uid)),
            eq(Col("Friends.uid2"), Col("u2.uid"))),
            eq(Col("u1.uid"), Const(uid))),
            eq(Col("u1.hometown"), Col("u2.hometown"))),
        limit=1,
    )


def _social_planning():
    """``(cold, hit)``: plan the Social-T join for a fresh uid per call,
    into an emptied plan table and into one that knows the shape."""
    db = Database()
    TravelDatabase(SocialNetwork(100)).populate(db)
    tables = [db.table(name) for name in ("Friends", "User", "User")]
    queries = itertools.cycle([_social_join(uid) for uid in range(1, 65)])

    def cold():
        db.plans.clear()
        return planner.build_plan(
            next(queries), tables, {}, planner.DEFAULT_HINTS, db.plans)

    def hit():
        return planner.build_plan(
            next(queries), tables, {}, planner.DEFAULT_HINTS, db.plans)

    return db, cold, hit


@pytest.mark.benchmark(group="micro-spj")
def test_spj_plan_cold(benchmark):
    db, cold, _hit = _social_planning()
    benchmark(cold)
    assert len(db.plans) == 1


@pytest.mark.benchmark(group="micro-spj")
def test_spj_plan_prepared_hit(benchmark):
    """Same shape, fresh literal: fetch the prepared plan and bind this
    query's expressions to it.  As for the front end, the assertion is a
    ratio to the cold plan on this host, best of five."""
    db, cold, hit = _social_planning()
    cold()
    (plan,) = db.plans.values()
    benchmark(hit)
    assert list(db.plans.values()) == [plan]
    slow = min(timeit.repeat(cold, number=200, repeat=5))
    fast = min(timeit.repeat(hit, number=200, repeat=5))
    assert fast <= 0.6 * slow, f"prepared hit {fast / slow:.2f}x a cold plan"


def _latch_round_trips():
    """``(bare, latched)``: one uncontended ``with`` on an ``RLock`` and
    on a :class:`Latch` wrapping one."""
    bare, latch = threading.RLock(), Latch("lock-manager")

    def with_bare():
        with bare:
            pass

    def with_latch():
        with latch:
            pass

    return with_bare, with_latch


@pytest.mark.benchmark(group="micro-latch")
def test_latch_bare_rlock(benchmark):
    with_bare, _with_latch = _latch_round_trips()
    benchmark(with_bare)


@pytest.mark.benchmark(group="micro-latch")
def test_latch_with_witness_off(benchmark):
    """A latch in a process whose lock-order witness was never on costs
    one flag test each way on top of the primitive."""
    with_bare, with_latch = _latch_round_trips()
    benchmark(with_latch)
    if latch_module._witness.armed:
        pytest.skip("the witness is (or was) on in this process")
    bare = min(timeit.repeat(with_bare, number=20_000, repeat=5))
    latched = min(timeit.repeat(with_latch, number=20_000, repeat=5))
    assert latched <= 2 * bare, f"with Latch {latched / bare:.2f}x a bare RLock"


@pytest.mark.benchmark(group="micro-locks")
def test_lock_manager_churn(benchmark):
    def churn():
        lm = LockManager()
        for txn in range(200):
            lm.acquire(txn, ("table", f"T{txn % 10}"), LockMode.SHARED)
            lm.acquire(txn, ("table", f"U{txn % 7}"),
                       LockMode.INTENTION_EXCLUSIVE)
        for txn in range(200):
            lm.release_all(txn)
        return lm

    lm = benchmark(churn)
    assert lm.stats["acquired"] >= 200


@pytest.mark.benchmark(group="micro-locks")
def test_lock_manager_churn_1000_live(benchmark):
    """The batch-1000 transfer shape: every writer holds the same table
    IX plus its own row and index key, all 1000 stay live until the
    first commits, and the scheduler polls ``waiting`` per transaction."""
    table = table_resource("Accounts")

    def churn():
        lm = LockManager()
        for txn in range(1000):
            lm.acquire(txn, table, LockMode.INTENTION_EXCLUSIVE)
            lm.acquire(txn, RowId("Accounts", txn), LockMode.EXCLUSIVE)
            lm.acquire(
                txn,
                index_key_resource("Accounts", ("id",), (txn,)),
                LockMode.EXCLUSIVE,
            )
        for txn in range(1000):
            assert not lm.waiting(txn)
            lm.release_all(txn)
        return lm

    lm = benchmark(churn)
    assert lm.stats["acquired"] == 3000 and lm.stats["waits"] == 0
    assert not lm.held_resources(0)


def _transfer_script(read_id: int, write_id: int) -> str:
    """``benchmarks/e2e``'s transfer script: one shape, two literals."""
    return f"""
        BEGIN TRANSACTION;
        SELECT balance AS @b FROM Accounts WHERE id={read_id};
        UPDATE Accounts SET balance = balance + 1 WHERE id={write_id};
        INSERT INTO Transfers (account, amount) VALUES ({write_id}, 1);
        COMMIT;
    """


def _cold_parse(text: str):
    """A template-table miss: lex, derive the shape, run the parser."""
    from repro.sql import parse_transaction, parser

    parser._templates.clear()
    return parse_transaction(text)


@pytest.mark.benchmark(group="micro-frontend")
def test_frontend_cold_parse(benchmark):
    program = benchmark(_cold_parse, _transfer_script(17, 4000))
    assert len(program.template) == 3 and program.params == (17, 1, 4000, 4000, 1)


@pytest.mark.benchmark(group="micro-frontend")
def test_frontend_prepared_hit(benchmark):
    """Same shape, fresh literals: lex + shape key + one lookup.  The
    assertion is the ratio to a cold parse on this host, best of five —
    never an absolute time."""
    from repro.sql import parse_transaction

    scripts = itertools.cycle(
        [_transfer_script(i, 4095 - i) for i in range(64)])
    first = parse_transaction(next(scripts))

    def hit():
        return parse_transaction(next(scripts))

    program = benchmark(hit)
    assert program.template is first.template
    text = _transfer_script(17, 4000)
    cold = min(timeit.repeat(lambda: _cold_parse(text), number=200, repeat=5))
    parse_transaction(text)
    warm = min(timeit.repeat(hit, number=200, repeat=5))
    assert warm <= 0.4 * cold, f"prepared hit {warm / cold:.2f}x a cold parse"


@pytest.mark.benchmark(group="micro-frontend")
def test_bind_transfer_statements(benchmark):
    """Binding alone: the three statements of a cached transfer template
    compiled with one script's parameters.  The SELECT's resolution is
    memoised, so this is ``inline_hostvars`` over each statement plus the
    compiled records it fills."""
    from repro.sql.compiler import compile_insert, compile_select, compile_update

    db = Database("bind")
    db.create_table(_accounts_schema())
    db.create_table(TableSchema.build(
        "Transfers",
        [("account", ColumnType.INTEGER), ("amount", ColumnType.FLOAT)],
        indexes=[["account"]],
    ))
    program = parse_transaction(_transfer_script(17, 4000))
    select, update, insert = program.template
    params, env = program.params, {}

    def bind():
        return (compile_select(select, db, env, params),
                compile_update(update, db, env, params),
                compile_insert(insert, db, env, params))

    selected, updated, inserted = benchmark(bind)
    assert str(selected.query.where) == "(Accounts.id = ?0)"
    assert selected.values == {0: 17}
    assert str(updated.predicate) == "(id = 4000)"
    assert inserted.values == (4000, 1)


@pytest.mark.benchmark(group="micro-batch")
def test_evaluate_batch_20_queries(benchmark):
    db = _flights_db(500)
    queries = []
    for pair in range(10):
        for side, other in (("a", "b"), ("b", "a")):
            queries.append(EntangledQuery(
                query_id=f"{side}{pair}",
                heads=(Atom("R", (Val(f"{side}{pair}"), Var("x"))),),
                postconditions=(Atom("R", (Val(f"{other}{pair}"), Var("x"))),),
                body_atoms=(
                    Atom("Flights", (Var("x"), Var("y"), Val("Paris"))),
                ),
            ))
    result = benchmark(evaluate_batch, queries, db)
    assert len(result.answered_ids()) == 20


def _accounts_schema() -> TableSchema:
    """``benchmarks/e2e``'s Accounts table."""
    return TableSchema.build(
        "Accounts",
        [("id", ColumnType.INTEGER), ("owner", ColumnType.TEXT),
         ("balance", ColumnType.FLOAT)],
        primary_key=["id"],
    )


_ACCOUNTS = 4_096


@pytest.mark.benchmark(group="micro-table")
def test_table_update_unkeyed(benchmark):
    """``UPDATE Accounts SET balance = ... WHERE id = k`` as the table
    sees it: the row changes, none of its index keys does (unversioned,
    so the kernel is row + index maintenance and nothing accumulates)."""
    db = Database()
    table = db.create_table(_accounts_schema())
    db.load("Accounts", [(i, f"u{i}", 100.0) for i in range(_ACCOUNTS)])
    rids = itertools.cycle([row.rid for row in table.scan()][::61])

    def bump():
        rid = next(rids)
        ident, owner, balance = table.get(rid).values
        return table.update(
            rid, (ident, owner, balance + 1), validated=True, versioned=False)

    old, new = benchmark(bump)
    assert new.values[2] == old.values[2] + 1
    assert table.lookup_pk((new.values[0],)) == new


@pytest.mark.benchmark(group="micro-engine")
@pytest.mark.parametrize(
    "build", [StorageEngine, lambda: ShardedStorageEngine(2)],
    ids=["single", "sharded2"])
def test_engine_query_point_probe(benchmark, build):
    """A 2PL primary-key probe through ``query``: context, read path,
    plan binding, the lock requests (re-requests once the 64 keys have
    each been probed) and the observer events.  Both engines run one
    shared body; ``single`` is the guard that sharing it cost the
    single engine nothing."""
    store = build()
    store.create_table(_accounts_schema())
    store.load("Accounts", [(i, f"u{i}", 100.0) for i in range(_ACCOUNTS)])
    plans = itertools.cycle([
        SPJQuery(
            tables=(TableRef("Accounts"),),
            select=(Col("balance"),),
            select_names=("balance",),
            where=Cmp(CmpOp.EQ, Col("id"), Const(key)),
        )
        for key in range(0, _ACCOUNTS, 64)
    ])
    txn = store.begin()
    rows = benchmark(lambda: store.query(txn, next(plans)))
    assert rows == [(100.0,)]
    store.abort(txn)


def _accounts_engine() -> "tuple[StorageEngine, list[int]]":
    store = StorageEngine()
    store.vacuum_interval = 0
    store.create_table(_accounts_schema())
    store.load("Accounts", [(i, f"u{i}", 100.0) for i in range(_ACCOUNTS)])
    return store, [row.rid for row in store.db.table("Accounts").scan()][::61]


@pytest.mark.benchmark(group="micro-engine")
def test_engine_update_statement(benchmark):
    """One 2PL ``update`` by rid, first write of its transaction: locks,
    the versioned table update, WAL record, undo entry, observers —
    and nothing for SSI, whose write set is derived at commit."""
    store, rids = _accounts_engine()
    picks = itertools.cycle(rids)
    open_txns: list[int] = []

    def fresh():
        for txn in open_txns:
            store.abort(txn)
        open_txns[:] = [store.begin()]
        rid = next(picks)
        ident, owner, balance = store.db.table("Accounts").get(rid).values
        return (open_txns[0], "Accounts", rid, (ident, owner, balance + 1)), {}

    old, new = benchmark.pedantic(
        store.update, setup=fresh, rounds=3000, warmup_rounds=100)
    assert new.values[2] == old.values[2] + 1


@pytest.mark.benchmark(group="micro-engine")
@pytest.mark.parametrize("tracked", [False, True], ids=["alone", "ssi-tracked"])
def test_engine_commit_writer(benchmark, tracked):
    """Commit of a three-write 2PL transaction — where the statement
    path's SSI work went: the write set is derived from the undo log
    here, once.  ``ssi-tracked`` runs each commit against one open
    SERIALIZABLE reader that scanned the table, so validation sweeps
    the write set against a read set and forms an rw edge."""
    store, rids = _accounts_engine()
    picks = itertools.cycle(rids)
    readers: list[int] = []

    def writer():
        if tracked:
            for reader in readers:
                store.abort(reader)
            readers[:] = [store.begin(TxnIsolation.SERIALIZABLE)]
            store.observe_snapshot_read(readers[0], ReadAccess.scan("Accounts"))
        txn = store.begin()
        for _ in range(3):
            rid = next(picks)
            ident, owner, balance = store.db.table("Accounts").get(rid).values
            store.update(txn, "Accounts", rid, (ident, owner, balance + 1))
        return (txn,), {"flush": False}

    benchmark.pedantic(
        store.commit, setup=writer, rounds=3000, warmup_rounds=100)
    assert store.metrics()["ssi.rw_edges"] == (3100 if tracked else 0)


# -- LIMIT-k range reads: the cost is k ------------------------------------------------


def _ledger(rows: int) -> StorageEngine:
    """``rows`` ledger entries, one per tick of ``at``."""
    store = StorageEngine()
    store.vacuum_interval = 0
    store.create_table(TableSchema.build(
        "L", [("id", ColumnType.INTEGER), ("at", ColumnType.INTEGER)],
        primary_key=["id"], indexes=[["at"]],
    ))
    store.load("L", [(i, i) for i in range(rows)])
    return store


def _recent(lo: int, hi: int, limit: int = 50) -> SPJQuery:
    """``SELECT id FROM L WHERE at >= lo AND at <= hi ORDER BY at LIMIT k``."""
    return SPJQuery(
        tables=(TableRef("L"),), select=(Col("id"),), select_names=("id",),
        where=And(Cmp(CmpOp.GE, Col("at"), Const(lo)),
                  Cmp(CmpOp.LE, Col("at"), Const(hi))),
        order_by=(("at", False),), limit=limit,
    )


@pytest.mark.benchmark(group="micro-range")
@pytest.mark.parametrize("window", [250, 2500])
def test_snapshot_range_limit(benchmark, window):
    """50 rows of a ``window``-key range under SNAPSHOT: the versioned
    walk stops at the 50th visible row, so ten times the window costs
    the same (it resolved every key in the bounds before: ~10x)."""
    store = _ledger(10_000)
    query = _recent(1000, 1000 + window - 1)
    txn = store.begin(TxnIsolation.SNAPSHOT)
    rows = benchmark(lambda: store.query(txn, query))
    assert rows == [(i,) for i in range(1000, 1050)]
    store.abort(txn)


@pytest.mark.benchmark(group="micro-range")
@pytest.mark.parametrize("history", [0, 5000])
def test_snapshot_range_with_history(benchmark, history):
    """The 250-key window beside ``history`` deleted keys *outside* it,
    all still in the history buckets (an older snapshot pins them): the
    walk only merges the in-range slice of the ordered history."""
    store = _ledger(10_000)
    txn = store.begin(TxnIsolation.SNAPSHOT)
    table = store.db.table("L")
    purge = store.begin()
    for key in range(5000, 5000 + history):
        store.delete(purge, "L", table.pk_rid((key,)))
    store.commit(purge)
    assert len(table.history_rids()) == history
    query = _recent(1000, 1249)
    rows = benchmark(lambda: store.query(txn, query))
    assert rows == [(i,) for i in range(1000, 1050)]
    store.abort(txn)


@pytest.mark.benchmark(group="micro-range")
@pytest.mark.parametrize("history", [0, 1000])
def test_snapshot_pk_probe_with_history(benchmark, history):
    """A snapshot primary-key probe, hit and miss alternating, beside
    ``history`` historic rids under other keys.  A hit is answered by the
    current index; a miss must also ask the key's history posting — the
    ordered history tree, which answers an empty history without a
    descent and a populated one with a descent (a dict lookup before the
    trees answered point probes too)."""
    store = _ledger(10_000)
    txn = store.begin(TxnIsolation.SNAPSHOT)
    table = store.db.table("L")
    purge = store.begin()
    for key in range(5000, 5000 + history):
        store.delete(purge, "L", table.pk_rid((key,)))
    store.commit(purge)
    assert len(table.history_rids()) == history
    view = store.snapshot_provider(txn).table("L")
    keys = itertools.cycle(
        key for i in range(32) for key in ((1000 + i,), (20_000 + i,)))
    benchmark(lambda: view.lookup_pk(next(keys)))
    assert view.lookup_pk((1000,)).values == (1000, 1000)
    assert view.lookup_pk((20_000,)) is None
    # A purged key is still this snapshot's, through its history posting.
    assert view.lookup_pk((5000,)).values == (5000, 5000)
    store.abort(txn)


def test_snapshot_range_limit_cost_is_flat_in_the_window():
    """The two windows above against each other, on this host (measured
    1.0x; ~10x when the whole window was resolved)."""
    store = _ledger(10_000)
    txn = store.begin(TxnIsolation.SNAPSHOT)
    timings = {}
    for window in (250, 2500):
        query = _recent(1000, 1000 + window - 1)
        timings[window] = min(timeit.repeat(
            lambda: store.query(txn, query), number=20, repeat=5))
    assert timings[2500] <= 2 * timings[250], timings


class _FetchedOnce:
    """A table view whose ``range_scan`` answers from its first fetch, so
    that a statement through it times what happens *above* the leaf."""

    def __init__(self, view):
        self._view = view
        self._rows = None
        self.schema = view.schema

    def __getattr__(self, name):
        return getattr(self._view, name)

    def range_scan(self, *args, **options):
        if self._rows is None:
            self._rows = self._view.range_scan(*args, **options)
        return self._rows


@pytest.mark.benchmark(group="micro-range")
@pytest.mark.parametrize(
    "build", [StorageEngine, lambda: ShardedStorageEngine(2)],
    ids=["single", "sharded2"])
def test_engine_query_range_limit50(benchmark, build):
    """The payment ledger's time-window read — four columns of the first
    50 rows, ``ORDER BY at LIMIT 50`` — through ``query`` under SNAPSHOT,
    on one engine and on a 2-shard snapshot view, with the fetch itself
    cached: plan binding, the observer's batch of 50 row reports and the
    per-row pipeline from the leaf's rows to the output tuples.
    ``extra_info`` carries the mean in microseconds per returned row."""
    store = build()
    store.vacuum_interval = 0
    for schema in payment_schema():
        store.create_table(schema)
    store.load("Ledger", [
        (i, i % 64, (i + 1) % 64, float(i % 50), i * 0.01) for i in range(2000)])
    column = lambda name: Col(f"Ledger.{name}")  # noqa: E731
    query = SPJQuery(
        tables=(TableRef("Ledger"),),
        select=tuple(column(c) for c in ("entry", "src", "dst", "amount")),
        select_names=("entry", "src", "dst", "amount"),
        where=And(Cmp(CmpOp.GE, column("at"), Const(5.0)),
                  Cmp(CmpOp.LE, column("at"), Const(10.0))),
        order_by=(("Ledger.at", False),), limit=50,
    )
    txn = store.begin(TxnIsolation.SNAPSHOT)
    provider = store.snapshot_provider(txn)
    view = _FetchedOnce(provider.table("Ledger"))
    provider.table = lambda name: view
    store.snapshot_provider = lambda txn: provider
    rows = benchmark(lambda: store.query(txn, query))
    assert rows == [
        (i, i % 64, (i + 1) % 64, float(i % 50)) for i in range(500, 550)]
    benchmark.extra_info["us_per_row"] = round(
        benchmark.stats.stats.mean * 1e6 / len(rows), 3)
    store.abort(txn)


@pytest.mark.benchmark(group="micro-range")
def test_2pl_range_limit(benchmark):
    """ROADMAP probe 2 end to end — 250 keys in bounds, ``LIMIT 50``
    under 2PL, a fresh transaction per round so every lock is requested:
    101 requests (IS, 50 keys, 50 rows); 302 when every in-bounds key
    and the fence were locked before the first row was pulled."""
    store = _ledger(1000)
    query = _recent(100, 349)

    def probe():
        txn = store.begin()
        rows = store.query(txn, query)
        store.abort(txn)
        return rows

    assert benchmark(probe) == [(i,) for i in range(100, 150)]
