"""Ordered-index range queries: equivalence, ORDER BY, planner counters.

The planner treats the B+ tree purely as a *candidate generator* — every
range conjunct stays in the residual filter — so an index-range access
path must return exactly what a filtered sequential scan returns, for
any data, any bounds, and any interleaved mutations, at 1/2/4 shards.
The hypothesis suites here pin that property; the directed tests cover
the SQL ``ORDER BY`` surface and the observability counters
(the ``plans.*`` metrics, ``RunReport``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import UnknownColumnError
from repro.storage import ColumnType, TableSchema, TxnIsolation
from repro.storage.expressions import Cmp, CmpOp, Col, Const, RowPredicate
from repro.storage.sharding import build_storage_engine

from _reference_bind import literal

SHARD_COUNTS = (1, 2, 4)

T_SCHEMA = dict(
    name="T",
    columns=[("id", ColumnType.INTEGER), ("grp", ColumnType.TEXT),
             ("amount", ColumnType.INTEGER)],
)

rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 40),                    # id (deduped below)
        st.sampled_from(["a", "b", "c"]),      # grp
        st.integers(-10, 10),                  # amount
    ),
    max_size=30,
)
mutations_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete"]),
        st.integers(41, 60),   # insert ids (disjoint from the load)
        st.integers(0, 60),    # delete target
    ),
    max_size=8,
)
bound_strategy = st.integers(-2, 62)


def dedupe(rows):
    seen, out = set(), []
    for rid, grp, amount in rows:
        if rid not in seen:
            seen.add(rid)
            out.append((rid, grp, amount))
    return out


def build_store(shards, rows, *, ordered):
    store = build_storage_engine(shards, ordered_indexes=ordered)
    store.create_table(TableSchema.build(
        T_SCHEMA["name"], T_SCHEMA["columns"],
        primary_key=["id"], indexes=[["grp"]],
    ))
    store.load("T", rows)
    return store


def apply_mutations(store, mutations):
    """Commit each mutation in its own transaction (tree maintenance)."""
    inserted = set()
    for op, insert_id, delete_id in mutations:
        txn = store.begin()
        if op == "insert" and insert_id not in inserted:
            store.insert(txn, "T", [insert_id, "m", insert_id % 7])
            inserted.add(insert_id)
        elif op == "delete":
            store.delete_where(txn, "T", RowPredicate(
                ("id", "grp", "amount"),
                Cmp(CmpOp.EQ, Col("id"), Const(delete_id))))
            if delete_id in inserted:
                inserted.discard(delete_id)
        store.commit(txn)


def run_sql(store, sql, isolation=TxnIsolation.TWO_PL):
    from repro.sql import parse_statement
    from repro.sql.compiler import compile_select

    compiled = compile_select(parse_statement(sql), store.db, {})
    txn = store.begin(isolation)
    try:
        return store.query(txn, literal(compiled))
    finally:
        store.abort(txn)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@settings(max_examples=20, deadline=None)
@given(rows=rows_strategy, mutations=mutations_strategy,
       lo=bound_strategy, hi=bound_strategy)
def test_range_query_equals_filtered_scan(shards, rows, mutations, lo, hi):
    """Identical loads + mutations, identical bounded query: the ordered
    store (index-range path) and the hash-only store (sequential scan)
    must return the same multiset, and both must equal the Python-side
    filter of the surviving rows."""
    rows = dedupe(rows)
    sql = f"SELECT id, amount FROM T WHERE id >= {lo} AND id < {hi}"
    results = {}
    for ordered in (True, False):
        store = build_store(shards, rows, ordered=ordered)
        apply_mutations(store, mutations)
        results[ordered] = sorted(run_sql(store, sql))
        if ordered:
            txn = store.begin()
            survivors = {
                row.values[0]: row.values for row in store.read_table(txn, "T")
            }
            store.abort(txn)
            expected = sorted(
                (values[0], values[2]) for values in survivors.values()
                if lo <= values[0] < hi
            )
            assert results[True] == expected
    assert results[True] == results[False]


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@settings(max_examples=15, deadline=None)
@given(rows=rows_strategy, key=st.integers(0, 60),
       grp=st.sampled_from(["a", "b", "c", "zz"]))
def test_point_queries_equal_across_arms(shards, rows, key, grp):
    rows = dedupe(rows)
    for sql in (
        f"SELECT grp, amount FROM T WHERE id = {key}",
        f"SELECT id FROM T WHERE grp = '{grp}' AND amount >= 0",
    ):
        with_tree = build_store(shards, rows, ordered=True)
        without = build_store(shards, rows, ordered=False)
        assert sorted(run_sql(with_tree, sql)) == sorted(run_sql(without, sql))


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@settings(max_examples=15, deadline=None)
@given(rows=rows_strategy, floor=st.integers(-10, 10),
       descending=st.booleans())
def test_order_by_is_sorted_and_complete(shards, rows, floor, descending):
    """ORDER BY through the SQL surface: the row multiset matches the
    unordered query and the sort keys are monotone, at every shard
    count (the coordinator merge must preserve key order)."""
    rows = dedupe(rows)
    store = build_store(shards, rows, ordered=True)
    direction = "DESC" if descending else "ASC"
    ordered_rows = run_sql(
        store,
        f"SELECT id, amount FROM T WHERE amount >= {floor} "
        f"ORDER BY id {direction}",
    )
    plain = run_sql(
        store, f"SELECT id, amount FROM T WHERE amount >= {floor}"
    )
    assert sorted(ordered_rows) == sorted(plain)
    ids = [row[0] for row in ordered_rows]
    assert ids == sorted(ids, reverse=descending)


class TestOrderBySQL:
    ROWS = [(i, "g" + str(i % 2), (i * 3) % 7) for i in range(10)]

    def client(self, shards=1):
        client = repro.connect(shards=shards)
        client.create_table(TableSchema.build(
            T_SCHEMA["name"], T_SCHEMA["columns"],
            primary_key=["id"], indexes=[["grp"]],
        ))
        client.load("T", self.ROWS)
        return client

    def test_order_by_multiple_keys(self):
        client = self.client()
        rows = client.query(
            "SELECT amount, id FROM T ORDER BY amount DESC, id ASC"
        )
        assert rows == sorted(rows, key=lambda r: (-r[0], r[1]))
        assert len(rows) == len(self.ROWS)

    def test_order_by_with_limit_takes_topmost(self):
        client = self.client()
        rows = client.query(
            "SELECT id FROM T WHERE id >= 2 AND id < 9 ORDER BY id DESC LIMIT 3"
        )
        assert rows == [(8,), (7,), (6,)]

    def test_order_by_qualified_name(self):
        client = self.client()
        rows = client.query(
            "SELECT t.id FROM T AS t WHERE t.id < 4 ORDER BY t.id DESC"
        )
        assert rows == [(3,), (2,), (1,), (0,)]

    def test_order_by_unknown_column_rejected(self):
        client = self.client()
        with pytest.raises(UnknownColumnError):
            client.query("SELECT id FROM T ORDER BY nonsense")
        with pytest.raises(UnknownColumnError):
            client.query("SELECT id FROM T AS t ORDER BY u.id")


class TestPlannerCounters:
    def build(self, shards=1):
        store = build_storage_engine(shards, ordered_indexes=True)
        store.create_table(TableSchema.build(
            T_SCHEMA["name"], T_SCHEMA["columns"],
            primary_key=["id"], indexes=[["grp"]],
        ))
        store.load("T", [(i, "g", i) for i in range(20)])
        return store

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_range_query_bumps_plan_stats(self, shards):
        store = self.build(shards)
        before = store.metrics()
        rows = run_sql(store, "SELECT id FROM T WHERE id >= 5 AND id < 12")
        assert sorted(rows) == [(i,) for i in range(5, 12)]
        after = store.metrics()
        assert after["plans.index_range_scans"] == (
            before["plans.index_range_scans"] + 1
        )
        assert after["plans.seq_scans_avoided"] == (
            before["plans.seq_scans_avoided"] + 1
        )

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_unindexed_equality_scans_and_never_probes(self, shards):
        # The planner probes declared indexes only (a probe no index
        # covers raises): an equality on ``amount``, which no index
        # covers, is a filtered scan, on live rows and on a snapshot.
        store = self.build(shards)
        sql = "SELECT id FROM T WHERE amount = 7 OR amount = 13"
        for isolation in (TxnIsolation.TWO_PL, TxnIsolation.SNAPSHOT):
            assert sorted(run_sql(store, sql, isolation)) == [(7,), (13,)]
            assert run_sql(
                store, "SELECT id FROM T WHERE amount = 99", isolation,
            ) == []

    def test_sort_elision_counts_ordered_output(self):
        store = self.build()
        before = store.metrics()["plans.sorts_elided"]
        rows = run_sql(
            store, "SELECT id FROM T WHERE id >= 3 AND id < 9 ORDER BY id"
        )
        assert rows == [(i,) for i in range(3, 9)]
        assert store.metrics()["plans.sorts_elided"] > before

    def test_run_report_carries_plan_deltas(self):
        client = repro.connect()
        client.create_table(TableSchema.build(
            T_SCHEMA["name"], T_SCHEMA["columns"],
            primary_key=["id"], indexes=[["grp"]],
        ))
        client.load("T", [(i, "g", i) for i in range(20)])
        session = client.session()
        handle = session.run_script(
            "BEGIN TRANSACTION; "
            "SELECT id AS @x FROM T WHERE id >= 5 AND id < 12; "
            "COMMIT;"
        )
        handle.wait()
        assert handle.succeeded
        report = client.run_reports[-1]
        assert report.index_range_scans >= 1
