"""The LIMIT carried in the range leaf fetches less and returns the same.

When nothing above an ordered leaf can drop or reorder rows, the planner
hands the query's LIMIT to the leaf, which fetches (and, over the
process transport, ships) only that many rows per shard.  The property:
a LIMIT query returns exactly the first *k* rows of the same query
without its LIMIT — on a single engine, a 2-shard pool and a 2-shard
process engine, under every isolation level.  The hand cases pin when
the planner must **not** push, and what the observed range access
carries: the query's full bounds in ``lo``/``hi``, and beside them the
leaf's budget and direction (how far 2PL next-key-locks) and, once the
budget is spent, the key it stopped at (where the SIREAD interval ends).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import parse_statement
from repro.sql.compiler import compile_select
from repro.storage import ColumnType, ShardedStorageEngine, TableSchema, TxnIsolation
from repro.storage.query import AccessKind, evaluate
from repro.storage.sharding import build_storage_engine
from repro.transport.process import ProcessShardedStorageEngine

from _reference_bind import literal
from test_range_queries import bound_strategy, dedupe, rows_strategy

SCHEMA = TableSchema.build(
    "T",
    [("id", ColumnType.INTEGER), ("grp", ColumnType.TEXT),
     ("amount", ColumnType.INTEGER), ("note", ColumnType.INTEGER, True)],
    primary_key=["id"], indexes=[["grp"], ["amount"], ["note"]],
)
ENGINES = {
    "single": lambda: build_storage_engine(1),
    "pool": lambda: ShardedStorageEngine(2),
    "process": lambda: ProcessShardedStorageEngine(2),
}


def build(kind, rows):
    store = ENGINES[kind]()
    store.create_table(SCHEMA)
    store.load("T", rows)
    return store


def close(store):
    getattr(store, "close", lambda: None)()


def run(store, sql, isolation=TxnIsolation.TWO_PL):
    plan = literal(compile_select(parse_statement(sql), store.db, {}))
    txn = store.begin(isolation)
    try:
        return store.query(txn, plan)
    finally:
        store.abort(txn)


def observed(store, sql):
    """(rows, the accesses the evaluator reported) on the live tables."""
    plan = literal(compile_select(parse_statement(sql), store.db, {}))
    accesses = []
    return evaluate(plan, store.db, read_observer=accesses.append), accesses


def rows_observed(accesses):
    return sum(a.kind is AccessKind.ROW for a in accesses)


@settings(max_examples=12, deadline=None)
@given(
    rows=rows_strategy, lo=bound_strategy, hi=bound_strategy,
    k=st.integers(0, 12), descending=st.booleans(),
    column=st.sampled_from(["id", "amount"]),
    isolation=st.sampled_from(list(TxnIsolation)),
)
def test_limited_plan_returns_the_prefix_of_the_unlimited_plan(
    rows, lo, hi, k, descending, column, isolation
):
    rows = [(i, g, a, a) for i, g, a in dedupe(rows)]
    direction = "DESC" if descending else "ASC"
    # ``amount`` repeats, so its duplicates straddle shards; ordering the
    # output by id as well would hide the rid tie-break under test.
    for where in (
        f"WHERE {column} >= {lo} AND {column} < {hi}",
        f"WHERE {column} >= {lo}",
        "",
    ):
        for tail in (f"ORDER BY {column} {direction}", ""):
            sql = f"SELECT id, amount FROM T {where} {tail}"
            answers = {}
            for kind in ENGINES:
                store = build(kind, rows)
                try:
                    full = run(store, sql, isolation)
                    answers[kind] = run(store, f"{sql} LIMIT {k}", isolation)
                    assert answers[kind] == full[:k], (kind, sql)
                finally:
                    close(store)
            assert answers["pool"] == answers["process"], sql


ROWS = [(i, "g", i % 3, None if i < 3 else i) for i in range(12)]


@pytest.fixture(params=["single", "pool"])
def store(request):
    return build(request.param, ROWS)


class TestWhenTheLimitReachesTheLeaf:
    def test_bounded_ordered_range_fetches_only_k_rows_per_shard(self, store):
        rows, accesses = observed(
            store, "SELECT id FROM T WHERE id >= 2 AND id <= 9 ORDER BY id LIMIT 3")
        assert rows == [(2,), (3,), (4,)]
        assert rows_observed(accesses) <= 3 * store.n_shards
        # The range access itself keeps the query's bounds; how much of
        # them 2PL next-key-locks and SSI records as the SIREAD interval
        # travels beside, in ``limit``/``reverse`` and ``stop``.
        (access,) = [a for a in accesses if a.kind is AccessKind.INDEX_RANGE]
        assert (access.lo, access.hi) == ((2,), (9,))

    def test_reverse_scan_takes_the_topmost(self, store):
        rows, accesses = observed(
            store, "SELECT id FROM T WHERE id < 9 ORDER BY id DESC LIMIT 2")
        assert rows == [(8,), (7,)]
        assert rows_observed(accesses) <= 2 * store.n_shards

    def test_duplicate_keys_across_shards_break_ties_by_rid(self, store):
        full = run(store, "SELECT id, amount FROM T WHERE amount >= 1 ORDER BY amount")
        for k in range(len(full) + 1):
            assert run(
                store,
                f"SELECT id, amount FROM T WHERE amount >= 1 ORDER BY amount LIMIT {k}",
            ) == full[:k]

    def test_unordered_limit_rides_the_chosen_range(self, store):
        rows, accesses = observed(
            store, "SELECT id FROM T WHERE id >= 4 AND id < 10 LIMIT 2")
        assert rows == [(4,), (5,)]
        assert rows_observed(accesses) <= 2 * store.n_shards

    def test_limit_zero_and_limit_past_the_range(self, store):
        sql = "SELECT id FROM T WHERE id >= 8 ORDER BY id"
        assert run(store, f"{sql} LIMIT 0") == []
        assert run(store, f"{sql} LIMIT 50") == [(8,), (9,), (10,), (11,)]


class TestWhenItMustNot:
    def test_residual_conjunct_keeps_the_whole_range(self, store):
        rows, accesses = observed(
            store,
            "SELECT id FROM T WHERE id >= 0 AND id < 12 AND amount <> 1 "
            "ORDER BY id LIMIT 2")
        assert rows == [(0,), (2,)]
        assert rows_observed(accesses) == 12

    def test_null_bound_keeps_the_whole_range(self, store):
        plan = literal(compile_select(parse_statement(
            "SELECT id FROM T WHERE id >= 0 AND id < @top ORDER BY id LIMIT 2"
        ), store.db, {"@top": None}))
        accesses = []
        assert evaluate(plan, store.db, read_observer=accesses.append) == []
        assert rows_observed(accesses) == 12

    def test_open_low_end_of_a_nullable_column_keeps_the_whole_range(self, store):
        # NULL keys sort first and fail ``note < 9``: a leaf limit would
        # spend itself on them.
        rows, accesses = observed(
            store, "SELECT id FROM T WHERE note < 9 ORDER BY note LIMIT 2")
        assert rows == [(3,), (4,)]
        assert rows_observed(accesses) == 9

    def test_distinct_and_materialized_sorts_keep_the_whole_range(self, store):
        for sql, expect in (
            ("SELECT DISTINCT amount FROM T WHERE id >= 0 ORDER BY id LIMIT 2",
             [(0,), (1,)]),
            ("SELECT id FROM T WHERE id >= 0 ORDER BY amount, id LIMIT 2",
             [(0,), (3,)]),
        ):
            rows, accesses = observed(store, sql)
            assert rows == expect
            assert rows_observed(accesses) == 12


class TestCostingARange:
    """Choosing the range path must not itself read the table: the
    planner costs it from an O(1) row estimate, never from a visibility
    scan of the snapshot (``len(view)``)."""

    def version_reads(self, monkeypatch):
        from repro.storage.table import Table
        calls = []
        read = Table.version_read

        def counting(table, rid, txn, read_ts):
            calls.append(rid)
            return read(table, rid, txn, read_ts)

        monkeypatch.setattr(Table, "version_read", counting)
        return calls

    @pytest.mark.parametrize("sql, returned", [
        ("SELECT id FROM T WHERE id >= 100 AND id <= 109", 10),
        ("SELECT id FROM T WHERE id >= 100 AND id <= 349 LIMIT 50", 50),
    ])
    @pytest.mark.parametrize("kind", ["single", "pool"])
    def test_an_unordered_range_resolves_only_what_it_returns(
        self, kind, sql, returned, monkeypatch
    ):
        store = build(kind, [(i, "g", i, i) for i in range(1000)])
        calls = self.version_reads(monkeypatch)
        assert len(run(store, sql, TxnIsolation.SNAPSHOT)) == returned
        # No history in the bounds, so nothing is rejected: one version
        # per row a shard hands over (each ships at most the limit).
        assert len(calls) <= returned * store.n_shards
