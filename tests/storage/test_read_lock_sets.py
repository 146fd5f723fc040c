"""What a 2PL read locks: the most selective key, the rows it examined,
and each table's intent once.

The schema declares nested secondary indexes ``(a)`` then ``(a, b)`` —
the order the travel workload's ``Friends`` relation declares its own —
so a probe pinning both columns used to take the first, narrower one and
S-lock every row of the ``a`` group.  Pinned here:

* the probe locks one ``(a, b)`` key and only matching rows; an inserter
  of ``(a, b')`` is not blocked, an inserter of ``(a, b)`` still is;
* a point probe under ``LIMIT`` row-locks what the pipeline examined,
  not what the key holds: a writer to an unexamined row goes through, a
  writer to an examined one waits;
* a table's IS lock is requested once per transaction, and again after
  ``release_read_locks`` gave it up;
* (property) without a LIMIT the rows observed are a subset of what the
  per-execution reference planner observed, on the same accesses' keys.
"""

import pytest
from hypothesis import given, settings

from repro.sql import parse_statement
from repro.sql.compiler import compile_select
from repro.storage import (
    ColumnType,
    Database,
    LockMode,
    RowId,
    TableSchema,
    evaluate,
    index_key_resource,
    table_resource,
)
from repro.storage.engine import WouldBlock
from repro.storage.query import AccessKind
from repro.storage.sharding import build_storage_engine

import _reference_planner as reference
from _reference_bind import literal
from test_prepared_plans import DATASETS, _live, outcome, queries

INT = ColumnType.INTEGER
NESTED = TableSchema.build(
    "N", [("id", INT), ("a", INT), ("b", INT), ("note", INT, True)],
    primary_key=["id"], indexes=[["a"], ["a", "b"]],
)
SHARD_COUNTS = (1, 2)


def build(shards=1):
    store = build_storage_engine(shards)
    store.create_table(NESTED)
    # a = 1: twenty rows, b = 0..19;  a = 2: five rows sharing b = 7.
    store.load("N", [(i, 1, i, None) for i in range(20)]
               + [(100 + i, 2, 7, None) for i in range(5)])
    return store


def read(store, txn, sql):
    plan = literal(compile_select(parse_statement(sql), store.db, {}))
    return store.query(txn, plan)


def held(store, txn):
    """Every resource ``txn`` holds, across the shards of ``store``."""
    shards = getattr(store, "shards", [store])
    return set().union(*(s.locks.held_resources(txn) for s in shards))


def rid_of(store, pk):
    return store.db.table("N").lookup_pk((pk,)).rid


class TestMostSelectiveKey:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_both_columns_bound_lock_one_wide_key_and_matching_rows(self, shards):
        store = build(shards)
        txn = store.begin()
        assert read(store, txn, "SELECT id FROM N WHERE a = 1 AND b = 4") == [(4,)]
        assert held(store, txn) == {
            table_resource("N"),
            index_key_resource("N", ("a", "b"), (1, 4)),
            RowId("N", rid_of(store, 4)),
        }

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_only_the_inserter_of_the_probed_pair_blocks(self, shards):
        store = build(shards)
        reader = store.begin()
        read(store, reader, "SELECT id FROM N WHERE a = 1 AND b = 4")
        writer = store.begin()
        # Same ``a`` group, another ``b``: its (a) key is no longer S-locked.
        store.insert(writer, "N", [200, 1, 55, None])
        with pytest.raises(WouldBlock):
            store.insert(writer, "N", [201, 1, 4, None])

    def test_a_miss_still_guards_the_pair_it_probed(self):
        store = build()
        reader = store.begin()
        assert read(store, reader, "SELECT id FROM N WHERE a = 1 AND b = 77") == []
        writer = store.begin()
        with pytest.raises(WouldBlock):
            store.insert(writer, "N", [200, 1, 77, None])

    def test_one_column_bound_still_probes_the_narrow_key(self):
        store = build()
        txn = store.begin()
        assert len(read(store, txn, "SELECT id FROM N WHERE a = 2")) == 5
        assert index_key_resource("N", ("a",), (2,)) in held(store, txn)

    def test_predicate_writes_pick_the_same_key(self):
        store = build()
        writer = store.begin()
        candidates = store.lock_write_candidates(
            writer, "N", literal(compile_select(parse_statement(
                "SELECT id FROM N WHERE a = 1 AND b = 4"), store.db, {})).where)
        assert [row.values[0] for row in candidates] == [4]
        assert store.locks.holds(
            writer, index_key_resource("N", ("a", "b"), (1, 4)), LockMode.EXCLUSIVE)
        assert not store.locks.holds(writer, index_key_resource("N", ("a",), (1,)))


class TestRowsExamined:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_limit_one_over_a_twenty_row_key_locks_one_row(self, shards):
        store = build(shards)
        txn = store.begin()
        assert read(store, txn, "SELECT id FROM N WHERE a = 1 LIMIT 1") == [(0,)]
        rows = {r for r in held(store, txn) if isinstance(r, RowId)}
        assert rows == {RowId("N", rid_of(store, 0))}

    def test_a_residual_conjunct_locks_every_row_it_had_to_look_at(self):
        store = build()
        txn = store.begin()
        assert read(
            store, txn, "SELECT id FROM N WHERE a = 1 AND id >= 3 LIMIT 2"
        ) == [(3,), (4,)]
        rows = {r for r in held(store, txn) if isinstance(r, RowId)}
        assert rows == {RowId("N", rid_of(store, i)) for i in range(5)}

    def test_writers_wait_for_examined_rows_only(self):
        store = build()
        reader = store.begin()
        read(store, reader, "SELECT id FROM N WHERE a = 1 AND id >= 3 LIMIT 2")
        writer = store.begin()
        store.update(writer, "N", rid_of(store, 12), [12, 1, 12, 5])   # unexamined
        with pytest.raises(WouldBlock):
            store.update(writer, "N", rid_of(store, 2), [2, 1, 2, 5])  # examined, failed
        with pytest.raises(WouldBlock):
            store.update(writer, "N", rid_of(store, 4), [4, 1, 4, 5])  # examined, output

    def test_a_join_level_that_stops_pulling_stops_locking(self):
        store = build()
        txn = store.begin()
        # Outer: the five a = 2 rows; inner: the twenty-row a = 1 key,
        # of which LIMIT 1 examines one row.
        assert read(
            store, txn,
            "SELECT o.id, i.id FROM N AS o, N AS i "
            "WHERE o.a = 2 AND i.a = 1 LIMIT 1",
        ) == [(100, 0)]
        rows = {r for r in held(store, txn) if isinstance(r, RowId)}
        assert rows == {RowId("N", rid_of(store, 100)), RowId("N", rid_of(store, 0))}

    def test_a_materialising_sort_examines_the_whole_key(self):
        store = build()
        txn = store.begin()
        assert read(
            store, txn, "SELECT id FROM N WHERE a = 1 ORDER BY b DESC LIMIT 1"
        ) == [(19,)]
        assert sum(isinstance(r, RowId) for r in held(store, txn)) == 20


class TestIntentOnce:
    def requests(self, store, monkeypatch):
        """Record every (txn, resource, mode) the lock manager is asked
        for: each ``acquire``, and each item of an ``acquire_many`` as
        the manager pulls it (not the ones after a request that waits).
        A batch made inside an ``acquire`` is that one request."""
        asked = []
        acquire, acquire_many = store.locks.acquire, store.locks.acquire_many
        inside_acquire = []

        def recording(txn, resource, mode):
            asked.append((txn, resource, mode))
            inside_acquire.append(True)
            try:
                return acquire(txn, resource, mode)
            finally:
                inside_acquire.pop()

        def recording_many(txn, resources, mode):
            if inside_acquire:
                return acquire_many(txn, resources, mode)

            def pulled():
                for resource in resources:
                    asked.append((txn, resource, mode))
                    yield resource

            return acquire_many(txn, pulled(), mode)

        monkeypatch.setattr(store.locks, "acquire", recording)
        monkeypatch.setattr(store.locks, "acquire_many", recording_many)
        return asked

    def test_is_requested_once_per_table_per_transaction(self, monkeypatch):
        store = build()
        asked = self.requests(store, monkeypatch)
        txn = store.begin()
        read(store, txn, "SELECT id FROM N WHERE a = 2")
        read(store, txn, "SELECT id FROM N WHERE id = 3")
        intents = [r for r in asked if r[2] is LockMode.INTENTION_SHARED]
        assert intents == [(txn, table_resource("N"), LockMode.INTENTION_SHARED)]
        # 1 IS + (1 key + 5 rows) + (1 key + 1 row); before: an IS per access.
        assert len(asked) == 9
        other = store.begin()
        read(store, other, "SELECT id FROM N WHERE id = 3")
        assert len([r for r in asked if r[2] is LockMode.INTENTION_SHARED]) == 2

    def test_is_is_requested_again_after_an_early_release(self, monkeypatch):
        store = build()
        asked = self.requests(store, monkeypatch)
        txn = store.begin()
        read(store, txn, "SELECT id FROM N WHERE id = 3")
        store.release_read_locks(txn)
        assert not held(store, txn)
        read(store, txn, "SELECT id FROM N WHERE id = 4")
        assert store.locks.holds(txn, table_resource("N"), LockMode.INTENTION_SHARED)
        assert len([r for r in asked if r[2] is LockMode.INTENTION_SHARED]) == 2

    def test_a_refused_is_is_asked_for_again(self):
        store = build()
        scanner = store.begin()
        store.update_where(scanner, "N", lambda row: False, lambda row: row.values)
        reader = store.begin()                       # table X is held: IS waits
        with pytest.raises(WouldBlock):
            read(store, reader, "SELECT id FROM N WHERE id = 3")
        store.commit(scanner)
        assert read(store, reader, "SELECT id FROM N WHERE id = 3") == [(3,)]
        assert store.locks.holds(reader, table_resource("N"), LockMode.INTENTION_SHARED)


def accesses(run_evaluate, query, db, params):
    seen = []
    result = outcome(lambda: run_evaluate(query, db, params, read_observer=seen.append))
    return result, seen


@settings(max_examples=200, deadline=None)
@given(case=queries(limits=False))
def test_observed_rows_are_a_subset_of_the_references(case):
    """No LIMIT, so both pipelines run to the end: whatever row the
    prepared path observes (= locks) the reference observed too — the
    widest-index rule and waiting until a row is used only ever narrow
    the set — and both report the same non-row accesses or narrower
    keys on the same tables."""
    query, params = case
    db, _close = _live(DATASETS["full"])
    want, theirs = accesses(reference.evaluate, query, db, params)
    got, mine = accesses(evaluate, query, db, params)
    assert got == want
    rows = lambda seen: {  # noqa: E731
        (a.table, a.rid) for a in seen if a.kind is AccessKind.ROW}
    assert rows(mine) <= rows(theirs)
    scans = lambda seen: {  # noqa: E731
        a.table for a in seen if a.kind is AccessKind.TABLE_SCAN}
    assert scans(mine) <= scans(theirs)
    if isinstance(want, list):
        assert len(mine) <= len(theirs)


def test_nested_index_declaration_order_does_not_matter():
    """(a, b) before (a) or after: the wide key is probed either way."""
    for indexes in ([["a"], ["a", "b"]], [["a", "b"], ["a"]]):
        db = Database("order")
        db.create_table(TableSchema.build(
            "N", [("id", INT), ("a", INT), ("b", INT)], indexes=indexes))
        db.load("N", [(i, 1, i % 2) for i in range(6)])
        seen = []
        plan = literal(compile_select(parse_statement(
            "SELECT id FROM N WHERE b = 1 AND a = 1"), db, {}))
        assert evaluate(plan, db, read_observer=seen.append) == [(1,), (3,), (5,)]
        assert seen[0].index == ("a", "b") and seen[0].key == (1, 1)
        assert len(seen) == 4


# -- a LIMIT that reaches a range leaf locks the prefix, not the bounds -----------------

LEDGER = TableSchema.build(
    "L", [("id", INT), ("at", INT)], primary_key=["id"], indexes=[["at"]])


def requests_of(store, sql):
    """Lock-manager requests one 2PL statement makes, over every shard."""
    shards = getattr(store, "shards", [store])
    asked = lambda: sum(s.locks.stats["acquired"] for s in shards)  # noqa: E731
    txn = store.begin()
    before = asked()
    rows = read(store, txn, sql)
    return rows, asked() - before, held(store, txn)


class TestRangePrefix:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_the_roadmaps_probe_locks_what_it_returns(self, shards):
        """ROADMAP probe 2: 250 keys in bounds, LIMIT 50 — 302 requests
        (304 on two shards) when every in-bounds key was locked."""
        store = build_storage_engine(shards)
        store.create_table(LEDGER)
        store.load("L", [(i, i) for i in range(1000)])
        k = 50
        rows, requests, _held = requests_of(
            store,
            f"SELECT id FROM L WHERE at >= 100 AND at <= 349 ORDER BY at LIMIT {k}")
        assert rows == [(i,) for i in range(100, 150)]
        # Per shard: IS, its first k keys and (if it ran out) a fence;
        # then the k rows.
        assert requests <= shards * (k + 2) + k

    def test_limit_one_over_a_twenty_row_posting_locks_one_key_and_one_row(self):
        store = build()
        _rows, requests, locked = requests_of(
            store, "SELECT id FROM N WHERE a >= 1 ORDER BY a LIMIT 1")
        assert locked == {
            table_resource("N"),
            index_key_resource("N", ("a",), (1,)),
            RowId("N", rid_of(store, 0)),
        }
        assert requests == 3

    def test_a_descending_prefix_starts_at_the_fence(self):
        store = build()
        rows, _requests, locked = requests_of(
            store, "SELECT id FROM N WHERE id < 15 ORDER BY id DESC LIMIT 2")
        assert rows == [(14,), (13,)]
        keys = {r for r in locked if not isinstance(r, RowId)}
        assert keys == {table_resource("N")} | {
            index_key_resource("N", ("id",), (i,)) for i in (15, 14, 13)}

    @pytest.mark.parametrize("sql", [
        # A residual conjunct: rows past the second may yet be needed.
        "SELECT id FROM N WHERE id >= 0 AND id < 20 AND b <> 1 ORDER BY id LIMIT 2",
        # A sort the index cannot elide examines the whole range.
        "SELECT id FROM N WHERE id >= 0 AND id < 20 ORDER BY b DESC, id LIMIT 2",
    ])
    def test_without_the_leaf_limit_every_key_examined_is_locked(self, sql):
        store = build()
        _rows, _requests, locked = requests_of(store, sql)
        # ids 0..19 are in the bounds; 100, the next one up, is the fence.
        assert {
            index_key_resource("N", ("id",), (i,)) for i in (*range(20), 100)
        } <= locked
        assert sum(isinstance(r, RowId) for r in locked) == 20
