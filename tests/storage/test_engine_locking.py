"""Fine-grained locking at the storage engine: disjoint rows coexist,
phantoms stay impossible.

These are the acceptance tests for the multigranularity refactor: point
and keyed reads lock index keys + rows (IS at the table granule) instead
of the whole table, writers take IX + row X + key IX, and the conflicts
that remain are exactly the ones isolation needs.
"""

import pytest

from repro.storage import (
    Cmp,
    CmpOp,
    Col,
    ColumnType,
    Const,
    LockGranularity,
    LockMode,
    SPJQuery,
    StorageEngine,
    TableRef,
    TableSchema,
    WouldBlock,
    table_resource,
)


def build_store(granularity=LockGranularity.FINE) -> StorageEngine:
    store = StorageEngine(granularity=granularity)
    store.create_table(TableSchema.build(
        "Accounts",
        [("id", ColumnType.INTEGER), ("owner", ColumnType.TEXT),
         ("balance", ColumnType.FLOAT)],
        primary_key=["id"],
        indexes=[["owner"]],
    ))
    store.load(
        "Accounts",
        [(i, f"u{i % 4}", 100.0) for i in range(1, 9)],
    )
    return store


def point_select(key: int) -> SPJQuery:
    return SPJQuery(
        tables=(TableRef("Accounts"),),
        select=(Col("balance"),),
        select_names=("balance",),
        where=Cmp(CmpOp.EQ, Col("id"), Const(key)),
    )


def owner_select(owner: str) -> SPJQuery:
    return SPJQuery(
        tables=(TableRef("Accounts"),),
        select=(Col("id"),),
        select_names=("id",),
        where=Cmp(CmpOp.EQ, Col("owner"), Const(owner)),
    )


def full_scan() -> SPJQuery:
    return SPJQuery(
        tables=(TableRef("Accounts"),),
        select=(Col("id"),),
        select_names=("id",),
    )


class TestDisjointRowsCoexist:
    def test_reader_and_writer_of_different_rows(self):
        store = build_store()
        t1, t2 = store.begin(), store.begin()
        assert store.query(t1, point_select(1)) == [(100.0,)]
        store.update(t2, "Accounts", 2, [2, "u2", 50.0])  # no WouldBlock
        store.commit(t1)
        store.commit(t2)

    def test_two_point_readers_and_two_row_writers(self):
        store = build_store()
        txns = [store.begin() for _ in range(4)]
        store.query(txns[0], point_select(1))
        store.query(txns[1], point_select(2))
        store.update(txns[2], "Accounts", 3, [3, "u3", 1.0])
        store.update(txns[3], "Accounts", 4, [4, "u0", 2.0])
        assert store.metrics()["locks.waits"] == 0
        for t in txns:
            store.commit(t)

    def test_point_read_takes_is_not_s_on_table(self):
        store = build_store()
        t1 = store.begin()
        store.query(t1, point_select(1))
        assert store.locks.holds(
            t1, table_resource("Accounts"), LockMode.INTENTION_SHARED
        )
        assert not store.locks.holds(
            t1, table_resource("Accounts"), LockMode.SHARED
        )

    def test_inserts_into_read_table_do_not_block_point_readers(self):
        store = build_store()
        t1, t2 = store.begin(), store.begin()
        store.query(t1, point_select(1))
        store.insert(t2, "Accounts", [100, "u100", 0.0])  # different key
        store.commit(t1)
        store.commit(t2)

    def test_same_row_still_conflicts(self):
        store = build_store()
        t1, t2 = store.begin(), store.begin()
        store.query(t1, point_select(1))
        with pytest.raises(WouldBlock):
            store.update(t2, "Accounts", 1, [1, "u1", 0.0])


class TestPhantomProtection:
    def test_insert_conflicts_with_overlapping_key_reader(self):
        store = build_store()
        t1, t2 = store.begin(), store.begin()
        store.query(t1, owner_select("u1"))  # S on index key ("owner",)=("u1",)
        with pytest.raises(WouldBlock):
            store.insert(t2, "Accounts", [100, "u1", 0.0])

    def test_insert_with_different_key_proceeds(self):
        store = build_store()
        t1, t2 = store.begin(), store.begin()
        store.query(t1, owner_select("u1"))
        store.insert(t2, "Accounts", [100, "u99", 0.0])  # disjoint key

    def test_negative_pk_read_is_repeatable(self):
        store = build_store()
        t1, t2 = store.begin(), store.begin()
        assert store.query(t1, point_select(999)) == []
        with pytest.raises(WouldBlock):
            store.insert(t2, "Accounts", [999, "u999", 0.0])

    def test_insert_conflicts_with_scan_reader(self):
        store = build_store()
        t1, t2 = store.begin(), store.begin()
        store.query(t1, full_scan())  # true fallback: table S
        with pytest.raises(WouldBlock):
            store.insert(t2, "Accounts", [100, "u100", 0.0])

    def test_update_gaining_a_read_key_conflicts(self):
        store = build_store()
        t1, t2 = store.begin(), store.begin()
        store.query(t1, owner_select("u1"))
        # Moving row 4 (owner u0) *into* the u1 key is an insert from the
        # reader's perspective.
        with pytest.raises(WouldBlock):
            store.update(t2, "Accounts", 4, [4, "u1", 2.0])

    def test_update_not_touching_read_key_proceeds(self):
        store = build_store()
        t1, t2 = store.begin(), store.begin()
        store.query(t1, owner_select("u1"))
        store.update(t2, "Accounts", 4, [4, "u0", 2.0])  # stays in u0

    def test_delete_conflicts_with_key_reader(self):
        # A reader who probed owner=u1 must not observe an uncommitted
        # delete vacating that key (repeatable negative/membership reads).
        store = build_store()
        t1, t2 = store.begin(), store.begin()
        store.query(t1, owner_select("u1"))
        with pytest.raises(WouldBlock):
            store.delete(t2, "Accounts", 1)  # row 1 carries owner=u1

    def test_key_reader_blocks_on_uncommitted_key_vacating_update(self):
        # T1 moves row 1 out of owner=u1 (uncommitted).  T2's probe of u1
        # must block rather than observe the vacated key.
        store = build_store()
        t1, t2 = store.begin(), store.begin()
        store.update(t1, "Accounts", 1, [1, "u9", 100.0])
        with pytest.raises(WouldBlock):
            store.query(t2, owner_select("u1"))

    def test_key_reader_blocks_on_uncommitted_delete(self):
        store = build_store()
        t1, t2 = store.begin(), store.begin()
        store.delete(t1, "Accounts", 1)
        with pytest.raises(WouldBlock):
            store.query(t2, owner_select("u1"))
        store.abort(t1)
        # After the abort undoes the delete, the read proceeds and sees
        # the restored row.
        rows = store.query(t2, owner_select("u1"))
        assert (1,) in rows

    def test_update_between_null_and_value_in_indexed_column(self):
        # Key tuples may mix NULL with values; the vacated/gained key set
        # must still lock (and sort) cleanly.
        store = StorageEngine()
        store.create_table(TableSchema.build(
            "Tagged",
            [("id", ColumnType.INTEGER), ("tag", ColumnType.TEXT, True)],
            primary_key=["id"],
            indexes=[["tag"]],
        ))
        store.load("Tagged", [(1, None), (2, "x")])
        t = store.begin()
        store.update(t, "Tagged", 1, [1, "x"])   # NULL -> value
        store.update(t, "Tagged", 2, [2, None])  # value -> NULL
        store.commit(t)
        t2 = store.begin()
        rows = store.query(t2, SPJQuery(
            tables=(TableRef("Tagged"),),
            select=(Col("id"),),
            select_names=("id",),
            where=Cmp(CmpOp.EQ, Col("tag"), Const("x")),
        ))
        assert rows == [(1,)]

    def test_same_key_inserters_do_not_conflict(self):
        # Insert intention: two inserts of the same non-unique key are
        # compatible (neither read anything).
        store = build_store()
        t1, t2 = store.begin(), store.begin()
        store.insert(t1, "Accounts", [101, "u7", 0.0])
        store.insert(t2, "Accounts", [102, "u7", 0.0])
        store.commit(t1)
        store.commit(t2)


class TestPredicateWritePushdown:
    def test_pk_update_does_not_lock_table_exclusively(self):
        store = build_store()
        t1, t2 = store.begin(), store.begin()
        where = Cmp(CmpOp.EQ, Col("id"), Const(1))
        schema = store.db.table("Accounts").schema
        idx = schema.column_index("id")
        changed = store.update_where(
            t1, "Accounts",
            lambda row: row.values[idx] == 1,
            lambda row: [1, "u1", 0.0],
            where=where,
        )
        assert [new.values for _old, new in changed] == [(1, "u1", 0.0)]
        # A disjoint-row reader is not blocked: no table X was taken.
        assert store.query(t2, point_select(2)) == [(100.0,)]

    def test_unindexed_predicate_falls_back_to_table_x(self):
        store = build_store()
        t1, t2 = store.begin(), store.begin()
        where = Cmp(CmpOp.GT, Col("balance"), Const(0.0))
        schema = store.db.table("Accounts").schema
        idx = schema.column_index("balance")
        store.update_where(
            t1, "Accounts",
            lambda row: row.values[idx] > 0,
            lambda row: list(row.values),
            where=where,
        )
        assert store.locks.holds(
            t1, table_resource("Accounts"), LockMode.EXCLUSIVE
        )
        with pytest.raises(WouldBlock):
            store.query(t2, point_select(1))

    def test_candidate_rows_are_locked_before_predicate_runs(self):
        # T1 holds an uncommitted balance update on row 1 (row X, no key
        # change).  T2's keyed predicate-write over owner=u1 must block on
        # that row rather than decide its predicate on dirty values.
        store = build_store()
        t1, t2 = store.begin(), store.begin()
        store.update(t1, "Accounts", 1, [1, "u1", 0.0])  # uncommitted
        where = Cmp(CmpOp.EQ, Col("owner"), Const("u1"))
        schema = store.db.table("Accounts").schema
        bal = schema.column_index("balance")
        with pytest.raises(WouldBlock):
            store.delete_where(
                t2, "Accounts",
                lambda row: row.values[bal] > 50.0,
                where=where,
            )

    def test_keyed_delete_blocks_same_key_insert(self):
        store = build_store()
        t1, t2 = store.begin(), store.begin()
        where = Cmp(CmpOp.EQ, Col("owner"), Const("u1"))
        schema = store.db.table("Accounts").schema
        idx = schema.column_index("owner")
        store.delete_where(
            t1, "Accounts",
            lambda row: row.values[idx] == "u1",
            where=where,
        )
        # The pinned key X keeps the deleted set stable.
        with pytest.raises(WouldBlock):
            store.insert(t2, "Accounts", [100, "u1", 0.0])


class TestTableGranularityBaseline:
    def test_point_reader_blocks_writer_under_table_locks(self):
        store = build_store(LockGranularity.TABLE)
        t1, t2 = store.begin(), store.begin()
        store.query(t1, point_select(1))
        assert store.locks.holds(
            t1, table_resource("Accounts"), LockMode.SHARED
        )
        with pytest.raises(WouldBlock):
            store.update(t2, "Accounts", 2, [2, "u2", 0.0])

    def test_crash_preserves_granularity(self):
        store = build_store(LockGranularity.TABLE)
        assert store.crash().granularity is LockGranularity.TABLE


class TestLooseReads:
    def test_release_read_locks_frees_is_and_key_locks(self):
        store = build_store()
        t1, t2 = store.begin(), store.begin()
        store.query(t1, owner_select("u1"))
        store.release_read_locks(t1)
        # Reader gave up its key S and table IS: the insert proceeds.
        store.insert(t2, "Accounts", [100, "u1", 0.0])
        assert store.locks.held_resources(t1) == frozenset()
