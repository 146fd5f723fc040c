"""Unit tests for schemas, tables, indexes and snapshots."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DuplicateKeyError,
    SchemaError,
    StorageError,
    TypeMismatchError,
    UnknownColumnError,
)
from repro.storage import Column, ColumnType, Table, TableSchema
from repro.storage.snapshot import SnapshotView


def users_schema(**overrides):
    kwargs = dict(
        name="User",
        columns=(
            Column("uid", ColumnType.INTEGER),
            Column("hometown", ColumnType.TEXT),
            Column("note", ColumnType.TEXT, nullable=True),
        ),
        primary_key=("uid",),
        indexes=(("hometown",),),
    )
    kwargs.update(overrides)
    return TableSchema(**kwargs)


class TestTableSchema:
    def test_column_lookup(self):
        schema = users_schema()
        assert schema.column("uid").type is ColumnType.INTEGER
        assert schema.column_index("hometown") == 1
        assert schema.has_column("note") and not schema.has_column("missing")

    def test_unknown_column(self):
        with pytest.raises(UnknownColumnError):
            users_schema().column("nope")

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(
                "T",
                (Column("a", ColumnType.INTEGER), Column("a", ColumnType.TEXT)),
            )

    def test_bad_primary_key_rejected(self):
        with pytest.raises(SchemaError):
            users_schema(primary_key=("ghost",))

    def test_bad_index_rejected(self):
        with pytest.raises(SchemaError):
            users_schema(indexes=(("ghost",),))

    def test_empty_table_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("T", ())

    def test_bad_names_rejected(self):
        with pytest.raises(SchemaError):
            Column("has space", ColumnType.TEXT)
        with pytest.raises(SchemaError):
            TableSchema("bad name", (Column("a", ColumnType.INTEGER),))

    def test_validate_row_coerces(self):
        row = users_schema().validate_row((1, "FAT", None))
        assert row == (1, "FAT", None)

    def test_validate_row_arity(self):
        with pytest.raises(SchemaError):
            users_schema().validate_row((1, "FAT"))

    def test_validate_row_not_null(self):
        with pytest.raises(TypeMismatchError):
            users_schema().validate_row((1, None, None))

    def test_key_extraction(self):
        schema = users_schema()
        assert schema.key_of((7, "FAT", None)) == (7,)

    def test_no_key_tables(self):
        schema = TableSchema("Heap", (Column("x", ColumnType.INTEGER),))
        assert schema.key_of((1,)) is None

    def test_row_dict(self):
        schema = users_schema()
        assert schema.row_dict((1, "FAT", None)) == {
            "uid": 1, "hometown": "FAT", "note": None,
        }

    def test_build_shorthand(self):
        schema = TableSchema.build(
            "T", [("a", ColumnType.INTEGER), ("b", ColumnType.TEXT, True)],
            primary_key=["a"],
        )
        assert schema.column("b").nullable


class TestTable:
    def make(self) -> Table:
        return Table(users_schema())

    def test_insert_and_get(self):
        table = self.make()
        row = table.insert((1, "FAT", None))
        assert table.get(row.rid).values == (1, "FAT", None)
        assert len(table) == 1

    def test_duplicate_pk(self):
        table = self.make()
        table.insert((1, "FAT", None))
        with pytest.raises(DuplicateKeyError):
            table.insert((1, "CAT", None))

    def test_pk_lookup(self):
        table = self.make()
        table.insert((1, "FAT", None))
        table.insert((2, "CAT", None))
        assert table.lookup_pk((2,)).values[1] == "CAT"
        assert table.lookup_pk((9,)) is None

    def test_secondary_index_lookup(self):
        table = self.make()
        for uid, town in [(1, "FAT"), (2, "CAT"), (3, "FAT")]:
            table.insert((uid, town, None))
        hits = table.lookup_index(["hometown"], ("FAT",))
        assert [r.values[0] for r in hits] == [1, 3]

    def test_unindexed_lookup_raises(self):
        # The planner probes declared indexes only: a probe no index
        # covers is an error on the live table and on a snapshot of it.
        table = self.make()
        table.insert((1, "FAT", "x"))
        message = "table 'User' declares no secondary index on ('note',)"
        for view in (table, SnapshotView(table, txn=1, read_ts=1)):
            with pytest.raises(StorageError, match=re.escape(message)):
                view.lookup_index(["note"], ("x",))

    def test_clear_empties_rows_and_indexes(self):
        table = self.make()
        for uid, town in [(1, "FAT"), (2, "CAT")]:
            table.insert((uid, town, None))
        table.clear()
        assert len(table) == 0
        assert table.lookup_pk((1,)) is None
        assert table.lookup_index(["hometown"], ("FAT",)) == []
        # rids are never reused: the counter survives the clear.
        assert table.insert((3, "FAT", None)).rid == 3

    def test_hash_index_clear(self):
        from repro.storage import HashIndex

        table = self.make()
        index = HashIndex(["hometown"], table.schema)
        index.add(1, (1, "FAT", None))
        index.add(2, (2, "CAT", None))
        assert len(index) == 2
        index.clear()
        assert len(index) == 0
        assert index.lookup(("FAT",)) == frozenset()

    def test_update_moves_indexes(self):
        table = self.make()
        row = table.insert((1, "FAT", None))
        table.update(row.rid, (1, "CAT", None))
        assert table.lookup_index(["hometown"], ("FAT",)) == []
        assert len(table.lookup_index(["hometown"], ("CAT",))) == 1

    def test_update_pk_change(self):
        table = self.make()
        row = table.insert((1, "FAT", None))
        table.update(row.rid, (5, "FAT", None))
        assert table.lookup_pk((1,)) is None
        assert table.lookup_pk((5,)).rid == row.rid

    def test_update_pk_collision(self):
        table = self.make()
        table.insert((1, "FAT", None))
        row2 = table.insert((2, "CAT", None))
        with pytest.raises(DuplicateKeyError):
            table.update(row2.rid, (1, "CAT", None))

    def test_delete(self):
        table = self.make()
        row = table.insert((1, "FAT", None))
        table.delete(row.rid)
        assert len(table) == 0
        assert table.lookup_pk((1,)) is None
        with pytest.raises(StorageError):
            table.get(row.rid)

    def test_rids_never_reused(self):
        table = self.make()
        first = table.insert((1, "FAT", None))
        table.delete(first.rid)
        second = table.insert((2, "CAT", None))
        assert second.rid > first.rid

    def test_insert_with_rid_rejects_live(self):
        table = self.make()
        row = table.insert((1, "FAT", None))
        with pytest.raises(StorageError):
            table.insert_with_rid(row.rid, (2, "CAT", None))

    def test_scan_deterministic_order(self):
        table = self.make()
        for uid in (3, 1, 2):
            table.insert((uid, "FAT", None))
        assert [r.values[0] for r in table.scan()] == [3, 1, 2]  # rid order

    def test_snapshot_restore_roundtrip(self):
        table = self.make()
        for uid in (1, 2, 3):
            table.insert((uid, "FAT", None))
        snap = table.snapshot()
        table.delete(1)
        table.insert((9, "CAT", None))
        table.restore(snap)
        assert sorted(r.values[0] for r in table.scan()) == [1, 2, 3]
        # Indexes rebuilt too.
        assert len(table.lookup_index(["hometown"], ("FAT",))) == 3


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.sampled_from(["A", "B", "C"])),
        max_size=40,
    )
)
def test_property_pk_index_consistency(operations):
    """After arbitrary inserts (dropping duplicates), the PK index agrees
    with a full scan and the secondary index partitions the rows."""
    table = Table(
        TableSchema.build(
            "T",
            [("k", ColumnType.INTEGER), ("v", ColumnType.TEXT)],
            primary_key=["k"],
            indexes=[["v"]],
        )
    )
    inserted = {}
    for key, value in operations:
        try:
            table.insert((key, value))
            inserted[key] = value
        except DuplicateKeyError:
            pass
    assert len(table) == len(inserted)
    for key, value in inserted.items():
        assert table.lookup_pk((key,)).values == (key, value)
    by_value = {}
    for row in table.scan():
        by_value.setdefault(row.values[1], set()).add(row.values[0])
    for value in ("A", "B", "C"):
        hits = {r.values[0] for r in table.lookup_index(["v"], (value,))}
        assert hits == by_value.get(value, set())
