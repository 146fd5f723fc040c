"""Bulk loads through the store contract.

``Client.load`` runs one system transaction per call on every topology:
the single engine, two in-process shards, two worker processes, and two
shards with two followers each.  A load is all or none: one that fails
part-way leaves neither rows nor locks behind, and never keeps a
checkpoint from being taken.  It is the same data as the same rows sent
as INSERT statements — per shard the same rows, rids, index contents and
WAL records, live, after recovery and on every follower — for one lock
request per table per shard it touches, while what concurrent readers
see is what a table X lock and a per-row write set promise.
"""

from __future__ import annotations

import pytest

from repro import connect
from repro.errors import DuplicateKeyError
from repro.replication import ReplicatedStorageEngine
from repro.storage import (
    Cmp,
    CmpOp,
    Col,
    ColumnType,
    Const,
    ShardedStorageEngine,
    SPJQuery,
    StorageEngine,
    TableRef,
    TableSchema,
    TxnIsolation,
    WouldBlock,
)
from repro.transport.process import ProcessShardedStorageEngine

TOPOLOGIES = {
    "single": {},
    "shards2-pool": {"shards": 2, "executor": "pool"},
    "shards2-process": {"shards": 2, "executor": "process"},
    # Pinned: replicas do not combine with worker processes, which a
    # REPRO_EXECUTOR=process run would otherwise pick.
    "shards2-replicas2": {"shards": 2, "replicas": 2, "executor": "pool"},
}


def schema() -> TableSchema:
    return TableSchema.build(
        "T",
        [("id", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
        primary_key=["id"],
        indexes=[["v"]],
    )


def open_client(topology: str):
    client = connect(**TOPOLOGIES[topology])
    client.create_table(schema())
    return client


@pytest.fixture(params=list(TOPOLOGIES))
def client(request):
    client = open_client(request.param)
    yield client
    client.close()


def ids(client) -> list[int]:
    return sorted(i for (i,) in client.query("SELECT id FROM T"))


def test_failed_load_leaves_nothing_behind(client):
    client.load("T", [(0, 0)])
    with pytest.raises(DuplicateKeyError):
        client.load("T", [(1, 1), (2, 2), (1, 3)])
    # The table is readable (no lock outlived the load) and holds none
    # of its rows.
    assert ids(client) == [0]
    # No writer is left active, so a checkpoint is taken.
    assert client.store.checkpoint()
    assert client.load("T", [(1, 1), (2, 2), (3, 3)]) == 3
    assert ids(client) == [0, 1, 2, 3]


@pytest.mark.parametrize("topology", list(TOPOLOGIES))
def test_failed_load_is_absent_after_recovery(topology):
    client = open_client(topology)
    client.load("T", [(0, 0)])
    with pytest.raises(DuplicateKeyError):
        client.load("T", [(1, 1), (0, 2)])
    store = client.store.crash()
    client.engine.close()
    try:
        store.recover()
        txn = store.begin()
        assert [row.values for row in store.read_table(txn, "T")] == [(0, 0)]
        store.commit(txn)
    finally:
        store.close()


# -- a load is the same data as inserts ----------------------------------------------

#: Two tables: one routed by its primary key, one (no key) by its first
#: index; NULLs and repeats in the secondary keys.
DIFF_SCHEMAS = [
    TableSchema.build(
        "P",
        [("id", ColumnType.INTEGER), ("tag", ColumnType.TEXT, True),
         ("n", ColumnType.INTEGER)],
        primary_key=["id"], indexes=[["tag"], ["n", "tag"]],
    ),
    TableSchema.build(
        "E",
        [("a", ColumnType.INTEGER), ("b", ColumnType.INTEGER)],
        indexes=[["a"], ["b"]],
    ),
]
DIFF_ROWS = {
    "P": [(i, (None, "x", "y")[i % 3], i % 4) for i in range(23, 0, -1)],
    "E": [(i % 5, i) for i in range(17)] + [(2, 3), (2, 3)],
}


def probe(view, schema, cols, key) -> list:
    """The rows a probe of one declared index finds: the primary key's
    or a secondary index's."""
    if cols == list(schema.primary_key or ()):
        row = view.lookup_pk(key)
        return [] if row is None else [row]
    return view.lookup_index(cols, key)


def literal(value) -> str:
    return "NULL" if value is None else repr(value)


def insert_script(table: str, rows) -> str:
    statements = "".join(
        f"INSERT INTO {table} VALUES ({', '.join(map(literal, row))});\n"
        for row in rows)
    return f"BEGIN TRANSACTION;\n{statements}COMMIT;"


def shard_state(engine) -> dict:
    """One shard as its own reads see it: rows by rid, every index's
    content (the ordered twin in key order, the hash buckets per key),
    and its durable log."""
    state = {"wal": list(engine.wal.records(durable_only=True))}
    for schema in DIFF_SCHEMAS:
        view = engine.db.table(schema.name)
        rows = list(view.scan())
        state[schema.name] = [(row.rid, row.values) for row in rows]
        for cols in [list(schema.primary_key or ()), *schema.indexes]:
            if not cols:
                continue
            keys = {key for row in rows
                    for index, key in schema.index_keys(row.values)
                    if list(index) == cols}
            state[schema.name, tuple(cols)] = (
                [row.rid for row in view.range_scan(cols, None, None)],
                {key: sorted(row.rid for row in probe(view, schema, cols, key))
                 for key in sorted(keys, key=repr)},
            )
    return state


def shards_of(store) -> list:
    return list(getattr(store, "shards", [store]))


def fill(topology: str, by_load: bool):
    client = connect(**TOPOLOGIES[topology])
    for schema in DIFF_SCHEMAS:
        client.create_table(schema)
    for name, rows in DIFF_ROWS.items():
        if by_load:
            assert client.load(name, rows) == len(rows)
        else:
            handle = client.session("loader").run_script(insert_script(name, rows))
            client.run()
            assert handle.succeeded
    return client


def states(store) -> list[dict]:
    return [shard_state(shard) for shard in shards_of(store)]


def assert_followers_match(store) -> None:
    followers = getattr(store, "followers", None)
    if followers is None:
        return
    store.drain_replicas()
    for leader, row in zip(store.shards, followers):
        assert len(row) == 2
        for follower in row:
            state = shard_state(follower.engine)
            assert state == shard_state(leader)


@pytest.mark.parametrize("topology", list(TOPOLOGIES))
def test_a_load_is_the_same_data_as_insert_statements(topology):
    loaded, inserted = fill(topology, True), fill(topology, False)
    recovered = []
    try:
        live = states(loaded.store)
        assert live == states(inserted.store)
        assert sum(len(s["P"]) for s in live) == len(DIFF_ROWS["P"])
        if len(live) > 1:  # the rows really spread
            assert all(s["P"] and s["E"] for s in live)
        for client in (loaded, inserted):
            assert_followers_match(client.store)
        for client in (loaded, inserted):
            store = client.store.crash()
            client.engine.close()
            recovered.append(store)
            store.recover()
        assert states(recovered[0]) == states(recovered[1])
        for store in recovered:
            assert [s[name] for s in states(store) for name in DIFF_ROWS] == [
                s[name] for s in live for name in DIFF_ROWS]
    finally:
        for store in recovered:
            store.close()
        for client in (loaded, inserted)[len(recovered):]:
            client.close()


# -- locks, and what concurrent readers see ----------------------------------------------

STORES = {
    "single": StorageEngine,
    "shards2": lambda: ShardedStorageEngine(2),
    "shards2-process": lambda: ProcessShardedStorageEngine(2),
    "shards2-replicas2": lambda: ReplicatedStorageEngine(2, replicas=2),
}


@pytest.fixture(params=list(STORES))
def store(request):
    store = STORES[request.param]()
    store.create_table(schema())
    yield store
    store.close()


def select_ids(key: "int | None" = None) -> SPJQuery:
    return SPJQuery(
        tables=(TableRef("T"),),
        select=(Col("id"),),
        select_names=("id",),
        where=None if key is None else Cmp(CmpOp.EQ, Col("id"), Const(key)),
    )


def home_shards(store, rows) -> set[int]:
    route = getattr(store, "route_row", lambda _table, _row: 0)
    return {route("T", row) for row in rows}


@pytest.mark.parametrize("n_rows", [1, 40])
def test_a_load_takes_one_lock_request_per_table_per_shard(store, n_rows):
    rows = [(i, i % 3) for i in range(n_rows)]
    before = store.metrics()["locks.acquired"]
    assert store.load("T", rows) == n_rows
    assert store.metrics()["locks.acquired"] - before == len(home_shards(store, rows))


def test_an_open_load_blocks_keyed_2pl_readers_until_it_commits(store):
    store.load("T", [(0, 0)])
    load = store.begin()
    store.insert_many(load, "T", [(1, 1), (2, 2)])
    reader = store.begin(TxnIsolation.TWO_PL)
    with pytest.raises(WouldBlock):
        store.query(reader, select_ids(1))
    store.commit(load)
    assert store.query(reader, select_ids(1)) == [(1,)]
    store.commit(reader)


def test_an_open_load_is_invisible_to_snapshot_readers(store):
    store.load("T", [(0, 0)])
    load = store.begin()
    store.insert_many(load, "T", [(1, 1), (2, 2)])
    reader = store.begin(TxnIsolation.SNAPSHOT)
    assert store.query(reader, select_ids()) == [(0,)]
    assert store.query(reader, select_ids(1)) == []
    store.commit(load)
    assert store.query(reader, select_ids()) == [(0,)]
    store.commit(reader)


def test_a_load_keeps_a_per_row_write_set(store):
    """A serializable reader that probed a key the load then commits
    gains the rw edge; one that probed a key the load leaves absent does
    not, which a per-table write set could not tell apart."""
    store.load("T", [(0, 0)])
    probed = store.begin(TxnIsolation.SERIALIZABLE)
    assert store.query(probed, select_ids(5)) == []
    missed = store.begin(TxnIsolation.SERIALIZABLE)
    assert store.query(missed, select_ids(77)) == []
    edges = store.metrics()["ssi.rw_edges"]
    load = store.begin()
    store.insert_many(load, "T", [(5, 5), (6, 6)])
    store.commit(load)
    assert store.metrics()["ssi.rw_edges"] == edges + 1
    store.commit(missed)
    store.commit(probed)
