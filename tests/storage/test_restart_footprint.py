"""A restart holds one store.

``crash()`` leaves the store it replaces with its catalog and its
counters only — no row, version, index entry, context, lock-queue entry,
SSI record or log record — whoever still references it, so a restart
never holds two stores.  Restart recovery leaves each row with the
versions a reader can still see: with nothing in flight at the crash,
exactly one per live row, and a snapshot reader on the survivor sees
the pre-crash committed state.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

import repro
from repro.core.engine import EngineConfig
from repro.replication import ReplicatedStorageEngine
from repro.storage import (
    ColumnType,
    ShardedStorageEngine,
    StorageEngine,
    TableSchema,
    TxnIsolation,
    shard_members,
)
from repro.transport.process import spawn_workers
from repro.transport.proxy import RemoteShardEngine

SCHEMA = TableSchema.build(
    "T",
    [("k", ColumnType.INTEGER), ("g", ColumnType.INTEGER),
     ("v", ColumnType.TEXT)],
    primary_key=["k"],
    indexes=[["g"]],
)
KEYS = range(12)

STORES = {
    "single": lambda: StorageEngine(),
    "sharded2": lambda: ShardedStorageEngine(2),
    "process2": lambda: ShardedStorageEngine(
        shards=spawn_workers(shard_members(2))),
    "replicated2x2": lambda: ReplicatedStorageEngine(2, replicas=2),
}
CONNECT = {
    "single": {"shards": 1},
    "sharded2": {"shards": 2, "executor": "serial"},
    "process2": {"shards": 2, "executor": "process"},
    "replicated2x2": {"shards": 2, "replicas": 2, "executor": "serial"},
}


def members(store) -> list:
    return list(getattr(store, "shards", [store]))


def leftovers(store) -> dict[str, int]:
    """Everything volatile a crashed store still holds, by kind; empty
    when it keeps only its catalog and its counters."""
    held: dict[str, int] = {}

    def count(kind: str, n: int) -> None:
        if n:
            held[kind] = held.get(kind, 0) + n

    if store not in members(store):  # a router
        count("contexts", len(store._contexts))
        count("table writers", len(store._table_writers))
        count("active writers", len(store._active_writers))
        count("ssi records", len(store.ssi._txns))
    for shard in members(store):
        count("log records", len(shard.wal))
        if isinstance(shard, RemoteShardEngine):
            continue  # the rest of it died with its worker
        for name in shard.db.table_names():
            table = shard.db.table(name)
            count("rows", len(table))
            count("versions", table.version_stats()[0])
            count("index entries", len(table._pk_index)
                  + sum(len(index) for index in table._secondary)
                  + sum(len(tree) for tree in table._ordered.values()))
            count("history", len(table.history_rids()))
        count("contexts", len(shard._contexts))
        count("table writers", len(shard._table_writers))
        count("lock queues", len(shard.locks._locks))
        count("ssi records", len(shard.ssi._txns))
    return held


def commit(store, *writes) -> None:
    txn = store.begin()
    for write in writes:
        write(txn)
    store.commit(txn)


def populate(store) -> dict[int, tuple]:
    """Insert, update twice and delete; returns the committed rows."""
    store.create_table(SCHEMA)
    for k in KEYS:
        commit(store, lambda txn, k=k: store.insert(txn, "T", (k, k % 3, "a")))
    rids = {row.values[0]: row.rid for row in scan(store)}
    for value in ("b", "c"):
        for k in KEYS[::2]:
            commit(store, lambda txn, k=k, value=value: store.update(
                txn, "T", rids[k], (k, k % 3, value)))
    commit(store, lambda txn: store.delete(txn, "T", rids[1]))
    return read_all(store)


def scan(store, isolation: TxnIsolation = TxnIsolation.TWO_PL) -> list:
    txn = store.begin(isolation)
    rows = store.read_table(txn, "T")
    store.commit(txn)
    return rows


def read_all(store, isolation: TxnIsolation = TxnIsolation.TWO_PL) -> dict:
    return {row.values[0]: row.values for row in scan(store, isolation)}


def leave_in_flight(store) -> None:
    """A serializable transaction holding reads, a write and its locks."""
    txn = store.begin(TxnIsolation.SERIALIZABLE)
    row = next(row for row in store.read_table(txn, "T") if row.values[0] == 0)
    store.update(txn, "T", row.rid, (0, 0, "lost"))


@pytest.fixture(params=sorted(STORES))
def store_name(request):
    return request.param


def test_a_crashed_store_keeps_only_its_catalog_and_counters(store_name):
    store = STORES[store_name]()
    survivor = None
    try:
        populate(store)
        leave_in_flight(store)
        commits = store.metrics()["commits"]
        survivor = store.crash()
        assert leftovers(store) == {}
        assert store.db.table_names() == ["T"]
        assert store.metrics()["commits"] == commits
        survivor.recover()
    finally:
        store.close()
        if survivor is not None:
            survivor.close()


def test_an_old_client_holds_an_empty_store(store_name):
    db = repro.connect(
        config=EngineConfig(persist_state=True), **CONNECT[store_name])
    try:
        db.create_table(SCHEMA)
        for k in KEYS:
            db.session("s").run_script(
                f"BEGIN TRANSACTION; INSERT INTO T (k, g, v) "
                f"VALUES ({k}, {k % 3}, 'a'); COMMIT;")
        db.drain()
        old = db
        db, _report = old.crash_and_recover()
        assert leftovers(old.store) == {}
        assert len(db.query("SELECT k FROM T")) == len(KEYS)
    finally:
        db.close()


def test_recovery_keeps_one_version_per_live_row(store_name):
    store = STORES[store_name]()
    survivor = None
    try:
        committed = populate(store)
        survivor = store.crash()
        survivor.recover()
        for shard in members(survivor):
            reading = shard.metrics()
            live = shard.db.table("T").row_estimate()
            assert (reading["versions"], reading["max_chain"]) == (live, 1)
            if not isinstance(shard, RemoteShardEngine):
                assert shard.db.table("T").version_stats() == (live, 1)
        for row in getattr(survivor, "followers", []):
            for follower in row:
                table = follower.engine.db.table("T")
                assert table.version_stats() == (len(table), 1)
        assert read_all(survivor, TxnIsolation.SNAPSHOT) == committed
    finally:
        store.close()
        if survivor is not None:
            survivor.close()


def test_a_restart_does_not_grow_the_heap():
    """A few thousand transfers, then a restart with the old client
    still referenced: the bytes allocated afterwards stay within 1.15x
    of those allocated before the crash."""
    accounts = 512
    tracemalloc.start()
    try:
        db = repro.connect(config=EngineConfig(persist_state=True))
        db.create_table(TableSchema.build(
            "Accounts",
            [("id", ColumnType.INTEGER), ("balance", ColumnType.FLOAT)],
            primary_key=["id"],
        ))
        db.create_table(TableSchema.build(
            "Transfers",
            [("account", ColumnType.INTEGER), ("amount", ColumnType.FLOAT)],
            indexes=[["account"]],
        ))
        db.load("Accounts", [(i, 100.0) for i in range(accounts)])
        session = db.session("s")
        for i in range(3000):
            src, dst = (7 * i) % accounts, (7 * i + 3) % accounts
            session.run_script(f"""
                BEGIN TRANSACTION;
                SELECT balance AS @b FROM Accounts WHERE id={src};
                UPDATE Accounts SET balance = balance + 1 WHERE id={dst};
                INSERT INTO Transfers (account, amount) VALUES ({dst}, 1);
                COMMIT;
            """)
            if i % 10 == 9:
                db.drain()
        db.drain()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        old = db
        db, _report = old.crash_and_recover()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
        assert old is not None
        try:
            assert len(db.query("SELECT account FROM Transfers")) == 3000
            assert after <= 1.15 * before, (before, after)
        finally:
            db.close()
    finally:
        tracemalloc.stop()
