"""A crash successor is the same store.

``crash()`` + ``recover()`` must hand back the store that crashed, not
a plainer one: the same type and shard count, the same settings
(granularity, ordered indexes), the same knobs (transaction-id
floor, vacuum and checkpoint cadences, every WAL's simulated fsync
latency) and, for a replicated store, the same followers — replica
count, staleness bound and per-follower apply lag — resynced from the
log their leader recovered from, so a failover after the restart still
loses nothing.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.replication import ReplicatedStorageEngine
from repro.storage import (
    ColumnType,
    LockGranularity,
    ShardedStorageEngine,
    StorageEngine,
    TableSchema,
    shard_members,
)
from repro.transport.process import spawn_workers

SCHEMA = TableSchema.build(
    "T",
    [("k", ColumnType.INTEGER), ("v", ColumnType.TEXT)],
    primary_key=["k"],
)
SETTINGS = {"granularity": LockGranularity.TABLE, "ordered_indexes": False}
ROWS = {k: f"v{k}" for k in range(6)}

STORES = {
    "single": lambda: StorageEngine(**SETTINGS),
    "sharded2": lambda: ShardedStorageEngine(2, **SETTINGS),
    "process2": lambda: ShardedStorageEngine(shards=spawn_workers(shard_members(2, **SETTINGS))),
    "replicated2": lambda: ReplicatedStorageEngine(
        2, replicas=2, max_staleness=3, apply_lag=1, **SETTINGS
    ),
    "replicated_process2": lambda: ReplicatedStorageEngine(
        replicas=2, max_staleness=3, apply_lag=1,
        shards=spawn_workers(shard_members(2, **SETTINGS)),
    ),
}


def shape(store) -> dict:
    """Everything a crash successor must keep."""
    followers = getattr(store, "followers", [])
    return {
        "type": type(store),
        "n_shards": store.n_shards,
        "granularity": store.granularity,
        "ordered_indexes": store.ordered_indexes,
        "next_txn": store._next_txn,
        "vacuum_interval": store.vacuum_interval,
        "checkpoint_interval": store.checkpoint_interval,
        "flush_latency": [wal.flush_latency for wal in store.wals()],
        "replicas": getattr(store, "replicas_per_shard", None),
        "max_staleness": getattr(store, "max_staleness", None),
        "apply_lag": [[f.apply_lag for f in row] for row in followers],
    }


def rows_of(engine: StorageEngine) -> dict[int, str]:
    return {row.values[0]: row.values[1] for row in engine.db.table("T").scan()}


def lsns(wal) -> list[int]:
    return [r.lsn for r in wal.records(durable_only=True)]


def read_all(store) -> dict[int, str]:
    txn = store.begin()
    rows = {row.values[0]: row.values[1] for row in store.read_table(txn, "T")}
    store.commit(txn)
    return rows


@contextmanager
def restarted(name: str):
    """Build store ``name``, commit six rows, crash and recover it;
    yields (the store's shape before the crash, the recovered survivor)."""
    store = STORES[name]()
    survivor = None
    try:
        store.create_table(SCHEMA)
        store.vacuum_interval = 7
        store.checkpoint_interval = 5
        for wal in store.wals():
            wal.flush_latency = 0.0005
        for k, v in ROWS.items():
            txn = store.begin()
            store.insert(txn, "T", (k, v))
            store.commit(txn)
        before = shape(store)
        survivor = store.crash()
        store.close()
        survivor.recover()
        yield before, survivor
    finally:
        store.close()
        if survivor is not None:
            survivor.close()


@pytest.mark.parametrize("name", sorted(STORES))
def test_the_survivor_keeps_the_store(name):
    with restarted(name) as (before, survivor):
        assert shape(survivor) == before
        assert read_all(survivor) == ROWS


@pytest.mark.parametrize("name", ["replicated2", "replicated_process2"])
def test_a_replicated_restart_resyncs_every_follower(name):
    with restarted(name) as (_before, survivor):
        survivor.drain_replicas()
        for leader, row in zip(survivor.shards, survivor.followers):
            assert len(row) == 2
            for follower in row:
                assert rows_of(follower.engine) == rows_of(leader)
                assert lsns(follower.wal) == lsns(leader.wal)
                assert follower.durable_lsn == leader.wal.flushed_lsn
        survivor.fail_over(0)
        assert read_all(survivor) == ROWS


@pytest.mark.parametrize("name", ["single", "sharded2", "process2"])
def test_the_survivor_never_reuses_an_lsn(name):
    """A volatile tail's LSNs die with the crash, not with the sequence:
    every record the survivor writes — recovery's and the next
    commit's — is numbered past every LSN the crashed store assigned."""
    store = STORES[name]()
    survivor = None
    try:
        store.create_table(SCHEMA)
        txn = store.begin()
        for k, v in ROWS.items():
            store.insert(txn, "T", (k, v))
        store.commit(txn)
        txn = store.begin()
        for k in ROWS:
            store.insert(txn, "T", (k + 10, "tail"))
        store.commit(txn, flush=False)
        flushed = [wal.flushed_lsn for wal in store.wals()]
        assigned = [wal.last_lsn for wal in store.wals()]
        assert all(a > f for a, f in zip(assigned, flushed))  # a tail each
        survivor = store.crash()
        store.close()
        survivor.recover()
        txn = survivor.begin()
        survivor.insert(txn, "T", (99, "after"))
        survivor.commit(txn)
        written = [
            [lsn for lsn in lsns(wal) if lsn > old]
            for wal, old in zip(survivor.wals(), flushed)
        ]
        assert any(written)
        for new, old in zip(written, assigned):
            assert all(lsn > old for lsn in new)
        assert read_all(survivor) == {**ROWS, 99: "after"}
    finally:
        store.close()
        if survivor is not None:
            survivor.close()
