"""No worker outlives its store.

A worker process belongs to the member that talks to it
(:class:`~repro.transport.proxy.RemoteShardEngine`): the router's
``close()`` closes every member, a crash SIGKILLs the old workers before
their successors are forked, and a failed-over leader's worker is shut
down when its successor takes over.  Each lifecycle path below must
leave no child process of this store running.
"""

from __future__ import annotations

import multiprocessing

import pytest

import repro
from repro.bench.harness import bank_store
from repro.core.engine import EngineConfig
from repro.replication import ReplicatedStorageEngine
from repro.storage import (
    ColumnType,
    ShardedStorageEngine,
    TableSchema,
    shard_members,
)
from repro.transport.process import spawn_workers

SCHEMA = TableSchema.build(
    "T",
    [("k", ColumnType.INTEGER), ("v", ColumnType.TEXT)],
    primary_key=["k"],
)


def live_children() -> set[int]:
    return {process.pid for process in multiprocessing.active_children()}


@pytest.fixture
def no_new_children():
    """Fails the test if it leaves a child process that was not running
    when it started."""
    before = live_children()
    yield
    assert live_children() <= before


def put(db, keys) -> None:
    with db.session("w").transaction() as t:
        for k in keys:
            t.insert("T", (k, f"v{k}"))


def read_keys(db) -> set[int]:
    with db.session("r").transaction() as t:
        return {row.values[0] for row in t.read_table("T")}


@pytest.mark.usefixtures("no_new_children")
class TestNoWorkerOutlivesItsStore:
    def test_close_on_a_fresh_store(self):
        store = ShardedStorageEngine(shards=spawn_workers(shard_members(2)))
        pids = set(store.worker_pids())
        assert len(pids) == 2 and pids <= live_children()
        store.close()
        assert not pids & live_children()
        store.close()  # idempotent

    def test_crash_and_recover_then_close(self):
        db = repro.connect(
            shards=2, executor="process",
            config=EngineConfig(persist_state=True),
        )
        try:
            db.create_table(SCHEMA)
            put(db, range(4))
            dead = set(db.store.worker_pids())
            db, _report = db.crash_and_recover()
            assert not dead & live_children()
            assert len(db.store.worker_pids()) == 2
            assert read_keys(db) == {0, 1, 2, 3}
        finally:
            db.close()

    def test_fail_over_on_a_replicated_store_then_close(self):
        db = repro.connect(shards=2, replicas=1, executor="process")
        try:
            assert isinstance(db.store, ReplicatedStorageEngine)
            db.create_table(SCHEMA)
            put(db, range(4))
            dead = db.store.shards[0].worker_pids()
            db.store.fail_over(0)
            # The promoted leader runs in this process; the dead
            # leader's worker is gone, its peer's still serves.
            assert db.store.shards[0].worker_pids() == []
            assert not set(dead) & live_children()
            assert db.store.worker_pids() == db.store.shards[1].worker_pids()
            assert read_keys(db) == {0, 1, 2, 3}
        finally:
            db.close()

    def test_a_bank_store_whose_load_raises(self, monkeypatch):
        def load(self, table, rows):
            raise RuntimeError("load failed")

        monkeypatch.setattr(ShardedStorageEngine, "load", load)
        with pytest.raises(RuntimeError, match="load failed"):
            bank_store(8, kind="process", shards=2)
