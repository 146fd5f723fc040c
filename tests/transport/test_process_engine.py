"""The process-per-shard engine: basics, cross-shard SSI and SIGKILL
crash recovery (its cross-shard deadlock is one case of
``tests/storage/test_cross_shard_deadlock.py``).

Regression twins of the threaded-mode tests in
``tests/storage/test_sharding.py`` — same scenarios, but every shard
lives in its own worker process behind the frame transport, so each
assertion also exercises the coordinator's mirrors and the
prepare-round SSI reporting.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import SerializationFailureError
from repro.storage.engine import WouldBlock
from repro.storage import (
    ColumnType,
    ReadAccess,
    ShardedStorageEngine,
    TableSchema,
    TxnIsolation,
    recover,
    shard_members,
)
from repro.transport.process import spawn_workers


def build_process(n_shards: int) -> ShardedStorageEngine:
    engine = ShardedStorageEngine(shards=spawn_workers(shard_members(n_shards)))
    engine.create_table(TableSchema.build(
        "T",
        [("k", ColumnType.INTEGER), ("v", ColumnType.TEXT)],
        primary_key=["k"],
    ))
    return engine


def contents(engine) -> dict[int, str]:
    return {
        row.values[0]: row.values[1]
        for row in engine.db.table("T").scan()
    }


def other_shard_key(engine, anchor: int = 0) -> int:
    """A key routed to a different shard than ``anchor``."""
    return next(
        k for k in range(1, 64)
        if engine.route_key("T", (k,)) != engine.route_key("T", (anchor,))
    )


@pytest.fixture
def engine2():
    engine = build_process(2)
    yield engine
    engine.close()


class TestBasics:
    def test_cross_shard_commit_is_visible_and_routed(self, engine2):
        engine = engine2
        y = other_shard_key(engine)
        txn = engine.begin()
        engine.insert(txn, "T", (0, "a"))
        engine.insert(txn, "T", (y, "b"))
        engine.commit(txn)
        assert contents(engine) == {0: "a", y: "b"}
        # Each row lives on (only) its routed shard's worker.
        for key in (0, y):
            home = engine.route_key("T", (key,))
            for idx, shard in enumerate(engine.shards):
                found = shard.db.table("T").lookup_pk((key,))
                assert (found is not None) == (idx == home)

    def test_workers_are_real_processes(self, engine2):
        pids = engine2.worker_pids()
        assert len(pids) == 2
        assert os.getpid() not in pids
        assert len(set(pids)) == 2

    def test_a_workers_would_block_reads_as_a_local_one(self, engine2):
        """Its message does not cross the pipe: the coordinator rebuilds
        it from the waiter and the resource, which is all it says."""
        local = ShardedStorageEngine(2)
        local.create_table(engine2.db.table("T").schema)
        waits = []
        for engine in (local, engine2):
            engine.load("T", [(0, "a")])
            holder, waiter = engine.begin(), engine.begin()
            rid = engine.db.table("T").lookup_pk((0,)).rid
            engine.update(holder, "T", rid, (0, "b"))
            with pytest.raises(WouldBlock) as caught:
                engine.update(waiter, "T", rid, (0, "c"))
            waits.append(
                (caught.value.txn, caught.value.resource, str(caught.value)))
        assert waits[0] == waits[1]

    def test_snapshot_reads_see_a_consistent_cut(self, engine2):
        engine = engine2
        y = other_shard_key(engine)
        engine.load("T", [(0, "old"), (y, "old")])
        reader = engine.begin(TxnIsolation.SNAPSHOT)
        writer = engine.begin()
        for key in (0, y):
            row = engine.db.table("T").lookup_pk((key,))
            engine.update(writer, "T", row.rid, (key, "new"))
        engine.commit(writer)
        seen = {
            row.values[1]
            for row in engine.snapshot_provider(reader).table("T").scan()
        }
        assert seen == {"old"}
        engine.commit(reader)


class TestCrossShardSSI:
    def test_cross_shard_write_skew_is_aborted(self, engine2):
        """T1 reads x (shard A) writes y (shard B); T2 the converse.
        Each worker alone sees half the dangerous structure — the
        coordinator-resident tracker, fed by the prepare round's
        worker-authoritative write sets, must abort the pivot."""
        engine = engine2
        y = other_shard_key(engine)
        engine.load("T", [(0, "0"), (y, "0")])
        t1 = engine.begin(TxnIsolation.SERIALIZABLE)
        t2 = engine.begin(TxnIsolation.SERIALIZABLE)
        p1 = engine.snapshot_provider(t1).table("T")
        p2 = engine.snapshot_provider(t2).table("T")
        assert p1.lookup_pk((0,)) is not None
        engine.observe_snapshot_read(
            t1, ReadAccess.index_key("T", ("k",), (0,)))
        assert p2.lookup_pk((y,)) is not None
        engine.observe_snapshot_read(
            t2, ReadAccess.index_key("T", ("k",), (y,)))
        row_y = engine.db.table("T").lookup_pk((y,))
        engine.update(t1, "T", row_y.rid, (y, "1"))
        row_x = engine.db.table("T").lookup_pk((0,))
        engine.update(t2, "T", row_x.rid, (0, "1"))
        engine.commit(t1)
        with pytest.raises(SerializationFailureError):
            engine.commit(t2)
        engine.abort(t2)


class TestCrashRecovery:
    def test_clean_commit_survives_the_fleet_being_killed(self):
        engine = build_process(2)
        survivor = None
        try:
            y = other_shard_key(engine)
            txn = engine.begin()
            engine.insert(txn, "T", (0, "a"))
            engine.insert(txn, "T", (y, "b"))
            engine.commit(txn)
            survivor = engine.crash()   # SIGKILLs every worker
            recover(survivor)
            assert contents(survivor) == {0: "a", y: "b"}
        finally:
            engine.close()
            if survivor is not None:
                survivor.close()

    def test_torn_commit_after_sigkill_rolls_back_everywhere(self):
        """SIGKILL mid-commit: one shard's COMMIT reached its durable
        log, its sibling's did not.  Recovery must demote the torn
        transaction and roll the durable half back too, reconverging
        the vector."""
        engine = build_process(2)
        survivor = None
        try:
            y = other_shard_key(engine)
            home_x = engine.route_key("T", (0,))
            txn = engine.begin()
            engine.insert(txn, "T", (0, "a"))
            engine.insert(txn, "T", (y, "b"))
            # The torn interleaving: COMMIT appended everywhere but
            # flushed on exactly one shard when the SIGKILL lands.
            engine.commit(txn, flush=False)
            engine.shards[home_x].wal.flush()
            engine.shards[engine.route_key("T", (y,))].kill()
            survivor = engine.crash()
            report = recover(survivor)
            assert txn in report.losers and txn not in report.winners
            assert contents(survivor) == {}
            assert txn not in survivor.durably_committed_txns()
            # The successor fleet reconverges: a fresh cross-shard
            # commit lands and is readable everywhere.
            txn2 = survivor.begin()
            survivor.insert(txn2, "T", (0, "a2"))
            survivor.insert(txn2, "T", (y, "b2"))
            survivor.commit(txn2)
            assert contents(survivor) == {0: "a2", y: "b2"}
        finally:
            engine.close()
            if survivor is not None:
                survivor.close()
