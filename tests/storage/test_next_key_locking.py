"""Next-key locking closes phantoms under 2PL; SSI aborts them instead.

Storage-level tests pin the lock protocol itself: a range reader holds S
on every qualifying key plus the right fencepost, so an insert *into*
the scanned gap blocks (``WouldBlock``) while an insert beyond the fence
sails through — and symmetrically, a scan over an uncommitted insert
blocks on the inserter's key X lock.  Engine-level tests run the classic
range write-skew pair at 1/2/4 shards under all three isolation modes:
SNAPSHOT admits the phantom anomaly, SERIALIZABLE (runtime SSI, via the
``ixrange`` read intervals) aborts a pivot and retries, and 2PL blocks
it outright via next-key locks — with zero whole-table S grants.
"""

import pytest

from _batch import engine_for
from repro.core.engine import (
    EngineConfig,
    IsolationConfig,
)
from repro.core.transaction import TxnPhase
from repro.sql import parse_statement
from repro.sql.compiler import compile_select
from repro.storage import ColumnType, TableSchema
from repro.storage.engine import WouldBlock
from repro.storage.sharding import build_storage_engine

SHARD_COUNTS = (1, 2, 4)


def build_store(shards):
    store = build_storage_engine(shards)
    store.create_table(TableSchema.build(
        "T",
        [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
        primary_key=["k"],
    ))
    # even keys 0..38: every range below has in-range keys, gaps to
    # insert phantoms into, and existing keys above every fence.
    store.load("T", [(k, 0) for k in range(0, 40, 2)])
    return store


def range_read(store, txn, lo, hi):
    compiled = compile_select(
        parse_statement(f"SELECT k FROM T WHERE k >= {lo} AND k < {hi}"),
        store.db, {},
    )
    return store.query(txn, compiled.plan)


class TestNextKeyLocks2PL:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_insert_into_scanned_gap_blocks(self, shards):
        store = build_store(shards)
        reader = store.begin()
        rows = range_read(store, reader, 4, 12)
        assert sorted(rows) == [(4,), (6,), (8,), (10,)]
        writer = store.begin()
        # phantom between two scanned keys: successor 8 is S-locked
        with pytest.raises(WouldBlock):
            store.insert(writer, "T", [7, 1])
        # the whole read path used index locks, never a table S lock
        assert store.locks.stats["table_s_grants"] == 0

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_insert_just_below_fence_blocks(self, shards):
        store = build_store(shards)
        reader = store.begin()
        range_read(store, reader, 4, 12)
        writer = store.begin()
        # key 11 is outside every scanned posting but inside the gap
        # guarded by the fencepost (successor of the upper bound, 12)
        with pytest.raises(WouldBlock):
            store.insert(writer, "T", [11, 1])

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_insert_beyond_fence_does_not_block(self, shards):
        store = build_store(shards)
        reader = store.begin()
        range_read(store, reader, 4, 12)
        writer = store.begin()
        # far above the scanned range: no shared fencepost, no conflict
        store.insert(writer, "T", [100, 1])
        store.commit(writer)
        store.commit(reader)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_blocked_phantom_lands_after_reader_commits(self, shards):
        store = build_store(shards)
        reader = store.begin()
        range_read(store, reader, 4, 12)
        writer = store.begin()
        with pytest.raises(WouldBlock):
            store.insert(writer, "T", [7, 1])
        store.commit(reader)  # releases the S locks, wakes the waiter
        store.insert(writer, "T", [7, 1])
        store.commit(writer)
        probe = store.begin()
        assert sorted(range_read(store, probe, 4, 12)) == [
            (4,), (6,), (7,), (8,), (10,)
        ]

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_scan_blocks_on_uncommitted_insert(self, shards):
        store = build_store(shards)
        writer = store.begin()
        store.insert(writer, "T", [7, 1])
        reader = store.begin()
        with pytest.raises(WouldBlock):
            range_read(store, reader, 4, 12)


#: the classic phantom write-skew pair: each transaction scans the range
#: the *other* one inserts into.
PHANTOM_SKEW = (
    "BEGIN TRANSACTION; "
    "SELECT k AS @a FROM T WHERE k >= 0 AND k < 10; "
    "INSERT INTO T (k, v) VALUES (15, 1); COMMIT;",
    "BEGIN TRANSACTION; "
    "SELECT k AS @b FROM T WHERE k >= 10 AND k < 20; "
    "INSERT INTO T (k, v) VALUES (5, 1); COMMIT;",
)


def build_engine(shards, isolation):
    store = build_store(shards)
    config = EngineConfig(isolation=isolation, connections=10)
    return engine_for(store, config)


class TestPhantomWriteSkew:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_snapshot_admits_the_phantom_anomaly(self, shards):
        engine = build_engine(shards, IsolationConfig.SNAPSHOT)
        handles = [engine.submit(p) for p in PHANTOM_SKEW]
        report = engine.run_once()
        # both commit concurrently: neither scan saw the other's insert
        assert sorted(report.committed) == sorted(handles)
        assert report.ssi_aborts == 0

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_serializable_aborts_the_pivot(self, shards):
        engine = build_engine(shards, IsolationConfig.SERIALIZABLE)
        handles = [engine.submit(p) for p in PHANTOM_SKEW]
        report = engine.run_once()
        # the ixrange read intervals catch the cross-range inserts: the
        # second committer is the pivot and aborts
        assert len(report.committed) == 1
        assert report.ssi_aborts >= 1
        engine.drain()
        for handle in handles:
            assert engine.transaction(handle).phase is TxnPhase.COMMITTED
        # serializable outcome: the retried scan saw the first insert
        store = engine.store
        txn = store.begin()
        keys = {row.values[0] for row in store.read_table(txn, "T")}
        assert {5, 15} <= keys

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_2pl_blocks_the_phantom_with_next_key_locks(self, shards):
        engine = build_engine(shards, IsolationConfig.FULL)
        store = engine.store
        handles = [engine.submit(p) for p in PHANTOM_SKEW]
        engine.drain()
        for handle in handles:
            assert engine.transaction(handle).phase is TxnPhase.COMMITTED
        # the conflict was real (one attempt waited) and it was resolved
        # by key locks alone — never a whole-table S lock
        assert sum(r.lock_waits for r in engine.run_reports) >= 1
        assert store.locks.stats["table_s_grants"] == 0
        assert sum(r.ssi_aborts for r in engine.run_reports) == 0
