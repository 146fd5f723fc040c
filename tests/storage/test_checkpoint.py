"""CHECKPOINT records: bounded-restart recovery + WAL truncation.

The satellite claim: restart cost (records redone) stops scaling with
history length once checkpoints run — the recovery path restores the
newest durable image and replays only the log suffix.
"""

from __future__ import annotations

import pytest

from repro.storage import (
    ColumnType,
    LogRecordType,
    ShardedStorageEngine,
    StorageEngine,
    TableSchema,
    TxnIsolation,
    recover,
)

from test_store_contract import STORES


def build_engine() -> StorageEngine:
    engine = StorageEngine()
    engine.create_table(TableSchema.build(
        "T",
        [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
        primary_key=["k"],
    ))
    return engine


def bump(engine, key: int, value: int) -> None:
    txn = engine.begin()
    row = engine.db.table("T").lookup_pk((key,))
    if row is None:
        engine.insert(txn, "T", (key, value))
    else:
        engine.update(txn, "T", row.rid, (key, value))
    engine.commit(txn)


def table_contents(engine) -> dict[int, int]:
    return {r.values[0]: r.values[1] for r in engine.db.table("T").scan()}


class TestCheckpoint:
    def test_checkpoint_truncates_the_log(self):
        engine = build_engine()
        for i in range(20):
            bump(engine, i % 4, i)
        before = len(engine.wal)
        record = engine.checkpoint()
        assert record is not None
        assert len(engine.wal) < before
        # Only the checkpoint record itself remains.
        assert [r.type for r in engine.wal.records()] == [
            LogRecordType.CHECKPOINT
        ]

    def test_checkpoint_skipped_while_a_writer_is_active(self):
        engine = build_engine()
        bump(engine, 0, 1)
        writer = engine.begin()
        engine.insert(writer, "T", (9, 9))
        assert engine.checkpoint() is None
        assert engine.metrics()["checkpoints.skipped"] == 1
        engine.commit(writer)
        assert engine.checkpoint() is not None

    def test_active_reader_does_not_block_checkpoints(self):
        engine = build_engine()
        bump(engine, 0, 1)
        reader = engine.begin(TxnIsolation.SNAPSHOT)
        engine.read_table(reader, "T")
        assert engine.checkpoint() is not None

    def test_recovery_from_checkpoint_restores_exact_state(self):
        engine = build_engine()
        for i in range(12):
            bump(engine, i % 3, i)
        engine.checkpoint()
        bump(engine, 7, 70)  # post-checkpoint suffix
        survivor = engine.crash()
        report = recover(survivor)
        assert table_contents(survivor) == {0: 9, 1: 10, 2: 11, 7: 70}
        # Only the post-checkpoint transaction was replayed.
        assert report.redone == 1

    def test_restart_cost_is_bounded_by_work_since_checkpoint(self):
        """The satellite's whole point: redo no longer scales with
        total history, only with the post-checkpoint suffix."""
        redone = []
        for history in (20, 80):
            engine = build_engine()
            engine.checkpoint_interval = 10
            for i in range(history):
                bump(engine, i % 5, i)
            before = table_contents(engine)
            survivor = engine.crash()
            report = recover(survivor)
            assert table_contents(survivor) == before
            redone.append(report.redone)
        short, long = redone
        assert long <= short + engine.checkpoint_interval, (
            f"redo grew with history: {redone}"
        )

    def test_post_checkpoint_loser_is_rolled_back(self):
        engine = build_engine()
        bump(engine, 0, 1)
        engine.checkpoint()
        loser = engine.begin()
        engine.insert(loser, "T", (5, 5))
        engine.wal.flush()  # ops durable, COMMIT never written
        survivor = engine.crash()
        report = recover(survivor)
        assert loser in report.losers
        assert table_contents(survivor) == {0: 1}

    def test_checkpoint_preserves_commit_timestamps_for_snapshots(self):
        engine = build_engine()
        bump(engine, 0, 1)   # commit ts 1
        bump(engine, 0, 2)   # commit ts 2
        engine.checkpoint()
        survivor = engine.crash()
        recover(survivor)
        assert survivor.oracle.last_commit_ts == engine.oracle.last_commit_ts
        # The restored version carries its original begin_ts, so a
        # (hypothetical) snapshot between ts1 and ts2 stays empty-handed
        # rather than seeing the row at the wrong time.
        [version] = survivor.db.table("T").versions_of(
            survivor.db.table("T").lookup_pk((0,)).rid
        )
        assert version.begin_ts == 2

    def test_auto_checkpoint_interval_fires(self):
        engine = build_engine()
        engine.checkpoint_interval = 5
        for i in range(12):
            bump(engine, i, i)
        assert engine.metrics()["checkpoints.taken"] >= 2
        # The WAL stays short: bounded by the interval, not the history.
        assert len(engine.wal) < 5 * 4 + 2

    def test_new_transactions_keep_ids_unique_after_restart(self):
        engine = build_engine()
        for i in range(6):
            bump(engine, i, i)
        engine.checkpoint()
        survivor = engine.crash()
        recover(survivor)
        txn = survivor.begin()
        assert txn > 6  # ids continue past everything the image recorded
        survivor.insert(txn, "T", (100, 100))
        survivor.commit(txn)
        assert table_contents(survivor)[100] == 100


class TestShardedCheckpoint:
    @pytest.mark.parametrize("name", STORES)
    def test_a_checkpoint_counts_once_whatever_the_shard_count(self, name):
        """One checkpoint of a store — skipped under an active writer, or
        taken once it commits — is one count, not one per shard."""
        store = STORES[name]()
        try:
            store.create_table(TableSchema.build(
                "T", [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
                primary_key=["k"],
            ))
            store.load("T", [(k, k) for k in range(8)])
            writer = store.begin()
            store.insert(writer, "T", (9, 9))
            assert not store.checkpoint()
            counted = lambda: (  # noqa: E731
                store.metrics()["checkpoints.taken"],
                store.metrics()["checkpoints.skipped"])
            assert counted() == (0, 1)
            store.commit(writer)
            assert store.checkpoint()
            assert counted() == (1, 1)
        finally:
            store.close()

    def test_ensemble_checkpoints_bound_per_shard_logs(self):
        engine = ShardedStorageEngine(2)
        engine.create_table(TableSchema.build(
            "T",
            [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
            primary_key=["k"],
        ))
        engine.checkpoint_interval = 4
        for i in range(24):
            bump(engine, i % 8, i)
        # Ensemble cadence: every shard checkpoints (at the same
        # quiescent instants).
        for shard in engine.shards:
            assert shard.metrics()["checkpoints.taken"] >= 1
        before = table_contents(engine)
        survivor = engine.crash()
        report = recover(survivor)
        assert table_contents(survivor) == before
        assert report.redone < 24  # bounded by the per-shard suffixes

    def test_checkpointed_cross_shard_commit_is_not_misread_as_torn(self):
        """Regression: a lone shard truncating its WAL used to erase its
        copy of a cross-shard COMMIT while the partner shard's copy
        still named it as a participant — recovery then rolled back the
        (fully committed) transaction as torn.  Ensemble checkpoints
        remove the asymmetry."""
        engine = ShardedStorageEngine(2)
        engine.create_table(TableSchema.build(
            "T",
            [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
            primary_key=["k"],
        ))
        a = 0
        b = next(
            k for k in range(1, 32)
            if engine.route_key("T", (k,)) != engine.route_key("T", (0,))
        )
        txn = engine.begin()
        engine.insert(txn, "T", (a, 1))
        engine.insert(txn, "T", (b, 1))
        engine.commit(txn)
        assert engine.checkpoint()
        survivor = engine.crash()
        report = recover(survivor)
        assert txn not in report.losers
        assert table_contents(survivor) == {a: 1, b: 1}

    def test_ensemble_checkpoint_skipped_while_any_shard_has_a_writer(self):
        engine = ShardedStorageEngine(2)
        engine.create_table(TableSchema.build(
            "T",
            [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
            primary_key=["k"],
        ))
        bump(engine, 0, 1)
        writer = engine.begin()
        engine.insert(writer, "T", (9, 9))
        assert engine.checkpoint() == []
        engine.commit(writer)
        assert engine.checkpoint()
