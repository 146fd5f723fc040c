"""Sharded storage engine: routing, vector snapshots, equivalence, SSI.

The observational-equivalence property is the load-bearing test: the
same seeded operation sequence applied to a plain ``StorageEngine`` and
to ``ShardedStorageEngine`` at N in {1, 2, 4} must produce the same
committed contents, the same query answers and the same exceptions —
rows are addressed by primary key because rid assignment (deliberately)
differs between the engines.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DuplicateKeyError,
    SerializationFailureError,
    StorageError,
    WriteConflictError,
)
from repro.storage import (
    ColumnType,
    ShardedStorageEngine,
    StorageEngine,
    TableSchema,
    TxnIsolation,
    recover,
    shard_for_key,
)

SHARD_COUNTS = (1, 2, 4)


def build_sharded(n_shards: int) -> ShardedStorageEngine:
    engine = ShardedStorageEngine(n_shards)
    engine.create_table(TableSchema.build(
        "T",
        [("k", ColumnType.INTEGER), ("v", ColumnType.TEXT)],
        primary_key=["k"],
    ))
    return engine


def build_single() -> StorageEngine:
    engine = StorageEngine()
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


class TestRouting:
    def test_routing_is_deterministic_and_type_insensitive(self):
        for n in (2, 4, 8):
            assert shard_for_key((7,), n) == shard_for_key((7.0,), n)
            assert shard_for_key(("x", 1), n) == shard_for_key(("x", 1), n)

    def test_rows_land_on_their_routed_shard(self):
        engine = build_sharded(4)
        engine.load("T", [(k, f"v{k}") for k in range(16)])
        for k in range(16):
            home = engine.route_key("T", (k,))
            assert engine.shards[home].db.table("T").lookup_pk((k,)) is not None
            for i, shard in enumerate(engine.shards):
                if i != home:
                    assert shard.db.table("T").lookup_pk((k,)) is None

    def test_rid_namespacing_names_the_shard(self):
        engine = build_sharded(4)
        engine.load("T", [(k, f"v{k}") for k in range(16)])
        for row in engine.db.table("T").scan():
            home = engine.route_key("T", (row.values[0],))
            assert engine.shard_of_rid(row.rid) == home

    def test_equal_keys_colocate_across_tables(self):
        engine = build_sharded(4)
        engine.create_table(TableSchema.build(
            "J", [("k", ColumnType.INTEGER), ("n", ColumnType.INTEGER)],
            indexes=[["k"]],
        ))
        txn = engine.begin()
        for k in range(8):
            a = engine.insert(txn, "T", (k, f"v{k}"))
            b = engine.insert(txn, "J", (k, 1))
            assert engine.shard_of_rid(a.rid) == engine.shard_of_rid(b.rid)
        engine.commit(txn)


class TestVectorSnapshots:
    def test_cross_shard_reads_observe_a_consistent_cut(self):
        engine = build_sharded(4)
        engine.load("T", [(k, "old") for k in range(8)])
        reader = engine.begin(TxnIsolation.SNAPSHOT)
        writer = engine.begin()
        for row in list(engine.db.table("T").scan()):
            engine.update(writer, "T", row.rid, (row.values[0], "new"))
        engine.commit(writer)
        # The writer touched every shard; the reader's vector predates
        # all of it, so the cut shows the old value everywhere — never a
        # mix.
        seen = {
            row.values[1]
            for row in engine.snapshot_provider(reader).table("T").scan()
        }
        assert seen == {"old"}
        engine.commit(reader)
        fresh = engine.begin(TxnIsolation.SNAPSHOT)
        seen = {
            row.values[1]
            for row in engine.snapshot_provider(fresh).table("T").scan()
        }
        assert seen == {"new"}

    def test_vector_has_one_component_per_shard(self):
        engine = build_sharded(4)
        engine.load("T", [(k, "x") for k in range(8)])
        txn = engine.begin(TxnIsolation.SNAPSHOT)
        assert len(engine.context(txn).vector) == 4
        assert engine.snapshot_provider(txn).vector == engine.context(txn).vector

    def test_single_shard_txn_stays_pinned_to_home_shard(self):
        engine = build_sharded(4)
        engine.load("T", [(k, "x") for k in range(8)])
        cross_before = engine.metrics()["cross_shard_commits"]  # bulk load crosses
        txn = engine.begin()
        home = engine.route_key("T", (3,))
        row = engine.db.table("T").lookup_pk((3,))
        engine.update(txn, "T", row.rid, (3, "y"))
        assert engine.context(txn).begun == [home]
        assert engine.written_shards(txn) == [home]
        engine.commit(txn)
        assert engine.metrics()["cross_shard_commits"] == cross_before

    def test_first_updater_wins_per_shard(self):
        engine = build_sharded(2)
        engine.load("T", [(k, "x") for k in range(4)])
        a = engine.begin(TxnIsolation.SNAPSHOT)
        b = engine.begin(TxnIsolation.SNAPSHOT)
        row = engine.db.table("T").lookup_pk((0,))
        engine.update(a, "T", row.rid, (0, "a"))
        engine.commit(a)
        with pytest.raises(WriteConflictError):
            engine.update(b, "T", row.rid, (0, "b"))


class TestCrossShardWrites:
    def test_pk_update_migrates_between_shards(self):
        engine = build_sharded(2)
        engine.load("T", [(0, "zero")])
        # pick a target key routed to the other shard
        src = engine.route_key("T", (0,))
        new_key = next(
            k for k in range(1, 32) if engine.route_key("T", (k,)) != src
        )
        txn = engine.begin()
        row = engine.db.table("T").lookup_pk((0,))
        old, new = engine.update(txn, "T", row.rid, (new_key, "moved"))
        engine.commit(txn)
        assert engine.db.table("T").lookup_pk((0,)) is None
        moved = engine.db.table("T").lookup_pk((new_key,))
        assert moved is not None and moved.values[1] == "moved"
        assert engine.shard_of_rid(moved.rid) == engine.route_key(
            "T", (new_key,)
        )
        assert len(engine.written_shards(txn)) == 2

    def test_cross_shard_commit_counts_and_survives_recovery(self):
        engine = build_sharded(2)
        src_key = 0
        dst_key = next(
            k for k in range(1, 32)
            if engine.route_key("T", (k,)) != engine.route_key("T", (0,))
        )
        engine.load("T", [(src_key, "a"), (dst_key, "b")])
        cross_before = engine.metrics()["cross_shard_commits"]
        txn = engine.begin()
        for key, value in ((src_key, "a2"), (dst_key, "b2")):
            row = engine.db.table("T").lookup_pk((key,))
            engine.update(txn, "T", row.rid, (key, value))
        engine.commit(txn)
        assert engine.metrics()["cross_shard_commits"] == cross_before + 1
        survivor = engine.crash()
        recover(survivor)
        assert contents(survivor) == {src_key: "a2", dst_key: "b2"}

    def test_torn_cross_shard_commit_rolls_back_everywhere(self):
        engine = build_sharded(2)
        src_key = 0
        dst_key = next(
            k for k in range(1, 32)
            if engine.route_key("T", (k,)) != engine.route_key("T", (0,))
        )
        engine.load("T", [(src_key, "a"), (dst_key, "b")])
        marks = [shard.wal.last_lsn for shard in engine.shards]
        txn = engine.begin()
        for key, value in ((src_key, "a2"), (dst_key, "b2")):
            row = engine.db.table("T").lookup_pk((key,))
            engine.update(txn, "T", row.rid, (key, value))
        engine.commit(txn)
        # Tear the commit: one shard's COMMIT flush is lost in the crash
        # (rewind its durable watermark to before the transaction).
        victim = engine.route_key("T", (dst_key,))
        engine.shards[victim].wal._flushed_lsn = marks[victim]
        survivor = engine.crash()
        report = recover(survivor)
        assert txn in report.losers and txn not in report.winners
        # Atomicity: the half that *was* durable rolled back too.
        assert contents(survivor) == {src_key: "a", dst_key: "b"}
        assert txn not in survivor.durably_committed_txns()


class TestCrossShardSSI:
    def test_cross_shard_write_skew_is_aborted(self):
        """T1 reads x (shard A) writes y (shard B); T2 the converse.
        Each shard alone sees half the dangerous structure — only the
        global tracker can abort the pivot."""
        engine = build_sharded(2)
        x = 0
        y = next(
            k for k in range(1, 32)
            if engine.route_key("T", (k,)) != engine.route_key("T", (0,))
        )
        engine.load("T", [(x, "0"), (y, "0")])
        t1 = engine.begin(TxnIsolation.SERIALIZABLE)
        t2 = engine.begin(TxnIsolation.SERIALIZABLE)
        p1 = engine.snapshot_provider(t1).table("T")
        p2 = engine.snapshot_provider(t2).table("T")
        from repro.storage import ReadAccess

        assert p1.lookup_pk((x,)) is not None
        engine.observe_snapshot_read(
            t1, ReadAccess.index_key("T", ("k",), (x,)))
        assert p2.lookup_pk((y,)) is not None
        engine.observe_snapshot_read(
            t2, ReadAccess.index_key("T", ("k",), (y,)))
        row_y = engine.db.table("T").lookup_pk((y,))
        engine.update(t1, "T", row_y.rid, (y, "1"))
        row_x = engine.db.table("T").lookup_pk((x,))
        engine.update(t2, "T", row_x.rid, (x, "1"))
        engine.commit(t1)
        with pytest.raises(SerializationFailureError):
            engine.commit(t2)
        engine.abort(t2)

    def test_group_validation_spans_shards(self):
        engine = build_sharded(2)
        engine.load("T", [(k, "0") for k in range(8)])
        t1 = engine.begin(TxnIsolation.SERIALIZABLE)
        row = engine.db.table("T").lookup_pk((0,))
        engine.update(t1, "T", row.rid, (0, "1"))
        assert not engine.serialization_doomed_group([t1])
        engine.commit(t1)


class TestCrossShardDeadlocks:
    def test_cross_shard_wait_cycle_raises_deadlock(self):
        """Regression: each shard's lock manager sees only its half of a
        cross-shard wait cycle; the shared waits-for graph makes the
        closing request raise DeadlockError like a single-shard engine."""
        from repro.errors import DeadlockError
        from repro.storage.engine import WouldBlock

        engine = build_sharded(2)
        x = 0
        y = next(
            k for k in range(1, 32)
            if engine.route_key("T", (k,)) != engine.route_key("T", (0,))
        )
        engine.load("T", [(x, "0"), (y, "0")])
        a = engine.begin()
        b = engine.begin()
        row_x = engine.db.table("T").lookup_pk((x,))
        row_y = engine.db.table("T").lookup_pk((y,))
        engine.update(a, "T", row_x.rid, (x, "a"))   # a holds shard(x)
        engine.update(b, "T", row_y.rid, (y, "b"))   # b holds shard(y)
        with pytest.raises(WouldBlock):
            engine.update(a, "T", row_y.rid, (y, "a"))  # a waits for b
        with pytest.raises(DeadlockError):
            engine.update(b, "T", row_x.rid, (x, "b"))  # closes the cycle
        assert engine.metrics()["locks.deadlocks"] == 1
        engine.abort(b)  # victim releases; a can proceed
        engine.update(a, "T", row_y.rid, (y, "a"))
        engine.commit(a)


class TestShardedEquivalence:
    """The tentpole property: same workload, same observable outcomes."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n_shards=st.sampled_from(SHARD_COUNTS),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "update", "delete", "lookup"]),
                st.integers(min_value=0, max_value=9),
                st.sampled_from(["a", "b", "c"]),
            ),
            min_size=1, max_size=30,
        ),
        commit_every=st.integers(min_value=1, max_value=5),
    )
    def test_sharded_engine_is_observationally_equivalent(
        self, n_shards, ops, commit_every
    ):
        single = build_single()
        sharded = build_sharded(n_shards)
        txns = {"single": single.begin(), "sharded": sharded.begin()}

        def apply(engine, txn, op, key, value):
            """Returns (outcome, payload) with rids abstracted away."""
            table = engine.db.table("T")
            if op == "insert":
                try:
                    engine.insert(txn, "T", (key, value))
                    return ("inserted", None)
                except DuplicateKeyError:
                    return ("duplicate", None)
            row = table.lookup_pk((key,))
            if op == "lookup":
                return ("row", None if row is None else tuple(row.values))
            if row is None:
                return ("missing", None)
            if op == "update":
                engine.update(txn, "T", row.rid, (key, value))
                return ("updated", None)
            engine.delete(txn, "T", row.rid)
            return ("deleted", None)

        for i, (op, key, value) in enumerate(ops):
            out_single = apply(single, txns["single"], op, key, value)
            out_sharded = apply(sharded, txns["sharded"], op, key, value)
            assert out_single == out_sharded, (op, key, value)
            if (i + 1) % commit_every == 0:
                single.commit(txns["single"])
                sharded.commit(txns["sharded"])
                assert contents(single) == contents(sharded)
                txns = {"single": single.begin(), "sharded": sharded.begin()}
        single.abort(txns["single"])
        sharded.abort(txns["sharded"])
        assert contents(single) == contents(sharded)
        assert sharded.db.content_equal(single.db)


class TestCrashRecoveryFuzz:
    """Crash-at-watermark fuzz over the per-shard WALs."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        n_shards=st.sampled_from((2, 4)),
        batches=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(["insert", "update", "delete"]),
                    st.integers(min_value=0, max_value=7),
                ),
                min_size=1, max_size=4,
            ),
            min_size=1, max_size=6,
        ),
        crash_after=st.integers(min_value=0, max_value=5),
    )
    def test_recovery_restores_exactly_the_committed_batches(
        self, n_shards, batches, crash_after
    ):
        engine = build_sharded(n_shards)
        committed: dict[int, str] = {}
        for batch_index, batch in enumerate(batches):
            if batch_index == crash_after:
                break
            txn = engine.begin()
            pending = dict(committed)
            ok = True
            try:
                for op, key in batch:
                    row = engine.db.table("T").lookup_pk((key,))
                    if op == "insert":
                        engine.insert(txn, "T", (key, f"b{batch_index}"))
                        pending[key] = f"b{batch_index}"
                    elif op == "update" and row is not None:
                        engine.update(
                            txn, "T", row.rid, (key, f"u{batch_index}")
                        )
                        pending[key] = f"u{batch_index}"
                    elif op == "delete" and row is not None:
                        engine.delete(txn, "T", row.rid)
                        pending.pop(key, None)
            except (DuplicateKeyError, StorageError):
                engine.abort(txn)
                ok = False
            if ok:
                engine.commit(txn)
                committed = pending
        survivor = engine.crash()
        recover(survivor)
        assert contents(survivor) == committed
        # The vector state reconverged: every shard's oracle sits at the
        # timestamp its own WAL last committed.
        for shard in survivor.shards:
            stamped = shard.wal.commit_timestamps(durable_only=True)
            expected = max(stamped.values(), default=0)
            assert shard.oracle.last_commit_ts >= expected
