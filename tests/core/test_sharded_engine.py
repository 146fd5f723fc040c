"""The middle tier over a sharded store: reports, equivalence, recovery.

The engine-level equivalence property drives the same seeded SQL
workloads (the fuzz harness's generator) through the run-based scheduler
over a single-shard store and over sharded stores at N in {1, 2, 4},
and demands identical committed contents — the scheduler, interpreter,
grounding and commit paths all route through the shard layer without
changing observable behavior.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _batch import engine_for
from repro.core.engine import (
    EngineConfig,
    IsolationConfig,
)
from repro.client import connect
from repro.core.interactive import SessionState
from repro.core.policies import ManualPolicy
from repro.core.recovery import recover_entangled
from repro.core.transaction import TxnPhase
from repro.storage import (
    ColumnType,
    ShardedStorageEngine,
    StorageEngine,
    TableSchema,
    TxnIsolation,
)

TABLES = ("T0", "T1", "T2")
KEY_OF = {"T0": 0, "T1": 1, "T2": 2}


def build_store(n_shards: int):
    store = (
        ShardedStorageEngine(n_shards) if n_shards > 1 else StorageEngine()
    )
    for name in TABLES:
        store.create_table(TableSchema.build(
            name,
            [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
            primary_key=["k"],
        ))
        store.load(name, [(KEY_OF[name], 10)])
    return store


def final_contents(store) -> dict[str, int]:
    txn = store.begin()
    return {
        name: store.read_table(txn, name)[0].values[1] for name in TABLES
    }


@st.composite
def workloads(draw):
    n_txns = draw(st.integers(min_value=2, max_value=4))
    programs = []
    for t in range(n_txns):
        statements = []
        for i in range(draw(st.integers(min_value=1, max_value=3))):
            table = draw(st.sampled_from(TABLES))
            key = KEY_OF[table]
            if draw(st.booleans()):
                statements.append(
                    f"SELECT v AS @r{t}_{i} FROM {table} WHERE k = {key};"
                )
            else:
                delta = draw(st.integers(min_value=1, max_value=3))
                statements.append(
                    f"UPDATE {table} SET v = v + {delta} WHERE k = {key};"
                )
        programs.append(
            "BEGIN TRANSACTION; " + " ".join(statements) + " COMMIT;"
        )
    order = draw(st.permutations(tuple(range(n_txns))))
    chunks = draw(
        st.lists(st.integers(min_value=1, max_value=n_txns),
                 min_size=1, max_size=3)
    )
    return programs, list(order), chunks


def run_workload(mode: IsolationConfig, n_shards: int, workload):
    programs, order, chunks = workload
    store = build_store(n_shards)
    engine = engine_for(store, EngineConfig(isolation=mode))
    # Kept from submission: the engine forgets a finished transaction.
    txns = [engine.transaction(engine.submit(p, client=f"c{i}"))
            for i, p in enumerate(programs)]
    handles = [txn.handle for txn in txns]
    shuffled = [handles[i] for i in order]
    position = 0
    for size in chunks:
        if position >= len(shuffled):
            break
        engine.run_once(handles=shuffled[position:position + size])
        position += size
    engine.drain()
    for txn in txns:
        assert txn.phase is TxnPhase.COMMITTED, (
            f"shards={n_shards} txn {txn.handle} did not commit: "
            f"{txn.abort_reason}"
        )
    return engine


class TestShardedEngineEquivalence:
    """Same seeded workloads, every shard count, same final database."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(workload=workloads())
    @pytest.mark.parametrize("mode", [
        IsolationConfig.FULL,
        IsolationConfig.SNAPSHOT,
        IsolationConfig.SERIALIZABLE,
    ])
    def test_all_shard_counts_agree_with_single_shard(self, mode, workload):
        baseline = final_contents(
            run_workload(mode, 1, workload).store
        )
        for n_shards in (2, 4):
            contents = final_contents(
                run_workload(mode, n_shards, workload).store
            )
            assert contents == baseline, (
                f"{mode.value} at {n_shards} shards diverged: "
                f"{contents} != {baseline}"
            )


class TestPerShardReporting:
    def test_run_report_carries_cross_shard_counters(self):
        store = build_store(4)
        engine = engine_for(
            store, EngineConfig(isolation=IsolationConfig.SNAPSHOT))
        # One single-shard txn per table: commits land on each table's
        # home shard; the cross-table txn below crosses shards.
        for name in TABLES:
            engine.submit(
                f"BEGIN TRANSACTION; UPDATE {name} SET v = v + 1 "
                f"WHERE k = {KEY_OF[name]}; COMMIT;"
            )
        engine.submit(
            "BEGIN TRANSACTION; "
            "UPDATE T0 SET v = v + 1 WHERE k = 0; "
            "UPDATE T1 SET v = v + 1 WHERE k = 1; COMMIT;"
        )
        engine.drain()
        all_reports = engine.run_reports
        # The retried write-conflict attempts notwithstanding, every
        # transaction commits, one of them across shards.
        assert sum(len(r.committed) for r in all_reports) == len(TABLES) + 1
        assert sum(r.cross_shard_commits for r in all_reports) == 1
        cross = [r.cross_shard_share for r in all_reports if r.committed]
        assert any(share > 0 for share in cross)

    def test_single_shard_store_reports_no_cross_shard_commit(self):
        store = build_store(1)
        engine = engine_for(store)
        engine.submit(
            "BEGIN TRANSACTION; UPDATE T0 SET v = v + 1 WHERE k = 0; COMMIT;"
        )
        report = engine.run_once()
        assert report.committed == [1]
        assert report.cross_shard_commits == 0

    def test_engine_config_shards_builds_a_sharded_store(self):
        with connect(shards=4, policy=ManualPolicy()) as client:
            assert isinstance(client.engine.store, ShardedStorageEngine)
            assert client.engine.store.n_shards == 4


class TestInteractiveSharded:
    def test_sessions_and_group_commit_over_shards(self):
        with connect(shards=2, isolation="snapshot") as client:
            broker = client.broker
            store = broker.store
            assert isinstance(store, ShardedStorageEngine)
            assert broker.default_isolation is TxnIsolation.SNAPSHOT
            for name in TABLES:
                store.create_table(TableSchema.build(
                    name,
                    [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
                    primary_key=["k"],
                ))
                store.load(name, [(KEY_OF[name], 10)])
            session = broker.open_session("alice")
            session.execute("UPDATE T0 SET v = v + 1 WHERE k = 0;")
            session.execute("UPDATE T1 SET v = v + 1 WHERE k = 1;")
            assert session.commit()
            assert session.state is SessionState.COMMITTED
            assert store.metrics()["cross_shard_commits"] >= 1
            check = store.begin()
            assert store.read_table(check, "T0")[0].values[1] == 11
            assert store.read_table(check, "T1")[0].values[1] == 11
            store.abort(check)

    def test_snapshot_session_reads_consistent_vector_cut(self):
        with connect(shards=4) as client:
            broker = client.broker
            store = broker.store
            for name in TABLES:
                store.create_table(TableSchema.build(
                    name,
                    [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
                    primary_key=["k"],
                ))
                store.load(name, [(KEY_OF[name], 10)])
            reader = broker.open_session("r", isolation=TxnIsolation.SNAPSHOT)
            writer = broker.open_session("w")
            # The session's vector snapshot anchors at its *first statement*
            # (an idle session is parked and pins no vacuum horizon), so the
            # reader observes T0 before the writer runs to fix its cut.
            first = reader.execute(
                f"SELECT v AS @v FROM T0 WHERE k = {KEY_OF['T0']};")
            assert first.rows[0][0] == 10
            for name in TABLES:
                writer.execute(
                    f"UPDATE {name} SET v = 99 WHERE k = {KEY_OF[name]};"
                )
            assert writer.commit()
            for name in TABLES:
                result = reader.execute(
                    f"SELECT v AS @v FROM {name} WHERE k = {KEY_OF[name]};"
                )
                assert result.rows[0][0] == 10, f"{name} leaked the new value"
            reader.abort()


class TestEntangledOverShards:
    """Entangled queries ground against the sharded store: the batch
    evaluator's grounding runs over the union views (2PL) or the vector
    snapshot provider (MVCC), and entanglement groups commit atomically
    through the global SSI group validation."""

    @pytest.mark.parametrize("mode", [
        IsolationConfig.FULL,
        IsolationConfig.SNAPSHOT,
        IsolationConfig.SERIALIZABLE,
    ])
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_entangled_pair_group_commits(self, mode, n_shards):
        from repro.workloads import example_schema, figure1_rows

        store = ShardedStorageEngine(n_shards)
        engine = engine_for(store, EngineConfig(isolation=mode))
        for schema in example_schema():
            store.create_table(schema)
        for table, rows in figure1_rows().items():
            store.load(table, rows)
        store.create_table(TableSchema.build(
            "FlightBookings",
            [("name", ColumnType.TEXT), ("fno", ColumnType.INTEGER)],
        ))

        def program(me, friend):
            return f"""
                BEGIN TRANSACTION WITH TIMEOUT 2 DAYS;
                SELECT '{me}', fno AS @fno, fdate INTO ANSWER FlightRes
                WHERE fno, fdate IN
                    (SELECT fno, fdate FROM Flights WHERE dest='LA')
                AND ('{friend}', fno, fdate) IN ANSWER FlightRes
                CHOOSE 1;
                INSERT INTO FlightBookings (name, fno) VALUES ('{me}', @fno);
                COMMIT;
            """

        a = engine.submit(program("Mickey", "Minnie"), "mickey")
        b = engine.submit(program("Minnie", "Mickey"), "minnie")
        report = engine.run_once()
        assert sorted(report.committed) == [a, b]
        txn = store.begin()
        assert len(store.read_table(txn, "FlightBookings")) == 2


class TestEntangledRecoverySharded:
    def test_recover_entangled_rebuilds_pool_from_shard_wals(self):
        store = ShardedStorageEngine(2)
        config = EngineConfig(persist_state=True)
        engine = engine_for(store, config)
        store.create_table(TableSchema.build(
            "T",
            [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
            primary_key=["k"],
        ))
        store.load("T", [(0, 10), (1, 10)])
        done = engine.transaction(engine.submit(
            "BEGIN TRANSACTION; UPDATE T SET v = v + 1 WHERE k = 0; COMMIT;"
        ))
        engine.run_once()
        assert done.phase is TxnPhase.COMMITTED
        # A dormant transaction queued but never run: must survive.
        engine.submit(
            "BEGIN TRANSACTION; UPDATE T SET v = v + 5 WHERE k = 1; COMMIT;"
        )
        crashed = store.crash()
        rebuilt, report = recover_entangled(crashed, config, ManualPolicy())
        assert len(report.resubmitted) == 1
        rebuilt.drain()
        check = crashed.begin()
        values = {
            row.values[0]: row.values[1]
            for row in crashed.read_table(check, "T")
        }
        assert values == {0: 11, 1: 15}
