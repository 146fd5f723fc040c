"""Engine-level acceptance tests for fine-grained read locking.

The refactor's contract at the middle tier: under ``IsolationConfig.FULL``,
transactions touching *disjoint* rows of one hot table complete in a
single run with zero lock waits, transactions that genuinely overlap (a
keyed reader vs. an insert of that key) still conflict, and the recorded
schedules remain entangled-isolated — the model-layer oracle certifies no
new anomalies were admitted in exchange for the throughput.
"""


from repro.client import Client
from repro.core import EngineConfig, IsolationConfig
from repro.model import IsolationLevel, check_isolation
from repro.storage import ColumnType, LockGranularity, StorageEngine, TableSchema

from _batch import submit, system_for


def build_system(*, record=False, granularity=LockGranularity.FINE) -> Client:
    store = StorageEngine(granularity=granularity)
    system = system_for(
        EngineConfig(isolation=IsolationConfig.FULL, record_schedule=record),
        store=store,
    )
    system.create_table(TableSchema.build(
        "Accounts",
        [("id", ColumnType.INTEGER), ("owner", ColumnType.TEXT),
         ("balance", ColumnType.FLOAT)],
        primary_key=["id"],
        indexes=[["owner"]],
    ))
    system.load("Accounts", [(i, f"u{i}", 100.0) for i in range(1, 9)])
    return system


def transfer(read_id: int, write_id: int) -> str:
    return f"""
        BEGIN TRANSACTION;
        SELECT balance AS @b FROM Accounts WHERE id={read_id};
        UPDATE Accounts SET balance = balance + 1 WHERE id={write_id};
        COMMIT;
    """


class TestDisjointRowsOneRun:
    def test_disjoint_transactions_commit_together_without_waits(self):
        system = build_system()
        handles = [
            submit(system, transfer(1, 2), "a"),
            submit(system, transfer(3, 4), "b"),
            submit(system, transfer(5, 6), "c"),
        ]
        report = system.run()
        assert sorted(report.committed) == sorted(handles)
        assert report.lock_waits == 0
        assert report.deadlocks == 0

    def test_table_granularity_baseline_serializes(self):
        # The control: the same workload under the seed's table locks
        # needs one run per transaction and hits lock waits.
        system = build_system(granularity=LockGranularity.TABLE)
        submit(system, transfer(1, 2), "a")
        submit(system, transfer(3, 4), "b")
        report = system.run()
        assert len(report.committed) == 1
        assert report.lock_waits > 0


class TestOverlapStillConflicts:
    def test_keyed_reader_vs_matching_insert(self):
        system = build_system()
        reader = """
            BEGIN TRANSACTION;
            SELECT id AS @i FROM Accounts WHERE owner='u1';
            SELECT id AS @j FROM Accounts WHERE owner='u1';
            COMMIT;
        """
        inserter = """
            BEGIN TRANSACTION;
            INSERT INTO Accounts (id, owner, balance) VALUES (100, 'u1', 0);
            COMMIT;
        """
        a = submit(system, reader, "reader")
        b = submit(system, inserter, "inserter")
        report = system.run()
        # The insert of an overlapping key cannot commit alongside the
        # keyed reader in the same run: phantom protection held.
        assert sorted(report.committed + report.returned_to_pool) == [a, b]
        assert len(report.committed) == 1
        assert report.lock_waits > 0
        system.drain()
        assert len(system.query("SELECT id FROM Accounts WHERE owner='u1'")) == 2


class TestOracleOnRecordedSchedules:
    def test_disjoint_contention_schedule_is_entangled_isolated(self):
        system = build_system(record=True)
        for i in range(4):
            submit(system, transfer(2 * i + 1, 2 * i + 2), f"c{i}")
        system.drain(max_runs=10)
        schedule = system.engine.recorded_schedule()
        check = check_isolation(schedule, IsolationLevel.FULL_ENTANGLED)
        assert check.ok, [str(v) for v in check.violations]

    def test_mixed_overlap_schedule_is_entangled_isolated(self):
        system = build_system(record=True)
        submit(system, transfer(1, 2), "a")
        submit(system, transfer(2, 3), "b")          # overlaps a's write
        submit(system, transfer(3, 3), "c")          # overlaps b everywhere
        submit(system, """
            BEGIN TRANSACTION;
            INSERT INTO Accounts (id, owner, balance) VALUES (50, 'u1', 0);
            COMMIT;
        """, "d")
        system.drain(max_runs=20)
        schedule = system.engine.recorded_schedule()
        check = check_isolation(schedule, IsolationLevel.FULL_ENTANGLED)
        assert check.ok, [str(v) for v in check.violations]
