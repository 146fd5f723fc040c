"""Entanglement-aware recovery tests (Section 4 / Section 5.1).

The headline requirement: "if two transactions entangle and only one
manages to commit prior to a crash, both must be rolled back during
recovery."
"""


from repro.client import Client
from repro.core import EngineConfig, find_partial_groups
from repro.storage import ColumnType, TableSchema
from repro.storage.wal import LogRecordType
from repro.workloads import example_schema, figure1_rows

from _batch import submit, system_for


def persistent_system() -> Client:
    system = system_for(EngineConfig(persist_state=True))
    for schema in example_schema():
        system.create_table(schema)
    for table, rows in figure1_rows().items():
        system.load(table, rows)
    system.create_table(TableSchema.build(
        "FlightBookings",
        [("name", ColumnType.TEXT), ("fno", ColumnType.INTEGER)],
    ))
    return system


def pair_program(me: str, friend: str) -> str:
    return f"""
        BEGIN TRANSACTION WITH TIMEOUT 2 DAYS;
        SELECT '{me}', fno AS @fno, fdate INTO ANSWER FlightRes
        WHERE fno, fdate IN (SELECT fno, fdate FROM Flights WHERE dest='LA')
        AND ('{friend}', fno, fdate) IN ANSWER FlightRes
        CHOOSE 1;
        INSERT INTO FlightBookings (name, fno) VALUES ('{me}', @fno);
        COMMIT;
    """


def bookings(system: Client) -> list[tuple]:
    return sorted(
        tuple(r.values) for r in system.store.db.table("FlightBookings").scan()
    )


class TestHappyPathPersistence:
    def test_full_group_commit_survives_crash(self):
        system = persistent_system()
        submit(system, pair_program("Mickey", "Minnie"), "mickey")
        submit(system, pair_program("Minnie", "Mickey"), "minnie")
        system.run()
        assert len(bookings(system)) == 2
        recovered, report = system.crash_and_recover()
        assert report.partial_groups == []
        assert len(bookings(recovered)) == 2
        assert report.resubmitted == []

    def test_dormant_pool_survives_crash(self):
        system = persistent_system()
        submit(system, pair_program("Donald", "Daffy"), "donald")
        system.run()  # no partner: returned to pool
        recovered, report = system.crash_and_recover()
        assert len(report.resubmitted) == 1
        # The recovered engine can still run it (and it still finds no
        # partner, returning to the pool again).
        run = recovered.run()
        assert run.committed == []

    def test_recovered_transaction_can_complete(self):
        system = persistent_system()
        submit(system, pair_program("Mickey", "Minnie"), "mickey")
        system.run()
        recovered, report = system.crash_and_recover()
        assert len(report.resubmitted) == 1
        handle = report.resubmitted[0]
        submit(recovered, pair_program("Minnie", "Mickey"), "minnie")
        run = recovered.run()
        assert handle in run.committed
        assert len(bookings(recovered)) == 2


class TestPartialGroupRollback:
    def _crash_between_commits(self):
        """Run Mickey+Minnie to group commit, then surgically truncate the
        WAL so only Mickey's COMMIT is durable — the paper's 'only one
        manages to commit prior to a crash'."""
        system = persistent_system()
        submit(system, pair_program("Mickey", "Minnie"), "mickey")
        submit(system, pair_program("Minnie", "Mickey"), "minnie")
        system.run()
        wal = system.store.wal
        commit_lsns = [
            r.lsn for r in wal.records() if r.type is LogRecordType.COMMIT
        ]
        assert len(commit_lsns) >= 2
        # Rewind the durable watermark to just after the FIRST commit.
        wal._flushed_lsn = commit_lsns[-2]
        return system

    def test_partial_group_detected(self):
        system = self._crash_between_commits()
        crashed = system.store.crash()
        demote, partial = find_partial_groups(crashed)
        assert len(partial) == 1
        group_id, present, expected = partial[0]
        assert present == 1 and expected == 2
        assert len(demote) == 1

    def test_both_rolled_back_and_requeued(self):
        system = self._crash_between_commits()
        recovered, report = system.crash_and_recover()
        # Neither side's booking survives.
        assert bookings(recovered) == []
        assert len(report.demoted) == 1
        # Both transactions are back in the dormant pool for re-execution.
        assert len(report.resubmitted) == 2
        run = recovered.run()
        assert len(run.committed) == 2
        assert len(bookings(recovered)) == 2

    def test_commit_marker_rows_rolled_back_too(self):
        system = self._crash_between_commits()
        recovered, _report = system.crash_and_recover()
        commits_table = recovered.store.db.table("_youtopia_commits")
        assert len(commits_table) == 0


class TestRecoveryEdgeCases:
    def test_crash_before_any_run(self):
        system = persistent_system()
        submit(system, pair_program("Mickey", "Minnie"), "mickey")
        recovered, report = system.crash_and_recover()
        assert len(report.resubmitted) == 1

    def test_classical_transactions_unaffected(self):
        system = persistent_system()
        submit(system, """
            BEGIN TRANSACTION;
            INSERT INTO FlightBookings (name, fno) VALUES ('Solo', 122);
            COMMIT;
        """, "solo")
        system.run()
        recovered, report = system.crash_and_recover()
        assert bookings(recovered) == [("Solo", 122)]
        assert report.partial_groups == []

    def test_double_crash(self):
        system = persistent_system()
        submit(system, pair_program("Mickey", "Minnie"), "mickey")
        system.run()
        recovered, _ = system.crash_and_recover()
        recovered2, report2 = recovered.crash_and_recover()
        assert len(report2.resubmitted) == 1
        submit(recovered2, pair_program("Minnie", "Mickey"), "minnie")
        run = recovered2.run()
        assert len(run.committed) == 2
