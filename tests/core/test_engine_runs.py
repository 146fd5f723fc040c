"""Integration tests for the run-based execution engine (Section 4).

Includes the Figure 4 walk-through as an executable test.
"""


from repro.core import (
    ArrivalCountPolicy,
    EmptyAnswerPolicy,
    EngineConfig,
    IsolationConfig,
    TxnPhase,
)
from repro.client import Client
from repro.model import find_widowed_transactions, is_entangled_isolated
from repro.sim.clock import VirtualClock
from repro.storage import ColumnType, TableSchema
from repro.workloads import example_schema, figure1_rows

from _batch import submit, system_for, ticket


def make_system(config: EngineConfig | None = None, clock=None) -> Client:
    system = system_for(config, clock=clock)
    for schema in example_schema():
        system.create_table(schema)
    for table, rows in figure1_rows().items():
        system.load(table, rows)
    system.load("Hotels", [(7, "LA"), (9, "LA"), (11, "Paris")])
    system.create_table(TableSchema.build(
        "FlightBookings",
        [("name", ColumnType.TEXT), ("fno", ColumnType.INTEGER)],
    ))
    system.create_table(TableSchema.build(
        "HotelBookings",
        [("name", ColumnType.TEXT), ("hid", ColumnType.INTEGER)],
    ))
    return system


def travel_program(me: str, friend: str) -> str:
    """The Figure 2 transaction: coordinate on flight, book, coordinate
    on hotel, book."""
    return f"""
        BEGIN TRANSACTION WITH TIMEOUT 2 DAYS;
        SELECT '{me}', fno AS @fno, fdate INTO ANSWER FlightRes
        WHERE fno, fdate IN (SELECT fno, fdate FROM Flights WHERE dest='LA')
        AND ('{friend}', fno, fdate) IN ANSWER FlightRes
        CHOOSE 1;
        INSERT INTO FlightBookings (name, fno) VALUES ('{me}', @fno);
        SELECT '{me}', hid AS @hid INTO ANSWER HotelRes
        WHERE hid IN (SELECT hid FROM Hotels WHERE location='LA')
        AND ('{friend}', hid) IN ANSWER HotelRes
        CHOOSE 1;
        INSERT INTO HotelBookings (name, hid) VALUES ('{me}', @hid);
        COMMIT;
    """


class TestFigure4Walkthrough:
    """The example run of three transactions (Section 4, Figure 4)."""

    def test_first_run_aborts_unmatched_pair(self):
        system = make_system()
        mickey = submit(system, travel_program("Mickey", "Minnie"), "mickey")
        donald = submit(system, travel_program("Donald", "Daffy"), "donald")
        report = system.run()
        # "Neither transaction is able to progress; therefore, the system
        # immediately aborts the run and returns both transactions."
        assert report.committed == []
        assert sorted(report.returned_to_pool) == [mickey, donald]
        assert ticket(system, mickey).phase is TxnPhase.DORMANT

    def test_second_run_commits_mickey_and_minnie(self):
        system = make_system()
        mickey = submit(system, travel_program("Mickey", "Minnie"), "mickey")
        donald = submit(system, travel_program("Donald", "Daffy"), "donald")
        system.run()
        minnie = submit(system, travel_program("Minnie", "Mickey"), "minnie")
        report = system.run()
        assert sorted(report.committed) == [mickey, minnie]
        assert report.returned_to_pool == [donald]
        # Both coordinated on the same flight and hotel.
        flights = {name: fno for name, fno in (
            tuple(r.values) for r in
            system.store.db.table("FlightBookings").scan())}
        hotels = {name: hid for name, hid in (
            tuple(r.values) for r in
            system.store.db.table("HotelBookings").scan())}
        assert flights["Mickey"] == flights["Minnie"]
        assert hotels["Mickey"] == hotels["Minnie"]
        assert hotels["Mickey"] in (7, 9)

    def test_synchronization_point_semantics(self):
        # "if Minnie manages to coordinate with Mickey's transaction on a
        # hotel, she knows that he has already booked his flight": the
        # hotel entanglement happens in a later round than both flight
        # bookings — both flight bookings exist at commit time.
        system = make_system()
        submit(system, travel_program("Mickey", "Minnie"), "mickey")
        submit(system, travel_program("Minnie", "Mickey"), "minnie")
        report = system.run()
        assert report.evaluation_rounds >= 2
        assert len(report.committed) == 2

    def test_host_variables_captured(self):
        system = make_system()
        mickey = submit(system, travel_program("Mickey", "Minnie"), "mickey")
        submit(system, travel_program("Minnie", "Mickey"), "minnie")
        system.run()
        variables = ticket(system, mickey).host_variables()
        assert variables["@fno"] in (122, 123, 124)
        assert variables["@hid"] in (7, 9)


class TestGroupCommit:
    def test_partial_group_aborts_together(self):
        # Mickey's partner stalls on the *hotel* stage: give Minnie a
        # hotel partner constraint that nobody offers ("Goofy"), so both
        # entangle on the flight but Minnie blocks at the hotel query.
        system = make_system()
        mickey = submit(system, travel_program("Mickey", "Minnie"), "mickey")
        minnie = submit(system, """
            BEGIN TRANSACTION WITH TIMEOUT 2 DAYS;
            SELECT 'Minnie', fno, fdate INTO ANSWER FlightRes
            WHERE fno, fdate IN (SELECT fno, fdate FROM Flights WHERE dest='LA')
            AND ('Mickey', fno, fdate) IN ANSWER FlightRes
            CHOOSE 1;
            SELECT 'Minnie', hid INTO ANSWER HotelRes
            WHERE hid IN (SELECT hid FROM Hotels WHERE location='LA')
            AND ('Goofy', hid) IN ANSWER HotelRes
            CHOOSE 1;
            COMMIT;
        """, "minnie")
        report = system.run()
        # Mickey reaches his hotel query; nobody for either: both retried.
        assert report.committed == []
        assert sorted(report.returned_to_pool) == [mickey, minnie]
        # The flight bookings from the failed attempt were rolled back.
        assert len(system.store.db.table("FlightBookings")) == 0

    MINNIE_ABORTS = """
        BEGIN TRANSACTION WITH TIMEOUT 2 DAYS;
        SELECT 'Minnie', fno, fdate INTO ANSWER FlightRes
        WHERE fno, fdate IN (SELECT fno, fdate FROM Flights WHERE dest='LA')
        AND ('Mickey', fno, fdate) IN ANSWER FlightRes
        CHOOSE 1;
        ROLLBACK;
        COMMIT;
    """
    MICKEY_FLIGHT_ONLY = """
        BEGIN TRANSACTION WITH TIMEOUT 2 DAYS;
        SELECT 'Mickey', fno, fdate AS @d INTO ANSWER FlightRes
        WHERE fno, fdate IN (SELECT fno, fdate FROM Flights WHERE dest='LA')
        AND ('Minnie', fno, fdate) IN ANSWER FlightRes
        CHOOSE 1;
        INSERT INTO FlightBookings (name, fno) VALUES ('Mickey', 0);
        COMMIT;
    """

    def test_no_group_commit_creates_widows(self):
        # Ablation: with group commit off, Mickey commits even though his
        # entanglement partner aborted after they coordinated — the widow
        # anomaly of Figure 3(a).
        config = EngineConfig(
            isolation=IsolationConfig.NO_GROUP_COMMIT,
            record_schedule=True,
        )
        system = make_system(config)
        mickey = submit(system, self.MICKEY_FLIGHT_ONLY, "mickey")
        submit(system, self.MINNIE_ABORTS, "minnie")
        report = system.run()
        assert report.committed == [mickey]
        schedule = system.engine.recorded_schedule()
        assert find_widowed_transactions(schedule)
        assert not is_entangled_isolated(schedule)

    def test_group_commit_prevents_the_same_widow(self):
        # Identical scenario under FULL isolation: Mickey's entanglement
        # partner aborted, so Mickey's attempt must abort and retry.
        config = EngineConfig(record_schedule=True)
        system = make_system(config)
        mickey = submit(system, self.MICKEY_FLIGHT_ONLY, "mickey")
        submit(system, self.MINNIE_ABORTS, "minnie")
        report = system.run()
        assert report.committed == []
        assert mickey in report.returned_to_pool
        schedule = system.engine.recorded_schedule()
        assert not find_widowed_transactions(schedule)

    def test_full_isolation_schedules_are_isolated(self):
        config = EngineConfig(record_schedule=True)
        system = make_system(config)
        submit(system, travel_program("Mickey", "Minnie"), "mickey")
        submit(system, travel_program("Minnie", "Mickey"), "minnie")
        submit(system, travel_program("Donald", "Daffy"), "donald")
        system.run()
        schedule = system.engine.recorded_schedule()
        assert is_entangled_isolated(schedule)


class TestTimeouts:
    def test_expired_transaction_times_out(self):
        system = make_system(EngineConfig(), clock=VirtualClock())
        donald = submit(system, 
            travel_program("Donald", "Daffy").replace("2 DAYS", "1 SECONDS"),
            "donald",
        )
        system.run()
        assert ticket(system, donald).phase is TxnPhase.DORMANT
        system.engine.clock.advance(5.0)
        report = system.run()
        assert report.timed_out == [donald]
        assert ticket(system, donald).phase is TxnPhase.TIMED_OUT

    def test_no_timeout_cycles_forever(self):
        system = make_system()
        donald = submit(system, travel_program("Donald", "Daffy"), "donald")
        reports = system.drain(max_runs=50)
        # drain stops on no-progress; Donald still dormant.
        assert len(reports) < 50
        assert ticket(system, donald).phase is TxnPhase.DORMANT


class TestRollbackAndErrors:
    def test_explicit_rollback_aborts_permanently(self):
        system = make_system()
        handle = submit(system, """
            BEGIN TRANSACTION;
            INSERT INTO FlightBookings (name, fno) VALUES ('X', 1);
            ROLLBACK;
            COMMIT;
        """, "client")
        report = system.run()
        assert report.aborted == [handle]
        assert ticket(system, handle).phase is TxnPhase.ABORTED
        assert len(system.store.db.table("FlightBookings")) == 0

    def test_classical_transaction_commits_without_entanglement(self):
        system = make_system()
        handle = submit(system, """
            BEGIN TRANSACTION;
            INSERT INTO FlightBookings (name, fno) VALUES ('Solo', 122);
            COMMIT;
        """, "client")
        report = system.run()
        assert report.committed == [handle]


class TestEmptyAnswerPolicy:
    NOWHERE = """
        BEGIN TRANSACTION WITH TIMEOUT 2 DAYS;
        SELECT '{me}', fno INTO ANSWER R
        WHERE fno IN (SELECT fno FROM Flights WHERE dest='Nowhere')
        AND ('{partner}', fno) IN ANSWER R
        CHOOSE 1;
        COMMIT;
    """

    def test_proceed_on_empty(self):
        system = make_system(EngineConfig(
            empty_answer=EmptyAnswerPolicy.PROCEED))
        a = submit(system, self.NOWHERE.format(me="A", partner="B"), "a")
        b = submit(system, self.NOWHERE.format(me="B", partner="A"), "b")
        report = system.run()
        # Both ground to nothing; Appendix B: empty answer = success.
        assert sorted(report.committed) == [a, b]

    def test_wait_on_empty(self):
        system = make_system(EngineConfig(
            empty_answer=EmptyAnswerPolicy.WAIT))
        a = submit(system, self.NOWHERE.format(me="A", partner="B"), "a")
        b = submit(system, self.NOWHERE.format(me="B", partner="A"), "b")
        report = system.run()
        assert report.committed == []
        assert sorted(report.returned_to_pool) == [a, b]


class TestArrivalPolicy:
    def test_run_every_f_arrivals(self):
        system = system_for(policy=ArrivalCountPolicy(2))
        system.create_table(TableSchema.build(
            "T", [("x", ColumnType.INTEGER)]))
        first = submit(system, 
            "BEGIN TRANSACTION; INSERT INTO T VALUES (1); COMMIT;")
        assert system.tick() is None  # only one arrival
        second = submit(system, 
            "BEGIN TRANSACTION; INSERT INTO T VALUES (2); COMMIT;")
        report = system.tick()
        assert report is not None
        assert sorted(report.committed) == [first, second]
