"""Travel planning: the full Figure 2 / Figure 4 walk-through.

Mickey and Minnie coordinate on a flight *and then* on a hotel — the
hotel query depends on values learned from the flight answer (``AS
@var`` bindings), which is why one entangled query is not enough and a
transaction-level abstraction is needed (Section 1).

Donald wants to coordinate with Daffy, who never shows up; his
transaction blocks, is aborted at the end of each run, returns to the
dormant pool (Figure 4), and finally times out: his ``WITH TIMEOUT``
budget is 0.2 real seconds, and the next run after it lapses ends him.

Run:  python examples/travel_planning.py
"""

import time

import repro
from repro import ColumnType, TableSchema, TxnPhase
from repro.workloads import example_schema, figure1_rows


def travel_program(me: str, friend: str, timeout: str = "2 DAYS") -> str:
    """The Figure 2 transaction, parameterized by traveller and friend."""
    return f"""
        BEGIN TRANSACTION WITH TIMEOUT {timeout};
        -- Coordinate on the flight; remember my flight number and date.
        SELECT '{me}', fno AS @fno, fdate AS @ArrivalDay
        INTO ANSWER FlightRes
        WHERE fno, fdate IN
            (SELECT fno, fdate FROM Flights WHERE dest='LA')
        AND ('{friend}', fno, fdate) IN ANSWER FlightRes
        CHOOSE 1;
        -- (Flight booking code.)
        INSERT INTO FlightBookings (name, fno) VALUES ('{me}', @fno);
        -- Coordinate on the hotel, using the arrival day we just learned.
        SELECT '{me}', hid AS @hid, @ArrivalDay INTO ANSWER HotelRes
        WHERE hid IN (SELECT hid FROM Hotels WHERE location='LA')
        AND ('{friend}', hid, @ArrivalDay) IN ANSWER HotelRes
        CHOOSE 1;
        -- (Room booking code.)
        INSERT INTO HotelBookings (name, hid) VALUES ('{me}', @hid);
        COMMIT;
    """


def main() -> None:
    db = repro.connect("travel")
    for schema in example_schema():
        db.create_table(schema)
    for table, rows in figure1_rows().items():
        db.load(table, rows)
    db.load("Hotels", [(7, "LA"), (9, "LA"), (11, "Paris")])
    db.create_table(TableSchema.build(
        "FlightBookings",
        [("name", ColumnType.TEXT), ("fno", ColumnType.INTEGER)]))
    db.create_table(TableSchema.build(
        "HotelBookings",
        [("name", ColumnType.TEXT), ("hid", ColumnType.INTEGER)]))

    # Mickey and Donald arrive first (Figure 4's opening state).
    mickey = db.session("mickey").run_script(
        travel_program("Mickey", "Minnie"))
    donald = db.session("donald").run_script(
        travel_program("Donald", "Daffy", "0.2 SECONDS"))
    first = db.run()
    print(f"run 1: committed={first.committed} "
          f"returned to pool={sorted(first.returned_to_pool)}")
    print("  (neither can progress: no partners in the system yet)")

    # Minnie arrives; the second run plays out exactly as Figure 4.
    minnie = db.session("minnie").run_script(
        travel_program("Minnie", "Mickey"))
    second = db.run()
    print(f"run 2: committed={sorted(second.committed)} "
          f"returned={second.returned_to_pool} "
          f"evaluation rounds={second.evaluation_rounds}")

    for name, script in (("Mickey", mickey), ("Minnie", minnie)):
        bindings = script.host_variables()
        print(f"  {name}: flight {bindings['@fno']}, "
              f"arrival {bindings['@ArrivalDay']}, hotel {bindings['@hid']}")

    assert (mickey.host_variables()["@hid"]
            == minnie.host_variables()["@hid"])
    assert (mickey.host_variables()["@ArrivalDay"]
            == minnie.host_variables()["@ArrivalDay"])

    # Donald keeps cycling until his 0.2-second timeout lapses.
    time.sleep(0.2)
    third = db.run()
    print(f"run 3: timed out={third.timed_out}")
    assert donald.phase is TxnPhase.TIMED_OUT
    print("Donald's transaction timed out waiting for Daffy, as specified "
          "by WITH TIMEOUT (Section 3.1).")
    db.close()


if __name__ == "__main__":
    main()
