"""The product clock is real seconds.

``connect()`` without a ``clock`` runs the engine on
:class:`~repro.core.clock.WallClock`, so everything that waits — a
``WITH TIMEOUT`` budget (Section 3.1), the session token bucket, the
``retry_after`` hints — waits for time that really passes, with no one
advancing a clock by hand.
"""

from __future__ import annotations

import time

import pytest

from repro import (
    AdmissionConfig,
    ColumnType,
    EngineConfig,
    OverloadError,
    TableSchema,
    TxnPhase,
    connect,
)
from repro.core.clock import WallClock
from repro.workloads import example_schema, figure1_rows

BUDGET = 0.2


def lonely(me: str, friend: str) -> str:
    """A traveller whose friend never shows up, with a real-time budget."""
    return f"""
        BEGIN TRANSACTION WITH TIMEOUT {BUDGET} SECONDS;
        SELECT '{me}', fno AS @fno, fdate INTO ANSWER FlightRes
        WHERE fno, fdate IN (SELECT fno, fdate FROM Flights WHERE dest='LA')
        AND ('{friend}', fno, fdate) IN ANSWER FlightRes
        CHOOSE 1;
        COMMIT;
    """


def travel_db(**kwargs):
    db = connect(**kwargs)
    for schema in example_schema():
        db.create_table(schema)
    for table, rows in figure1_rows().items():
        db.load(table, rows)
    return db


def sleep_past(db, instant: float) -> None:
    """Sleep until the client's clock reads past ``instant``."""
    time.sleep(max(0.0, instant - db.clock.now) + 0.01)


def test_the_default_clock_is_real_seconds():
    db = connect()
    assert isinstance(db.clock, WallClock)
    before = db.clock.now
    time.sleep(0.01)
    assert db.clock.now - before >= 0.01
    db.close()


def test_a_lonely_timeout_lapses_on_the_first_run_after_it():
    db = travel_db()
    donald = db.session("donald").run_script(lonely("Donald", "Daffy"))
    db.run()
    assert donald.phase is TxnPhase.DORMANT
    sleep_past(db, donald._txn.deadline())
    report = db.run()
    assert report.timed_out == [donald.handle]
    assert donald.phase is TxnPhase.TIMED_OUT
    db.close()


def test_a_drain_past_the_timeout_times_a_lonely_pair_out():
    db = travel_db()
    scripts = [
        db.session(me).run_script(lonely(me, friend))
        for me, friend in (("Donald", "Daffy"), ("Goofy", "Pluto"))
    ]
    sleep_past(db, max(s._txn.deadline() for s in scripts))
    reports = db.drain()
    assert not reports.truncated
    assert [s.phase for s in scripts] == [TxnPhase.TIMED_OUT] * 2
    db.close()


def test_a_rate_limited_session_is_admitted_after_its_retry_after():
    db = connect(admission=AdmissionConfig(session_rate=100, session_burst=1))
    db.create_table(TableSchema.build(
        "Items", [("k", ColumnType.INTEGER)], primary_key=["k"]))
    session = db.session("w")
    insert = "BEGIN TRANSACTION; INSERT INTO Items (k) VALUES ({}); COMMIT;"
    session.run_script(insert.format(1))
    with pytest.raises(OverloadError) as shed:
        session.run_script(insert.format(2))
    assert shed.value.reason == "rate-limit"
    assert 0 < shed.value.retry_after <= 0.01
    time.sleep(shed.value.retry_after)
    session.run_script(insert.format(2))
    db.drain()
    assert sorted(db.query("SELECT k FROM Items")) == [(1,), (2,)]
    db.close()


def test_a_queue_depth_shed_after_a_run_carries_a_measured_retry_after():
    db = connect(admission=AdmissionConfig(max_queue_depth=1))
    db.create_table(TableSchema.build(
        "Items", [("k", ColumnType.INTEGER)], primary_key=["k"]))
    session = db.session("w")
    insert = "BEGIN TRANSACTION; INSERT INTO Items (k) VALUES ({}); COMMIT;"
    session.run_script(insert.format(1))
    report = db.run()
    assert report.elapsed > 0
    session.run_script(insert.format(2))
    with pytest.raises(OverloadError) as shed:
        session.run_script(insert.format(3))
    assert shed.value.reason == "queue-depth"
    assert shed.value.retry_after == report.elapsed
    db.close()


def test_recovery_keeps_a_dormant_scripts_deadline():
    db = travel_db(config=EngineConfig(persist_state=True))
    donald = db.session("donald").run_script(lonely("Donald", "Daffy"))
    deadline = donald._txn.deadline()
    db.run()
    recovered, report = db.crash_and_recover()
    [handle] = report.resubmitted
    assert recovered.engine.transaction(handle).deadline() == deadline
    sleep_past(recovered, deadline)
    assert recovered.run().timed_out == [handle]
    recovered.close()
