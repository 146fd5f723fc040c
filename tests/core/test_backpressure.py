"""Backpressure regressions: blocked PendingAnswer waiters must never
busy-spin the matching loop.

The bug these tests pin down: ``PendingAnswer.result`` and ``.block``
used to call ``client.pump()`` in a tight loop — thousands of matching
rounds per second while a partner was absent.  They now wait on the
client's condition variable with bounded exponential backoff, so the
number of pump calls is bounded (by ``max_rounds`` for :meth:`result`,
logarithmic-then-capped in time for :meth:`block`), and a partner or a
cancel delivered by another thread wakes them immediately.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import (
    ColumnType,
    EntanglementTimeout,
    MiddlewareError,
    PendingAnswer,
    TableSchema,
    connect,
)


def make_db(**kwargs):
    db = connect(**kwargs)
    db.create_table(TableSchema.build(
        "Items",
        [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
        primary_key=["k"],
    ))
    db.load("Items", [(i, 10 * i) for i in range(4)])
    return db


PAIR_QUERY = """
    SELECT '{me}', k AS @k INTO ANSWER Pick
    WHERE k IN (SELECT k FROM Items)
    AND ('{friend}', k) IN ANSWER Pick
    CHOOSE 1
"""


def count_pumps(db):
    """Route db.pump through a counter; returns the counter box."""
    calls = {"n": 0}
    inner = db.pump

    def counting_pump():
        calls["n"] += 1
        return inner()

    db.pump = counting_pump
    return calls


class TestBoundedPumping:
    def test_result_pump_calls_bounded_by_max_rounds(self):
        db = make_db()
        calls = count_pumps(db)
        pending = db.session("alice").execute(
            PAIR_QUERY.format(me="alice", friend="nobody"))
        with pytest.raises(EntanglementTimeout):
            pending.result(max_rounds=30)
        assert 0 < calls["n"] <= 30, (
            f"result() made {calls['n']} pump calls for max_rounds=30 — "
            f"the busy-spin is back"
        )
        db.close()

    def test_block_pump_calls_bounded_while_partner_absent(self):
        db = make_db()
        calls = count_pumps(db)
        pending = db.session("alice").execute(
            PAIR_QUERY.format(me="alice", friend="nobody"))
        t0 = time.monotonic()
        with pytest.raises(EntanglementTimeout):
            pending.block(timeout=0.15)
        elapsed = time.monotonic() - t0
        assert elapsed >= 0.14, "block() returned before its timeout"
        # Exponential backoff to MAX_BACKOFF caps the pump rate at
        # ~1/MAX_BACKOFF per second; a busy spin would make thousands
        # of calls in 150 ms.
        ceiling = 0.15 / PendingAnswer.MAX_BACKOFF + 20
        assert 0 < calls["n"] <= ceiling, (
            f"block(0.15) made {calls['n']} pump calls (cap {ceiling:.0f})"
        )
        db.close()

    def test_await_pumps_logarithmically(self):
        db = make_db()
        calls = count_pumps(db)
        pending = db.session("alice").execute(
            PAIR_QUERY.format(me="alice", friend="nobody"))
        gen = pending.__await__()
        for _ in range(200):
            next(gen)
        # Pumps at spins 1, 2, 4, 8, ... — 8 rounds in 200 passes.
        assert 0 < calls["n"] <= 10, (
            f"__await__ made {calls['n']} pump calls over 200 scheduler "
            f"passes — expected O(log n)"
        )
        pending.cancel()
        db.close()

    def test_backoff_constants_are_sane(self):
        assert 0 < PendingAnswer.BASE_BACKOFF < PendingAnswer.MAX_BACKOFF
        assert PendingAnswer.MAX_BACKOFF <= 0.1


class TestCrossThreadWakeup:
    def test_partner_delivered_by_other_thread_wakes_blocker(self):
        db = make_db()
        pending = db.session("alice").execute(
            PAIR_QUERY.format(me="alice", friend="bob"))
        got = {}

        def waiter():
            got["bindings"] = pending.block(timeout=30)

        thread = threading.Thread(target=waiter)
        thread.start()
        try:
            time.sleep(0.02)     # let the waiter park on the condvar
            db.session("bob").execute(
                PAIR_QUERY.format(me="bob", friend="alice"))
            db.pump()            # delivers both answers, notifies waiters
            thread.join(timeout=5)
            assert not thread.is_alive(), "blocked waiter never woke up"
            assert got["bindings"]["@k"] is not None
        finally:
            thread.join(timeout=5)
            db.close()

    def test_cancel_from_other_thread_interrupts_result_promptly(self):
        db = make_db()
        pending = db.session("alice").execute(
            PAIR_QUERY.format(me="alice", friend="nobody"))
        caught = {}

        def waiter():
            t0 = time.monotonic()
            try:
                pending.result(max_rounds=100_000)
            except MiddlewareError:
                caught["elapsed"] = time.monotonic() - t0

        thread = threading.Thread(target=waiter)
        thread.start()
        try:
            time.sleep(0.02)
            pending.cancel()
            thread.join(timeout=5)
            assert not thread.is_alive(), "cancel did not interrupt result()"
            # Prompt: the condvar notification, not a timeout, woke it.
            assert caught["elapsed"] < 2.0
        finally:
            thread.join(timeout=5)
            db.close()


class TestCloseCancelsPending:
    """Satellite regression: closing a session with an unresolved
    PendingAnswer cancels it and unparks its snapshot — a forgotten
    waiter must never pin the vacuum horizon."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_close_releases_snapshot_horizon(self, shards):
        db = make_db(shards=shards, isolation="snapshot")
        bored = db.session("bored")
        pending = bored.execute(PAIR_QUERY.format(me="bored", friend="x"))
        assert not pending.done and not pending.cancelled
        bored.close()
        assert pending.cancelled

        # Churn versions, then check the horizon actually moved.
        writer = db.session("writer")
        for i in range(8):
            with writer.transaction() as txn:
                txn.execute(f"UPDATE Items SET v = {i} WHERE k = 0")
        store = db.store
        pruned_at_supersede = store.metrics()["mvcc.supersede_prunes"]
        removed = store.vacuum()
        assert removed > 0 or pruned_at_supersede > 0, (
            "nothing was pruned: the closed session's parked snapshot "
            "still pins the horizon"
        )
        oracles = (
            [s.oracle for s in store.shards] if shards > 1
            else [store.oracle]
        )
        for oracle in oracles:
            assert oracle.active_count() == 0
        db.close()

    def test_waiters_error_promptly_after_close(self):
        db = make_db()
        session = db.session("alice")
        pending = session.execute(PAIR_QUERY.format(me="alice", friend="x"))
        session.close()
        with pytest.raises(MiddlewareError):
            pending.result()
        with pytest.raises(MiddlewareError):
            pending.block(timeout=5)
        with pytest.raises(MiddlewareError):
            pending.bindings()
        db.close()

    def test_close_is_idempotent_and_resolved_answers_survive(self):
        db = make_db()
        alice = db.session("alice")
        pending = alice.execute(PAIR_QUERY.format(me="alice", friend="bob"))
        db.session("bob").execute(PAIR_QUERY.format(me="bob", friend="alice"))
        db.pump()
        bindings = pending.result()
        assert bindings["@k"] is not None
        alice.close()
        alice.close()     # idempotent
        assert alice.closed
        db.close()

    def test_client_close_tears_down_parked_sessions(self):
        db = make_db(isolation="snapshot")
        pending = db.session("alice").execute(
            PAIR_QUERY.format(me="alice", friend="x"))
        db.close()        # must not hang or leak the parked snapshot
        assert pending.cancelled
