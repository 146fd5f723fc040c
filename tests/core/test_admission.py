"""Admission control: queue-depth shedding, session pools, rate limits,
executor bounds — and the OverloadError contract they share.

The contract under test: every limiter sheds *before any storage side
effect* with the retryable :class:`~repro.errors.OverloadError`, a shed
costs nothing, and a retry after backoff succeeds.
"""

from __future__ import annotations

import pytest

import repro
from repro import (
    AdmissionConfig,
    ColumnType,
    EngineError,
    OverloadError,
    ShardExecutor,
    TableSchema,
    connect,
)
from repro.errors import MiddlewareError
from repro.sim.clock import VirtualClock
from repro.sim.costs import DEFAULT_COSTS

WRITE = "BEGIN TRANSACTION; INSERT INTO Items (k, v) VALUES ({k}, 1); COMMIT;"
HOT = (
    "BEGIN TRANSACTION; SELECT v AS @v FROM Items WHERE k=0; "
    "UPDATE Items SET v = v + 1 WHERE k=0; COMMIT;"
)


def make_db(**kwargs):
    db = connect(**kwargs)
    db.create_table(TableSchema.build(
        "Items",
        [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
        primary_key=["k"],
    ))
    db.load("Items", [(0, 0)])
    return db


class TestOverloadError:
    def test_is_retryable_engine_error(self):
        err = OverloadError("too busy")
        assert isinstance(err, EngineError)
        assert err.retryable is True
        assert err.reason == "overload"
        assert err.retry_after == 0.0

    def test_carries_reason_and_retry_after(self):
        err = OverloadError("x", reason="queue-depth", retry_after=0.25)
        assert err.reason == "queue-depth"
        assert err.retry_after == 0.25


class TestQueueDepthShedding:
    def test_shedding_is_deterministic_at_the_bound(self):
        db = make_db(admission=AdmissionConfig(max_queue_depth=3))
        s = db.session("w")
        for k in range(1, 4):
            s.run_script(WRITE.format(k=k))
        # The pool is exactly at the bound: every further submit sheds.
        for k in range(4, 8):
            with pytest.raises(OverloadError) as exc:
                s.run_script(WRITE.format(k=k))
            assert exc.value.reason == "queue-depth"
            assert exc.value.retryable
        db.close()

    def test_shed_transactions_leave_no_storage_side_effects(self):
        db = make_db(admission=AdmissionConfig(max_queue_depth=2))
        s = db.session("w")
        s.run_script(WRITE.format(k=1))
        s.run_script(WRITE.format(k=2))
        wal_before = [sum(1 for _ in w.records()) for w in db.store.wals()]
        with pytest.raises(OverloadError):
            s.run_script(WRITE.format(k=3))
        # Nothing parsed its way into storage: no rows, no WAL records.
        assert [sum(1 for _ in w.records()) for w in db.store.wals()] \
            == wal_before
        db.drain()
        rows = db.query("SELECT k FROM Items")
        assert (3,) not in rows and (1,) in rows and (2,) in rows
        db.close()

    def test_retry_after_backoff_succeeds(self):
        db = make_db(
            admission=AdmissionConfig(max_queue_depth=2),
            clock=VirtualClock(costs=DEFAULT_COSTS),
        )
        s = db.session("w")
        s.run_script(WRITE.format(k=1))
        s.run_script(WRITE.format(k=2))
        with pytest.raises(OverloadError) as exc:
            s.run_script(WRITE.format(k=3))
        # With a cost model the error proposes a backoff: about one
        # run's worth of virtual time.
        assert exc.value.retry_after > 0
        db.drain()        # the backoff: let the engine work the queue off
        handle = s.run_script(WRITE.format(k=3))   # retry is admitted
        db.drain()
        assert handle.succeeded
        assert (3, 1) in db.query("SELECT k, v FROM Items")
        db.close()

    def test_run_reports_stamp_admission_deltas(self):
        db = make_db(admission=AdmissionConfig(max_queue_depth=2))
        s = db.session("w")
        s.run_script(WRITE.format(k=1))
        s.run_script(WRITE.format(k=2))
        for _ in range(3):
            with pytest.raises(OverloadError):
                s.run_script(WRITE.format(k=9))
        report = db.run()
        assert report.admitted == 2
        assert report.shed == 3
        # Deltas, not totals: a quiet follow-up run stamps zeros.
        report = db.run()
        assert report.admitted == 0 and report.shed == 0
        db.close()

    def test_admission_stats_aggregate_counters(self):
        db = make_db(admission=AdmissionConfig(max_queue_depth=1))
        s = db.session("w")
        s.run_script(WRITE.format(k=1))
        with pytest.raises(OverloadError):
            s.run_script(WRITE.format(k=2))
        stats = db.admission_stats
        assert stats["admitted"] == 1
        assert stats["shed_queue_depth"] == 1
        assert stats["shed_sessions"] == 0
        assert stats["shed_rate_limit"] == 0
        db.close()

    def test_unbounded_by_default(self):
        db = make_db()
        s = db.session("w")
        for k in range(1, 60):
            s.run_script(WRITE.format(k=k))
        db.drain()
        assert len(db.query("SELECT k FROM Items")) == 60
        db.close()


class TestSessionPool:
    def test_sheds_past_the_bound(self):
        db = make_db(admission=AdmissionConfig(max_sessions=2))
        db.session("a")
        db.session("b")
        with pytest.raises(OverloadError) as exc:
            db.session("c")
        assert exc.value.reason == "session-pool"
        db.close()

    def test_closed_sessions_free_their_slots(self):
        db = make_db(admission=AdmissionConfig(max_sessions=1))
        first = db.session("a")
        with pytest.raises(OverloadError):
            db.session("b")
        first.close()
        second = db.session("b")          # slot freed
        assert second.name == "b"
        db.close()


class TestSessionRateLimit:
    def test_burst_then_shed_then_refill(self):
        db = make_db(
            admission=AdmissionConfig(session_rate=1.0, session_burst=2),
            clock=VirtualClock(),
        )
        s = db.session("w")
        s.run_script(WRITE.format(k=1))
        s.run_script(WRITE.format(k=2))    # burst capacity: 2
        with pytest.raises(OverloadError) as exc:
            s.run_script(WRITE.format(k=3))
        assert exc.value.reason == "rate-limit"
        assert exc.value.retry_after > 0
        assert db.admission_stats["shed_rate_limit"] == 1
        # Virtual time passing refills the bucket at session_rate.
        db.clock.advance(exc.value.retry_after)
        s.run_script(WRITE.format(k=3))
        db.drain()
        assert (3,) in db.query("SELECT k FROM Items")
        db.close()

    def test_interactive_statements_are_charged_too(self):
        db = make_db(
            admission=AdmissionConfig(session_rate=0.5, session_burst=1),
        )
        s = db.session("w")
        s.execute("SELECT v FROM Items WHERE k = 0")
        with pytest.raises(OverloadError):
            s.execute("SELECT v FROM Items WHERE k = 0")
        db.close()

    def test_sessions_are_limited_independently(self):
        db = make_db(
            admission=AdmissionConfig(session_rate=1.0, session_burst=1),
        )
        a, b = db.session("a"), db.session("b")
        a.run_script(WRITE.format(k=1))
        b.run_script(WRITE.format(k=2))    # b's bucket is its own
        with pytest.raises(OverloadError):
            a.run_script(WRITE.format(k=3))
        db.close()


class TestExecutorQueueBound:
    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            ShardExecutor(1, max_queue_depth=0)

    def test_sheds_when_a_shard_queue_fills(self):
        import threading

        executor = ShardExecutor(1, max_queue_depth=2)
        release = threading.Event()
        started = threading.Event()

        def blocker():
            started.set()
            release.wait(timeout=30)

        try:
            executor.submit(0, blocker)
            started.wait(timeout=30)
            # The bound counts in-flight work: the blocker plus one
            # queued item fill it.
            executor.submit(0, lambda: None)
            with pytest.raises(OverloadError) as exc:
                executor.submit(0, lambda: None)
            assert exc.value.reason == "executor-queue"
        finally:
            release.set()
            executor.close()

    def test_queue_drains_and_admits_again(self):
        executor = ShardExecutor(2, max_queue_depth=4)
        try:
            futures = [
                executor.submit(i % 2, lambda x=i: x * 2) for i in range(8)
            ]
            assert [f.result(timeout=30) for f in futures] \
                == [i * 2 for i in range(8)]
            assert executor.shed_count == 0
            assert executor.queue_depth(0) == 0
        finally:
            executor.close()


class TestDrainTruncation:
    """Satellite regression: Client.drain must never silently truncate."""

    def _submit_hot(self, db, n):
        s = db.session("w")
        for _ in range(n):
            s.run_script(HOT)

    def test_capped_drain_reports_truncation(self):
        db = make_db()
        # Hot-row writers commit one per run (2PL WouldBlock returns the
        # rest to the pool), so 6 transactions need 6 runs.
        self._submit_hot(db, 6)
        reports = db.drain(max_runs=2)
        assert reports.truncated is True
        assert len(reports) == 2
        assert db.engine.dormant_count == 4
        # Finishing the drain clears the flag and the backlog.
        rest = db.drain()
        assert rest.truncated is False
        assert db.engine.dormant_count == 0
        assert db.query("SELECT v FROM Items WHERE k = 0") == [(6,)]
        db.close()

    def test_uncapped_drain_is_not_truncated(self):
        db = make_db()
        self._submit_hot(db, 4)
        reports = db.drain()
        assert reports.truncated is False
        assert sum(len(r.committed) for r in reports) == 4
        db.close()

    def test_drain_reports_is_still_a_list(self):
        db = make_db()
        self._submit_hot(db, 2)
        reports = db.drain()
        assert isinstance(reports, list)
        assert all(hasattr(r, "committed") for r in reports)
        db.close()


class TestConnectWiring:
    def test_admission_queue_depth_reaches_engine_config(self):
        db = make_db(admission=AdmissionConfig(max_queue_depth=7))
        assert db.engine.config.max_queue_depth == 7
        db.close()

    def test_engine_config_bound_works_without_client_admission(self):
        db = connect(config=repro.EngineConfig(max_queue_depth=1))
        db.create_table(TableSchema.build(
            "Items", [("k", ColumnType.INTEGER)], primary_key=["k"]))
        s = db.session("w")
        s.run_script("BEGIN TRANSACTION; INSERT INTO Items (k) VALUES (1); COMMIT;")
        with pytest.raises(OverloadError):
            s.run_script(
                "BEGIN TRANSACTION; INSERT INTO Items (k) VALUES (2); COMMIT;")
        db.close()

    def test_closed_client_rejects_sessions_not_sheds(self):
        db = make_db(admission=AdmissionConfig(max_sessions=1))
        db.close()
        with pytest.raises(MiddlewareError):
            db.session("late")
