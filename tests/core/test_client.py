"""The unified client API: connect(), sessions, pending answers,
direct transactions, shutdown, and the crash window around close().
"""

from __future__ import annotations

import pytest

from repro import (
    ColumnType,
    EngineConfig,
    EntanglementTimeout,
    MiddlewareError,
    PendingAnswer,
    SessionState,
    TableSchema,
    TxnIsolation,
    TxnPhase,
    connect,
)
from repro.storage import Database, ShardedStorageEngine, StorageEngine
from repro.storage.recovery import recover
from repro.storage.sharding import recover_sharded


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


class TestConnect:
    def test_defaults_single_engine_no_executor(self):
        with connect("mydb") as db:
            assert isinstance(db.store, StorageEngine)
            assert db.store.db.name == "mydb"
            assert db.engine.executor is None

    def test_shards_build_sharded_engine_with_executor(self):
        with connect(shards=4) as db:
            assert isinstance(db.store, ShardedStorageEngine)
            assert db.store.n_shards == 4
            assert db.engine.executor is not None
            assert db.engine.executor.n_shards == 4

    def test_executor_opt_out(self):
        with connect(shards=2, executor=False) as db:
            assert db.engine.executor is None

    def test_isolation_accepts_strings(self):
        with connect(isolation="serializable") as db:
            assert db.engine._storage_isolation is TxnIsolation.SERIALIZABLE
            assert db.broker.default_isolation is TxnIsolation.SERIALIZABLE

    def test_adopts_existing_engine_and_database(self):
        store = ShardedStorageEngine(2)
        with connect(store) as db:
            assert db.store is store
        catalog = Database("adopted")
        with connect(catalog) as db:
            assert db.store.db is catalog

    def test_process_mode_serves_an_adopted_database_in_process(self):
        catalog = Database("adopted")
        with connect(catalog, executor="process") as db:
            assert isinstance(db.store, StorageEngine)
            db.create_table(TableSchema.build(
                "Items", [("k", ColumnType.INTEGER)], primary_key=["k"]))
            script = db.session("s").run_script(
                "BEGIN TRANSACTION; INSERT INTO Items (k) VALUES (1); COMMIT;")
            assert script.wait().succeeded, script.abort_reason
            assert db.store.worker_pids() == []
            assert db.query("SELECT k FROM Items") == [(1,)]

    def test_shard_mismatch_rejected(self):
        store = ShardedStorageEngine(2)
        with pytest.raises(MiddlewareError):
            connect(store, shards=4)

    def test_checkpoint_durability_sets_cadence(self):
        with connect(durability="checkpoint", checkpoint_every=7) as db:
            assert db.store.checkpoint_interval == 7

    def test_closed_client_rejects_work(self):
        db = make_db()
        db.close()
        with pytest.raises(MiddlewareError):
            db.session("late")
        with pytest.raises(MiddlewareError):
            db.run()
        db.close()  # idempotent


class TestBatchScripts:
    def test_script_lifecycle(self):
        with make_db() as db:
            script = db.session("w").run_script(
                "BEGIN TRANSACTION; UPDATE Items SET v = 99 WHERE k = 1; "
                "COMMIT;")
            assert script.phase is TxnPhase.DORMANT and not script.done
            script.wait()
            assert script.succeeded and script.attempts == 1
            assert (1, 99) in db.query("SELECT k, v FROM Items")

    def test_entangled_pair_host_variables(self):
        with make_db() as db:
            scripts = [
                db.session(me).run_script(
                    "BEGIN TRANSACTION;"
                    + PAIR_QUERY.format(me=me, friend=friend)
                    + "; COMMIT;"
                )
                for me, friend in (("a", "b"), ("b", "a"))
            ]
            db.run()
            assert all(s.succeeded for s in scripts)
            assert (scripts[0].host_variables()["@k"]
                    == scripts[1].host_variables()["@k"])

    def test_host_variables_require_commit(self):
        with make_db() as db:
            script = db.session("w").run_script(
                "BEGIN TRANSACTION;"
                + PAIR_QUERY.format(me="solo", friend="ghost")
                + "; COMMIT;")
            with pytest.raises(MiddlewareError):
                script.host_variables()


class TestInteractive:
    def test_classical_statements_return_rows(self):
        with make_db() as db:
            result = db.session("r").execute(
                "SELECT k, v FROM Items WHERE k = 2")
            assert result.rows == [(2, 20)]
            assert not result.pending

    def test_pending_answer_resolves_on_pump(self):
        with make_db() as db:
            one = db.session("one")
            two = db.session("two")
            p1 = one.execute(PAIR_QUERY.format(me="one", friend="two"))
            assert isinstance(p1, PendingAnswer)
            assert p1.pending and not p1.done and p1.rows == []
            assert not p1.poll()  # no partner yet
            p2 = two.execute(PAIR_QUERY.format(me="two", friend="one"))
            bindings = p2.result()
            assert p1.done
            assert bindings == p1.bindings()
            assert one.commit() is False  # widow prevention
            assert two.commit() is True
            assert one.state is SessionState.COMMITTED

    def test_result_times_out_without_partners(self):
        with make_db() as db:
            lonely = db.session("lonely")
            pending = lonely.execute(
                PAIR_QUERY.format(me="lonely", friend="ghost"))
            with pytest.raises(EntanglementTimeout):
                pending.result(max_rounds=3)
            pending.cancel()
            assert pending.cancelled
            with pytest.raises(MiddlewareError):
                pending.bindings()
            # The session resumed and accepts further statements.
            assert lonely.execute("SELECT k FROM Items WHERE k = 0").rows

    def test_awaitable_pending_answer(self):
        import asyncio

        with make_db() as db:
            one = db.session("one")
            two = db.session("two")
            p1 = one.execute(PAIR_QUERY.format(me="one", friend="two"))
            p2 = two.execute(PAIR_QUERY.format(me="two", friend="one"))

            async def gather():
                return await asyncio.gather(p1, p2)

            b1, b2 = asyncio.run(gather())
            assert b1["@k"] == b2["@k"]

    def test_commit_without_interactive_statements_raises(self):
        with make_db() as db:
            with pytest.raises(MiddlewareError):
                db.session("batch-only").commit()


class TestDirectTransactions:
    def test_commit_on_clean_exit(self):
        with make_db() as db:
            session = db.session("direct")
            with session.transaction() as txn:
                txn.insert("Items", (100, 1))
                txn.execute("UPDATE Items SET v = 11 WHERE k = 1")
                assert txn.query("SELECT v FROM Items WHERE k = 100") == [(1,)]
            assert (100, 1) in db.query("SELECT k, v FROM Items")
            assert (1, 11) in db.query("SELECT k, v FROM Items")

    def test_abort_on_exception(self):
        with make_db() as db:
            session = db.session("direct")
            with pytest.raises(RuntimeError):
                with session.transaction() as txn:
                    txn.insert("Items", (200, 2))
                    raise RuntimeError("boom")
            assert (200, 2) not in db.query("SELECT k, v FROM Items")

    def test_isolation_override(self):
        with make_db(isolation="full") as db:
            session = db.session("direct", isolation=TxnIsolation.SNAPSHOT)
            with session.transaction() as txn:
                assert txn.isolation is TxnIsolation.SNAPSHOT
            with session.transaction(TxnIsolation.SERIALIZABLE) as txn:
                assert txn.isolation is TxnIsolation.SERIALIZABLE


class TestCloseAndCrash:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_close_checkpoints_and_truncates(self, shards):
        db = make_db(shards=shards)
        db.session("w").run_script(
            "BEGIN TRANSACTION; UPDATE Items SET v = 5 WHERE k = 0; COMMIT;"
        ).wait()
        db.close()
        assert db.store.metrics()["checkpoints.taken"] >= 1
        for wal in db.store.wals():
            assert wal.flushed_lsn == wal.last_lsn

    @pytest.mark.parametrize("shards", [1, 4])
    def test_crash_between_close_and_checkpoint_recovers(self, shards):
        """The satellite's crash window: WALs flushed, checkpoint never
        written.  Recovery must replay the flushed logs to the exact
        committed state."""
        db = make_db(shards=shards)
        for i in range(4):
            db.session("w").run_script(
                f"BEGIN TRANSACTION; UPDATE Items SET v = {1000 + i} "
                f"WHERE k = {i}; COMMIT;"
            ).wait()
        before = sorted(db.query("SELECT k, v FROM Items"))
        db.close(checkpoint=False)  # flush happened, checkpoint did not
        assert all(
            w.last_checkpoint() is None for w in db.store.wals()
        )
        survivor = db.store.crash()
        if shards > 1:
            recover_sharded(survivor)
        else:
            recover(survivor)
        check = survivor.begin()
        rows = sorted(
            tuple(r.values) for r in survivor.read_table(check, "Items")
        )
        survivor.commit(check)
        assert rows == before

    def test_close_tears_down_open_sessions(self):
        db = make_db()
        waiting = db.session("waiting")
        waiting.execute(PAIR_QUERY.format(me="waiting", friend="ghost"))
        idle = db.session("idle")
        idle.interactive  # opened, never executed anything
        db.close()
        assert waiting.state is SessionState.ABORTED
        assert idle.state is SessionState.ABORTED

    def test_crash_and_recover_roundtrip(self):
        db = make_db(config=EngineConfig(persist_state=True))
        db.session("w").run_script(
            "BEGIN TRANSACTION; UPDATE Items SET v = 77 WHERE k = 3; COMMIT;"
        ).wait()
        recovered, report = db.crash_and_recover()
        assert (3, 77) in recovered.query("SELECT k, v FROM Items")
        recovered.close()

    def test_crash_and_recover_keeps_admission_and_run_policy(self):
        from repro import AdmissionConfig, ArrivalCountPolicy, OverloadError

        admission = AdmissionConfig(max_sessions=1)
        db = make_db(
            config=EngineConfig(persist_state=True),
            admission=admission, policy=ArrivalCountPolicy(3),
        )
        recovered, _report = db.crash_and_recover()
        assert recovered.engine.policy == ArrivalCountPolicy(3)
        assert recovered.admission is admission
        recovered.session("first")
        with pytest.raises(OverloadError):
            recovered.session("second")
        recovered.close()


class TestAbandonedSessionsAndVacuum:
    """Satellite regression: abandoned sessions never pin the vacuum
    horizon — not even sessions that never executed a statement."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_vacuum_advances_past_abandoned_sessions(self, shards):
        db = make_db(shards=shards, isolation="snapshot")
        # Abandoned: opened (storage transaction begun) but never used.
        for i in range(3):
            db.session(f"ghost{i}").interactive
        # A waiting session that cancels is parked too.
        bored = db.session("bored")
        pending = bored.execute(PAIR_QUERY.format(me="bored", friend="x"))
        pending.cancel()
        # Churn versions on a hot row.
        writer = db.session("writer")
        for i in range(8):
            with writer.transaction() as txn:
                txn.execute(f"UPDATE Items SET v = {i} WHERE k = 0")
        store = db.store
        removed = store.vacuum()
        assert removed > 0, "vacuum pruned nothing despite churn"
        oracles = (
            [s.oracle for s in store.shards] if shards > 1
            else [store.oracle]
        )
        for oracle in oracles:
            assert oracle.active_count() == 0, (
                "an abandoned session still pins the snapshot horizon"
            )
            assert oracle.oldest_active() == oracle.last_commit_ts
        db.close()

    def test_parked_session_reads_fresh_after_cancel(self):
        db = make_db(isolation="snapshot")
        bored = db.session("bored")
        pending = bored.execute(PAIR_QUERY.format(me="bored", friend="x"))
        pending.cancel()
        with db.session("w").transaction() as txn:
            txn.execute("UPDATE Items SET v = 123 WHERE k = 2")
        # The cancelled session re-snapshots at its next statement and
        # sees the post-cancel commit.
        assert bored.execute("SELECT v FROM Items WHERE k = 2").rows == [(123,)]
        db.close()


def test_session_context_manager_commits():
    db = make_db()
    with db.session("cm") as session:
        session.execute("INSERT INTO Items (k, v) VALUES (300, 3)")
    assert (300, 3) in db.query("SELECT k, v FROM Items")
    db.close()
