"""The per-shard thread pool: unit behavior, real-thread stress, and
cooperative WouldBlock/deadlock interleavings under the pool.

The stress tests drive the storage layer from *real* threads — the
configuration the executor makes legal — and check the two properties
the thread-safety layer must deliver:

* **linearizable per-key outcomes** — N sessions hammering disjoint
  shard-homed keys lose no increment (every read-modify-write survives
  exactly once, across WouldBlock/WriteConflict/SSI retries);
* **zero oracle violations** — the recorded model schedule of the
  SERIALIZABLE run passes the same serializability oracle the fuzz
  harness uses (version-annotated reads, ``find_serialization_order``).
"""

from __future__ import annotations

import threading

import pytest

from _batch import engine_for
from repro.core.engine import (
    EngineConfig,
    IsolationConfig,
)
from repro.core.executor import ExecutorClosed, ShardExecutor
from repro.core.recorder import ScheduleRecorder
from repro.errors import (
    DeadlockError,
    SerializationFailureError,
    SnapshotTooOldError,
    WriteConflictError,
)
from repro.model.quasi import expand_quasi_reads
from repro.model.serializability import find_serialization_order
from repro.storage import (
    ColumnType,
    ShardedStorageEngine,
    TableSchema,
    TxnIsolation,
)
from repro.storage.engine import WouldBlock
from repro.storage.sharding import shard_for_key

from _reference_bind import literal


def distinct_shard_keys(n_shards: int, per_shard: int = 1) -> list[int]:
    """One key per shard (repeated ``per_shard`` times per shard)."""
    buckets: dict[int, list[int]] = {}
    key = 0
    while any(len(buckets.get(s, [])) < per_shard for s in range(n_shards)):
        shard = shard_for_key((key,), n_shards)
        bucket = buckets.setdefault(shard, [])
        if len(bucket) < per_shard:
            bucket.append(key)
        key += 1
    return [k for s in range(n_shards) for k in buckets[s]]


class TestShardExecutorUnit:
    def test_submit_runs_on_named_worker(self):
        with ShardExecutor(3) as pool:
            names = pool.run([
                (i, lambda: threading.current_thread().name)
                for i in range(3)
            ])
        assert names == [f"repro-shard-{i}" for i in range(3)]

    def test_results_in_submission_order(self):
        with ShardExecutor(2) as pool:
            assert pool.run([
                (i % 2, lambda i=i: i * 10) for i in range(8)
            ]) == [i * 10 for i in range(8)]

    def test_same_shard_tasks_run_fifo(self):
        order: list[int] = []
        with ShardExecutor(2) as pool:
            pool.run([(0, lambda i=i: order.append(i)) for i in range(16)])
        assert order == list(range(16))

    def test_exceptions_propagate(self):
        def boom():
            raise ValueError("kapow")

        with ShardExecutor(2) as pool:
            with pytest.raises(ValueError, match="kapow"):
                pool.run([(0, boom)])
            # The worker survives a failing task.
            assert pool.run([(0, lambda: "alive")]) == ["alive"]

    def test_closed_executor_rejects_work(self):
        pool = ShardExecutor(1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ExecutorClosed):
            pool.submit(0, lambda: None)


def _stress_tables(n_shards: int) -> tuple[ShardedStorageEngine, list[str]]:
    """One single-row table per shard (model granularity == object)."""
    store = ShardedStorageEngine(n_shards)
    keys = distinct_shard_keys(n_shards)
    tables = []
    for i, key in enumerate(keys):
        name = f"T{i}"
        store.create_table(TableSchema.build(
            name,
            [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
            primary_key=["k"],
        ))
        store.load(name, [(key, 0)])
        tables.append(name)
    return store, tables


class TestRealThreadStress:
    N_SHARDS = 4
    INCREMENTS = 25

    def _run_stress(self, isolation: TxnIsolation):
        store, tables = _stress_tables(self.N_SHARDS)
        keys = distinct_shard_keys(self.N_SHARDS)
        recorder = ScheduleRecorder()

        def observe(txn, kind, table, reads_from=None):
            if kind == "commit":
                recorder.on_commit(txn)
            elif kind == "abort":
                recorder.on_abort(txn)
            elif kind == "read":
                recorder.on_read(txn, table, reads_from=reads_from)
            else:
                recorder.on_write(txn, table)

        store.observers.append(observe)
        errors: list[BaseException] = []

        def worker(idx: int) -> None:
            from repro.storage.expressions import Cmp, CmpOp, Col, Const

            table, key = tables[idx], keys[idx]
            neighbor = tables[(idx + 1) % len(tables)]
            neighbor_key = keys[(idx + 1) % len(keys)]
            pin = Cmp(CmpOp.EQ, Col("k"), Const(key))
            try:
                for turn in range(self.INCREMENTS):
                    while True:  # retry loop: cooperative conflicts
                        txn = store.begin(isolation=isolation)
                        try:
                            rows = store.query(txn, _point_read(store, table, key))
                            (value,) = rows[0]
                            if turn % 5 == 0:
                                # Cross-shard read: feeds the SSI net.
                                store.query(
                                    txn,
                                    _point_read(store, neighbor, neighbor_key),
                                )
                            store.update_where(
                                txn, table,
                                lambda row: row.values[0] == key,
                                lambda row: (key, value + 1),
                                where=pin,
                            )
                            store.commit(txn)
                            break
                        except (WouldBlock, DeadlockError, WriteConflictError,
                                SnapshotTooOldError,
                                SerializationFailureError):
                            store.abort(txn)
            except BaseException as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(len(tables))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        return store, tables, keys, recorder

    @pytest.mark.parametrize("isolation", [
        TxnIsolation.TWO_PL,
        TxnIsolation.SNAPSHOT,
        TxnIsolation.SERIALIZABLE,
    ])
    def test_disjoint_shard_sessions_lose_no_increment(self, isolation):
        store, tables, keys, _rec = self._run_stress(isolation)
        for table, key in zip(tables, keys):
            check = store.begin()
            rows = store.read_table(check, table)
            store.commit(check)
            assert [tuple(r.values) for r in rows] == [
                (key, self.INCREMENTS)
            ], f"{table} lost increments"

    def test_serializable_stress_passes_the_oracle(self):
        _store, _tables, _keys, recorder = self._run_stress(
            TxnIsolation.SERIALIZABLE
        )
        schedule = expand_quasi_reads(recorder.schedule())
        assert find_serialization_order(schedule) is not None, (
            "threaded SERIALIZABLE history failed the fuzz-harness oracle"
        )


def _point_read(store, table: str, key: int):
    from repro.sql.compiler import compile_select
    from repro.sql.parser import parse_statement

    stmt = parse_statement(f"SELECT v AS @v FROM {table} WHERE k = {key}")
    return literal(compile_select(stmt, store.db, {}))


class TestWouldBlockInterleavings:
    """Cooperative suspension under the pool: opposite-order lockers on
    two shards produce a WouldBlock for one thread and a DeadlockError
    for the closer of the cycle — never a blocked thread."""

    def test_cross_shard_deadlock_is_detected_not_hung(self):
        store = ShardedStorageEngine(2)
        key_a, key_b = distinct_shard_keys(2)
        store.create_table(TableSchema.build(
            "R", [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
            primary_key=["k"],
        ))
        store.load("R", [(key_a, 0), (key_b, 0)])
        t1 = store.begin()
        t2 = store.begin()
        outcomes: dict[str, str] = {}
        first_locked = threading.Event()
        second_locked = threading.Event()

        def bump(txn, key, value_by_key):
            from repro.storage.expressions import Cmp, CmpOp, Col, Const

            # The WHERE pins the pk, so the write takes key/row locks in
            # the key's home shard only — the cross-shard cycle forms
            # from two single-shard waits, not one table lock.
            store.update_where(
                txn, "R",
                lambda row: row.values[0] == key,
                lambda row: (key, row.values[1] + 1),
                where=Cmp(CmpOp.EQ, Col("k"), Const(key)),
            )

        def runner_one():
            bump(t1, key_a, None)
            first_locked.set()
            second_locked.wait(5)
            try:
                bump(t1, key_b, None)
                outcomes["t1"] = "ran"
            except WouldBlock:
                outcomes["t1"] = "would-block"
            except DeadlockError:
                outcomes["t1"] = "deadlock"

        def runner_two():
            first_locked.wait(5)
            bump(t2, key_b, None)
            second_locked.set()
            # t1 is (or will be) queued behind our X lock; closing the
            # cycle must raise immediately — cooperative, no OS block.
            try:
                bump(t2, key_a, None)
                outcomes["t2"] = "ran"
            except WouldBlock:
                outcomes["t2"] = "would-block"
            except DeadlockError:
                outcomes["t2"] = "deadlock"

        with ShardExecutor(2) as pool:
            pool.run([(0, runner_one), (1, runner_two)])

        assert sorted(outcomes.values()) == ["deadlock", "would-block"], outcomes
        # The deadlock victim aborts; the survivor retries and commits.
        victim, survivor = (
            (t1, t2) if outcomes["t1"] == "deadlock" else (t2, t1)
        )
        store.abort(victim)
        from repro.storage.expressions import Cmp, CmpOp, Col, Const

        for key in (key_a, key_b):
            try:
                store.update_where(
                    survivor, "R",
                    lambda row, key=key: row.values[0] == key,
                    lambda row: (row.values[0], row.values[1] + 10),
                    where=Cmp(CmpOp.EQ, Col("k"), Const(key)),
                )
            except WouldBlock:  # pragma: no cover - should not happen
                pytest.fail("survivor still blocked after victim aborted")
        store.commit(survivor)
        check = store.begin()
        values = {
            tuple(r.values)[0]: tuple(r.values)[1]
            for r in store.read_table(check, "R")
        }
        store.commit(check)
        assert all(v >= 10 for v in values.values())


class TestEngineUnderExecutor:
    """The run loop with EngineConfig(executor=True) commits the same
    histories the serial loop does."""

    def _build(self, executor: bool):
        store = ShardedStorageEngine(4)
        store.create_table(TableSchema.build(
            "Accounts",
            [("id", ColumnType.INTEGER), ("balance", ColumnType.INTEGER)],
            primary_key=["id"],
        ))
        store.load("Accounts", [(i, 100) for i in range(32)])
        engine = engine_for(
            store,
            EngineConfig(
                isolation=IsolationConfig.SNAPSHOT, executor=executor
            ),
        )
        return store, engine

    @pytest.mark.parametrize("executor", [False, True])
    def test_disjoint_batch_commits_whole(self, executor):
        store, engine = self._build(executor)
        try:
            for i in range(16):
                engine.submit(
                    f"BEGIN TRANSACTION; "
                    f"UPDATE Accounts SET balance = balance + 1 WHERE id = {i}; "
                    f"COMMIT;",
                    shard_hint=shard_for_key((i,), 4),
                )
            reports = engine.drain()
        finally:
            engine.close()
        assert sum(len(r.committed) for r in reports) == 16
        check = store.begin()
        balances = {
            tuple(r.values)[0]: tuple(r.values)[1]
            for r in store.read_table(check, "Accounts")
        }
        store.commit(check)
        assert all(balances[i] == 101 for i in range(16))
        assert all(balances[i] == 100 for i in range(16, 32))

    def test_contended_batch_equivalent_serial_vs_pool(self):
        """Same hot-row workload, serial and pooled: both commit every
        transaction and agree on the final balance sum."""
        finals = {}
        for executor in (False, True):
            store, engine = self._build(executor)
            try:
                for i in range(12):
                    engine.submit(
                        f"BEGIN TRANSACTION; "
                        f"UPDATE Accounts SET balance = balance + 1 "
                        f"WHERE id = {i % 3}; COMMIT;",
                    )
                reports = engine.drain()
            finally:
                engine.close()
            assert sum(len(r.committed) for r in reports) == 12
            check = store.begin()
            finals[executor] = sorted(
                tuple(r.values) for r in store.read_table(check, "Accounts")
            )
            store.commit(check)
        assert finals[False] == finals[True]

    def test_entangled_pair_group_commits_under_pool(self):
        store = ShardedStorageEngine(4)
        store.create_table(TableSchema.build(
            "Slots", [("s", ColumnType.INTEGER)], primary_key=["s"]))
        store.create_table(TableSchema.build(
            "Picks", [("who", ColumnType.TEXT), ("s", ColumnType.INTEGER)]))
        store.load("Slots", [(1,), (2,)])
        engine = engine_for(store, EngineConfig(executor=True))
        try:
            for me, friend in (("a", "b"), ("b", "a")):
                engine.submit(f"""
                    BEGIN TRANSACTION;
                    SELECT '{me}', s AS @s INTO ANSWER Pair
                    WHERE s IN (SELECT s FROM Slots)
                    AND ('{friend}', s) IN ANSWER Pair CHOOSE 1;
                    INSERT INTO Picks (who, s) VALUES ('{me}', @s);
                    COMMIT;
                """)
            report = engine.run_once()
        finally:
            engine.close()
        assert sorted(report.committed) == [1, 2]
        picks = {
            tuple(r.values)
            for r in store.db.table("Picks").scan()
        }
        slots = {s for _w, s in picks}
        assert len(picks) == 2 and len(slots) == 1
