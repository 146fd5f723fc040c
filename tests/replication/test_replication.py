"""WAL shipping, follower reads, read-your-writes, and failover.

Unit coverage for :mod:`repro.replication`: the semi-synchronous ship
path (receive-before-ack), follower replay through the recovery redo
machinery (aborts drop, checkpoints mirror the leader's truncation),
snapshot-probe routing and its bookkeeping, bounded-staleness begin
cuts, and the failover contract — elect the maximal durable log,
recover all copies to bit-identical state, never lose an acknowledged
commit, poison in-flight transactions with a retryable error.
"""

from __future__ import annotations

import pytest

import repro
from repro.client import RetryPolicy
from repro.core.engine import EngineConfig
from repro.errors import (
    LeaderFailoverError,
    MiddlewareError,
    ReplicationError,
)
from repro.model import (
    OpKind,
    expand_quasi_reads,
    find_serialization_order,
    find_widowed_transactions,
)
from repro.replication import ReplicatedStorageEngine
from repro.storage import ColumnType, TableSchema, TxnIsolation, shard_members
from repro.storage.wal import LogRecordType, WriteAheadLog
from repro.transport.process import spawn_workers

SCHEMA = TableSchema.build(
    "T",
    [("k", ColumnType.INTEGER), ("v", ColumnType.TEXT)],
    primary_key=["k"],
)


def build(n_shards=2, **kwargs) -> ReplicatedStorageEngine:
    engine = ReplicatedStorageEngine(n_shards, **kwargs)
    engine.create_table(SCHEMA)
    return engine


@pytest.fixture(name="build", params=["in_process", "workers"])
def build_leaders(request):
    """The module's :func:`build`, for a case that takes ``build`` as an
    argument: once with in-process leaders, once with each leader in a
    worker process (followers always run here); every store it built is
    closed afterwards."""
    stores = []

    def build_here_or_in_workers(n_shards=2, **kwargs):
        members = None
        if request.param == "workers":
            members = spawn_workers(shard_members(n_shards))
        stores.append(build(n_shards, shards=members, **kwargs))
        return stores[-1]

    yield build_here_or_in_workers
    for store in stores:
        store.close()


def leader_contents(engine) -> dict[int, str]:
    return {
        row.values[0]: row.values[1]
        for row in engine.db.table("T").scan()
    }


def follower_contents(follower) -> dict[int, str]:
    return {
        row.values[0]: row.values[1]
        for row in follower.engine.db.table("T").scan()
    }


def put(engine, key: int, value: str, *, flush=True) -> None:
    txn = engine.begin()
    engine.insert(txn, "T", (key, value))
    engine.commit(txn, flush=flush)


def wal_lsns(wal) -> list[int]:
    return [r.lsn for r in wal.records(durable_only=True)]


class TestShipping:
    def test_commit_ships_before_ack_and_drain_applies(self):
        engine = build(replicas=2)
        put(engine, 1, "a")
        # Receive-before-ack: by the time commit() returned, every
        # follower's *durable log* holds the commit...
        for shard_idx in range(engine.n_shards):
            leader = engine.shards[shard_idx]
            for f in engine.followers[shard_idx]:
                assert f.durable_lsn == leader.wal.flushed_lsn
        # ... and applying it reproduces the leader's contents.
        engine.drain_replicas()
        for row in engine.followers:
            for f in row:
                assert follower_contents(f) == {
                    k: v for k, v in leader_contents(engine).items()
                    if f.shard_idx == repro.shard_for_key(
                        (k,), engine.n_shards)
                }

    def test_aborted_transaction_leaves_followers_untouched(self):
        engine = build(replicas=1)
        put(engine, 1, "a")
        txn = engine.begin()
        engine.insert(txn, "T", (2, "junk"))
        engine.abort(txn)
        # The abort's CLR+ABORT evidence still ships with the next
        # commit (logs stay identical), but replaying it is a no-op.
        put(engine, 3, "c")
        engine.drain_replicas()
        merged: dict[int, str] = {}
        for row in engine.followers:
            merged.update(follower_contents(row[0]))
        assert merged == leader_contents(engine) == {1: "a", 3: "c"}

    def test_follower_logs_mirror_the_leaders(self):
        engine = build(replicas=2)
        for k in range(6):
            put(engine, k, f"v{k}")
        for shard_idx in range(engine.n_shards):
            leader = engine.shards[shard_idx]
            for f in engine.followers[shard_idx]:
                assert wal_lsns(f.wal) == wal_lsns(leader.wal)

    def test_checkpoint_truncation_mirrors(self, build):
        engine = build(replicas=1)
        for k in range(8):
            put(engine, k, f"v{k}")
        engine.checkpoint()
        for shard_idx in range(engine.n_shards):
            leader = engine.shards[shard_idx]
            follower = engine.followers[shard_idx][0]
            assert wal_lsns(follower.wal) == wal_lsns(leader.wal)
            # The follower is quiescent after the checkpoint drain:
            # cursor caught up, nothing buffered or held back.
            assert follower._cursor_lsn == follower.wal.last_lsn
            assert not follower._ready and not follower._pending
            assert follower_contents(follower) == {
                k: v for k, v in leader_contents(engine).items()
                if follower.shard_idx == repro.shard_for_key(
                    (k,), engine.n_shards)
            }

    def test_the_shipped_tail_at_its_boundaries(self):
        """``WriteAheadLog.tail``: everything past the cursor, capped at
        the flush watermark unless asked otherwise — on an empty log, a
        cursor at and past the end, a truncated prefix, a volatile tail."""
        wal = WriteAheadLog()
        assert wal.tail(0) == [] and wal.tail(7, durable_only=False) == []
        for txn in range(1, 7):
            wal.append(LogRecordType.BEGIN, txn)
        wal.flush(4)
        lsns = lambda records: [r.lsn for r in records]  # noqa: E731
        assert lsns(wal.tail(0)) == [1, 2, 3, 4]             # volatile 5, 6 capped
        assert lsns(wal.tail(0, durable_only=False)) == [1, 2, 3, 4, 5, 6]
        assert lsns(wal.tail(2)) == [3, 4]
        assert wal.tail(4) == [] and wal.tail(5) == []       # cursor past the watermark
        assert lsns(wal.tail(5, durable_only=False)) == [6]
        assert wal.tail(6, durable_only=False) == []
        assert wal.tail(99) == [] and wal.tail(99, durable_only=False) == []
        wal.truncate_before(3)                               # the list no longer starts at 1
        assert lsns(wal.tail(0)) == lsns(wal.tail(2)) == [3, 4]
        wal.flush()
        assert lsns(wal.tail(4)) == [5, 6]
        # A copy: the caller may keep it across later appends.
        tail = wal.tail(0)
        wal.append(LogRecordType.BEGIN, 7)
        assert lsns(tail) == [3, 4, 5, 6]

    def test_apply_lag_and_drain(self):
        engine = build(replicas=1, apply_lag=3)
        for k in range(5):
            put(engine, k, f"v{k}")
        assert engine.replication_lag() > 0
        engine.drain_replicas()
        assert engine.replication_lag() == 0


class TestFollowerReads:
    def test_a_stale_cut_the_leader_pruned_is_served_by_a_follower(self, build):
        """The followers hold back two commits, so a bounded-staleness
        begin is served the cut after the first.  The leader pruned that
        version when the third commit superseded the second, before the
        reader pinned the cut; the first probe's turn is the leader's."""
        engine = build(1, replicas=2, apply_lag=2, max_staleness=4)
        put(engine, 0, "a")
        for value in ("b", "c"):
            txn = engine.begin()
            row = engine.db.table("T").lookup_pk((0,))
            engine.update(txn, "T", row.rid, (0, value))
            engine.commit(txn)
        txn = engine.begin(TxnIsolation.SNAPSHOT)
        rows = engine.snapshot_provider(txn).table("T").scan()
        assert [row.values for row in rows] == [(0, "a")]
        engine.commit(txn)
        assert engine.metrics()["follower_reads"] == 1

    def test_snapshot_probes_round_robin_over_caught_up_replicas(self):
        engine = build(replicas=2)
        for k in range(4):
            put(engine, k, f"v{k}")
        engine.drain_replicas()
        expected = leader_contents(engine)
        for _ in range(12):
            txn = engine.begin(TxnIsolation.SNAPSHOT)
            seen = {
                row.values[0]: row.values[1]
                for row in engine.snapshot_provider(txn).table("T").scan()
            }
            assert seen == expected
            engine.commit(txn)
        assert engine.metrics()["follower_reads"] > 0
        probes = engine.read_probe_counts()
        # Every server — each leader and each replica — took probes.
        assert len(probes) == engine.n_shards * 3

    def test_writers_and_serializable_stay_on_the_leader(self):
        engine = build(replicas=1)
        put(engine, 1, "a")
        engine.drain_replicas()
        before = engine.metrics()["follower_reads"]
        # A SNAPSHOT transaction that wrote must read its own
        # uncommitted version — which lives only on the leader.
        for i in range(6):
            txn = engine.begin(TxnIsolation.SNAPSHOT)
            engine.insert(txn, "T", (100 + i, "mine"))
            seen = {
                tuple(r.values)
                for r in engine.snapshot_provider(txn).table("T").scan()
            }
            assert (100 + i, "mine") in seen
            engine.commit(txn)
        # SERIALIZABLE reads feed leader-side SSI at full freshness.
        for _ in range(6):
            txn = engine.begin(TxnIsolation.SERIALIZABLE)
            list(engine.snapshot_provider(txn).table("T").scan())
            engine.commit(txn)
        # Neither kind of probe ever routed off the leaders.
        assert engine.metrics()["follower_reads"] == before
        probes = engine.read_probe_counts()
        follower_probes = {
            k: v for k, v in probes.items() if "r" in k.removeprefix("shard")
        }
        assert sum(follower_probes.values()) == 0

    def test_bounded_staleness_serves_a_recorded_cut(self):
        engine = build(replicas=1, apply_lag=2, max_staleness=64)
        for k in range(10):
            put(engine, k, f"v{k}")
        # Followers lag by apply_lag commits; a stale begin cut lets the
        # reader observe an older — but consistent — prefix.
        txn = engine.begin(TxnIsolation.SNAPSHOT)
        stale = {
            row.values[0] for row in
            engine.snapshot_provider(txn).table("T").scan()
        }
        engine.commit(txn)
        assert stale == set(range(len(stale)))  # a prefix, not a mix
        assert len(stale) <= 10
        engine.drain_replicas()
        txn = engine.begin(TxnIsolation.SNAPSHOT)
        fresh = {
            row.values[0] for row in
            engine.snapshot_provider(txn).table("T").scan()
        }
        engine.commit(txn)
        assert fresh == set(range(10))

    def test_min_vector_forces_freshness(self):
        engine = build(replicas=1, apply_lag=2, max_staleness=64)
        for k in range(10):
            put(engine, k, f"v{k}")
        floor = tuple(s.oracle.last_commit_ts for s in engine.shards)
        txn = engine.begin(TxnIsolation.SNAPSHOT, min_vector=floor)
        seen = {
            row.values[0] for row in
            engine.snapshot_provider(txn).table("T").scan()
        }
        engine.commit(txn)
        assert seen == set(range(10))


class TestFailover:
    def test_acknowledged_commits_survive_promotion(self, build):
        engine = build(replicas=2)
        for k in range(12):
            put(engine, k, f"v{k}")
        replica = engine.fail_over(0)
        assert replica in (0, 1)
        assert engine.promotion_count == 1
        assert leader_contents(engine) == {k: f"v{k}" for k in range(12)}
        # The ensemble still works: write through the successor.
        put(engine, 100, "after")
        engine.drain_replicas()
        assert leader_contents(engine)[100] == "after"

    def test_parked_group_commits_survive_promotion(self):
        engine = build(replicas=1)
        put(engine, 1, "a")
        # Commit without flushing: parked for a group flush that never
        # comes.  fail_over must flush-and-ship it, not lose it (and
        # not deadlock waiting for a group committer that isn't there).
        put(engine, 2, "parked", flush=False)
        engine.fail_over(0)
        assert leader_contents(engine) == {1: "a", 2: "parked"}

    def test_all_copies_converge_after_promotion(self, build):
        engine = build(replicas=2)
        for k in range(8):
            put(engine, k, f"v{k}")
        engine.fail_over(0)
        leader = engine.shards[0]
        for f in engine.followers[0]:
            assert wal_lsns(f.wal) == wal_lsns(leader.wal)
            assert f.durable_lsn == leader.wal.flushed_lsn
            f.drain()
            assert follower_contents(f) == {
                k: v for k, v in leader_contents(engine).items()
                if repro.shard_for_key((k,), engine.n_shards) == 0
            }
        # Incremental shipping keeps working on the new timeline.
        put(engine, 50, "post")
        engine.drain_replicas()
        for f in engine.followers[0]:
            assert wal_lsns(f.wal) == wal_lsns(leader.wal)

    def test_live_transactions_poisoned_with_retryable_error(self):
        engine = build(replicas=1)
        put(engine, 1, "a")
        txn = engine.begin()
        engine.insert(txn, "T", (2, "doomed"))
        engine.fail_over(0)
        with pytest.raises(LeaderFailoverError) as exc:
            engine.insert(txn, "T", (3, "more"))
        assert exc.value.retryable
        assert RetryPolicy().retryable(exc.value)
        # Client-side cleanup after the error is absorbed quietly.
        engine.abort(txn)
        # The uncommitted write died with the old leader.
        assert leader_contents(engine) == {1: "a"}

    def test_failover_aborts_reach_the_observers_exactly_once(self):
        """Every transaction live at the failover — whichever shards it
        had begun on — terminates for the observers there and then, and
        the client's later cleanup abort adds nothing."""
        engine = build(replicas=1)
        events = []
        engine.observers.append(
            lambda txn, kind, _table, _reads_from: events.append((txn, kind)))
        on_dead, on_survivor = 0, next(
            k for k in range(1, 64) if engine.route_key("T", (k,)) == 1)
        assert engine.route_key("T", (on_dead,)) == 0
        live = {}
        for name, isolation, key in [
            ("snapshot on the dead shard", TxnIsolation.SNAPSHOT, on_dead),
            ("2pl on the survivor", TxnIsolation.TWO_PL, on_survivor),
        ]:
            live[name] = txn = engine.begin(isolation)
            engine.insert(txn, "T", (key, name))
        idle = engine.begin(TxnIsolation.SNAPSHOT)  # begun on no shard
        aborts_before = engine.metrics()["aborts"]
        engine.fail_over(0)
        for txn in (*live.values(), idle):
            with pytest.raises(LeaderFailoverError):
                engine.insert(txn, "T", (99, "touch"))
            engine.abort(txn)
        assert events == [
            (live["snapshot on the dead shard"], "write"),
            (live["2pl on the survivor"], "write"),
            (live["snapshot on the dead shard"], "abort"),
            (live["2pl on the survivor"], "abort"),
            (idle, "abort"),
        ]
        assert engine.metrics()["aborts"] == aborts_before + 3
        assert leader_contents(engine) == {}

    def test_recorded_schedule_terminates_failed_over_transactions(self):
        """A ``record_schedule`` engine over a replicated store: the
        failed-over attempt is an aborted transaction *at the failover*,
        not one still running when later writers commit."""
        db = repro.connect(
            shards=2, replicas=1, isolation="snapshot",
            config=EngineConfig(record_schedule=True),
        )
        try:
            db.create_table(SCHEMA)
            session = db.session("alice")
            with session.transaction() as before:
                before.insert("T", (1, "a"))
            doomed = session.transaction()
            doomed.insert("T", (2, "doomed"))
            db.store.fail_over(0)
            with pytest.raises(LeaderFailoverError):
                doomed.insert("T", (3, "more"))
            doomed.abort()
            with session.transaction() as after:
                after.insert("T", (2, "after"))
            schedule = db.engine.recorded_schedule()
            ops = [str(op) for op in schedule.ops]
            terminal = [i for i, op in enumerate(schedule.ops)
                        if op.txn == doomed.txn
                        and op.kind in (OpKind.ABORT, OpKind.COMMIT)]
            first_after = next(i for i, op in enumerate(schedule.ops)
                               if op.txn == after.txn)
            assert len(terminal) == 1 and terminal[0] < first_after, ops
            assert find_serialization_order(schedule).serializable, ops
            assert find_widowed_transactions(expand_quasi_reads(schedule)) == []
        finally:
            db.close()

    def test_failover_without_followers_refuses(self):
        engine = build(replicas=0)
        with pytest.raises(ReplicationError):
            engine.fail_over(0)

    def test_repeated_failover(self, build):
        engine = build(replicas=2)
        for k in range(4):
            put(engine, k, f"v{k}")
        engine.fail_over(0)
        put(engine, 10, "x")
        engine.fail_over(0)
        assert engine.promotion_count == 2
        expected = {k: f"v{k}" for k in range(4)}
        expected[10] = "x"
        assert leader_contents(engine) == expected

    @pytest.mark.parametrize("executor", ["pool", "process"])
    def test_a_client_restart_keeps_its_replicas(self, executor):
        db = repro.connect(
            shards=2, replicas=1, executor=executor,
            config=EngineConfig(persist_state=True),
        )
        try:
            db.create_table(SCHEMA)
            with db.session("w").transaction() as t:
                t.insert("T", (1, "one"))
            db, _report = db.crash_and_recover()
            assert isinstance(db.store, ReplicatedStorageEngine)
            assert [len(row) for row in db.store.followers] == [1, 1]
            alice = db.session("alice")
            with alice.transaction() as t:
                t.insert("T", (2, "two"))
            with alice.transaction() as t:
                assert {row.values[0] for row in t.read_table("T")} == {1, 2}
            db.store.fail_over(0)
            with alice.transaction() as t:
                assert {row.values[0] for row in t.read_table("T")} == {1, 2}
        finally:
            db.close()


class TestConfigValidation:
    def test_negative_knobs_rejected(self):
        with pytest.raises(ReplicationError):
            ReplicatedStorageEngine(2, replicas=-1)
        with pytest.raises(ReplicationError):
            ReplicatedStorageEngine(2, replicas=1, max_staleness=-1)
        with pytest.raises(ReplicationError):
            ReplicatedStorageEngine(2, replicas=1, apply_lag=-1)

    def test_connect_freshness_knobs_require_replicas(self):
        with pytest.raises(MiddlewareError):
            repro.connect(shards=2, max_staleness=8)
        with pytest.raises(MiddlewareError):
            repro.connect(shards=2, replica_lag=2)

    def test_connect_replicas_runs_over_worker_processes(self):
        """Leaders in workers, followers here: a commit ships to the
        followers, and a stale-tolerant SNAPSHOT read is served by one."""
        db = repro.connect(
            shards=2, replicas=1, executor="process", max_staleness=8,
        )
        try:
            assert db.store.worker_pids()
            db.create_table(SCHEMA)
            with db.session("w").transaction() as t:
                for k in range(4):
                    t.insert("T", (k, f"v{k}"))
            reader = db.session("r", isolation=TxnIsolation.SNAPSHOT)
            for _ in range(4):
                with reader.transaction() as t:
                    assert {row.values[0] for row in t.read_table("T")} == {
                        0, 1, 2, 3}
            assert db.store.metrics()["follower_reads"] > 0
        finally:
            db.close()


class TestReadYourWrites:
    def test_session_reads_its_own_writes_through_lagging_replicas(self):
        db = repro.connect(
            shards=2, isolation="snapshot",
            replicas=2, max_staleness=128, replica_lag=4,
        )
        try:
            db.create_table(SCHEMA)
            db.load("T", [(k, f"seed{k}") for k in range(8)])
            alice = db.session("alice")
            for i in range(10):
                with alice.transaction() as t:
                    t.insert("T", (1000 + i, f"mine{i}"))
                # The very next read must observe every acknowledged
                # write, however far behind the replicas are.
                with alice.transaction() as t:
                    keys = {row.values[0] for row in t.read_table("T")}
                assert all(1000 + j in keys for j in range(i + 1)), (
                    f"read-your-writes violated at i={i}: {sorted(keys)}"
                )
        finally:
            db.close()

    def test_other_sessions_may_read_stale_but_consistent(self):
        db = repro.connect(
            shards=2, isolation="snapshot",
            replicas=1, max_staleness=128, replica_lag=4,
        )
        try:
            db.create_table(SCHEMA)
            writer = db.session("writer")
            for i in range(12):
                with writer.transaction() as t:
                    t.insert("T", (i, f"v{i}"))
            reader = db.session("reader")
            with reader.transaction() as t:
                keys = sorted(row.values[0] for row in t.read_table("T"))
            # A prefix of the commit order — possibly stale, never torn.
            assert keys == list(range(len(keys)))
        finally:
            db.close()

    def test_ryw_floor_survives_failover(self):
        db = repro.connect(
            shards=2, isolation="snapshot",
            replicas=2, max_staleness=128, replica_lag=2,
        )
        try:
            db.create_table(SCHEMA)
            alice = db.session("alice")
            for i in range(5):
                with alice.transaction() as t:
                    t.insert("T", (i, f"v{i}"))
            db.store.fail_over(0)
            with alice.transaction() as t:
                keys = {row.values[0] for row in t.read_table("T")}
            assert keys == set(range(5))
        finally:
            db.close()
