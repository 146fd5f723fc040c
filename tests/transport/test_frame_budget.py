"""One frame per statement per shard: the frame budget and what rides it.

The budget half drives seeded ledger scripts through ``connect(shards=2,
executor="process")`` with the coordinator's ``FrameChannel`` counted,
and pins round trips per statement shape and per bulk load (one
``insert_many`` per shard the rows land on).  The semantics half checks
what fusing must not change: a blocked statement applies each row once
when retried, a wait cycle closed inside a fused verb is still a
``DeadlockError``, a failing piggybacked ``begin`` surfaces on its
carrier, a worker SIGKILLed mid-statement is a ``TransportError`` that
recovery reconverges from, and a pk-assigning UPDATE still migrates.

Worker-side faults are injected by patching ``StorageEngine`` *before*
the fleet forks: the workers inherit the patch, the coordinator never
runs a ``StorageEngine`` of its own.
"""

from __future__ import annotations

import os
import random
import signal
from collections import Counter

import pytest

from repro import connect
from repro.errors import DeadlockError, TransactionStateError, TransportError
from repro.replication import ReplicatedStorageEngine
from repro.storage import ColumnType, TableSchema, TxnIsolation, recover
from repro.storage.engine import StorageEngine, WouldBlock
from repro.storage.sharding import ShardedStorageEngine
from repro.storage.expressions import (
    Arith,
    ArithOp,
    Cmp,
    CmpOp,
    Col,
    Const,
    RowAssignments,
    RowPredicate,
)
from repro.storage.store import METRICS
from repro.transport.frames import FrameChannel
from repro.transport.process import ProcessShardedStorageEngine
from repro.transport.proxy import ShardConnection
from repro.workloads.payments import payment_schema

N_ACCOUNTS = 32


class CountedFrames:
    """The coordinator's frames since :meth:`reset`, by request method,
    and the one-way calls that rode them as prelude.  Every frame the
    coordinator sends is counted, so a one-way call that still cost a
    frame of its own would show up as a request."""

    def __init__(self, monkeypatch):
        self.requests: Counter = Counter()
        self.prelude: Counter = Counter()
        send = FrameChannel.send

        def counted_send(channel, frame):
            _req_id, method, _args, prelude = frame
            self.requests[method] += 1
            self.prelude.update(name for name, _args in prelude)
            send(channel, frame)

        monkeypatch.setattr(FrameChannel, "send", counted_send)

    def reset(self) -> None:
        self.requests.clear()
        self.prelude.clear()


@pytest.fixture
def ledger():
    client = connect(shards=2, executor="process", isolation="snapshot")
    for schema in payment_schema():
        client.create_table(schema)
    client.load("Accounts", [(i, f"a{i}", 1000.0) for i in range(N_ACCOUNTS)])
    yield client
    client.close()


def run_one(client, sql: str) -> None:
    handle = client.session("c").run_script(sql)
    client.run()
    assert handle.succeeded


class TestFrameBudget:
    def test_transfer_scripts_cost_one_frame_per_statement_per_shard(
        self, ledger, monkeypatch
    ):
        store = ledger.store
        rng = random.Random(16)
        frames = CountedFrames(monkeypatch)
        for entry in range(1, 13):
            src, dst = rng.sample(range(N_ACCOUNTS), 2)
            frames.reset()
            run_one(ledger, f"""
                BEGIN TRANSACTION;
                SELECT balance AS @b FROM Accounts WHERE id={src};
                UPDATE Accounts SET balance = balance - 5.00 WHERE id={src};
                UPDATE Accounts SET balance = balance + 5.00 WHERE id={dst};
                INSERT INTO Ledger (entry, src, dst, amount, at)
                    VALUES ({entry}, {src}, {dst}, 5.00, {entry}.5);
                COMMIT;
            """)
            written = {
                store.route_key("Accounts", (src,)),
                store.route_key("Accounts", (dst,)),
                store.route_key("Ledger", (entry,)),
            }
            # pk SELECT 1; pk UPDATE 1 each (the shard's lazy begin rides
            # the first statement that touches it); INSERT 1; commit 1 +
            # flush 1 per written shard.  Nothing else: no lock, begin,
            # snapshot-registry or statistics frame.
            assert frames.requests == {
                "snap_lookup_pk": 1, "update_where": 2, "insert": 1,
                "commit": len(written), "wal_flush": len(written),
            }
            assert frames.prelude["begin"] == len(written)

    def test_range_read_costs_one_frame_per_shard_and_ships_the_limit(
        self, ledger, monkeypatch
    ):
        ledger.load("Ledger", [
            (i, i % N_ACCOUNTS, (i + 1) % N_ACCOUNTS, 1.0, i * 0.5)
            for i in range(1, 81)
        ])
        frames = CountedFrames(monkeypatch)
        shipped = []
        call = ShardConnection.call

        def sized_call(connection, method, *args):
            status, payload = call(connection, method, *args)
            if isinstance(payload, list):
                shipped.append((method, len(payload)))
            return status, payload

        monkeypatch.setattr(ShardConnection, "call", sized_call)
        run_one(ledger, """
            BEGIN TRANSACTION;
            SELECT entry, src, dst, amount FROM Ledger
                WHERE at >= 0.0 AND at <= 100.0 ORDER BY at LIMIT 7;
            COMMIT;
        """)
        # A read-only snapshot transaction begins on no shard, so its
        # commit is free; each shard ships its first 7 rows, not its ~40.
        assert frames.requests == {"snap_range_scan": 2}
        assert shipped == [("snap_range_scan", 7)] * 2
        assert ledger.query(
            "SELECT entry FROM Ledger WHERE at >= 0.0 AND at <= 100.0 "
            "ORDER BY at LIMIT 7"
        ) == [(i,) for i in range(1, 8)]

    def test_costing_a_range_costs_no_frame(self, ledger, monkeypatch):
        ledger.load("Ledger", [
            (i, i % N_ACCOUNTS, (i + 1) % N_ACCOUNTS, 1.0, i * 0.5)
            for i in range(1, 81)
        ])
        frames = CountedFrames(monkeypatch)
        # No ORDER BY pins the access path, so the planner costs the
        # range against a scan — from the row counts response envelopes
        # already mirrored, not a ``snap_len`` (a visibility scan in the
        # worker) per shard.
        run_one(ledger, """
            BEGIN TRANSACTION;
            SELECT entry FROM Ledger WHERE at >= 10.0 AND at <= 12.0;
            COMMIT;
        """)
        assert frames.requests == {"snap_range_scan": 2}

    def test_a_load_costs_one_frame_per_shard_it_touches(
        self, ledger, monkeypatch
    ):
        store = ledger.store
        frames = CountedFrames(monkeypatch)
        for rows, n_touched in (
            ([(i, i % N_ACCOUNTS, (i + 1) % N_ACCOUNTS, 1.0, i * 0.5)
              for i in range(1, 101)], 2),
            ([(101, 0, 1, 1.0, 50.5)], 1),
        ):
            frames.reset()
            assert ledger.load("Ledger", rows) == len(rows)
            assert len({store.route_row("Ledger", r) for r in rows}) == n_touched
            # One insert_many per shard the rows land on (the shard's
            # begin rides it), then the commit round: commit and flush
            # per written shard.
            assert frames.requests == {
                "insert_many": n_touched, "commit": n_touched,
                "wal_flush": n_touched,
            }
            assert frames.prelude["begin"] == n_touched

    def test_run_report_statistics_are_local_reads(self, ledger, monkeypatch):
        frames = CountedFrames(monkeypatch)
        report = ledger.run()
        store = ledger.store
        assert store.metrics()["locks.acquired"] > 0  # the load took locks
        assert store.metrics()["versions"] >= N_ACCOUNTS
        assert sum(store.chain_histograms()["Accounts"].values()) == N_ACCOUNTS
        assert report.chain_histograms == store.chain_histograms()
        assert not frames.requests


# -- semantics that fusing must keep ---------------------------------------------------

K_SCHEMA = TableSchema.build(
    "T",
    [("k", ColumnType.INTEGER), ("grp", ColumnType.TEXT),
     ("n", ColumnType.INTEGER)],
    primary_key=["k"], indexes=[["grp"]],
)
COLUMNS = K_SCHEMA.column_names


def bump(engine, txn, where):
    """``UPDATE T SET n = n + 1 WHERE <where>`` as the interpreter ships it."""
    return engine.update_where(
        txn, "T", RowPredicate(COLUMNS, where),
        RowAssignments(COLUMNS, (
            (2, Arith(ArithOp.ADD, Col("n"), Const(1))),)),
        where=where,
    )


def pk_is(key):
    return Cmp(CmpOp.EQ, Col("k"), Const(key))


def build(n_shards=2):
    engine = ProcessShardedStorageEngine(n_shards)
    engine.create_table(K_SCHEMA)
    return engine


def keys_on_distinct_shards(engine):
    other = next(k for k in range(1, 64)
                 if engine.route_key("T", (k,)) != engine.route_key("T", (0,)))
    return 0, other


def contents(engine):
    return {row.values[0]: row.values[2] for row in engine.db.table("T").scan()}


@pytest.fixture
def engine2():
    engine = build(2)
    yield engine
    engine.close()


class TestFusedSemantics:
    def test_blocked_statement_applies_each_row_once_when_retried(self, engine2):
        """A non-pk predicate visits both shards.  The holder's row is on
        the *last* shard visited, so the candidate locks taken everywhere
        before any write are what keep the first shard un-applied."""
        engine = engine2
        x, y = keys_on_distinct_shards(engine)
        first, last = sorted(
            (x, y), key=lambda k: engine.route_key("T", (k,)))
        engine.load("T", [(x, "a", 0), (y, "a", 0)])
        holder, writer = engine.begin(), engine.begin()
        bump(engine, holder, pk_is(last))
        grp_a = Cmp(CmpOp.EQ, Col("grp"), Const("a"))
        with pytest.raises(WouldBlock):
            bump(engine, writer, grp_a)
        engine.abort(holder)
        changed = bump(engine, writer, grp_a)
        assert sorted(new.values[0] for _old, new in changed) == [x, y]
        engine.commit(writer)
        assert contents(engine) == {first: 1, last: 1}

    def test_blocked_on_second_candidate_of_one_shard(self):
        engine = build(1)
        try:
            engine.load("T", [(1, "a", 0), (2, "a", 0)])
            holder, writer = engine.begin(), engine.begin()
            bump(engine, holder, pk_is(2))
            grp_a = Cmp(CmpOp.EQ, Col("grp"), Const("a"))
            with pytest.raises(WouldBlock):
                bump(engine, writer, grp_a)
            engine.abort(holder)
            assert len(bump(engine, writer, grp_a)) == 2
            engine.commit(writer)
            assert contents(engine) == {1: 1, 2: 1}
        finally:
            engine.close()

    def test_wait_cycle_closed_inside_a_fused_verb_is_a_deadlock(self, engine2):
        engine = engine2
        x, y = keys_on_distinct_shards(engine)
        engine.load("T", [(x, "a", 0), (y, "a", 0)])
        a, b = engine.begin(), engine.begin()
        bump(engine, a, pk_is(x))
        bump(engine, b, pk_is(y))
        with pytest.raises(WouldBlock):
            bump(engine, a, pk_is(y))
        with pytest.raises(DeadlockError):
            bump(engine, b, pk_is(x))
        # The victim's enqueued wait was withdrawn shard-side.
        assert not engine.locks.waiting(b)
        engine.abort(b)
        bump(engine, a, pk_is(y))
        engine.commit(a)
        assert contents(engine) == {x: 1, y: 1}

    def test_failing_piggybacked_begin_surfaces_on_its_carrier(self, monkeypatch):
        real_begin = StorageEngine.begin

        def begin(self, isolation=TxnIsolation.TWO_PL, *, txn_id=None,
                  read_ts=None):
            if isolation is TxnIsolation.SNAPSHOT:
                raise TransactionStateError("no snapshots on this shard")
            return real_begin(self, isolation, txn_id=txn_id, read_ts=read_ts)

        monkeypatch.setattr(StorageEngine, "begin", begin)
        engine = build(2)
        try:
            engine.load("T", [(0, "a", 0)])
            txn = engine.begin(TxnIsolation.SNAPSHOT)
            # The carrier is the statement, and it did not run.
            with pytest.raises(TransactionStateError, match="no snapshots"):
                bump(engine, txn, pk_is(0))
            assert contents(engine) == {0: 0}
        finally:
            engine.close()

    def test_worker_killed_mid_statement_is_a_transport_error(self, monkeypatch):
        real_update = StorageEngine.update

        def update(self, txn, table_name, rid, values, **kwargs):
            if values[2] == 666:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_update(self, txn, table_name, rid, values, **kwargs)

        monkeypatch.setattr(StorageEngine, "update", update)
        engine = build(2)
        survivor = None
        try:
            x, y = keys_on_distinct_shards(engine)
            engine.load("T", [(x, "a", 0), (y, "a", 665)])
            txn = engine.begin()
            bump(engine, txn, pk_is(x))
            with pytest.raises(TransportError):
                bump(engine, txn, pk_is(y))  # dies between lock and write
            survivor = engine.crash()
            report = recover(survivor)
            assert txn not in report.winners
            assert contents(survivor) == {x: 0, y: 665}
            again = survivor.begin()
            bump(survivor, again, pk_is(x))
            survivor.commit(again)
            assert contents(survivor) == {x: 1, y: 665}
        finally:
            engine.close()
            if survivor is not None:
                survivor.close()

    def test_pk_assigning_update_still_migrates_the_row(self, engine2):
        engine = engine2
        x, y = keys_on_distinct_shards(engine)
        engine.load("T", [(x, "a", 7)])
        txn = engine.begin()
        changed = engine.update_where(
            txn, "T", RowPredicate(COLUMNS, pk_is(x)),
            RowAssignments(COLUMNS, ((0, Const(y)),)), where=pk_is(x),
        )
        assert [(old.values[0], new.values[0]) for old, new in changed] == [(x, y)]
        engine.commit(txn)
        assert contents(engine) == {y: 7}
        for idx, shard in enumerate(engine.shards):
            found = shard.db.table("T").lookup_pk((y,))
            assert (found is not None) == (idx == engine.route_key("T", (y,)))


# -- what the shard-engine contract removed from the wire -------------------------------


@pytest.mark.parametrize("n_shards", [2, 4])
class TestContractFramePins:
    def test_create_table_is_one_frame_per_shard(self, n_shards, monkeypatch):
        engine = ProcessShardedStorageEngine(n_shards)
        try:
            frames = CountedFrames(monkeypatch)
            engine.create_table(K_SCHEMA)
            # A shard member allocates rids in its own class from birth:
            # no namespace frame follows the DDL.
            assert frames.requests == {"create_table": n_shards}
        finally:
            engine.close()

    def test_metrics_and_chain_histograms_cost_no_frame(self, n_shards, monkeypatch):
        # Both answer from the mirrors the response envelopes keep.
        engine = build(n_shards)
        try:
            engine.load("T", [(k, "a", 0) for k in range(8)])
            frames = CountedFrames(monkeypatch)
            reading = engine.metrics()
            histograms = engine.chain_histograms()
            assert not frames.requests and not frames.prelude
            assert list(reading) == list(METRICS)
            assert reading["locks.acquired"] > 0 and reading["versions"] == 8
            assert reading["commits"] == 1
            assert histograms == {"T": {1: 8}}
        finally:
            engine.close()


def rid_classes(store, rows):
    """``{(rid - 1) % n_shards == the shard the row's key routes to}``."""
    return {
        (row.rid - 1) % store.n_shards == store.route_key("T", row.values[:1])
        for row in rows
    }


def build_store(kind: str, n_shards: int):
    if kind == "process":
        store = ProcessShardedStorageEngine(n_shards)
    elif kind == "replicated":
        store = ReplicatedStorageEngine(n_shards, replicas=1)
    else:
        store = ShardedStorageEngine(n_shards)
    store.create_table(K_SCHEMA)
    return store


@pytest.mark.parametrize("n_shards", [2, 4])
@pytest.mark.parametrize("kind", ["pool", "process", "replicated"])
def test_rids_stay_in_the_shards_class(kind, n_shards):
    """After ``create_table``, after ``crash()`` + ``recover`` and — on a
    replicated store — on a follower after ``resync``, shard *i* of *n*
    assigns rids ``i+1 (mod n)`` with no one re-imposing the class."""
    store = build_store(kind, n_shards)
    survivor = None
    try:
        store.load("T", [(k, "a", 0) for k in range(16)])
        assert rid_classes(store, store.db.table("T").scan()) == {True}
        if kind == "replicated":
            store.fail_over(0)  # promotes a shell, resyncs the followers
            store.load("T", [(k, "b", 0) for k in range(16, 32)])
            store.drain_replicas()
            for shard_idx, row in enumerate(store.followers):
                for follower in row:
                    rows = list(follower.engine.db.table("T").scan())
                    assert rows and {(r.rid - 1) % n_shards for r in rows} == {
                        shard_idx}
                    # ... and the follower's own counter is in the class.
                    fresh = follower.engine.db.table("T").insert((1000, "c", 0))
                    assert (fresh.rid - 1) % n_shards == shard_idx
        survivor = store.crash()
        recover(survivor)
        survivor.load("T", [(k, "d", 0) for k in range(32, 48)])
        rows = list(survivor.db.table("T").scan())
        assert len(rows) >= 32 and rid_classes(survivor, rows) == {True}
    finally:
        for engine in (store, survivor):
            close = getattr(engine, "close", None)
            if close is not None:
                close()
