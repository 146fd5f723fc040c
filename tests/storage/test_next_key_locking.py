"""Next-key locking closes phantoms under 2PL; SSI aborts them instead.

Storage-level tests pin the lock protocol itself: a range reader holds S
on every qualifying key plus the right fencepost, so an insert *into*
the scanned gap blocks (``WouldBlock``) while an insert beyond the fence
sails through — and symmetrically, a scan over an uncommitted insert
blocks on the inserter's key X lock.  Engine-level tests run the classic
range write-skew pair at 1/2/4 shards under all three isolation modes:
SNAPSHOT admits the phantom anomaly, SERIALIZABLE (runtime SSI, via the
``ixrange`` read intervals) aborts a pivot and retries, and 2PL blocks
it outright via next-key locks — with zero whole-table S grants.
"""

import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _batch import engine_for
from repro.core.engine import (
    EngineConfig,
    IsolationConfig,
)
from repro.core.transaction import TxnPhase
from repro.sql import parse_statement
from repro.sql.compiler import compile_select
from repro.storage import (
    ColumnType,
    LockGranularity,
    ShardedStorageEngine,
    TableSchema,
    TxnIsolation,
    shard_members,
)
from repro.storage.engine import WouldBlock
from repro.storage.sharding import build_storage_engine
from repro.transport.process import spawn_workers

from _reference_bind import literal

SHARD_COUNTS = (1, 2, 4)


def build_store(shards, granularity=LockGranularity.FINE):
    store = build_storage_engine(shards, granularity=granularity)
    store.create_table(TableSchema.build(
        "T",
        [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
        primary_key=["k"],
    ))
    # even keys 0..38: every range below has in-range keys, gaps to
    # insert phantoms into, and existing keys above every fence.
    store.load("T", [(k, 0) for k in range(0, 40, 2)])
    return store


def range_read(store, txn, lo, hi):
    compiled = compile_select(
        parse_statement(f"SELECT k FROM T WHERE k >= {lo} AND k < {hi}"),
        store.db, {},
    )
    return store.query(txn, literal(compiled))


class TestNextKeyLocks2PL:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_insert_into_scanned_gap_blocks(self, shards):
        store = build_store(shards)
        reader = store.begin()
        rows = range_read(store, reader, 4, 12)
        assert sorted(rows) == [(4,), (6,), (8,), (10,)]
        writer = store.begin()
        # phantom between two scanned keys: successor 8 is S-locked
        with pytest.raises(WouldBlock):
            store.insert(writer, "T", [7, 1])
        # the whole read path used index locks, never a table S lock
        assert store.metrics()["locks.table_s_grants"] == 0

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_insert_just_below_fence_blocks(self, shards):
        store = build_store(shards)
        reader = store.begin()
        range_read(store, reader, 4, 12)
        writer = store.begin()
        # key 11 is outside every scanned posting but inside the gap
        # guarded by the fencepost (successor of the upper bound, 12)
        with pytest.raises(WouldBlock):
            store.insert(writer, "T", [11, 1])

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_insert_beyond_fence_does_not_block(self, shards):
        store = build_store(shards)
        reader = store.begin()
        range_read(store, reader, 4, 12)
        writer = store.begin()
        # far above the scanned range: no shared fencepost, no conflict
        store.insert(writer, "T", [100, 1])
        store.commit(writer)
        store.commit(reader)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_blocked_phantom_lands_after_reader_commits(self, shards):
        store = build_store(shards)
        reader = store.begin()
        range_read(store, reader, 4, 12)
        writer = store.begin()
        with pytest.raises(WouldBlock):
            store.insert(writer, "T", [7, 1])
        store.commit(reader)  # releases the S locks, wakes the waiter
        store.insert(writer, "T", [7, 1])
        store.commit(writer)
        probe = store.begin()
        assert sorted(range_read(store, probe, 4, 12)) == [
            (4,), (6,), (7,), (8,), (10,)
        ]

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_scan_blocks_on_uncommitted_insert(self, shards):
        store = build_store(shards)
        writer = store.begin()
        store.insert(writer, "T", [7, 1])
        reader = store.begin()
        with pytest.raises(WouldBlock):
            range_read(store, reader, 4, 12)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("vacate", ["delete", "update"])
    @pytest.mark.parametrize(
        "granularity", list(LockGranularity), ids=lambda g: g.value)
    def test_insert_of_a_vacated_primary_key_waits(
        self, shards, vacate, granularity
    ):
        # A delete, or an update that moves the row to another primary
        # key, X-locks the key it vacates: an inserter of that key waits
        # for the outcome, and an abort gives the key back to the row.
        # Under TABLE granularity too, where writers take no other key
        # lock: table IX is compatible with table IX.
        store = build_store(shards, granularity)
        writer = store.begin()
        row = store.db.table("T").lookup_pk((6,))
        if vacate == "delete":
            store.delete(writer, "T", row.rid)
        else:
            store.update(writer, "T", row.rid, [7, 0])
        inserter = store.begin()
        with pytest.raises(WouldBlock):
            store.insert(inserter, "T", [6, 1])
        store.abort(writer)
        store.abort(inserter)
        probe = store.begin()
        assert sorted(range_read(store, probe, 4, 10)) == [(4,), (6,), (8,)]


#: the classic phantom write-skew pair: each transaction scans the range
#: the *other* one inserts into.
PHANTOM_SKEW = (
    "BEGIN TRANSACTION; "
    "SELECT k AS @a FROM T WHERE k >= 0 AND k < 10; "
    "INSERT INTO T (k, v) VALUES (15, 1); COMMIT;",
    "BEGIN TRANSACTION; "
    "SELECT k AS @b FROM T WHERE k >= 10 AND k < 20; "
    "INSERT INTO T (k, v) VALUES (5, 1); COMMIT;",
)


def build_engine(shards, isolation):
    store = build_store(shards)
    config = EngineConfig(isolation=isolation, connections=10)
    return engine_for(store, config)


class TestPhantomWriteSkew:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_snapshot_admits_the_phantom_anomaly(self, shards):
        engine = build_engine(shards, IsolationConfig.SNAPSHOT)
        handles = [engine.submit(p) for p in PHANTOM_SKEW]
        report = engine.run_once()
        # both commit concurrently: neither scan saw the other's insert
        assert sorted(report.committed) == sorted(handles)
        assert report.ssi_aborts == 0

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_serializable_aborts_the_pivot(self, shards):
        engine = build_engine(shards, IsolationConfig.SERIALIZABLE)
        txns = [engine.transaction(engine.submit(p)) for p in PHANTOM_SKEW]
        report = engine.run_once()
        # the ixrange read intervals catch the cross-range inserts: the
        # second committer is the pivot and aborts
        assert len(report.committed) == 1
        assert report.ssi_aborts >= 1
        engine.drain()
        for txn in txns:
            assert txn.phase is TxnPhase.COMMITTED
        # serializable outcome: the retried scan saw the first insert
        store = engine.store
        txn = store.begin()
        keys = {row.values[0] for row in store.read_table(txn, "T")}
        assert {5, 15} <= keys

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_2pl_blocks_the_phantom_with_next_key_locks(self, shards):
        engine = build_engine(shards, IsolationConfig.FULL)
        store = engine.store
        txns = [engine.transaction(engine.submit(p)) for p in PHANTOM_SKEW]
        engine.drain()
        for txn in txns:
            assert txn.phase is TxnPhase.COMMITTED
        # the conflict was real (one attempt waited) and it was resolved
        # by key locks alone — never a whole-table S lock
        assert sum(r.lock_waits for r in engine.run_reports) >= 1
        assert store.metrics()["locks.table_s_grants"] == 0
        assert sum(r.ssi_aborts for r in engine.run_reports) == 0


# -- LIMIT reaches the leaf: lock / track the prefix the consumer pulls -----------------

#: ensemble width of the sharded arms (CI's range-predicates and
#: proc-shards matrices run this file at 2 and 4).
WIDTH = max(2, int(os.environ.get("REPRO_SHARDS", "2")))
LIMIT_ENGINES = {
    "single": lambda: build_storage_engine(1),
    "pool": lambda: ShardedStorageEngine(WIDTH),
    "process": lambda: ShardedStorageEngine(shards=spawn_workers(shard_members(WIDTH))),
}
KEYS = list(range(0, 40, 2))


@pytest.fixture(scope="module")
def limit_stores():
    """One store per engine kind for the whole property: every example
    aborts both of its transactions, which restores the rows."""
    stores = {}
    try:
        for kind, make in LIMIT_ENGINES.items():
            store = stores[kind] = make()
            store.create_table(TableSchema.build(
                "T", [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
                primary_key=["k"],
            ))
            store.load("T", [(k, 0) for k in KEYS])
        yield stores
    finally:
        for store in stores.values():
            getattr(store, "close", lambda: None)()


def limited_read(store, txn, lo, hi, descending, n):
    direction = "DESC" if descending else "ASC"
    compiled = compile_select(parse_statement(
        f"SELECT k FROM T WHERE k >= {lo} AND k <= {hi} "
        f"ORDER BY k {direction} LIMIT {n}"), store.db, {})
    return store.query(txn, literal(compiled))


def shard_of(store, key):
    return store.route_key("T", (key,)) if store.n_shards > 1 else 0


def beyond_the_prefix(store, x, lo, hi, descending, n):
    """Is inserting ``x`` sure to be granted?  Each shard locks the keys
    its own first ``n`` in-range rows sit under, so "beyond the n-th
    key" is judged on ``x``'s home shard; one that ran out of rows
    before ``n`` guards its whole range.  A next-key lock guards the gap
    *below* its key: going down, beyond starts under the next existing
    key."""
    home = [k for k in KEYS if shard_of(store, k) == shard_of(store, x)]
    fragment = sorted((k for k in home if lo <= k <= hi), reverse=descending)
    if len(fragment) < n:
        return False
    nth = fragment[n - 1]
    if not descending:
        return x > nth
    below = [k for k in home if k < nth]
    return bool(below) and x < max(below)


class TestLimitPhantom:
    @pytest.mark.parametrize("kind", list(LIMIT_ENGINES))
    @settings(max_examples=60, deadline=None)
    @given(
        lo=st.integers(-2, 30), width=st.integers(0, 40),
        descending=st.booleans(), n=st.integers(1, 6),
        op=st.sampled_from(("insert", "delete", "rekey")),
        where=st.integers(0, 19), to=st.integers(0, 20),
    )
    # Rows 0, 2, 4 going up / 20, 18, 16 going down; the insert lands in
    # the bounds, past them (a single engine blocks both at the parent).
    @example(lo=0, width=20, descending=False, n=3, op="insert", where=0, to=5)
    @example(lo=0, width=20, descending=True, n=3, op="insert", where=0, to=6)
    # ... and past every shard's first row, under the fence of an open top.
    @example(lo=-2, width=42, descending=False, n=1, op="insert", where=0, to=20)
    def test_2pl_granted_writes_never_change_the_answer(
        self, limit_stores, kind, lo, width, descending, n, op, where, to
    ):
        store = limit_stores[kind]
        hi = lo + width
        table = store.db.table("T")
        assert sorted(row.values[0] for row in table.scan()) == KEYS
        reader, writer = store.begin(), store.begin()
        try:
            rows = limited_read(store, reader, lo, hi, descending, n)
            odd = 2 * to - 1                 # a key no row carries, -1..39
            try:
                if op == "insert":
                    store.insert(writer, "T", [odd, 1])
                elif op == "delete":
                    store.delete(writer, "T", table.lookup_pk((KEYS[where],)).rid)
                else:
                    store.update(
                        writer, "T", table.lookup_pk((KEYS[where],)).rid, [odd, 1])
                granted = True
            except WouldBlock:
                granted = False
            if granted:
                # Soundness: 2PL reads the live rows, so the writer's
                # uncommitted change is in front of the re-run — same
                # answer, and no lock the first run did not already hold.
                assert limited_read(store, reader, lo, hi, descending, n) == rows
            if (op == "insert" and len(rows) == n
                    and beyond_the_prefix(store, odd, lo, hi, descending, n)):
                # Precision: past the n-th key nothing can change the
                # answer, so nothing there is locked.
                assert granted, (kind, lo, hi, descending, n, odd)
        finally:
            store.abort(writer)
            store.abort(reader)

    def skew(self, first_insert, second_insert):
        return (
            "BEGIN TRANSACTION; "
            "SELECT k AS @a FROM T WHERE k >= 0 AND k < 20 ORDER BY k LIMIT 3; "
            f"INSERT INTO T (k, v) VALUES ({first_insert}, 1); COMMIT;",
            "BEGIN TRANSACTION; "
            "SELECT k AS @b FROM T WHERE k >= 20 AND k < 40 ORDER BY k LIMIT 3; "
            f"INSERT INTO T (k, v) VALUES ({second_insert}, 1); COMMIT;",
        )

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_serializable_aborts_the_pivot_inside_the_examined_prefix(self, shards):
        # Each scan examined three keys ([0, 4] and [20, 24]); each
        # insert lands inside the other's: the classic write skew.
        engine = build_engine(shards, IsolationConfig.SERIALIZABLE)
        txns = [engine.transaction(engine.submit(p)) for p in self.skew(23, 3)]
        report = engine.run_once()
        assert len(report.committed) == 1
        assert report.ssi_aborts >= 1
        engine.drain()
        for txn in txns:
            assert txn.phase is TxnPhase.COMMITTED

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_serializable_insert_beyond_the_prefix_adds_no_rw_edge(self, shards):
        # Inside the other's bounds, past the rows it consumed: neither
        # reader's answer depends on it, so there is no antidependency.
        engine = build_engine(shards, IsolationConfig.SERIALIZABLE)
        handles = [engine.submit(p) for p in self.skew(31, 11)]
        report = engine.run_once()
        assert sorted(report.committed) == sorted(handles)
        assert report.ssi_aborts == 0
        assert engine.store.metrics()["ssi.rw_edges"] == 0

    @pytest.mark.parametrize("kind", list(LIMIT_ENGINES))
    def test_siread_interval_ends_at_the_last_key_examined(self, limit_stores, kind):
        store = limit_stores[kind]
        # Three rows of [0, 20]: keys 0..4 going up, 20..16 going down.
        for descending, covered, spared in ((False, 3, 5), (True, 17, 15)):
            reader = store.begin(TxnIsolation.SERIALIZABLE)
            assert len(limited_read(store, reader, 0, 20, descending, 3)) == 3
            edges = store.metrics()["ssi.rw_edges"]
            for key, forms_edge in ((spared, 0), (covered, 1)):
                writer = store.begin(TxnIsolation.SERIALIZABLE)
                store.insert(writer, "T", [key, 1])
                store.commit(writer)
                assert store.metrics()["ssi.rw_edges"] == edges + forms_edge, (
                    kind, descending, key)
            store.abort(reader)
            cleanup = store.begin()
            for key in (spared, covered):
                store.delete(cleanup, "T", store.db.table("T").lookup_pk((key,)).rid)
            store.commit(cleanup)
