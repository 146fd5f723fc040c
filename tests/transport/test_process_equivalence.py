"""Observational equivalence: threaded pool shards vs process workers.

The process executor's correctness argument is inheritance — the entire
coordinator layer of :class:`ShardedStorageEngine` is reused unchanged
over :class:`RemoteShardEngine` proxies — and this property pins the
argument down: the same seeded operation sequence applied to the
threaded engine and to the process-per-shard engine at N in {1, 2, 4}
must produce the same outcomes, the same committed contents and the
same exceptions — under every isolation level: under SERIALIZABLE a
watcher that read the whole table stays open, so every commit's write
set (pulled from the shards by ``prepare`` on both engines) is swept
against it and the trackers must count the same rw edges.  Rows are
addressed by primary key because rid assignment (deliberately) differs
between executors only in namespace interleaving, not observably.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateKeyError, SerializationFailureError
from repro.storage import (
    ColumnType,
    ShardedStorageEngine,
    TableSchema,
    TxnIsolation,
    shard_members,
)
from repro.transport.process import spawn_workers

SHARD_COUNTS = (1, 2, 4)

SCHEMA = TableSchema.build(
    "T",
    [("k", ColumnType.INTEGER), ("v", ColumnType.TEXT)],
    primary_key=["k"],
)


def build(cls, n_shards: int):
    engine = cls(n_shards)
    engine.create_table(SCHEMA)
    return engine


def process_store(n_shards: int) -> ShardedStorageEngine:
    return ShardedStorageEngine(shards=spawn_workers(shard_members(n_shards)))


def contents(engine) -> dict[int, str]:
    return {
        row.values[0]: row.values[1]
        for row in engine.db.table("T").scan()
    }


def apply(engine, txn, op, key, value):
    """Returns (outcome, payload) with rids abstracted away."""
    table = engine.db.table("T")
    if op == "insert":
        try:
            engine.insert(txn, "T", (key, value))
            return ("inserted", None)
        except DuplicateKeyError:
            return ("duplicate", None)
    row = table.lookup_pk((key,))
    if op == "lookup":
        return ("row", None if row is None else tuple(row.values))
    if row is None:
        return ("missing", None)
    if op == "update":
        engine.update(txn, "T", row.rid, (key, value))
        return ("updated", None)
    engine.delete(txn, "T", row.rid)
    return ("deleted", None)


def commit_outcome(engine, txn) -> str:
    try:
        engine.commit(txn)
        return "committed"
    except SerializationFailureError:
        engine.abort(txn)
        return "serialization failure"


class TestProcessExecutorEquivalence:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        n_shards=st.sampled_from(SHARD_COUNTS),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "update", "delete", "lookup"]),
                st.integers(min_value=0, max_value=9),
                st.sampled_from(["a", "b", "c"]),
            ),
            min_size=1, max_size=20,
        ),
        commit_every=st.integers(min_value=1, max_value=5),
        isolation=st.sampled_from(list(TxnIsolation)),
    )
    def test_process_engine_is_observationally_equivalent(
        self, n_shards, ops, commit_every, isolation
    ):
        pool = build(ShardedStorageEngine, n_shards)
        proc = build(process_store, n_shards)
        try:
            watchers = {}
            if isolation is TxnIsolation.SERIALIZABLE:
                for name, engine in (("pool", pool), ("proc", proc)):
                    watchers[name] = engine.begin(isolation)
                    engine.read_table(watchers[name], "T")
            txns = {"pool": pool.begin(isolation), "proc": proc.begin(isolation)}
            for i, (op, key, value) in enumerate(ops):
                out_pool = apply(pool, txns["pool"], op, key, value)
                out_proc = apply(proc, txns["proc"], op, key, value)
                assert out_pool == out_proc, (op, key, value)
                if (i + 1) % commit_every == 0:
                    pool.commit(txns["pool"])
                    proc.commit(txns["proc"])
                    assert contents(pool) == contents(proc)
                    txns = {
                        "pool": pool.begin(isolation),
                        "proc": proc.begin(isolation)}
            pool.abort(txns["pool"])
            proc.abort(txns["proc"])
            assert contents(pool) == contents(proc)
            assert proc.db.content_equal(pool.db)
            assert proc.ssi.stats == pool.ssi.stats
            assert proc.metrics() == pool.metrics()
            if watchers:
                assert commit_outcome(proc, watchers["proc"]) == (
                    commit_outcome(pool, watchers["pool"]))
        finally:
            proc.close()

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        n_shards=st.sampled_from((1, 2, 4)),
        keys=st.lists(
            st.integers(min_value=0, max_value=9),
            min_size=1, max_size=6, unique=True,
        ),
    )
    def test_snapshot_reads_agree_across_executors(self, n_shards, keys):
        pool = build(ShardedStorageEngine, n_shards)
        proc = build(process_store, n_shards)
        try:
            rows = [(k, f"v{k}") for k in keys]
            pool.load("T", rows)
            proc.load("T", rows)
            readers = {
                "pool": pool.begin(TxnIsolation.SNAPSHOT),
                "proc": proc.begin(TxnIsolation.SNAPSHOT),
            }
            writer_pool, writer_proc = pool.begin(), proc.begin()
            for k in keys:
                row = pool.db.table("T").lookup_pk((k,))
                pool.update(writer_pool, "T", row.rid, (k, "new"))
                row = proc.db.table("T").lookup_pk((k,))
                proc.update(writer_proc, "T", row.rid, (k, "new"))
            pool.commit(writer_pool)
            proc.commit(writer_proc)
            seen_pool = sorted(
                tuple(r.values) for r in
                pool.snapshot_provider(readers["pool"]).table("T").scan()
            )
            seen_proc = sorted(
                tuple(r.values) for r in
                proc.snapshot_provider(readers["proc"]).table("T").scan()
            )
            # Both readers' vectors predate the writer: the old value
            # everywhere, never a mixed cut — and identically so.
            assert seen_pool == seen_proc == sorted(
                (k, f"v{k}") for k in keys
            )
            pool.commit(readers["pool"])
            proc.commit(readers["proc"])
        finally:
            proc.close()

    def test_row_estimates_mirror_the_workers(self):
        # Each shard's response envelope carries its per-table live row
        # counts, which the proxy's ``row_estimate`` answers from
        # without a frame: after a load, a committed insert and a
        # committed delete they equal the pool shards' own counts.
        pool = build(ShardedStorageEngine, 2)
        proc = build(process_store, 2)
        try:
            estimates = []
            for engine in (pool, proc):
                engine.load("T", [(k, f"v{k}") for k in range(7)])
                steps = [[shard.db.table("T").row_estimate()
                          for shard in engine.shards]]
                txn = engine.begin()
                engine.insert(txn, "T", (7, "v7"))
                engine.insert(txn, "T", (8, "v8"))
                engine.commit(txn)
                steps.append([shard.db.table("T").row_estimate()
                              for shard in engine.shards])
                txn = engine.begin()
                for k in range(3):
                    apply(engine, txn, "delete", k, None)
                engine.commit(txn)
                steps.append([shard.db.table("T").row_estimate()
                              for shard in engine.shards])
                estimates.append(steps)
            assert estimates[1] == estimates[0]
            assert [sum(step) for step in estimates[0]] == [7, 9, 6]
        finally:
            proc.close()


class TestRunReportStatisticsEquivalence:
    """Lock, version-chain, planner, sharding and SSI statistics reach
    ``RunReport`` from the envelope mirrors under the process executor
    and from the engines themselves under the pool: same scripts, same
    numbers."""

    FIELDS = (
        "lock_waits", "locks_acquired", "deadlocks", "max_version_chain",
        "chain_histograms", "index_range_scans", "read_restarts",
        "cross_shard_commits", "ssi_aborts", "pivot_aborts",
    )

    def reports(self, executor: str):
        """The three runs' reports, and the store's ``metrics()`` after
        them."""
        from repro import connect

        client = connect(shards=2, executor=executor, isolation="snapshot")
        try:
            client.create_table(SCHEMA)
            client.load("T", [(k, "v") for k in range(16)])
            out = []
            for batch in range(3):
                # Disjoint keys per batch: no script waits on another,
                # so thread timing cannot move a counter.  Keys k and
                # k + 5 live on different shards, so every script
                # commits across shards.  The first script also reads a
                # key range, which under snapshot isolation takes no lock.
                for i in range(4):
                    k = 4 * batch + i
                    ranged = (f"SELECT v AS @r FROM T WHERE k >= {k} "
                              f"AND k < {k + 8}; " if i == 0 else "")
                    client.session(f"c{i}").run_script(
                        "BEGIN TRANSACTION; " + ranged +
                        f"SELECT v AS @v FROM T WHERE k={k}; "
                        f"UPDATE T SET v = 'w{batch}' WHERE k={k}; "
                        f"UPDATE T SET v = 'x{batch}' WHERE k={(k + 5) % 16}; "
                        "COMMIT;"
                    )
                report = client.run()
                assert len(report.committed) == 4
                out.append({f: getattr(report, f) for f in self.FIELDS})
            return out, client.store.metrics()
        finally:
            client.close()

    def test_pool_and_process_reports_agree(self):
        (pool, pool_metrics), (process, process_metrics) = (
            self.reports("pool"), self.reports("process"))
        assert process == pool
        assert process_metrics == pool_metrics
        assert all(r["locks_acquired"] > 0 for r in process)
        assert all(r["index_range_scans"] > 0 for r in process)
        assert sum(r["cross_shard_commits"] for r in process) > 0
        assert process[-1]["chain_histograms"]["T"] != {1: 16}
