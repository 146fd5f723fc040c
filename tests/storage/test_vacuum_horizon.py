"""Horizon-aware vacuum: supersede-time pruning + chain histograms.

ROADMAP's GC remainder: a superseded version should die the moment no
active snapshot can see it — at supersede time — instead of waiting for
the interval vacuum to walk the whole table; and the per-table
chain-length histograms surface in :class:`RunReport` so GC pressure is
observable.
"""

from __future__ import annotations

from _batch import engine_for
from repro.core.engine import (
    EngineConfig,
    IsolationConfig,
)
from repro.storage import (
    ColumnType,
    StorageEngine,
    TableSchema,
    TxnIsolation,
)


def build_engine() -> StorageEngine:
    engine = StorageEngine()
    engine.vacuum_interval = 0  # isolate the supersede-time path
    engine.create_table(TableSchema.build(
        "T",
        [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
        primary_key=["k"],
    ))
    engine.load("T", [(0, 0)])
    return engine


def hot_update(engine, value: int) -> None:
    txn = engine.begin()
    row = engine.db.table("T").lookup_pk((0,))
    engine.update(txn, "T", row.rid, (0, value))
    engine.commit(txn)


class TestSupersedeTimePruning:
    def test_hot_row_chain_stays_short_without_interval_vacuum(self):
        engine = build_engine()
        for i in range(1, 50):
            hot_update(engine, i)
        # Without horizon-aware pruning this chain would be ~50 long
        # until the next interval vacuum; with it, each update prunes
        # the prefix no snapshot can see.
        table = engine.db.table("T")
        rid = table.lookup_pk((0,)).rid
        assert len(table.versions_of(rid)) <= 3
        assert engine.metrics()["mvcc.supersede_prunes"] > 0

    def test_active_snapshot_blocks_pruning_below_its_cut(self):
        engine = build_engine()
        hot_update(engine, 1)
        reader = engine.begin(TxnIsolation.SNAPSHOT)  # pins ts=2
        for i in range(2, 12):
            hot_update(engine, i)
        table = engine.db.table("T")
        rid = table.lookup_pk((0,)).rid
        # The reader still sees its version...
        snap = engine.snapshot_provider(reader).table("T")
        assert snap.lookup_pk((0,)).values[1] == 1
        # ...because every version at/after its cut was retained.
        chain = table.versions_of(rid)
        assert any(
            v.begin_ts is not None
            and v.begin_ts <= engine.context(reader).read_ts
            and (v.end_ts is None or v.end_ts > engine.context(reader).read_ts)
            for v in chain
        )
        engine.commit(reader)
        hot_update(engine, 99)
        # Horizon moved: the backlog collapses at the next supersede.
        assert len(table.versions_of(rid)) <= 3

    def test_interval_vacuum_still_collects_cold_garbage(self):
        """Supersede-time pruning only visits rows being written; cold
        deleted rows still need the periodic sweep."""
        engine = build_engine()
        txn = engine.begin()
        engine.insert(txn, "T", (1, 1))
        engine.commit(txn)
        txn = engine.begin()
        engine.delete(txn, "T", engine.db.table("T").lookup_pk((1,)).rid)
        engine.commit(txn)
        assert engine.vacuum() > 0


class TestChainHistogramsInRunReport:
    def test_report_carries_per_table_histograms(self):
        store = StorageEngine()
        store.create_table(TableSchema.build(
            "T",
            [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
            primary_key=["k"],
        ))
        store.load("T", [(k, 0) for k in range(4)])
        engine = engine_for(
            store, EngineConfig(isolation=IsolationConfig.SNAPSHOT))
        engine.submit(
            "BEGIN TRANSACTION; UPDATE T SET v = v + 1 WHERE k = 0; COMMIT;"
        )
        report = engine.run_once()
        assert "T" in report.chain_histograms
        histogram = report.chain_histograms["T"]
        assert sum(histogram.values()) == 4  # one chain per row
        assert all(length >= 1 for length in histogram)

    def test_sharded_store_merges_histograms(self):
        from repro.storage import ShardedStorageEngine

        store = ShardedStorageEngine(2)
        store.create_table(TableSchema.build(
            "T",
            [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
            primary_key=["k"],
        ))
        store.load("T", [(k, 0) for k in range(8)])
        merged = store.chain_histograms()["T"]
        assert sum(merged.values()) == 8


# ---------------------------------------------------------------------------
# The histogram is maintained, not recounted: white-box property
# ---------------------------------------------------------------------------

from collections import Counter  # noqa: E402

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.errors import ReproError  # noqa: E402

import pytest  # noqa: E402


def _full_walk_prune(self, horizon: int) -> int:
    """TEST-ONLY ORACLE: ``Table.prune_versions`` as it stood when every
    vacuum walked every chain of the table (verbatim body), which the
    incremental prune — it visits only chains that can shrink — must
    equal step by step."""
    removed = 0
    longest = 0
    # The walk visits every chain anyway: recount the histogram.
    lengths = self._chain_lengths = {}
    for rid in list(self._versions):
        chain = self._versions[rid]
        keep = [
            v for v in chain
            if v.end_ts is None or v.end_ts > horizon
        ]
        removed += len(chain) - len(keep)
        longest = max(longest, len(keep))
        if keep:
            lengths[len(keep)] = lengths.get(len(keep), 0) + 1
            self._versions[rid] = keep
        else:
            del self._versions[rid]
        if rid in self._history:
            live = [
                v for v in keep
                if v.end_ts is None and v.deleted_by is None
            ]
            if rid in self._rows and len(keep) == 1 and len(live) == 1:
                self._history_discard(rid)
            elif not keep and rid not in self._rows:
                self._history_discard(rid)
    # Historic rids whose chains are already gone entirely (pruned
    # in a previous pass, or restored without history) have no
    # below-horizon version left: without this sweep the historic
    # set — and the per-key buckets built from it — would grow
    # without bound across a long run's vacuums.
    for rid in [r for r in self._history if r not in self._versions]:
        self._history_discard(rid)
    self._total_versions -= removed
    self._max_chain = longest  # watermark resets to exact after prune
    if removed:
        self._prune_floor = max(self._prune_floor, horizon)
    return removed


def _mirror(engine, twin, name):
    """Make ``engine.<name>(...)`` also run on ``twin``, requiring the
    same result class: the same return value, or the same error."""
    mine, theirs = getattr(engine, name), getattr(twin, name)

    def both(*args, **kwargs):
        try:
            result = mine(*args, **kwargs)
        except ReproError as exc:
            with pytest.raises(type(exc)):
                theirs(*args, **kwargs)
            raise
        other = theirs(*args, **kwargs)
        if name == "begin":
            assert other == result
        return result

    setattr(engine, name, both)


def _mvcc_state(table):
    """Everything a prune may touch, in comparable form."""
    return {
        "chains": {
            rid: [(v.values, v.begin_ts, v.end_ts, v.created_by, v.deleted_by)
                  for v in chain]
            for rid, chain in table.version_chains().items()
        },
        "prune_floor": table.prune_floor,
        "history": set(table.history_rids()),
        "postings": {
            cols: {key: set(rids) for key, rids in tree.items()}
            for cols, tree in table._history_ordered.items()
        },
        "entries": {r: set(e) for r, e in table._history_entries.items()},
        "histogram": table.chain_histogram(),
        "stats": table.version_stats(),
    }

_KEYS = st.integers(0, 5)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _KEYS),
        st.tuples(st.just("update"), _KEYS),
        st.tuples(st.just("delete"), _KEYS),
        st.tuples(st.just("begin"), st.booleans()),     # snapshot reader?
        st.tuples(st.just("commit"), st.integers(0, 3)),
        st.tuples(st.just("abort"), st.integers(0, 3)),
        st.tuples(st.just("vacuum"), st.none()),
        st.tuples(st.just("clear"), st.none()),
        st.tuples(st.just("checkpoint-restore"), st.none()),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops=_OPS, interval=st.sampled_from([0, 3]))
def test_property_maintained_histogram_equals_a_recount(ops, interval):
    """After any insert/update/delete/abort/vacuum/clear sequence — with
    supersede-time pruning, open snapshots pinning the horizon, and
    failed operations along the way — ``chain_histogram()`` (kept at the
    sites that grow or shrink a chain) equals a recount of the chains."""
    engine = build_engine()
    engine.vacuum_interval = interval
    table = engine.db.table("T")
    open_txns: list[int] = []
    value = 0
    # The twin runs every operation too, pruning by the full walk.
    twin = build_engine()
    twin.vacuum_interval = interval
    twin_table = twin.db.table("T")
    pruned, twin_pruned = [], []
    incremental = table.prune_versions
    table.prune_versions = lambda horizon: (
        pruned.append(incremental(horizon)) or pruned[-1])
    twin_table.prune_versions = lambda horizon: (
        twin_pruned.append(_full_walk_prune(twin_table, horizon))
        or twin_pruned[-1])
    for name in ("begin", "commit", "abort", "insert", "update", "delete"):
        _mirror(engine, twin, name)

    def check():
        chains = table.version_chains()
        assert table.chain_histogram() == dict(
            Counter(len(chain) for chain in chains.values()))
        assert table.version_stats()[0] == sum(map(len, chains.values()))
        assert pruned == twin_pruned
        assert _mvcc_state(table) == _mvcc_state(twin_table)
        # Nothing a vacuum could still act on is missing from the set
        # the incremental prune visits.
        assert table._prunable >= set(table.history_rids()) | {
            rid for rid, chain in chains.items()
            if any(v.end_ts is not None or v.deleted_by is not None
                   for v in chain)}

    for op, arg in ops:
        value += 1
        try:
            if op == "begin":
                open_txns.append(engine.begin(
                    TxnIsolation.SNAPSHOT if arg else TxnIsolation.TWO_PL))
            elif op in ("commit", "abort") and open_txns:
                txn = open_txns.pop(arg % len(open_txns))
                (engine.commit if op == "commit" else engine.abort)(txn)
            elif op == "vacuum":
                engine.vacuum()
                twin.vacuum()
            elif op == "clear" and not open_txns:
                table.clear()
                twin_table.clear()
            elif op == "checkpoint-restore" and not open_txns:
                table.restore_checkpoint(table.checkpoint_image())
                twin_table.restore_checkpoint(twin_table.checkpoint_image())
            elif op in ("insert", "update", "delete"):
                # In the newest open transaction, else in its own
                # (committed supersedes are what supersede-time pruning
                # feeds on).
                autocommit = not open_txns
                if autocommit:
                    open_txns.append(engine.begin())
                txn = open_txns[-1]
                row = table.lookup_pk((arg,))
                if op == "insert":
                    engine.insert(txn, "T", (arg, value))
                elif row is not None and op == "update":
                    engine.update(txn, "T", row.rid, (arg, value))
                elif row is not None:
                    engine.delete(txn, "T", row.rid)
                if autocommit:
                    engine.commit(open_txns.pop())
        except ReproError:
            # Duplicate keys, lock waits, write conflicts, deadlocks:
            # the transaction is abandoned, as a client would.
            if open_txns:
                engine.abort(open_txns.pop())
        check()
    for txn in open_txns:
        engine.abort(txn)
    check()
    engine.vacuum()
    twin.vacuum()
    check()
