"""Integration tests: transactional storage engine + WAL + restart recovery."""

import pytest

from repro.errors import DeadlockError, TransactionStateError
from repro.storage import (
    ColumnType,
    LogRecordType,
    StorageEngine,
    TableSchema,
    WouldBlock,
    recover,
)


@pytest.fixture
def store() -> StorageEngine:
    engine = StorageEngine()
    engine.create_table(TableSchema.build(
        "Reserve",
        [("uid", ColumnType.INTEGER), ("fid", ColumnType.INTEGER)],
    ))
    return engine


def rows(engine: StorageEngine, table: str = "Reserve"):
    return sorted(tuple(r.values) for r in engine.db.table(table).scan())


class TestCommitAbort:
    def test_commit_persists(self, store):
        txn = store.begin()
        store.insert(txn, "Reserve", (1, 100))
        store.commit(txn)
        assert rows(store) == [(1, 100)]
        assert txn in store.wal.committed_txns()

    def test_abort_undoes_insert(self, store):
        txn = store.begin()
        store.insert(txn, "Reserve", (1, 100))
        store.abort(txn)
        assert rows(store) == []

    def test_abort_undoes_update_and_delete(self, store):
        setup = store.begin()
        r1 = store.insert(setup, "Reserve", (1, 100))
        r2 = store.insert(setup, "Reserve", (2, 200))
        store.commit(setup)
        txn = store.begin()
        store.update(txn, "Reserve", r1.rid, (1, 999))
        store.delete(txn, "Reserve", r2.rid)
        store.abort(txn)
        assert rows(store) == [(1, 100), (2, 200)]

    def test_abort_undoes_in_reverse_order(self, store):
        txn = store.begin()
        row = store.insert(txn, "Reserve", (1, 100))
        store.update(txn, "Reserve", row.rid, (1, 200))
        store.update(txn, "Reserve", row.rid, (1, 300))
        store.abort(txn)
        assert rows(store) == []

    def test_a_finished_transaction_keeps_no_row_image(self, store):
        """A context lives as long as its transaction: it goes, with its
        undo log — a before- and an after-image per row write — when the
        outcome is decided, and the WAL's record keeps the outcome."""
        import gc
        import types

        from repro.storage.engine import _UndoEntry

        for n in range(1000):
            txn = store.begin()
            row = store.insert(txn, "Reserve", (n, 1))
            store.update(txn, "Reserve", row.rid, (n, 2))
            store.update(txn, "Reserve", row.rid, (n, 3))
            assert len(store.context(txn).undo) == 3
            (store.abort if n % 10 == 9 else store.commit)(txn)
        assert store._contexts == {} and len(rows(store)) == 900

        opaque = (type, types.ModuleType, types.FunctionType)
        seen, stack, entries = set(), [store], []
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, opaque):
                continue
            seen.add(id(obj))
            if isinstance(obj, _UndoEntry):
                entries.append(obj)
            stack.extend(gc.get_referents(obj))
        assert not entries
        # A finished transaction is unknown to the store; the WAL's
        # COMMIT or ABORT record answers for it (a writing commit's
        # carries its commit timestamp).
        with pytest.raises(TransactionStateError):
            store.status(txn)
        ends = {r.txn: r for r in store.wal.records()
                if r.type in (LogRecordType.COMMIT, LogRecordType.ABORT)}
        assert ends[txn].type is LogRecordType.ABORT
        assert ends[txn - 1].type is LogRecordType.COMMIT
        assert ends[txn - 1].commit_ts is not None

    def test_double_commit_rejected(self, store):
        txn = store.begin()
        store.commit(txn)
        with pytest.raises(TransactionStateError):
            store.commit(txn)

    def test_operations_after_abort_rejected(self, store):
        txn = store.begin()
        store.abort(txn)
        with pytest.raises(TransactionStateError):
            store.insert(txn, "Reserve", (1, 1))

    def test_unknown_txn(self, store):
        with pytest.raises(TransactionStateError):
            store.commit(999)


class TestLockingIntegration:
    def test_writer_blocks_scanner(self, store):
        writer = store.begin()
        store.insert(writer, "Reserve", (1, 100))
        reader = store.begin()
        with pytest.raises(WouldBlock):
            store.read_table(reader, "Reserve")

    def test_scanner_released_after_commit(self, store):
        writer = store.begin()
        store.insert(writer, "Reserve", (1, 100))
        reader = store.begin()
        with pytest.raises(WouldBlock):
            store.read_table(reader, "Reserve")
        woken = store.commit(writer)
        assert reader in woken
        assert len(store.read_table(reader, "Reserve")) == 1

    def test_readers_share(self, store):
        a, b = store.begin(), store.begin()
        store.read_table(a, "Reserve")
        store.read_table(b, "Reserve")  # no exception

    def test_deadlock_raises(self, store):
        store.create_table(TableSchema.build(
            "Other", [("x", ColumnType.INTEGER)]))
        t1, t2 = store.begin(), store.begin()
        store.insert(t1, "Reserve", (1, 1))
        store.insert(t2, "Other", (2,))
        with pytest.raises(WouldBlock):
            store.read_table(t1, "Other")
        with pytest.raises(DeadlockError):
            store.read_table(t2, "Reserve")


class TestWAL:
    def test_commit_flushes_log(self, store):
        txn = store.begin()
        store.insert(txn, "Reserve", (1, 100))
        store.commit(txn)
        assert store.wal.flushed_lsn == store.wal.last_lsn
        types = [r.type for r in store.wal.records()]
        assert types == [
            LogRecordType.BEGIN, LogRecordType.INSERT, LogRecordType.COMMIT,
        ]

    def test_uncommitted_tail_is_volatile(self, store):
        txn = store.begin()
        store.insert(txn, "Reserve", (1, 100))
        lost = store.wal.truncate_to_flushed()
        assert lost == 2  # BEGIN + INSERT never flushed


class TestCrashRecovery:
    def test_committed_work_survives(self, store):
        txn = store.begin()
        store.insert(txn, "Reserve", (1, 100))
        store.commit(txn)
        survivor = store.crash()
        report = recover(survivor)
        assert rows(survivor) == [(1, 100)]
        assert report.winners == {txn}

    def test_uncommitted_work_vanishes(self, store):
        committed = store.begin()
        store.insert(committed, "Reserve", (1, 100))
        store.commit(committed)
        loser = store.begin()
        store.insert(loser, "Reserve", (2, 200))
        store.wal.flush()  # even flushed, no COMMIT record -> loser
        survivor = store.crash()
        report = recover(survivor)
        assert rows(survivor) == [(1, 100)]
        assert loser in report.losers

    def test_update_redo(self, store):
        txn = store.begin()
        row = store.insert(txn, "Reserve", (1, 100))
        store.commit(txn)
        txn2 = store.begin()
        store.update(txn2, "Reserve", row.rid, (1, 555))
        store.commit(txn2)
        survivor = store.crash()
        recover(survivor)
        assert rows(survivor) == [(1, 555)]

    def test_demote_to_loser_rolls_back_committed(self, store):
        txn = store.begin()
        store.insert(txn, "Reserve", (1, 100))
        store.commit(txn)
        survivor = store.crash()
        report = recover(survivor, demote_to_loser={txn})
        assert rows(survivor) == []
        assert txn in report.losers and txn not in report.winners

    def test_abort_before_crash_stays_undone(self, store):
        txn = store.begin()
        store.insert(txn, "Reserve", (3, 300))
        store.abort(txn)
        store.wal.flush()
        survivor = store.crash()
        recover(survivor)
        assert rows(survivor) == []

    def test_recovery_preserves_rids(self, store):
        txn = store.begin()
        row = store.insert(txn, "Reserve", (1, 100))
        store.commit(txn)
        survivor = store.crash()
        recover(survivor)
        assert survivor.db.table("Reserve").get(row.rid).values == (1, 100)

    def test_new_transactions_after_recovery(self, store):
        txn = store.begin()
        store.insert(txn, "Reserve", (1, 100))
        store.commit(txn)
        survivor = store.crash()
        recover(survivor)
        fresh = survivor.begin()
        assert fresh > txn  # txn ids continue, never reused
        survivor.insert(fresh, "Reserve", (2, 200))
        survivor.commit(fresh)
        assert rows(survivor) == [(1, 100), (2, 200)]
