"""MVCC storage tests: version chains, snapshot visibility, conflicts.

The contract under test: SNAPSHOT transactions read the committed state
as of their begin timestamp without taking a single lock, see their own
writes, lose write-write conflicts against later committers
(first-updater-wins), and restart if vacuum pruned their snapshot.
"""

import pytest

from repro.errors import SnapshotTooOldError, WriteConflictError
from repro.storage import (
    ColumnType,
    SnapshotDatabase,
    StorageEngine,
    TableSchema,
    TxnIsolation,
)
from repro.storage.query import SPJQuery, TableRef
from repro.storage.expressions import (
    Cmp,
    CmpOp,
    Col,
    Const,
    RowAssignments,
    RowPredicate,
)
from repro.storage.recovery import recover


def build_engine() -> StorageEngine:
    engine = StorageEngine()
    engine.create_table(TableSchema.build(
        "T",
        [("k", ColumnType.INTEGER), ("v", ColumnType.TEXT)],
        primary_key=["k"],
    ))
    engine.load("T", [(1, "a"), (2, "b")])
    return engine


COLUMNS = ("k", "v")


def select_all(engine: StorageEngine, txn: int):
    plan = SPJQuery(
        tables=(TableRef("T"),),
        select=(Col("k"), Col("v")),
        select_names=("k", "v"),
    )
    return sorted(engine.query(txn, plan))


def select_k(engine: StorageEngine, txn: int, k: int):
    plan = SPJQuery(
        tables=(TableRef("T"),),
        select=(Col("v"),),
        select_names=("v",),
        where=Cmp(CmpOp.EQ, Col("k"), Const(k)),
    )
    return engine.query(txn, plan)


class TestSnapshotVisibility:
    def test_reader_sees_begin_time_state_despite_later_commits(self):
        engine = build_engine()
        reader = engine.begin(isolation=TxnIsolation.SNAPSHOT)
        writer = engine.begin()
        rid = engine.db.table("T").pk_rid((1,))
        engine.update(writer, "T", rid, (1, "a2"))
        engine.commit(writer)
        # The write committed after the reader's snapshot: invisible.
        assert select_k(engine, reader, 1) == [("a",)]
        # Repeatable: asking again gives the same answer.
        assert select_k(engine, reader, 1) == [("a",)]
        # A fresh snapshot sees the new value.
        late = engine.begin(isolation=TxnIsolation.SNAPSHOT)
        assert select_k(engine, late, 1) == [("a2",)]

    def test_reader_never_blocks_on_writer_x_lock(self):
        engine = build_engine()
        writer = engine.begin()
        rid = engine.db.table("T").pk_rid((2,))
        engine.update(writer, "T", rid, (2, "b2"))  # X lock held
        reader = engine.begin(isolation=TxnIsolation.SNAPSHOT)
        # No WouldBlock, and the uncommitted write is invisible.
        assert select_k(engine, reader, 2) == [("b",)]
        assert engine.metrics()["locks.read_grants"] == 0

    def test_reader_sees_own_writes(self):
        engine = build_engine()
        txn = engine.begin(isolation=TxnIsolation.SNAPSHOT)
        engine.insert(txn, "T", (3, "c"))
        rid = engine.db.table("T").pk_rid((1,))
        engine.update(txn, "T", rid, (1, "mine"))
        assert select_all(engine, txn) == [(1, "mine"), (2, "b"), (3, "c")]
        # Another snapshot sees neither.
        other = engine.begin(isolation=TxnIsolation.SNAPSHOT)
        assert select_all(engine, other) == [(1, "a"), (2, "b")]

    def test_deleted_row_still_visible_to_old_snapshot(self):
        engine = build_engine()
        reader = engine.begin(isolation=TxnIsolation.SNAPSHOT)
        writer = engine.begin()
        engine.delete(writer, "T", engine.db.table("T").pk_rid((1,)))
        engine.commit(writer)
        assert select_all(engine, reader) == [(1, "a"), (2, "b")]
        late = engine.begin(isolation=TxnIsolation.SNAPSHOT)
        assert select_all(engine, late) == [(2, "b")]

    def test_pk_probe_finds_rekeyed_row_in_history(self):
        engine = build_engine()
        reader = engine.begin(isolation=TxnIsolation.SNAPSHOT)
        writer = engine.begin()
        rid = engine.db.table("T").pk_rid((1,))
        engine.update(writer, "T", rid, (9, "a"))  # pk 1 -> 9
        engine.commit(writer)
        # The current pk index has no key 1, but the snapshot must.
        assert select_k(engine, reader, 1) == [("a",)]
        assert select_k(engine, reader, 9) == []

    def test_abort_discards_pending_versions(self):
        engine = build_engine()
        txn = engine.begin(isolation=TxnIsolation.SNAPSHOT)
        engine.insert(txn, "T", (3, "c"))
        engine.update(txn, "T", engine.db.table("T").pk_rid((1,)), (1, "x"))
        engine.abort(txn)
        table = engine.db.table("T")
        for chain in table.version_chains().values():
            for version in chain:
                assert version.begin_ts is not None
                assert version.deleted_by is None
        fresh = engine.begin(isolation=TxnIsolation.SNAPSHOT)
        assert select_all(engine, fresh) == [(1, "a"), (2, "b")]


class TestWriteConflicts:
    def test_first_updater_wins(self):
        engine = build_engine()
        rid = engine.db.table("T").pk_rid((1,))
        loser = engine.begin(isolation=TxnIsolation.SNAPSHOT)
        assert select_k(engine, loser, 1) == [("a",)]
        winner = engine.begin()
        engine.update(winner, "T", rid, (1, "w"))
        engine.commit(winner)
        with pytest.raises(WriteConflictError):
            engine.update(loser, "T", rid, (1, "l"))
        assert engine.metrics()["mvcc.write_conflicts"] == 1

    def test_delete_also_conflicts(self):
        engine = build_engine()
        rid = engine.db.table("T").pk_rid((2,))
        loser = engine.begin(isolation=TxnIsolation.SNAPSHOT)
        winner = engine.begin()
        engine.delete(winner, "T", rid)
        engine.commit(winner)
        # The row is gone from the heap; the snapshot writer targeting it
        # must fail rather than resurrect or miss silently.
        with pytest.raises(Exception):
            engine.delete(loser, "T", rid)

    def test_predicate_update_targets_snapshot_rows(self):
        """SI semantics: a predicate UPDATE's targets are the rows the
        snapshot saw.  A target a later committer changed must fail
        first-updater-wins, never be silently skipped because the
        current row no longer matches the WHERE clause."""
        engine = build_engine()
        loser = engine.begin(isolation=TxnIsolation.SNAPSHOT)
        assert select_k(engine, loser, 1) == [("a",)]
        winner = engine.begin()
        engine.update(winner, "T", engine.db.table("T").pk_rid((1,)), (1, "w"))
        engine.commit(winner)
        with pytest.raises(WriteConflictError):
            engine.update_where(
                loser, "T",
                RowPredicate(COLUMNS, Cmp(CmpOp.EQ, Col("v"), Const("a"))),
                RowAssignments(COLUMNS, ((1, Const("l")),)),
            )

    def test_predicate_delete_conflicts_on_concurrently_deleted_row(self):
        engine = build_engine()
        loser = engine.begin(isolation=TxnIsolation.SNAPSHOT)
        assert select_k(engine, loser, 2) == [("b",)]
        winner = engine.begin()
        engine.delete(winner, "T", engine.db.table("T").pk_rid((2,)))
        engine.commit(winner)
        with pytest.raises(WriteConflictError):
            engine.delete_where(loser, "T", RowPredicate(
                COLUMNS, Cmp(CmpOp.EQ, Col("k"), Const(2)),
                key=(("k",), (2,), True)))

    def test_no_conflict_on_untouched_row(self):
        engine = build_engine()
        txn = engine.begin(isolation=TxnIsolation.SNAPSHOT)
        other = engine.begin()
        engine.update(other, "T", engine.db.table("T").pk_rid((1,)), (1, "o"))
        engine.commit(other)
        # Row 2 was not touched by the other transaction: no conflict.
        engine.update(txn, "T", engine.db.table("T").pk_rid((2,)), (2, "m"))
        engine.commit(txn)
        assert txn in engine.wal.committed_txns()


class TestVacuum:
    def test_vacuum_prunes_dead_versions_and_preserves_active_snapshots(self):
        engine = build_engine()
        rid = engine.db.table("T").pk_rid((1,))
        reader = engine.begin(isolation=TxnIsolation.SNAPSHOT)
        for value in ("v1", "v2", "v3"):
            w = engine.begin()
            engine.update(w, "T", rid, (1, value))
            engine.commit(w)
        table = engine.db.table("T")
        assert table.version_stats()[1] == 4  # chain: a, v1, v2, v3
        removed = engine.vacuum()  # horizon = reader's snapshot
        assert removed == 0  # reader still pins the base version
        assert select_k(engine, reader, 1) == [("a",)]
        engine.commit(reader)
        assert engine.vacuum() == 3
        assert table.version_stats()[1] == 1

    def test_forced_vacuum_triggers_read_restart(self):
        engine = build_engine()
        rid = engine.db.table("T").pk_rid((1,))
        reader = engine.begin(isolation=TxnIsolation.SNAPSHOT)
        w = engine.begin()
        engine.update(w, "T", rid, (1, "new"))
        engine.commit(w)
        engine.vacuum(horizon=engine.oldest_snapshot_ts() + 1)
        with pytest.raises(SnapshotTooOldError):
            select_k(engine, reader, 1)

    def test_refresh_snapshot_releases_old_snapshot(self):
        engine = build_engine()
        reader = engine.begin(isolation=TxnIsolation.SNAPSHOT)
        w = engine.begin()
        engine.update(w, "T", engine.db.table("T").pk_rid((1,)), (1, "n"))
        engine.commit(w)
        assert engine.refresh_snapshot(reader) is True
        assert engine.vacuum() == 1  # nothing pins the old version now
        assert select_k(engine, reader, 1) == [("n",)]
        # After a read, refreshing again is refused (repeatability).
        w2 = engine.begin()
        engine.update(w2, "T", engine.db.table("T").pk_rid((2,)), (2, "m"))
        engine.commit(w2)
        assert engine.refresh_snapshot(reader) is False


class TestRecoveryRebuildsVersions:
    def test_version_chains_survive_crash(self):
        engine = build_engine()
        rid = engine.db.table("T").pk_rid((1,))
        w = engine.begin()
        engine.update(w, "T", rid, (1, "after"))
        engine.commit(w)
        in_flight = engine.begin()
        engine.update(in_flight, "T", engine.db.table("T").pk_rid((2,)), (2, "lost"))
        before = {
            rid: [(v.values, v.begin_ts, v.end_ts) for v in chain]
            for rid, chain in engine.db.table("T").version_chains().items()
        }
        survivor = engine.crash()
        recover(survivor)
        after = {
            rid: [(v.values, v.begin_ts, v.end_ts) for v in chain]
            for rid, chain in survivor.db.table("T").version_chains().items()
        }
        # No reader survives the crash, so recovery keeps what a vacuum at
        # the last commit timestamp leaves: each row's newest committed
        # version, with its original begin timestamp.  The in-flight
        # update never committed: the never-crashed engine still carries
        # its pending version, the recovered one must not.
        newest_committed = {
            rid: [[v for v in chain if v[1] is not None][-1]]
            for rid, chain in before.items()
        }
        assert after == newest_committed
        assert survivor.oracle.last_commit_ts == engine.oracle.last_commit_ts

    def test_snapshot_reads_work_after_recovery(self):
        engine = build_engine()
        rid = engine.db.table("T").pk_rid((1,))
        w = engine.begin()
        engine.update(w, "T", rid, (1, "after"))
        engine.commit(w)
        survivor = engine.crash()
        recover(survivor)
        reader = survivor.begin(isolation=TxnIsolation.SNAPSHOT)
        assert select_k(survivor, reader, 1) == [("after",)]


class TestSnapshotDatabaseDirect:
    def test_snapshot_provider_is_bound_to_read_ts(self):
        engine = build_engine()
        reader = engine.begin(isolation=TxnIsolation.SNAPSHOT)
        provider = engine.snapshot_provider(reader)
        assert isinstance(provider, SnapshotDatabase)
        w = engine.begin()
        engine.update(w, "T", engine.db.table("T").pk_rid((1,)), (1, "zz"))
        engine.commit(w)
        view = provider.table("T")
        assert [r.values for r in view.scan()] == [(1, "a"), (2, "b")]
        assert view.lookup_pk((1,)).values == (1, "a")
