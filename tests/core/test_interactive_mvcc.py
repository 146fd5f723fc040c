"""Interactive sessions mixing SNAPSHOT readers with 2PL writers.

One broker, one ``match_round``: snapshot sessions ground their
entangled queries lock-free against their begin-time snapshot while 2PL
writer sessions hold X locks on the very rows being grounded; a
cancelled query releases its snapshot so vacuum can reclaim versions.
"""

import pytest

from _batch import broker_for
from repro.core.interactive import InteractiveBroker, SessionState
from repro.storage import (
    ColumnType,
    StorageEngine,
    TableSchema,
    TxnIsolation,
)


@pytest.fixture
def broker() -> InteractiveBroker:
    store = StorageEngine()
    store.create_table(TableSchema.build(
        "Items", [("item", ColumnType.INTEGER)], primary_key=["item"]))
    store.create_table(TableSchema.build(
        "Picks", [("who", ColumnType.TEXT), ("item", ColumnType.INTEGER)]))
    store.create_table(TableSchema.build(
        "Stock", [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
        primary_key=["k"]))
    store.load("Items", [(1,), (2,), (3,)])
    store.load("Stock", [(1, 10)])
    return broker_for(store)


PICK = """
    SELECT '{me}', item AS @item INTO ANSWER Pick
    WHERE item IN (SELECT item FROM Items)
    AND ('{friend}', item) IN ANSWER Pick
    CHOOSE 1
"""


class TestMixedIsolationMatchRound:
    def test_snapshot_readers_match_past_an_uncommitted_writer(self, broker):
        writer = broker.open_session("walt")  # 2PL
        writer.execute("INSERT INTO Items (item) VALUES (99)")  # X locks held
        alice = broker.open_session(
            "alice", isolation=TxnIsolation.SNAPSHOT)
        bob = broker.open_session("bob", isolation=TxnIsolation.SNAPSHOT)
        grants_before = broker.store.metrics()["locks.read_grants"]
        alice.execute(PICK.format(me="alice", friend="bob"))
        bob.execute(PICK.format(me="bob", friend="alice"))
        # Both ground lock-free on their snapshots and entangle — the
        # writer's X locks on Items are simply never encountered.
        assert broker.match_round() == 2
        assert broker.store.metrics()["locks.read_grants"] == grants_before
        assert alice.env["@item"] == bob.env["@item"]
        # Neither saw the uncommitted insert.
        assert alice.env["@item"] in (1, 2, 3)
        assert writer.commit()

    def test_2pl_readers_block_where_snapshot_readers_proceed(self, broker):
        writer = broker.open_session("walt")
        writer.execute("INSERT INTO Items (item) VALUES (99)")
        alice = broker.open_session("alice")  # 2PL readers
        bob = broker.open_session("bob")
        alice.execute(PICK.format(me="alice", friend="bob"))
        bob.execute(PICK.format(me="bob", friend="alice"))
        # Grounding needs an Items scan: table S conflicts with the
        # writer's IX, so the round answers nobody.
        assert broker.match_round() == 0
        assert alice.waiting and bob.waiting
        assert writer.commit()
        assert broker.match_round() == 2
        # Committed by now: the late readers see the new item too.
        assert alice.env["@item"] in (1, 2, 3, 99)

    def test_snapshot_and_2pl_partners_entangle_together(self, broker):
        # A snapshot reader can entangle with a 2PL partner in one round.
        alice = broker.open_session(
            "alice", isolation=TxnIsolation.SNAPSHOT)
        bob = broker.open_session("bob")  # 2PL
        alice.execute(PICK.format(me="alice", friend="bob"))
        bob.execute(PICK.format(me="bob", friend="alice"))
        assert broker.match_round() == 2
        assert alice.env["@item"] == bob.env["@item"]
        # Widow prevention spans the isolation modes: group commit.
        assert alice.commit() is False  # waits for bob
        assert bob.commit() is True
        assert alice.state is SessionState.COMMITTED


class TestCancelReleasesSnapshot:
    def test_cancelled_query_unpins_vacuum_and_sees_fresh_data(self, broker):
        store = broker.store
        reader = broker.open_session(
            "reader", isolation=TxnIsolation.SNAPSHOT)
        reader.execute(PICK.format(me="reader", friend="nobody"))
        assert broker.match_round() == 0  # no partner: keeps waiting

        writer = broker.open_session("writer")
        writer.execute("UPDATE Stock SET v = 20 WHERE k = 1")
        assert writer.commit()

        # The waiting snapshot pins the old Stock version.
        assert store.vacuum() == 0
        reader.cancel()
        assert not reader.waiting
        # Cancelling released the snapshot: the dead version is
        # reclaimable and the session now reads the committed present.
        assert store.vacuum() == 1
        result = reader.execute("SELECT v AS @v FROM Stock WHERE k = 1")
        assert result.rows == [(20,)]
        assert reader.env["@v"] == 20
        assert reader.commit()

    def test_restart_with_prior_reads_aborts_instead_of_livelocking(
        self, broker
    ):
        """A pruned waiter whose snapshot cannot be refreshed (it already
        read data) must abort, not re-raise the same error every round."""
        store = broker.store
        alice = broker.open_session(
            "alice", isolation=TxnIsolation.SNAPSHOT)
        alice.execute("SELECT item AS @i FROM Items WHERE item = 1")
        alice.execute(PICK.format(me="alice", friend="bob"))
        writer = broker.open_session("writer")
        writer.execute("DELETE FROM Items WHERE item = 3")
        assert writer.commit()
        store.vacuum(horizon=store.oracle.last_commit_ts)  # past alice's snapshot
        bob = broker.open_session("bob", isolation=TxnIsolation.SNAPSHOT)
        bob.execute(PICK.format(me="bob", friend="alice"))
        broker.match_round()  # alice's grounding raises SnapshotTooOld
        assert alice.state is SessionState.ABORTED

    def test_restart_on_clean_waiter_refreshes_and_retries(self, broker):
        """A pruned waiter that observed nothing is silently
        re-snapshotted and answered in a later round."""
        store = broker.store
        alice = broker.open_session(
            "alice", isolation=TxnIsolation.SNAPSHOT)
        alice.execute(PICK.format(me="alice", friend="bob"))
        writer = broker.open_session("writer")
        writer.execute("DELETE FROM Items WHERE item = 3")
        assert writer.commit()
        store.vacuum(horizon=store.oracle.last_commit_ts)
        bob = broker.open_session("bob", isolation=TxnIsolation.SNAPSHOT)
        bob.execute(PICK.format(me="bob", friend="alice"))
        broker.match_round()  # alice restarts on a fresh snapshot
        assert alice.waiting
        # bob was answered EMPTY in the restart round (its partner could
        # not ground); re-issue the pick so the pair can meet again.
        if not bob.waiting:
            bob.execute(PICK.format(me="bob", friend="alice"))
        assert broker.match_round() == 2
        assert alice.env["@item"] == bob.env["@item"]
        # The delivered answer pins the refreshed snapshot.
        assert store.refresh_snapshot(alice.storage_txn) is False

    def test_cancel_after_reads_keeps_the_snapshot(self, broker):
        store = broker.store
        reader = broker.open_session(
            "reader", isolation=TxnIsolation.SNAPSHOT)
        reader.execute("SELECT v AS @v FROM Stock WHERE k = 1")  # reads!
        reader.execute(PICK.format(me="reader", friend="nobody"))
        broker.match_round()

        writer = broker.open_session("writer")
        writer.execute("UPDATE Stock SET v = 20 WHERE k = 1")
        assert writer.commit()

        reader.cancel()
        # The session already observed the old state: repeatability wins
        # over freshness, the snapshot stays.
        assert store.vacuum() == 0
        result = reader.execute("SELECT v AS @v2 FROM Stock WHERE k = 1")
        assert result.rows == [(10,)]


class TestSerializableSessions:
    """Interactive SSI: per-session SERIALIZABLE upgrades the snapshot
    protocol without changing its lock-free reads."""

    def test_write_skew_across_sessions_aborts_one(self, broker):
        store = broker.store
        system = store.begin()
        store.insert(system, "Stock", (2, 10))
        store.commit(system)

        s1 = broker.open_session("s1", isolation=TxnIsolation.SERIALIZABLE)
        s2 = broker.open_session("s2", isolation=TxnIsolation.SERIALIZABLE)
        grants_before = store.metrics()["locks.read_grants"]
        s1.execute("SELECT v AS @a FROM Stock WHERE k = 1")
        s2.execute("SELECT v AS @b FROM Stock WHERE k = 2")
        # Reads took no locks: still the snapshot protocol underneath.
        assert store.metrics()["locks.read_grants"] == grants_before
        s1.execute("UPDATE Stock SET v = 0 WHERE k = 2")
        s2.execute("UPDATE Stock SET v = 0 WHERE k = 1")
        assert s1.commit()
        # The second committer is the pivot: the broker surfaces the
        # serialization failure as an aborted session.
        assert not s2.commit()
        assert s2.state is SessionState.ABORTED

        # A fresh session sees a serializable outcome: exactly one of
        # the two skew writes landed.
        check = broker.open_session("check")
        values = sorted(
            row
            for row in (
                check.execute("SELECT v AS @v FROM Stock WHERE k = 1").rows[0],
                check.execute("SELECT v AS @v FROM Stock WHERE k = 2").rows[0],
            )
        )
        assert values == [(0,), (10,)]

    def test_entangled_skew_group_aborts_whole_without_widows(self, broker):
        """An entangled SERIALIZABLE pair that write-skews each other:
        committing members one by one would commit the first and then
        fail the second (a widowed group).  The atomic group validation
        must abort the whole group before any member commits."""
        store = broker.store
        system = store.begin()
        store.insert(system, "Stock", (2, 10))
        store.commit(system)

        s1 = broker.open_session("alice", isolation=TxnIsolation.SERIALIZABLE)
        s2 = broker.open_session("bob", isolation=TxnIsolation.SERIALIZABLE)
        s1.execute(PICK.format(me="alice", friend="bob"))
        s2.execute(PICK.format(me="bob", friend="alice"))
        assert broker.match_round() == 2  # entangled: one commit group

        s1.execute("SELECT v AS @a FROM Stock WHERE k = 1")
        s2.execute("SELECT v AS @b FROM Stock WHERE k = 2")
        s1.execute("UPDATE Stock SET v = 0 WHERE k = 2")
        s2.execute("UPDATE Stock SET v = 0 WHERE k = 1")

        assert not s1.commit()  # group not complete yet
        assert not s2.commit()  # group validation fails: all abort
        assert s1.state is SessionState.ABORTED
        assert s2.state is SessionState.ABORTED

        # No widow and no skew: neither write landed.
        check = broker.open_session("check")
        for k in (1, 2):
            rows = check.execute(
                f"SELECT v AS @v FROM Stock WHERE k = {k}"
            ).rows
            assert rows == [(10,)]

    def test_doomed_precheck_spares_the_committed_partner(self, broker):
        """The broker's pre-check catches a doomed member before any
        group member commits, so no widow can appear."""
        store = broker.store
        s1 = broker.open_session("s1", isolation=TxnIsolation.SERIALIZABLE)
        s1.execute("SELECT v AS @a FROM Stock WHERE k = 1")
        w = broker.open_session("w")
        w.execute("UPDATE Stock SET v = 30 WHERE k = 1")
        assert w.commit()
        # s1 read the overwritten version; committing it alone is fine
        # (single inbound edge, no outbound) — the point is the broker
        # consults the engine, not that this particular commit fails.
        assert store.serialization_doomed(s1.storage_txn) is False
        assert s1.commit()
