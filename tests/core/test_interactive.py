"""Tests for the interactive-transaction extension (Section 4 future work)."""

import pytest

from _batch import broker_for
from repro.core.interactive import InteractiveBroker, SessionState
from repro.errors import MiddlewareError
from repro.storage import ColumnType, StorageEngine, TableSchema


@pytest.fixture
def broker() -> InteractiveBroker:
    store = StorageEngine()
    store.create_table(TableSchema.build(
        "Items", [("item", ColumnType.INTEGER)], primary_key=["item"]))
    store.create_table(TableSchema.build(
        "Picks", [("who", ColumnType.TEXT), ("item", ColumnType.INTEGER)]))
    store.load("Items", [(1,), (2,), (3,)])
    return broker_for(store)


PICK = """
    SELECT '{me}', item AS @item INTO ANSWER Pick
    WHERE item IN (SELECT item FROM Items)
    AND ('{friend}', item) IN ANSWER Pick
    CHOOSE 1
"""


class TestStatementByStatement:
    def test_classical_statements_execute_immediately(self, broker):
        session = broker.open_session("alice")
        result = session.execute("SELECT item FROM Items WHERE item = 2")
        assert result.rows == [(2,)]
        session.execute("INSERT INTO Picks (who, item) VALUES ('alice', 2)")
        assert session.commit()
        assert session.state is SessionState.COMMITTED

    def test_select_binds_hostvars(self, broker):
        session = broker.open_session("alice")
        session.execute("SELECT item AS @i FROM Items WHERE item = 3")
        assert session.env["@i"] == 3

    def test_entangled_query_parks_session(self, broker):
        session = broker.open_session("alice")
        result = session.execute(PICK.format(me="alice", friend="bob"))
        assert result.pending
        assert session.waiting

    def test_statements_while_waiting_rejected(self, broker):
        session = broker.open_session("alice")
        session.execute(PICK.format(me="alice", friend="bob"))
        with pytest.raises(MiddlewareError):
            session.execute("SELECT item FROM Items")


class TestMatching:
    def test_partners_matched_on_round(self, broker):
        alice = broker.open_session("alice")
        bob = broker.open_session("bob")
        alice.execute(PICK.format(me="alice", friend="bob"))
        assert broker.match_round() == 0  # bob not waiting yet
        bob.execute(PICK.format(me="bob", friend="alice"))
        assert broker.match_round() == 2
        assert alice.env["@item"] == bob.env["@item"]
        assert not alice.waiting and not bob.waiting

    def test_cancel_pending_query(self, broker):
        # "the user may decide to abort or issue another command"
        alice = broker.open_session("alice")
        alice.execute(PICK.format(me="alice", friend="bob"))
        alice.cancel()
        assert alice.state is SessionState.OPEN
        result = alice.execute("SELECT item FROM Items WHERE item = 1")
        assert result.rows == [(1,)]

    def test_dynamic_statements_after_answer(self, broker):
        # Statements constructed from earlier results — the defining
        # property of interactive transactions.
        alice = broker.open_session("alice")
        bob = broker.open_session("bob")
        alice.execute(PICK.format(me="alice", friend="bob"))
        bob.execute(PICK.format(me="bob", friend="alice"))
        broker.match_round()
        item = alice.env["@item"]
        alice.execute(
            f"INSERT INTO Picks (who, item) VALUES ('alice', {item})")
        bob.execute("INSERT INTO Picks (who, item) VALUES ('bob', @item)")
        assert alice.commit() is False       # waits for bob (group commit)
        assert bob.commit() is True          # completes the group
        assert alice.state is SessionState.COMMITTED


class TestGroupSemantics:
    def test_widow_prevention_on_abort(self, broker):
        alice = broker.open_session("alice")
        bob = broker.open_session("bob")
        alice.execute(PICK.format(me="alice", friend="bob"))
        bob.execute(PICK.format(me="bob", friend="alice"))
        broker.match_round()
        bob.abort()
        # Alice entangled with Bob; his abort must take her down too.
        assert alice.state is SessionState.ABORTED

    def test_group_commit_waits_for_all(self, broker):
        alice = broker.open_session("alice")
        bob = broker.open_session("bob")
        alice.execute(PICK.format(me="alice", friend="bob"))
        bob.execute(PICK.format(me="bob", friend="alice"))
        broker.match_round()
        assert alice.commit() is False
        assert alice.state is SessionState.COMMIT_PENDING
        assert bob.commit() is True
        # Writes of both are now durable.
        assert broker.store.wal.committed_txns() >= {
            alice.storage_txn, bob.storage_txn}

    def test_independent_sessions_commit_alone(self, broker):
        solo = broker.open_session("solo")
        solo.execute("INSERT INTO Picks (who, item) VALUES ('solo', 1)")
        assert solo.commit() is True
