"""An entanglement group is validated with its members' write sets in hand.

``commit_group`` asks the store whether the group would fail SSI
validation *before* the first member commits — a failure midway would
leave the earlier members durably committed while the rest abort: a
widow (paper Section 3.3).  No store learns a write set before a commit
or a validation needs it, so the validation has to stage them first; a
coordinator that asked its tracker about empty write sets answered
"fine", committed the first member and then refused the second.

Two partners ground on ``Slots`` through ``ANSWER Pick``, then each
reads its own ``Acct`` row and writes the partner's — a write skew only
the pair's combined commit completes.  Whatever the topology and the
front end, the pair commits together or not at all.  Every store is
built by ``connect()``, so the process rows run over worker processes.

The write set is derived in one function on every engine
(``StorageEngine.prepare``), so what it must survive is pinned here
too: an index key that is NULL in one image of the row and a value in
the other.
"""

from __future__ import annotations

import pytest

from repro import ColumnType, SessionState, TableSchema, connect

SHARDS = [1, 2]
EXECUTORS = ["serial", "pool", "process"]


def make_db(shards: int, executor: str):
    db = connect(shards=shards, executor=executor, isolation="serializable")
    db.create_table(TableSchema.build(
        "Slots", [("slot", ColumnType.INTEGER), ("free", ColumnType.INTEGER)],
        primary_key=["slot"]))
    db.create_table(TableSchema.build(
        "Acct", [("k", ColumnType.INTEGER), ("n", ColumnType.INTEGER)],
        primary_key=["k"]))
    db.load("Slots", [(1, 5)])
    db.load("Acct", [(k, 100) for k in range(1, 5)])
    return db


def pick(me: str, partner: str) -> str:
    return (
        f"SELECT '{me}', slot AS @slot INTO ANSWER Pick "
        f"WHERE slot IN (SELECT slot FROM Slots WHERE free > 0) "
        f"AND ('{partner}', slot) IN ANSWER Pick CHOOSE 1")


#: each reads its own row and writes the partner's.
SKEW = {
    "A": ["SELECT n AS @n FROM Acct WHERE k = 1",
          "UPDATE Acct SET n = 101 WHERE k = 2"],
    "B": ["SELECT n AS @n FROM Acct WHERE k = 2",
          "UPDATE Acct SET n = 101 WHERE k = 1"],
}
#: each writes a row nobody reads.
DISJOINT = {
    "A": ["UPDATE Acct SET n = 101 WHERE k = 1"],
    "B": ["UPDATE Acct SET n = 101 WHERE k = 2"],
}


def run_batch(db, bodies) -> list[str]:
    """``run_script`` + ``run()``; who committed once the pool is quiet."""
    handles = {}
    for me, partner in (("A", "B"), ("B", "A")):
        statements = [pick(me, partner), *bodies[me]]
        handles[me] = db.session(me).run_script(
            "BEGIN TRANSACTION; " + "; ".join(statements) + "; COMMIT;")
    db.run()
    db.drain()
    return sorted(me for me, handle in handles.items() if handle.succeeded)


def run_interactive(db, bodies) -> list[str]:
    """``Session.execute`` + ``pump()`` + ``commit()``."""
    sessions = {me: db.session(me) for me in ("A", "B")}
    pending = {
        me: sessions[me].execute(pick(me, partner))
        for me, partner in (("A", "B"), ("B", "A"))}
    db.pump()
    assert all(answer.done for answer in pending.values())
    for me, session in sessions.items():
        for sql in bodies[me]:
            session.execute(sql)
    assert sessions["A"].commit() is False  # waits for its group
    sessions["B"].commit()
    db.drain()
    states = {me: session.state for me, session in sessions.items()}
    assert set(states.values()) <= {
        SessionState.COMMITTED, SessionState.ABORTED}, states
    return sorted(
        me for me, state in states.items() if state is SessionState.COMMITTED)


FRONT_ENDS = {"batch": run_batch, "interactive": run_interactive}


def accounts(db) -> list[tuple]:
    with db.session("check").transaction() as txn:
        return sorted(txn.query("SELECT k, n FROM Acct"))


@pytest.mark.parametrize("front_end", FRONT_ENDS)
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("shards", SHARDS)
def test_a_writing_mutually_reading_pair_is_never_widowed(
        shards, executor, front_end):
    db = make_db(shards, executor)
    try:
        committed = FRONT_ENDS[front_end](db, SKEW)
        assert committed in ([], ["A", "B"]), committed
        untouched = [(k, 100) for k in range(1, 5)]
        both = [(1, 101), (2, 101), (3, 100), (4, 100)]
        assert accounts(db) == (both if committed else untouched)
    finally:
        db.close()


@pytest.mark.parametrize("front_end", FRONT_ENDS)
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("shards", SHARDS)
def test_a_pair_writing_rows_nobody_reads_commits_both(
        shards, executor, front_end):
    db = make_db(shards, executor)
    try:
        assert FRONT_ENDS[front_end](db, DISJOINT) == ["A", "B"]
        assert accounts(db) == [(1, 101), (2, 101), (3, 100), (4, 100)]
    finally:
        db.close()


# -- the write set itself ------------------------------------------------------------------


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("shards", SHARDS)
def test_a_write_set_may_hold_null_index_keys(shards, executor):
    db = connect(shards=shards, executor=executor, isolation="serializable")
    try:
        db.create_table(TableSchema.build(
            "T", [("k", ColumnType.INTEGER), ("tag", ColumnType.TEXT, True)],
            primary_key=["k"], indexes=[["tag"]]))
        db.load("T", [(1, None), (2, "y")])
        script = db.session("w").run_script(
            "BEGIN TRANSACTION; "
            "UPDATE T SET tag = 'x' WHERE k = 1; "   # NULL -> value
            "UPDATE T SET tag = NULL WHERE k = 2; "  # value -> NULL
            "COMMIT;").wait()
        assert script.succeeded, script.abort_reason
        assert db.query("SELECT k FROM T WHERE tag = 'x'") == [(1,)]
        assert db.query("SELECT k FROM T WHERE tag = 'y'") == []
    finally:
        db.close()
