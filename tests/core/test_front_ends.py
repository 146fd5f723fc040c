"""The three front ends are one executor and one evaluation round.

A batch script, an interactive session and a direct storage transaction
each hold an :class:`~repro.core.transaction.EntangledTransaction` and
run classical statements through :func:`repro.core.interpreter.
execute_statement` on it; the batch engine and the interactive broker
evaluate pending entangled queries through :func:`repro.core.groups.
evaluate_round`.  So the same statements must do the same thing whichever
way they are handed in — rows, host variables, table contents — and
the same entangled queries must form the same groups.  Every store is built by ``connect(shards=...)``, so under
``REPRO_EXECUTOR=process`` the two-shard cases run over worker
processes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ColumnType,
    SessionState,
    TableSchema,
    connect,
)
from repro.errors import SerializationFailureError
from repro.storage.engine import TxnIsolation, WouldBlock

SHARDS = [1, 2]


def make_db(shards: int = 1, **kwargs):
    db = connect(shards=shards, **kwargs)
    db.create_table(TableSchema.build(
        "T", [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
        primary_key=["k"],
    ))
    db.load("T", [(k, 10 * k) for k in range(1, 5)])
    return db


# -- one executor --------------------------------------------------------------------------

STATEMENTS = [
    "SELECT v AS @v FROM T WHERE k = 1",
    "SET @w = @v + 5",
    "INSERT INTO T (k, v) VALUES (7, @w)",
    "UPDATE T SET v = v + 1 WHERE k = 2",
    "DELETE FROM T WHERE k = 3",
    "SELECT v AS @last, k FROM T WHERE k = 7",
]


def run_batch(db):
    script = db.session("front").run_script(
        "BEGIN TRANSACTION; " + "; ".join(STATEMENTS) + "; COMMIT;").wait()
    assert script.succeeded, script.abort_reason
    return None, script.host_variables()


def run_interactive(db):
    session = db.session("front")
    rows = [session.execute(sql).rows for sql in STATEMENTS]
    env = session.env
    assert session.commit()
    return rows, env


def run_direct(db):
    with db.session("front").transaction() as txn:
        rows = [txn.execute(sql) for sql in STATEMENTS]
        return rows, dict(txn._txn.env)


FRONT_ENDS = {
    "batch": run_batch, "interactive": run_interactive, "direct": run_direct}


@pytest.mark.parametrize("shards", SHARDS)
def test_one_statement_list_three_front_ends(shards):
    seen = {}
    for name, run in FRONT_ENDS.items():
        db = make_db(shards)
        try:
            rows, env = run(db)
            seen[name] = {
                "rows": rows,
                "env": env,
                "table": sorted(db.query("SELECT k, v FROM T")),
            }
        finally:
            db.close()
    expected = {
        "env": {"@v": 10, "@w": 15, "@last": 15},
        "table": [(1, 10), (2, 21), (4, 40), (7, 15)],
    }
    for name, got in seen.items():
        rows = got.pop("rows")
        assert got == expected, name
        if rows is not None:  # a script hands back bindings, not rows
            assert rows == [[(10,)], [], [], [], [], [(15, 7)]], name


# -- the defects the separate copies had grown ---------------------------------------------


@pytest.mark.parametrize("shards", SHARDS)
def test_interactive_rollback_ends_the_session(shards):
    db = make_db(shards)
    try:
        first = db.session("first")
        first.execute("UPDATE T SET v = 0 WHERE k = 1")
        blocked = db.session("blocked")
        with pytest.raises(WouldBlock):
            blocked.execute("UPDATE T SET v = 5 WHERE k = 1")
        blocked.abort()

        result = first.execute("ROLLBACK")
        assert result.rows == [] and not result.pending
        assert first.state is SessionState.ABORTED
        # Locks and writes went with it: the row is free and unchanged.
        second = db.session("second")
        second.execute("UPDATE T SET v = v + 1 WHERE k = 1")
        assert second.commit()
        assert (1, 11) in db.query("SELECT k, v FROM T")
    finally:
        db.close()


def test_interactive_rollback_takes_the_entanglement_group_down():
    db = make_db()
    alice, bob = db.session("alice"), db.session("bob")
    for me, friend, session in (("a", "b", alice), ("b", "a", bob)):
        session.execute(PICK.format(me=me, friend=friend))
    assert db.pump() == 2
    alice.execute("ROLLBACK")
    assert bob.state is SessionState.ABORTED  # widow prevention
    db.close()


@pytest.mark.parametrize("shards", SHARDS)
def test_direct_transaction_keeps_set_bindings(shards):
    db = make_db(shards)
    try:
        with db.session("direct").transaction() as txn:
            assert txn.execute("SET @x = 2") == []
            assert txn.execute("SELECT v FROM T WHERE k = @x") == [(20,)]
            assert txn.query("SELECT v AS @y FROM T WHERE k = 3") == [(30,)]
            txn.execute("INSERT INTO T (k, v) VALUES (9, @y + @x)")
        assert (9, 32) in db.query("SELECT k, v FROM T")
    finally:
        db.close()


# -- a subquery reads inside its transaction -----------------------------------------------

#: connect() setting per storage isolation.
ISOLATIONS = {
    TxnIsolation.TWO_PL: "full",
    TxnIsolation.SNAPSHOT: "snapshot",
    TxnIsolation.SERIALIZABLE: "serializable",
}
TOPOLOGIES = {
    "1-shard": dict(shards=1),
    "2-serial-shards": dict(shards=2, executor="serial"),
    "2-worker-processes": dict(shards=2, executor="process"),
}


def subquery_db(isolation: TxnIsolation, tables=("T", "U"), **topology):
    db = connect(isolation=ISOLATIONS[isolation], **topology)
    for name in tables:
        db.create_table(TableSchema.build(
            name, [("id", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
            primary_key=["id"],
        ))
        db.load(name, [(1, 10), (2, 20)])
    return db


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("isolation", ISOLATIONS, ids=lambda i: i.name)
def test_an_in_subquery_reads_no_uncommitted_write(isolation, topology):
    """A classical ``IN (SELECT ...)`` is a read of its transaction: it
    waits for the writer's lock under 2PL and reads its snapshot
    otherwise, never the writer's uncommitted value (a P1 dirty read)."""
    db = subquery_db(isolation, **TOPOLOGIES[topology])
    try:
        writer = db.session("writer").transaction(isolation)
        writer.execute("UPDATE T SET v = 99 WHERE id = 1")
        reader = db.session("reader").transaction(isolation)
        sql = "SELECT id FROM U WHERE id IN (SELECT id FROM T WHERE v = 99)"
        if isolation is TxnIsolation.TWO_PL:
            with pytest.raises(WouldBlock):
                reader.execute(sql)
            reader.abort()
        else:
            assert reader.execute(sql) == []
            reader.commit()
        writer.commit()
        assert db.query(sql) == [(1,)]
    finally:
        db.close()


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("isolation", ISOLATIONS, ids=lambda i: i.name)
@pytest.mark.parametrize("statement, left", [
    ("UPDATE T SET v = 2 WHERE id IN (SELECT id FROM T WHERE v = 1)",
     [(1, 10), (2, 20), (3, 2), (4, 2)]),
    ("DELETE FROM T WHERE id IN (SELECT id FROM T WHERE v = 1)",
     [(1, 10), (2, 20)]),
], ids=["update", "delete"])
def test_a_write_through_an_in_subquery_commits(
        isolation, topology, statement, left):
    """An UPDATE's or DELETE's ``IN (SELECT ...)`` runs as a read of its
    transaction before the write, which changes the rows it chose."""
    db = subquery_db(isolation, ("T",), **TOPOLOGIES[topology])
    try:
        db.load("T", [(3, 1), (4, 1)])
        script = db.session("writer").run_script(
            f"BEGIN TRANSACTION; {statement}; COMMIT;").wait()
        assert script.succeeded, script.abort_reason
        assert db.query("SELECT id, v FROM T ORDER BY id") == left
    finally:
        db.close()


@pytest.mark.parametrize("shards", SHARDS)
def test_a_write_skew_read_through_subqueries_is_refused(shards):
    """Each side reads one table through a subquery and writes the
    other: SSI sees both reads, so one of the two commits fails."""
    serializable = TxnIsolation.SERIALIZABLE
    db = subquery_db(serializable, ("A", "B", "U"), shards=shards,
                     executor="serial")
    try:
        sides = []
        for read, write in (("A", "B"), ("B", "A")):
            txn = db.session(f"reads-{read}").transaction(serializable)
            assert txn.execute(
                f"SELECT id FROM U WHERE id IN "
                f"(SELECT id FROM {read} WHERE v = 10)") == [(1,)]
            txn.execute(f"UPDATE {write} SET v = 0 WHERE id = 1")
            sides.append(txn)
        failures = 0
        for txn in sides:
            try:
                txn.commit()
            except SerializationFailureError:
                failures += 1
        assert failures == 1
    finally:
        db.close()


# -- one round -----------------------------------------------------------------------------

PICK = """
    SELECT '{me}', k AS @k INTO ANSWER Pick
    WHERE k IN (SELECT k FROM T)
    AND ('{friend}', k) IN ANSWER Pick
    CHOOSE 1
"""
CLASH = """
    SELECT '{me}', k AS @k, k INTO ANSWER Pick
    WHERE k IN (SELECT k FROM T)
    AND ('{friend}', k, k) IN ANSWER Pick
    CHOOSE 1
"""


@pytest.mark.parametrize("shards", SHARDS)
def test_an_arity_clash_aborts_its_batch_and_the_broker_keeps_running(shards):
    db = make_db(shards)
    try:
        sessions = {name: db.session(name) for name in "abc"}
        pending = [
            sessions["a"].execute(PICK.format(me="a", friend="b")),
            sessions["b"].execute(PICK.format(me="b", friend="a")),
            sessions["c"].execute(CLASH.format(me="c", friend="a")),
        ]
        assert db.pump() == 0  # returns: the poisoned batch is a verdict
        assert all(s.state is SessionState.ABORTED for s in sessions.values())
        assert all(answer.cancelled for answer in pending)
        # The next round runs on whoever is left.
        dora, ed = db.session("dora"), db.session("ed")
        dora.execute(PICK.format(me="d", friend="e"))
        ed.execute(PICK.format(me="e", friend="d"))
        assert db.pump() == 2
        assert dora.env["@k"] == ed.env["@k"]
    finally:
        db.close()


@st.composite
def wishes(draw):
    """Who each of 2-5 participants wants to pick the same item as."""
    n = draw(st.integers(min_value=2, max_value=5))
    return [
        draw(st.sampled_from([j for j in range(n) if j != i]))
        for i in range(n)
    ]


def groups_of_a_run(wanted) -> set[frozenset[str]]:
    db = make_db()
    names, scripts = {}, {}
    for i, friend in enumerate(wanted):
        script = db.session(f"p{i}").run_script(
            "BEGIN TRANSACTION; "
            + PICK.format(me=f"p{i}", friend=f"p{friend}") + "; COMMIT;")
        names[script.handle] = f"p{i}"
        scripts[script.handle] = script
    report = db.run()
    # A committed script's partners are its handle's to tell: the engine
    # forgets a finished transaction.
    groups = {
        frozenset(names[h] for h in
                  {handle} | scripts[handle]._txn.partners)
        for handle in report.committed
    }
    db.close()
    return groups


def groups_of_pumping(wanted) -> set[frozenset[str]]:
    db = make_db()
    sessions = [db.session(f"p{i}") for i in range(len(wanted))]
    for i, friend in enumerate(wanted):
        sessions[i].execute(PICK.format(me=f"p{i}", friend=f"p{friend}"))
    while db.pump():
        pass
    names = {s.interactive.session_id: s.name for s in sessions}
    groups = {
        frozenset(names[sid] for sid in
                  db.broker.groups.group_of(s.interactive.session_id))
        for s in sessions if s.state is SessionState.OPEN
    }
    db.close()
    return groups


@settings(max_examples=40, deadline=None)
@given(wishes())
def test_a_run_and_a_pump_form_the_same_groups(wanted):
    groups = groups_of_a_run(wanted)
    assert groups == groups_of_pumping(wanted)
    # Mutual wishes always coordinate, so the property is not vacuous.
    mutual = {frozenset((f"p{i}", f"p{j}")) for i, j in enumerate(wanted)
              if wanted[j] == i}
    assert all(any(pair <= group for group in groups) for pair in mutual)
