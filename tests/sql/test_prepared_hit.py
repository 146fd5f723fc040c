"""What a script of a known shape does not do, counted.

The deterministic companion of ``benchmarks/test_bench_micro.py``'s
``test_frontend_prepared_hit`` (a host-timing ratio): the paper's travel
workload — an Entangled-T pair and a Social-T script — runs once to
prepare every shape, then a second round with other literals runs with
counting wrappers around every step a hit must skip.  It builds no token
(``_scan`` is the only place tokens are made), parses nothing, binds no
copy of a statement's tree, splits no WHERE clause, resolves no SELECT
against the catalog and unifies no entangled query.  The transfer and
on-call shapes — UPDATE, DELETE, SET and an ``IN (SELECT ...)`` among
them — take none of those steps either.

The other front ends send statements one at a time: an interactive
session (``Session.execute``), a direct transaction (``txn.query`` /
``txn.execute``) and ``Client.query``.  A second statement of a known
shape from any of them binds no copy of its tree, prepares no SELECT,
write or entangled query and makes no ``BoundQuery``, and returns the
rows, host-variable bindings and errors the literal statement returns.
"""

from __future__ import annotations

import sys
from collections import Counter

import pytest

import repro
from repro import ColumnType, TableSchema
from repro.core.interactive import SessionState
from repro.workloads import (
    OnCallRoster,
    SocialNetwork,
    TravelDatabase,
    WorkloadKind,
    generate_workload,
)

#: (module, attribute): the steps a hit must not take.
SKIPPED = [
    ("repro.sql.lexer", "_scan"),
    ("repro.sql.parser", "_shape"),
    ("repro.sql.parser", "Parser"),
    ("repro.sql.ast", "inline_hostvars"),
    ("repro.storage.expressions", "split_conjuncts"),
    ("repro.sql.compiler", "_resolve_select"),
    ("repro.sql.compiler", "_UnionFind"),
]


def _counting(name: str, original, calls: Counter):
    if isinstance(original, type):
        class Counted(original):
            def __init__(self, *args, **kwargs):
                calls[name] += 1
                super().__init__(*args, **kwargs)

        return Counted

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    return counted


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Counts per step, once installed (patched in every ``repro`` module
    that holds the object, as ``from x import f`` copies the binding)."""
    counts: Counter = Counter()

    def install(steps=SKIPPED):
        for module_name, attr in steps:
            original = getattr(sys.modules[module_name], attr)
            wrapper = _counting(attr, original, counts)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and module.__dict__.get(attr) is original):
                    monkeypatch.setattr(module, attr, wrapper)

    counts.install = install
    return counts


def _rounds(seed: int):
    travel = TravelDatabase(SocialNetwork(60, seed=seed), seed=seed)
    entangled = generate_workload(WorkloadKind.ENTANGLED_T, travel, 4)
    social = generate_workload(WorkloadKind.SOCIAL_T, travel, 2)
    return travel, [
        [entangled[0].program, entangled[1].program, social[0].program],
        [entangled[2].program, entangled[3].program, social[1].program],
    ]


def _run(client, scripts) -> None:
    handles = [client.session(f"s{i}").run_script(text)
               for i, text in enumerate(scripts)]
    client.drain()
    assert all(h.succeeded for h in handles)


def test_a_second_script_of_a_known_shape_skips_every_step(calls):
    travel, (first, second) = _rounds(seed=5)
    assert first != second
    with repro.connect() as client:
        travel.populate(client.store.db)
        _run(client, first)
        calls.install()
        _run(client, second)
        assert dict(calls) == {}
        # The control: the same scripts as new shapes take every step but
        # the binding copy, which no statement makes.
        _run(client, [text.replace("2 DAYS", "3 DAYS").replace("LIMIT 1", "LIMIT 2")
                      for text in first]
             + ["BEGIN TRANSACTION; UPDATE Reserve SET fid = 1 WHERE uid = -1; COMMIT;"])
    assert set(calls) == {attr for _module, attr in SKIPPED} - {"inline_hostvars"}


TRANSFER = """
    BEGIN TRANSACTION;
    SELECT balance AS @b FROM Accounts WHERE id={0};
    UPDATE Accounts SET balance = balance + 1 WHERE id={1};
    INSERT INTO Transfers (account, amount) VALUES ({1}, 1);
    SET @left = @b - {2};
    SELECT account FROM Transfers WHERE account IN
        (SELECT id FROM Accounts WHERE id={1} AND balance > @left);
    DELETE FROM Transfers WHERE account={0} AND amount > {2};
    COMMIT;
"""


def test_a_second_transfer_and_oncall_script_bind_no_copy(calls):
    """UPDATE, DELETE, SET and a classical ``IN (SELECT ...)`` execute
    from their prepared forms: a second script of each shape reads its
    values, builds no bound copy of a tree, and splits no WHERE clause —
    an UPDATE's or DELETE's key is bound from its plan."""
    roster = OnCallRoster(n_wards=2, doctors_per_ward=3, seed=4)
    with repro.connect() as client:
        client.create_table(TableSchema.build(
            "Accounts", [("id", ColumnType.INTEGER), ("balance", ColumnType.FLOAT)],
            primary_key=["id"]))
        client.create_table(TableSchema.build(
            "Transfers", [("account", ColumnType.INTEGER),
                          ("amount", ColumnType.FLOAT)], indexes=[["account"]]))
        client.load("Accounts", [(i, 100.0) for i in range(8)])
        roster.install(client)
        _run(client, [TRANSFER.format(1, 2, 5), roster.signoff_program(0, 1),
                      roster.signon_program(2)])
        calls.install()
        _run(client, [TRANSFER.format(3, 4, 7), roster.signoff_program(1, 4),
                      roster.signon_program(5)])
    assert not calls


#: (module, attribute): what preparing a statement takes, which a second
#: statement of a known shape must not take again.
PREPARING = [
    ("repro.sql.ast", "bind_statement"),
    ("repro.sql.compiler", "_resolve_select"),
    ("repro.sql.compiler", "_prepare_query"),
    ("repro.sql.compiler", "_prepare_write"),
    ("repro.sql.compiler", "_translate"),
    ("repro.storage.planner", "BoundQuery"),
]

PICK = """
    SELECT '{me}', id AS @pick INTO ANSWER Pick
    WHERE id IN (SELECT id FROM Accounts WHERE balance > {floor})
    AND ('{friend}', id) IN ANSWER Pick
    CHOOSE 1
"""


def _outcome(run, sql):
    """A statement's rows, or the class and message of its error."""
    try:
        result = run(sql)
    except repro.ReproError as exc:
        return type(exc).__name__, str(exc)
    return getattr(result, "rows", result)


def _interactive(client, k: int) -> dict:
    """One round through ``Session.execute``: a SELECT binding a host
    variable, an UPDATE, an INSERT, a SELECT of what it wrote, an error,
    then an entangled pair matched and committed."""
    session = client.session(f"writer{k}")
    got = [_outcome(session.execute, sql) for sql in (
        f"SELECT balance AS @b FROM Accounts WHERE id = {k}",
        f"UPDATE Accounts SET balance = balance + {k}.5 WHERE id = {k + 2}",
        f"INSERT INTO Transfers (account, amount) VALUES ({k}, {k}.5)",
        f"SELECT account, amount FROM Transfers WHERE account = {k}",
        f"SELECT balance FROM Accounts WHERE id = {k} AND balance > @missing",
    )]
    env = session.env
    assert session.commit()
    alice, bob = client.session(f"alice{k}"), client.session(f"bob{k}")
    pending = [
        alice.execute(PICK.format(me="alice", friend="bob", floor=100 + k)),
        bob.execute(PICK.format(me="bob", friend="alice", floor=100 + k)),
    ]
    assert client.pump() == 2 and all(answer.done for answer in pending)
    picks = (alice.env, bob.env)
    alice.commit()
    assert bob.commit() and alice.state is SessionState.COMMITTED
    return {"rows": got, "env": env, "picks": picks}


def _direct(client, k: int) -> dict:
    """One round through ``txn.query`` and ``txn.execute``."""
    with client.session(f"direct{k}").transaction() as txn:
        got = [_outcome(txn.query, f"SELECT id, balance FROM Accounts WHERE id = {k}")]
        got += [_outcome(txn.execute, sql) for sql in (
            f"SET @x = {k} * 10",
            f"UPDATE Accounts SET balance = @x WHERE id = {k + 4}",
            f"DELETE FROM Transfers WHERE account = {k} AND amount > 0.5",
            f"SELECT balance AS @y FROM Accounts WHERE id = {k + 4}",
        )]
        got.append(_outcome(
            txn.query, f"SELECT id FROM Accounts WHERE id = {k} AND balance = @nope"))
        got.append(_outcome(txn.query, f"INSERT INTO Transfers VALUES ({k}, 1)"))
        env = dict(txn._txn.env)
    return {"rows": got, "env": env}


def _client_query(client, k: int) -> dict:
    """One round through ``Client.query``."""
    return {"rows": [_outcome(client.query, sql) for sql in (
        f"SELECT id, balance FROM Accounts WHERE balance < {99 + k}"
        f" AND id > {k + 3} ORDER BY id DESC",
        f"SELECT id FROM Accounts WHERE id IN (SELECT account FROM Transfers"
        f" WHERE amount > {k}) LIMIT 1",
        f"UPDATE Accounts SET balance = {k} WHERE id = 0",
    )]}


#: What each front end's second round returns — what the literal
#: statements return.
SECOND_ROUND = {
    _interactive: {
        "rows": [[(100.0,)], [], [], [(2, 2.5), (2, 2.5)],
                 ("CompileError", "unbound host variable @missing")],
        "env": {"@b": 100.0},
        "picks": ({"@pick": 4}, {"@pick": 4}),
    },
    _direct: {
        "rows": [[(2, 100.0)], [], [], [], [(20.0,)],
                 ("CompileError", "unbound host variable @nope"),
                 ("MiddlewareError", "StorageTransaction.query only accepts SELECT")],
        "env": {"@x": 20, "@y": 20.0},
    },
    _client_query: {
        "rows": [[(7, 100.0), (6, 100.0)], [(2,)],
                 ("MiddlewareError", "Client.query only accepts SELECT")],
    },
}


@pytest.mark.parametrize("front_end", [_interactive, _direct, _client_query],
                         ids=["session-execute", "txn-query-execute", "client-query"])
def test_a_second_statement_of_a_known_shape_prepares_nothing(calls, front_end):
    with repro.connect() as client:
        client.create_table(TableSchema.build(
            "Accounts", [("id", ColumnType.INTEGER), ("balance", ColumnType.FLOAT)],
            primary_key=["id"]))
        client.create_table(TableSchema.build(
            "Transfers", [("account", ColumnType.INTEGER),
                          ("amount", ColumnType.FLOAT)], indexes=[["account"]]))
        client.load("Accounts", [(i, 100.0) for i in range(8)])
        client.load("Transfers", [(1, 1.5), (2, 2.5), (3, 0.5)])
        front_end(client, 1)
        calls.install(PREPARING)
        second = front_end(client, 2)
    assert not calls
    assert second == SECOND_ROUND[front_end]
