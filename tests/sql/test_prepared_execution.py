"""A prepared execution is the execution it replaced.

A template statement owns a prepared form per ``Database``: the SELECT
resolution and the SPJ query its plan is keyed on once, the INSERT's
column positions, the entangled SELECT's unification and grounding body.
An execution only fills the values its ``Param`` and ``@var`` leaves
read.  ``_reference_bind.py`` keeps the path that bound a copy of the
tree per execution (``inline_hostvars`` -> ``compile_*`` -> per-execution
keyed ``build_plan``); over every statement shape the six benchmark
workloads and ``examples/`` generate, with random parameter vectors and
host-variable environments (NULLs, unbound names, parameters equal in one
draw and unequal in the next), both must give the same rows, the same
host-variable bindings, the same ``EntangledQuery`` and groundings, the
same inserted row — or the same error, class and message.
"""

from __future__ import annotations

import sys
from pathlib import Path

import _reference_bind as reference
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ColumnType, TableSchema
from repro.entangled import ground
from repro.errors import ReproError
from repro.sql import parse_transaction, unparse_statement
from repro.sql.ast import EntangledSelectStmt, InsertStmt, SelectStmt
from repro.sql.compiler import compile_entangled, compile_insert, compile_select
from repro.storage import Database, evaluate
from repro.workloads import (
    OnCallRoster,
    PaymentLedger,
    SocialNetwork,
    TravelDatabase,
    WorkloadKind,
    example_schema,
    figure1_rows,
    generate_workload,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "examples"))
import course_enrollment  # noqa: E402
import gift_matching  # noqa: E402
import social_game_interactive  # noqa: E402
import travel_planning  # noqa: E402

INT, TEXT = ColumnType.INTEGER, ColumnType.TEXT

TRANSFER = """
    BEGIN TRANSACTION;
    SELECT balance AS @b FROM Accounts WHERE id={0};
    UPDATE Accounts SET balance = balance + 1 WHERE id={1};
    INSERT INTO Transfers (account, amount) VALUES ({1}, 1);
    COMMIT;
"""

QUICKSTART = [
    """BEGIN TRANSACTION WITH TIMEOUT 2 DAYS;
    SELECT 'Mickey', fno AS @fno, fdate INTO ANSWER Reservation
    WHERE fno, fdate IN (SELECT fno, fdate FROM Flights WHERE dest='LA')
    AND ('Minnie', fno, fdate) IN ANSWER Reservation CHOOSE 1;
    INSERT INTO Bookings (name, fno) VALUES ('Mickey', @fno);
    COMMIT;""",
    """BEGIN TRANSACTION WITH TIMEOUT 2 DAYS;
    SELECT 'Minnie', fno AS @fno, fdate INTO ANSWER Reservation
    WHERE fno, fdate IN (SELECT fno, fdate FROM Flights F, Airlines A
        WHERE F.dest='LA' AND F.fno = A.fno AND A.airline = 'United')
    AND ('Mickey', fno, fdate) IN ANSWER Reservation CHOOSE 1;
    INSERT INTO Bookings (name, fno) VALUES ('Minnie', @fno);
    COMMIT;""",
]

#: Hand cases: a ``col = NULL`` probe, negated parameters, and two
#: constants of one class (``F.fno = 122`` and ``A.fno = 235`` joined by
#: ``F.fno = A.fno``).
EDGES = [
    "BEGIN TRANSACTION; SELECT fno AS @f FROM Flights WHERE dest = NULL; "
    "SELECT fno FROM Flights WHERE fno = 122 OR dest = @d ORDER BY fno; "
    "SELECT fno FROM Flights WHERE 0 - fno = -122 OR fno < -5; "
    "INSERT INTO Bookings (name, fno) VALUES (@d, -3); COMMIT;",
    "BEGIN TRANSACTION; SELECT 'k', fno AS @f INTO ANSWER R WHERE fno IN "
    "(SELECT F.fno FROM Flights F, Airlines A WHERE F.fno = 122 AND "
    "A.fno = 235 AND F.fno = A.fno) AND ('j', fno) IN ANSWER R CHOOSE 1; COMMIT;",
]


def _figure1(db: Database) -> None:
    for schema in example_schema():
        db.create_table(schema)
    for table, rows in figure1_rows().items():
        db.load(table, rows)
    for name, columns in [
        ("Bookings", [("name", TEXT), ("fno", INT)]),
        ("FlightBookings", [("name", TEXT), ("fno", INT)]),
        ("HotelBookings", [("name", TEXT), ("hid", INT)]),
        ("Enrollment", [("student", TEXT), ("section", INT)]),
        ("Guild", [("member", TEXT)]),
        ("Donations", [("donor", TEXT), ("cause", TEXT), ("amount", INT)]),
        ("TradeLog", [("who", TEXT), ("item", INT)]),
    ]:
        db.create_table(TableSchema.build(name, columns))
    db.create_table(TableSchema.build(
        "Sections", [("course", TEXT), ("section", INT),
                     ("open", ColumnType.BOOLEAN)], primary_key=["section"]))
    db.create_table(TableSchema.build(
        "Inventory", [("item", INT), ("name", TEXT),
                      ("tradeable", ColumnType.BOOLEAN)], primary_key=["item"]))
    db.load("Sections", [("CS4320", 1, True), ("CS4320", 2, False)])
    db.load("Guild", [("Alice",), ("Bob",)])
    db.load("Inventory", [(1, "hoe", True), (2, "axe", False), (3, "map", True)])


def _families():
    """``(database, scripts)`` per workload family."""
    travel = TravelDatabase(SocialNetwork(40, seed=3), seed=3)
    travel_db = Database("travel")
    travel.populate(travel_db)
    travel_scripts = [item.program for kind, n in [
        (WorkloadKind.ENTANGLED_T, 2), (WorkloadKind.SOCIAL_T, 1),
        (WorkloadKind.NOSOCIAL_T, 1)] for item in generate_workload(kind, travel, n)]

    transfer_db = Database("transfer")
    transfer_db.create_table(TableSchema.build(
        "Accounts", [("id", INT), ("owner", TEXT), ("balance", ColumnType.FLOAT)],
        primary_key=["id"]))
    transfer_db.create_table(TableSchema.build(
        "Transfers", [("account", INT), ("amount", ColumnType.FLOAT)],
        indexes=[["account"]]))
    transfer_db.load("Accounts", [(i, f"u{i}", 100.0) for i in range(32)])

    roster = OnCallRoster(n_wards=4, doctors_per_ward=4, seed=1)
    oncall_db = Database("oncall")
    roster.install(oncall_db)

    ledger = PaymentLedger(n_accounts=16, seed=1)
    ledger_db = Database("ledger")
    ledger.install(ledger_db)
    ledger_db.load("Ledger", [(i, i % 16, (i + 1) % 16, 1.0, 0.01 * i)
                              for i in range(40)])

    examples_db = Database("examples")
    _figure1(examples_db)
    examples = QUICKSTART + EDGES + [
        travel_planning.travel_program("Mickey", "Minnie"),
        course_enrollment.enroll("ann", "bo"),
        gift_matching.pledge("Alice", "Guild", "parks", 20),
        "BEGIN TRANSACTION;"
        + social_game_interactive.trade_query("rey", "pia") + "; COMMIT;",
    ]
    return {
        "travel": (travel_db, travel_scripts),
        "transfer": (transfer_db, [TRANSFER.format(3, 4)]),
        "oncall": (oncall_db, [roster.signoff_program(1, 5),
                               roster.signon_program(3)]),
        "ledger": (ledger_db, [ledger.transfer_program(0.1),
                               ledger.temporal_query_program(0.3)]),
        "examples": (examples_db, examples),
    }


FAMILIES = _families()
CASES = [
    (family, index, position)
    for family, (_db, scripts) in FAMILIES.items()
    for index, text in enumerate(scripts)
    for position, stmt in enumerate(parse_transaction(text).template)
    if isinstance(stmt, (SelectStmt, EntangledSelectStmt, InsertStmt))
]


def _host_vars(stmt) -> list[str]:
    """The ``@names`` in a statement's text (read or bound)."""
    names = []
    for chunk in unparse_statement(stmt).split("@")[1:]:
        name = "@" + "".join(c for c in chunk if c.isalnum() or c == "_")
        if name not in names:
            names.append(name)
    return names


@st.composite
def executions(draw, params: tuple, host_vars: list[str]):
    """A parameter vector of the script's types and a host environment.
    Values come from small pools shared by every position, so two
    parameters are often equal, and as often not."""
    ints = draw(st.lists(st.integers(-1, 40), min_size=1, max_size=3))
    texts = draw(st.lists(st.sampled_from(
        ["LA", "Paris", "Mickey", "Minnie", "CS4320", "parks", "x"]),
        min_size=1, max_size=3))
    vector = []
    for value in params:
        if isinstance(value, str):
            vector.append(draw(st.sampled_from(texts + [value])))
        elif isinstance(value, float):
            vector.append(draw(st.sampled_from([value, 0.5, 2.0, 0.25])))
        else:
            vector.append(draw(st.sampled_from(ints + [value])))
    env = {}
    for name in host_vars:
        choice = draw(st.sampled_from(["int", "text", "null", "unbound"]))
        if choice == "int":
            env[name] = draw(st.sampled_from(ints))
        elif choice == "text":
            env[name] = draw(st.sampled_from(texts))
        elif choice == "null":
            env[name] = None
    return tuple(vector), env


def outcome(run):
    try:
        return "ok", run()
    except ReproError as exc:
        return "raised", type(exc), str(exc)


def production(stmt, db, env, params):
    if isinstance(stmt, SelectStmt):
        compiled = compile_select(stmt, db, env, params)
        rows = evaluate(compiled.query, db, compiled.values)
        first = rows[0] if rows else None
        bound = {var: None if first is None else first[i]
                 for var, i in compiled.bindings}
        return reference.literal(compiled), rows, bound
    if isinstance(stmt, EntangledSelectStmt):
        query = compile_entangled(stmt, db, env, "q1", params)
        return query, ground(query, db)
    compiled = compile_insert(stmt, db, env, params)
    return compiled.table, compiled.values


def oracle(stmt, db, env, params, plans):
    if isinstance(stmt, SelectStmt):
        compiled = reference.compile_select(stmt, db, env, params)
        tables = [db.table(ref.name) for ref in compiled.plan.tables]
        rows = reference.execute(compiled.plan, tables, {}, None, None, plans)
        first = rows[0] if rows else None
        bound = {var: None if first is None else first[i]
                 for var, i in compiled.bindings}
        return compiled.plan, rows, bound
    if isinstance(stmt, EntangledSelectStmt):
        query = reference.compile_entangled(stmt, db, env, "q1", params)
        return query, ground(query, db)
    compiled = reference.compile_insert(stmt, db, env, params)
    return compiled.table, compiled.values


@pytest.mark.parametrize("family, index, position", CASES)
def test_prepared_execution_equals_the_bound_one(family, index, position):
    db, scripts = FAMILIES[family]
    program = parse_transaction(scripts[index])
    stmt = program.template[position]
    plans: dict = {}

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=executions(program.params, _host_vars(stmt)))
    def check(case):
        params, env = case
        want = outcome(lambda: oracle(stmt, db, env, params, plans))
        # Twice: the first execution may prepare, the second must not.
        for _ in range(2):
            got = outcome(lambda: production(stmt, db, env, params))
            assert got == want, (family, str(stmt), params, env)
            if got[0] == "ok" and isinstance(stmt, EntangledSelectStmt):
                # Same values, same types, down to every constant term.
                assert repr(got[1][0]) == repr(want[1][0])

    check()


def test_every_edge_case_is_met():
    """The draws above reach each edge the differential is there for."""
    db, _scripts = FAMILIES["examples"]
    program = parse_transaction(EDGES[1])
    stmt = program.template[0]
    with pytest.raises(ReproError, match="contradictory constants") as err:
        compile_entangled(stmt, db, {}, "q", program.params)
    with pytest.raises(ReproError) as want:
        reference.compile_entangled(stmt, db, {}, "q", program.params)
    assert str(err.value) == str(want.value)
    equal = tuple(122 if value == 235 else value for value in program.params)
    assert compile_entangled(stmt, db, {}, "q", equal) == (
        reference.compile_entangled(stmt, db, {}, "q", equal))


#: Statements with more than one fault: the prepared path raises what
#: binding met first, with no binding of its own (an unbound host
#: variable before a structural fault, a contradiction before an unbound
#: variable, a value that does not evaluate before a count mismatch).
FAULTS = [
    "SELECT 'a', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM Flights "
    "WHERE dest = @d) AND fno IN (SELECT nosuch FROM Flights) CHOOSE 1",
    "SELECT 'k', fno INTO ANSWER R WHERE fno IN (SELECT F.fno FROM Flights F, "
    "Airlines A WHERE F.fno = 122 AND A.fno = 235 AND F.fno = A.fno) AND fno "
    "IN (SELECT fno FROM Flights WHERE dest = @d) CHOOSE 1",
    "SELECT 'k', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM Flights "
    "WHERE dest = @d AND fno = 122 AND fno = @f) CHOOSE 1",
    "INSERT INTO Bookings (name, fno) VALUES (@d, 1 + 'a', 3)",
    "INSERT INTO Bookings (name, fno) VALUES (@d, 1, 3)",
    "INSERT INTO Bookings VALUES (@d, @f + 1)",
    "INSERT INTO Nowhere VALUES (@d)",
    "SELECT fno FROM Flights F, Flights F WHERE fno = @d",
]


@pytest.mark.parametrize("text", FAULTS)
@pytest.mark.parametrize("env", [{}, {"@d": "LA"}, {"@d": "LA", "@f": 235},
                                 {"@d": "LA", "@f": 122}])
def test_the_first_fault_binding_met_is_the_one_raised(text, env):
    db, _scripts = FAMILIES["examples"]
    program = parse_transaction(f"BEGIN TRANSACTION; {text}; COMMIT;")
    stmt, params = program.template[0], program.params
    want = outcome(lambda: oracle(stmt, db, env, params, {}))
    for _ in range(2):
        assert outcome(lambda: production(stmt, db, env, params)) == want
