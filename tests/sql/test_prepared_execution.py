"""A prepared execution is the execution it replaced.

A template statement owns a prepared form per ``Database``: the SELECT
resolution and the SPJ query its plan is keyed on once (its ``IN (SELECT
...)`` subqueries each a prepared query too), the INSERT's column
positions, the UPDATE's and DELETE's column positions and template
predicate, the entangled SELECT's unification, residual predicate and
grounding body.  An execution only fills the values its ``Param`` and
``@var`` leaves read.  ``_reference_bind.py`` keeps the path that bound a
copy of the tree per execution (``inline_hostvars`` -> ``compile_*`` ->
per-execution keyed ``build_plan``); over every statement shape the six
benchmark workloads and ``examples/`` generate, with random parameter
vectors and host-variable environments (NULLs, unbound names, parameters
equal in one draw and unequal in the next), both must give the same rows,
the same host-variable bindings, the same ``EntangledQuery`` and
groundings, the same inserted row, the same rows updated or deleted and
their new values, and an UPDATE's or DELETE's ``RowPredicate.key`` the
index probe the reference chooser picks from the bound WHERE clause — or
the same error, class and message.

A subquery now runs once its statement has read every value, where the
bind path ran it midway through binding; the examples' subqueries cannot
fail once bound, so the first fault is the same either way.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
from pathlib import Path

import _reference_bind as reference
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ColumnType, TableSchema
from repro.entangled import ground
from repro.errors import ReproError
from repro.sql import parse_statement, parse_transaction, unparse_statement
from repro.sql.ast import (
    DeleteStmt,
    EntangledSelectStmt,
    InSelect,
    InsertStmt,
    SelectStmt,
    SetStmt,
    UpdateStmt,
    inline_hostvars,
)
from repro.sql.compiler import (
    compile_delete,
    compile_entangled,
    compile_insert,
    compile_select,
    compile_set,
    compile_update,
)
from repro.storage import Database, evaluate
from repro.storage.expressions import RowAssignments, RowPredicate, split_conjuncts
from repro.storage.query import TableRef, index_path_for
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
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "storage"))
import _reference_planner  # noqa: E402
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

#: A classical ``IN (SELECT ...)`` — one item and a tuple, under AND, OR
#: and NOT, nested — and entangled SELECTs with a residual predicate, in
#: the subquery and outside it, over parameters and host variables.
SUBQUERIES = [
    "BEGIN TRANSACTION; "
    "SELECT fno, dest AS @g FROM Flights WHERE fno IN (SELECT fno FROM "
    "Airlines WHERE airline = 'United') AND dest <> @d ORDER BY fno; "
    "SELECT fno, fdate FROM Flights WHERE (fno, fdate) IN (SELECT F.fno, "
    "F.fdate FROM Flights F, Airlines A WHERE F.fno = A.fno AND F.dest = @d "
    "AND A.airline <> 'Delta') OR fno = 235; "
    "SELECT fno FROM Flights WHERE NOT (fno IN (SELECT fno FROM Airlines "
    "WHERE fno IN (SELECT fno FROM Flights WHERE fdate = 'May 3'))) "
    "AND dest = 'LA'; "
    "SELECT airline FROM Airlines WHERE (fno, airline) IN (SELECT fno, "
    "@d FROM Flights WHERE dest = 'LA') OR fno IN (SELECT fno FROM Flights "
    "WHERE fno = -1); COMMIT;",
    "BEGIN TRANSACTION; SELECT 'Mickey', fno AS @f INTO ANSWER R WHERE fno "
    "IN (SELECT fno FROM Flights WHERE dest = 'LA' AND fno > 122) AND "
    "('Minnie', fno) IN ANSWER R CHOOSE 1; "
    "SELECT 'Mickey', fno, fdate INTO ANSWER R WHERE fno, fdate IN (SELECT "
    "fno, fdate FROM Flights WHERE dest = @d AND fdate <> 'May 4') AND "
    "fno <> @f AND ('Minnie', fno, fdate) IN ANSWER R CHOOSE 1; COMMIT;",
]

#: UPDATE and DELETE by key, by index and by scan, over parameters and
#: host variables; then the shapes the write key is bound from: a
#: flipped equality, a key computed from a host variable (NULL in some
#: draws), a primary key beside a secondary index, and equalities that
#: cover the one-column index ``(deck)`` and the two-column ``(deck,
#: slot)`` declared after it — or, with ``slot`` NULL, only the first.
WRITES = [
    "BEGIN TRANSACTION; UPDATE Flights SET dest = @d, fdate = 'May 9' "
    "WHERE fno = 122; UPDATE Flights SET fno = fno + 1 WHERE dest = 'LA' "
    "AND fdate <> @g; DELETE FROM Airlines WHERE fno = @f OR airline = "
    "'Delta'; DELETE FROM Flights WHERE dest = 'Paris'; COMMIT;",
    "BEGIN TRANSACTION; UPDATE Flights SET dest = 'SF' WHERE 5 = fno; "
    "UPDATE Flights SET fdate = 'May 7' WHERE fno = @f + 1; "
    "DELETE FROM Flights WHERE dest = @d AND fno = 122; "
    "UPDATE Berths SET holder = @d WHERE deck = 1 AND slot = 2; "
    "UPDATE Berths SET holder = 'x' WHERE slot = @f AND deck = 2; "
    "DELETE FROM Berths WHERE deck = @f; COMMIT;",
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
    db.create_table(TableSchema.build(
        "Berths", [("id", INT), ("deck", INT), ("slot", INT), ("holder", TEXT)],
        primary_key=["id"], indexes=[["deck"], ["deck", "slot"]]))
    db.load("Sections", [("CS4320", 1, True), ("CS4320", 2, False)])
    db.load("Berths", [(i, i % 3, i % 4, "") for i in range(12)])
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
    examples = QUICKSTART + EDGES + SUBQUERIES + WRITES + [
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
    if isinstance(stmt, (SelectStmt, EntangledSelectStmt, InsertStmt,
                         UpdateStmt, DeleteStmt))
]


def _host_vars(stmt) -> list[str]:
    """The ``@names`` in a statement's text (read or bound)."""
    names = []
    for chunk in unparse_statement(stmt).split("@")[1:]:
        name = "@" + "".join(
            itertools.takewhile(lambda c: c.isalnum() or c == "_", chunk))
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


def has_subquery(stmt) -> bool:
    found = []

    def walk(expr):
        found.append(type(expr) is InSelect)
        return expr.map(walk)

    if stmt.where is not None:
        walk(stmt.where)
    return any(found)


def entangled_literal(query):
    """A production ``EntangledQuery`` with its residual predicate's
    value leaves read from the values grounding reads them from."""
    predicate = query.body_predicate
    if predicate is None or query.body is None:
        return query
    values = query.body[1]
    return dataclasses.replace(
        query, body_predicate=inline_hostvars(predicate, values, values))


def written(db, table, predicate, assignments=None):
    """What an UPDATE or DELETE would change: each matching row, and
    its new values."""
    return [(row.values, assignments and tuple(assignments(row)))
            for row in db.table(table).scan() if predicate(row)]


def production(stmt, db, env, params):
    if isinstance(stmt, SelectStmt):
        compiled = compile_select(stmt, db, env, params)
        values = compiled.values
        for key, subquery in compiled.subqueries:
            values[key] = evaluate(subquery.query, db, values, bound=subquery)
        rows = evaluate(compiled.query, db, values, bound=compiled.bound)
        first = rows[0] if rows else None
        bound = {var: None if first is None else first[i]
                 for var, i in compiled.bindings}
        plan = None if compiled.subqueries else reference.literal(compiled)
        return plan, rows, bound
    if isinstance(stmt, EntangledSelectStmt):
        query = compile_entangled(stmt, db, env, "q1", params)
        return entangled_literal(query), ground(query, db)
    if isinstance(stmt, (UpdateStmt, DeleteStmt)):
        if isinstance(stmt, UpdateStmt):
            compiled = compile_update(stmt, db, env, params)
            assignments = compiled.assignments
            literal = tuple(
                (position, inline_hostvars(expr, assignments.values,
                                           assignments.values))
                for position, expr in assignments.assignments)
        else:
            compiled = compile_delete(stmt, db, env, params)
            assignments = literal = None
        predicate, values = compiled.predicate, compiled.predicate.values
        where = predicate.where
        return (compiled.table, literal,
                where and inline_hostvars(where, values, values),
                predicate.key,
                written(db, compiled.table, predicate, assignments))
    if isinstance(stmt, SetStmt):
        return compile_set(stmt, db, env, params)
    compiled = compile_insert(stmt, db, env, params)
    return compiled.table, compiled.values


def reference_key(where, table):
    """The index probe the per-execution chooser picked for a bound
    WHERE clause: the reference planner's equality bindings, keyed by
    the primary key, else the widest covered index (the reference's own
    ``index_path_for`` predates the widest rule and takes the first)."""
    bindings, _residual = _reference_planner._constant_eq_conjuncts(
        split_conjuncts(where), TableRef(table.name), table, {})
    return index_path_for(table, bindings)


def oracle(stmt, db, env, params, plans):
    if isinstance(stmt, SelectStmt):
        compiled = reference.compile_select(stmt, db, env, params)
        tables = [db.table(ref.name) for ref in compiled.plan.tables]
        rows = reference.execute(compiled.plan, tables, {}, None, None, plans)
        first = rows[0] if rows else None
        bound = {var: None if first is None else first[i]
                 for var, i in compiled.bindings}
        plan = None if has_subquery(stmt) else compiled.plan
        return plan, rows, bound
    if isinstance(stmt, EntangledSelectStmt):
        query = reference.compile_entangled(stmt, db, env, "q1", params)
        return query, ground(query, db)
    if isinstance(stmt, (UpdateStmt, DeleteStmt)):
        # What the interpreter made of a bound UPDATE or DELETE.
        if isinstance(stmt, UpdateStmt):
            compiled = reference.compile_update(stmt, db, env, params)
        else:
            compiled = reference.compile_delete(stmt, db, env, params)
        schema = db.table(compiled.table).schema
        columns = schema.column_names
        literal = assignments = None
        if isinstance(stmt, UpdateStmt):
            literal = tuple((schema.column_index(column), expr)
                            for column, expr in compiled.assignments)
            assignments = RowAssignments(columns, literal)
        where = compiled.predicate
        return (compiled.table, literal, where,
                reference_key(where, db.table(compiled.table)),
                written(db, compiled.table, RowPredicate(columns, where),
                        assignments))
    if isinstance(stmt, SetStmt):
        # What the interpreter made of a bound SET.
        return inline_hostvars(stmt.expr, env, params).eval({})
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
    "SELECT fno FROM Flights WHERE fno IN (SELECT fno FROM Airlines WHERE "
    "airline = @d) AND fno IN (SELECT nosuch FROM Airlines) AND dest = @f",
    "SELECT fno FROM Flights WHERE (fno, dest) IN (SELECT fno, @f FROM "
    "Nowhere) OR dest = @d",
    "UPDATE Flights SET nosuch = @d, dest = @f WHERE fno = 1",
    "UPDATE Flights SET dest = @d + 1 WHERE fno = @f",
    "UPDATE Nowhere SET dest = @d WHERE fno = @f",
    "DELETE FROM Flights WHERE fno = @f AND dest = @d",
    "DELETE FROM Nowhere WHERE fno = @f",
    "SET @x = @d + @f",
    "SET @x = 'a' + @f",
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


def key_of(sql: str):
    db, _scripts = FAMILIES["examples"]
    return compile_delete(parse_statement(sql), db, {}).predicate.key


class TestWriteKey:
    """The key a write's WHERE clause binds: top-level equalities with
    a constant only (moved from ``tests/storage/test_query.py``, where
    they pinned ``equality_bindings``)."""

    def test_extracts_constant_conjuncts(self):
        assert key_of("DELETE FROM Flights WHERE fno = 122 AND "
                      "fdate < '2011-06-01'") == (("fno",), (122,), True)

    def test_none_where_gives_no_bindings(self):
        assert key_of("DELETE FROM Flights") is None

    def test_or_is_not_mined(self):
        assert key_of("DELETE FROM Flights WHERE fno = 122 OR fno = 123") is None
