"""The prepared-statement pipeline against the reference front end.

``_reference_frontend`` is the char-by-char lexer and the uncached parser
as they stood before the pipeline; everything public about the production
front end — tokens, literal ASTs, error class/message/position — must
still equal it.  The rest of this file pins what the pipeline adds: one
shared template per script shape, a bounded table, nothing cached on
failure, and parameters that stay with their own script through retries,
recovery and concurrent compilation.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import _reference_frontend as reference
from _reference_bind import literal
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_unparse import identifiers, literals, simple_exprs

from repro import (
    ColumnType,
    EngineConfig,
    TableSchema,
    connect,
)
from repro.errors import LexError, ParseError, SQLError
from repro.sql import (
    compile_select,
    parse_script,
    parse_statement,
    parse_transaction,
    tokenize,
    unparse_statement,
    unparse_transaction,
)
from repro.sql import parser as parser_module
from repro.sql.ast import (
    DeleteStmt,
    InsertStmt,
    Param,
    SelectItem,
    SelectStmt,
    SetStmt,
    TableSource,
    TransactionProgram,
    UpdateStmt,
)
from repro.storage import Database
from repro.storage.expressions import Cmp, CmpOp, Col, Const


# ---------------------------------------------------------------------------
# Differential helpers
# ---------------------------------------------------------------------------


def outcome(fn, text):
    """What ``fn(text)`` did, in a form two front ends can be compared by."""
    try:
        return ("ok", fn(text))
    except (LexError, ParseError) as exc:
        return ("error", type(exc).__name__, str(exc), exc.position)
    except ValueError:
        return ("ValueError",)  # the reference's malformed-number leak


def token_triples(fn):
    return lambda text: [(t.type, t.value, t.position) for t in fn(text)]


def assert_same(text, production, oracle):
    """``production(text)`` equals ``oracle(text)`` — twice, so both the
    miss and the hit path of the template table are compared."""
    expected = outcome(oracle, text)
    for _path in ("miss", "hit"):
        got = outcome(production, text)
        if expected == ("ValueError",) or (
                got[0] == "error" and "malformed number" in got[2]):
            # The one deliberate divergence: the reference leaks
            # ValueError for a number float()/int() rejects (or reports
            # a later lexical error first); production says SQLError.
            assert got[0] == "error", (text, got)
        else:
            assert got == expected, text


def shifted(node):
    """``node`` with every number/string literal changed, shape kept."""
    if isinstance(node, Const):
        value = node.value
        if isinstance(value, bool) or value is None:
            return node
        if isinstance(value, str):
            return Const(value + "z")
        return Const(value + 1 if value >= 0 else value - 1)
    if dataclasses.is_dataclass(node):
        return type(node)(*(
            shifted(getattr(node, f.name)) for f in dataclasses.fields(node)
            if f.init
        ))
    if isinstance(node, tuple):
        return tuple(shifted(item) for item in node)
    return node


# ---------------------------------------------------------------------------
# Hand cases
# ---------------------------------------------------------------------------

STATEMENTS = [
    # strings: doubled, smart and listing-style quotes
    "SELECT a FROM T WHERE a = 'it''s' AND b = '' AND c = ''''",
    'SELECT a FROM T WHERE a = "say ""hi""" OR b = "x"',
    "SELECT a FROM T WHERE a = ‘Mickey’ AND b = “Minnie” AND c = `125'",
    "SELECT a FROM T WHERE a = ‘it’’s’ AND b = “q””q”",
    # comments containing digits and quotes
    "SELECT a -- 42 'quoted' \"and\" 1.2.3\n FROM T -- tail 7",
    "SELECT a FROM T WHERE a = 1 -- '\n AND b = 2 --",
    # 1 vs 1.0, trailing dot, non-ASCII digits and identifiers
    "SELECT a FROM T WHERE a = 1 AND b = 1.0 AND c = 1. AND d = 0.50",
    "SELECT a FROM T WHERE a = ١٢ AND b = 1١",
    "SELECT é, λx FROM Tábla WHERE é = 1",
    # negative literals and unary minus on non-literals
    "SELECT a FROM T WHERE id = -5 AND x = - 2.5 AND y = -(3) AND z = - -4",
    "SELECT a FROM T WHERE a = -b AND c = -'s' AND d = -(1 + 2) AND e = -@v",
    "SELECT a FROM T WHERE a = 1 - 2 AND b = 1 -2 AND c = (1)-(-2)",
    "SET @x = -1",
    "INSERT INTO T (a, b) VALUES (-1, '-1')",
    # numbers the grammar consumes as syntax
    "SELECT a FROM T WHERE a = 1 LIMIT 1",
    "SELECT a FROM T WHERE a = 1 ORDER BY a DESC, b LIMIT 20",
    "SELECT DISTINCT a FROM T LIMIT 0",
    # tuple-IN, IN-list, subquery, entangled forms
    "SELECT x FROM T WHERE (a, b) IN (SELECT c, d FROM U WHERE e = 3)",
    "SELECT x FROM T WHERE a, b IN (SELECT c, d FROM U) AND f = 'g'",
    "SELECT x FROM T WHERE a IN (1, 'two', 3.0, NULL, TRUE) OR a NOT IN (4)",
    "SELECT x FROM T WHERE (1 + 2) * 3 = 9 AND (a) = (b)",
    "SELECT 'Mickey', fno, fdate AS @ArrivalDay INTO ANSWER Reservation "
    "WHERE (fno, fdate) IN (SELECT fno, fdate FROM Flights WHERE dest='LA') "
    "AND ('Minnie', fno, fdate) IN ANSWER Reservation CHOOSE 1",
    "SELECT 1, 'a' INTO ANSWER A, ANSWER B WHERE x IN (SELECT x FROM T) CHOOSE 2",
    "SELECT @uid, @hometown FROM User WHERE uid = 36513",
    "UPDATE T SET a = a + 1, b = 'x' WHERE id = 7",
    "DELETE FROM T WHERE a IS NOT NULL AND b <> 'z' AND c != 4 AND d <= 5",
    "ROLLBACK",
    # errors: lexical, syntactic, and the ones that quote a literal token
    "SELECT 'unterminated FROM T",
    "SELECT a FROM T WHERE a = ‘unterminated",
    "SELECT a FROM T WHERE a = @ 1",
    "SELECT a FROM T WHERE a = #",
    "SELECT a FROM T WHERE a = 5 5",
    "SELECT a FROM T WHERE a = 'x' 'y'",
    "SELECT a FROM T WHERE (a, 5) = 3",
    "SELECT a FROM T WHERE a = 1 + * 2",
    "SELECT a FROM T LIMIT 'ten'",
    "SELECT a FROM T LIMIT",
    "SELECT @v = 3 FROM T",
    "SELECT 1 INTO ANSWER A WHERE x IN (SELECT 2 INTO ANSWER B CHOOSE 1) CHOOSE 1",
    "INSERT INTO T VALUES (1, 2",
    "UPDATE T SET = 4",
    "FROB 12",
    "",
    # malformed numbers: the reference leaks ValueError (satellite bugfix)
    "SELECT a FROM T WHERE a = 1.2.3",
    "SELECT a FROM T WHERE a = 1..2",
    "SELECT a FROM T WHERE a = 5²",
    "SELECT a FROM T LIMIT 1.5",
    "SELECT 1 INTO ANSWER A WHERE x IN (SELECT x FROM T) CHOOSE 2.0",
]

TRANSACTIONS = [
    "BEGIN TRANSACTION; SELECT a AS @b FROM T WHERE id=3; "
    "UPDATE T SET a = a + 1 WHERE id=4; INSERT INTO U (k, v) VALUES (4, 1); COMMIT;",
    "BEGIN TRANSACTION WITH TIMEOUT 2 DAYS; SET @n = 6 - 3; COMMIT;",
    "BEGIN TRANSACTION WITH TIMEOUT 1.5 HOURS; ROLLBACK; COMMIT",
    "BEGIN TRANSACTION WITH TIMEOUT 90 SECONDS; SELECT 1; COMMIT;",
    "begin transaction; select a from T where a = 'x'; commit;",
    "BEGIN TRANSACTION; SELECT a FROM T WHERE a = 1",       # not closed
    "BEGIN TRANSACTION WITH TIMEOUT 'soon' DAYS; COMMIT;",
    "BEGIN TRANSACTION; SELECT 1; COMMIT; SELECT 2;",       # two units
    "SELECT 1;",                                            # no transaction
    "BEGIN TRANSACTION; SELECT a FROM T WHERE a = 1.2.3; COMMIT;",
]


@pytest.mark.parametrize("text", STATEMENTS + TRANSACTIONS)
def test_tokens_match_reference(text):
    assert_same(text, token_triples(tokenize), token_triples(reference.tokenize))


@pytest.mark.parametrize("text", STATEMENTS + TRANSACTIONS)
def test_parse_statement_matches_reference(text):
    assert_same(text, parse_statement, reference.parse_statement)


@pytest.mark.parametrize("text", STATEMENTS + TRANSACTIONS)
def test_parse_transaction_and_script_match_reference(text):
    assert_same(text, parse_transaction, reference.parse_transaction)
    assert_same(text, parse_script, reference.parse_script)


# ---------------------------------------------------------------------------
# Hypothesis: generated statements, shifted literals, damaged text
# ---------------------------------------------------------------------------


@st.composite
def statements(draw):
    kind = draw(st.sampled_from(["select", "insert", "update", "delete", "set"]))
    table = draw(identifiers)
    where = draw(st.one_of(st.none(), simple_exprs()))
    if kind == "select":
        items = tuple(
            SelectItem(draw(simple_exprs()), alias=draw(
                st.one_of(st.none(), st.sampled_from(["p", "q"]))))
            for _ in range(draw(st.integers(1, 3)))
        )
        return SelectStmt(
            items, (TableSource(table),), where,
            distinct=draw(st.booleans()),
            limit=draw(st.one_of(st.none(), st.integers(0, 9))),
        )
    if kind == "insert":
        values = tuple(Const(v) for v in draw(st.lists(literals, min_size=1, max_size=3)))
        return InsertStmt(table, (), values)
    if kind == "update":
        return UpdateStmt(table, (("x", draw(simple_exprs())),), where)
    if kind == "delete":
        return DeleteStmt(table, where)
    return SetStmt("v", draw(simple_exprs()))


def transaction_text(stmts) -> str:
    return unparse_transaction(TransactionProgram(tuple(stmts)))


@settings(max_examples=200, deadline=None)
@given(stmt=statements())
def test_property_statement_and_its_shifted_twin_match_reference(stmt):
    for node in (stmt, shifted(stmt)):
        text = unparse_statement(node)
        assert_same(text, token_triples(tokenize),
                    token_triples(reference.tokenize))
        assert_same(text, parse_statement, reference.parse_statement)


@settings(max_examples=100, deadline=None)
@given(stmts=st.lists(statements(), min_size=1, max_size=3))
def test_property_same_shape_shares_one_template(stmts):
    first = transaction_text(stmts)
    second = transaction_text(shifted(tuple(stmts)))
    a, b = parse_transaction(first), parse_transaction(second)
    assert a == reference.parse_transaction(first)
    assert b == reference.parse_transaction(second)
    # shifted() never flips a sign, so the two texts have one shape.
    assert a.template is b.template
    assert unparse_transaction(a) == unparse_transaction(
        reference.parse_transaction(first))


@settings(max_examples=300, deadline=None)
@given(
    stmt=statements(),
    position=st.integers(0, 200),
    junk=st.sampled_from(list("'\"`‘(),;.@-5x ") + ["--", "''", " 1.5 "]),
    replace=st.booleans(),
)
def test_property_damaged_text_fails_like_reference(stmt, position, junk, replace):
    text = unparse_statement(stmt)
    position %= len(text) + 1
    damaged = text[:position] + junk + text[position + replace:]
    assert_same(damaged, token_triples(tokenize),
                token_triples(reference.tokenize))
    assert_same(damaged, parse_statement, reference.parse_statement)
    assert_same("BEGIN TRANSACTION; " + damaged + "; COMMIT;",
                parse_transaction, reference.parse_transaction)


# ---------------------------------------------------------------------------
# Malformed numbers are SQL errors (satellite bugfix)
# ---------------------------------------------------------------------------


class TestMalformedNumbers:
    def test_second_dot_is_a_lex_error_at_the_number(self):
        sql = "SELECT a FROM T WHERE a = 1.2.3"
        with pytest.raises(LexError) as err:
            parse_statement(sql)
        assert err.value.position == sql.index("1.2.3")
        assert "1.2.3" in str(err.value)

    @pytest.mark.parametrize("sql, bad", [
        ("SELECT a FROM T LIMIT 1.5", "1.5"),
        ("SELECT 1 INTO ANSWER A WHERE x IN (SELECT x FROM T) CHOOSE 2.0", "2.0"),
    ])
    def test_fractional_count_is_a_parse_error_at_the_token(self, sql, bad):
        with pytest.raises(ParseError) as err:
            parse_statement(sql)
        assert err.value.position == sql.index(bad)
        assert "integer" in str(err.value)

    def test_integer_too_long_for_int_is_a_parse_error(self):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ParseError):
            parse_statement(f"SELECT a FROM T WHERE a = {digits}")

    def test_run_script_surfaces_a_repro_error(self):
        with make_db() as db:
            session = db.session("s")
            for bad in ("k = 1.2.3", "k = 1 LIMIT 1.5"):
                with pytest.raises(SQLError):
                    session.run_script(
                        f"BEGIN TRANSACTION; SELECT v FROM Items WHERE {bad}; COMMIT;")
            # ... and the session still works afterwards.
            assert session.run_script(script(1, 5)).wait().succeeded


# ---------------------------------------------------------------------------
# The template table
# ---------------------------------------------------------------------------


def make_db(**kwargs):
    db = connect(**kwargs)
    db.create_table(TableSchema.build(
        "Items",
        [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
        primary_key=["k"],
    ))
    db.load("Items", [(i, 10 * i) for i in range(64)])
    return db


def script(k: int, v: int) -> str:
    return f"""
        BEGIN TRANSACTION;
        SELECT v AS @old FROM Items WHERE k={k};
        UPDATE Items SET v = {v} WHERE k={k};
        COMMIT;
    """


def items(db) -> dict:
    return dict(db.query("SELECT k, v FROM Items"))


class TestTemplateTable:
    def test_same_shape_different_literals_share_one_template(self):
        a = parse_transaction(script(1, 5))
        b = parse_transaction(script(22, 7.5))
        assert a.template is b.template
        assert a.params == (1, 5, 1) and b.params == (22, 7.5, 22)
        assert a != b and a == parse_transaction(script(1, 5))
        assert hash(a) == hash(parse_transaction(script(1, 5)))

    def test_literal_view_and_engine_view(self):
        program = parse_transaction(script(3, -4))
        update = program.template[1]
        assert update.assignments == (("v", Param(1, negate=True)),)
        assert update.where == Cmp(CmpOp.EQ, Col("k"), Param(2))
        literal = program.statements[1]
        assert literal.assignments == (("v", Const(-4)),)
        assert literal.where == Cmp(CmpOp.EQ, Col("k"), Const(3))
        assert "Param" not in repr(program)
        assert repr(program) == repr(reference.parse_transaction(script(3, -4)))
        assert parse_transaction(unparse_transaction(program)) == program

    def test_numbers_consumed_as_syntax_stay_in_the_shape(self):
        def limited(n):
            return parse_transaction(
                f"BEGIN TRANSACTION; SELECT v FROM Items LIMIT {n}; COMMIT;")

        assert limited(1).template is limited(1).template
        assert limited(1).template is not limited(2).template
        assert limited(2).params == ()
        assert limited(2).statements[0].limit == 2
        one_day, two_days = (
            parse_transaction(
                f"BEGIN TRANSACTION WITH TIMEOUT {n} DAYS; ROLLBACK; COMMIT;")
            for n in (1, 2))
        assert (one_day.timeout_seconds, two_days.timeout_seconds) == (86400, 172800)

    def test_number_and_string_are_different_shapes(self):
        def where(literal):
            return parse_transaction(
                f"BEGIN TRANSACTION; DELETE FROM Items WHERE k = -{literal}; COMMIT;")

        assert where("5").template is where("6.5").template
        assert where("5").template is not where("'5'").template

    def test_statement_without_literals_is_shared_outright(self):
        assert parse_statement("SELECT k FROM Items") is parse_statement(
            "select  k  from Items -- same tokens")

    def test_table_stays_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(parser_module, "TEMPLATE_CAP", 8)
        parser_module._templates.clear()
        for i in range(80):
            parse_statement(f"SELECT c{i} FROM T WHERE k = {i}")
            assert len(parser_module._templates) <= 8
        assert len(parser_module._templates) == 8
        # Least recently *used* goes first: touch the oldest, add one.
        oldest = parse_statement("SELECT c72 FROM T WHERE k = 0")
        parse_statement("SELECT fresh FROM T WHERE k = 0")
        assert parse_statement("SELECT c72 FROM T WHERE k = 1").where.left is (
            oldest.where.left)

    def test_parse_errors_are_not_cached(self):
        parser_module._templates.clear()
        for _ in range(2):
            with pytest.raises(ParseError):
                parse_statement("SELECT a FROM T WHERE a = 5 5")
        assert not parser_module._templates


# ---------------------------------------------------------------------------
# Through the engine
# ---------------------------------------------------------------------------


class TestEngine:
    def test_compile_errors_are_not_cached(self):
        sql = ("BEGIN TRANSACTION; INSERT INTO Later (k) VALUES (1); "
               "SELECT k AS @k FROM Later WHERE k = 1; COMMIT;")
        with make_db() as db:
            failed = db.session("s").run_script(sql).wait()
            assert not failed.succeeded and "Later" in failed.abort_reason
            db.create_table(TableSchema.build(
                "Later", [("k", ColumnType.INTEGER)], primary_key=["k"]))
            again = db.session("s").run_script(sql).wait()
            assert again.succeeded and again.host_variables() == {"@k": 1}

    def test_env_holds_user_variables_only(self):
        with make_db() as db:
            handle = db.session("s").run_script(script(2, 99)).wait()
            assert handle.host_variables() == {"@old": 20}
            txn = db.engine.transaction(handle.handle)
            assert txn.program.params == (2, 99, 2)
            assert set(txn.env) == {"@old"}
            assert items(db)[2] == 99

    def test_ssi_aborted_script_retries_with_its_own_literals(self):
        with connect(isolation="serializable") as db:
            db.create_table(TableSchema.build(
                "Doctors",
                [("doc", ColumnType.INTEGER), ("ward", ColumnType.INTEGER),
                 ("oncall", ColumnType.INTEGER)],
                primary_key=["doc"], indexes=[["ward"]],
            ))
            db.load("Doctors", [(d, d // 4, 1) for d in range(8)])

            def sign_off(doc, mark):
                return f"""
                    BEGIN TRANSACTION;
                    SELECT oncall AS @o FROM Doctors WHERE ward={doc // 4};
                    UPDATE Doctors SET oncall = {mark} WHERE doc={doc};
                    COMMIT;
                """

            handles = [db.session(f"d{doc}").run_script(sign_off(doc, mark))
                       for doc, mark in ((0, 70), (1, 71), (2, 72))]
            assert handles[0]._txn.program.template is (
                handles[2]._txn.program.template)
            db.drain()
            assert all(h.succeeded for h in handles)
            assert sum(h.attempts for h in handles) > len(handles)
            assert sum(r.ssi_aborts for r in db.run_reports) > 0
            marks = dict(db.query("SELECT doc, oncall FROM Doctors"))
            assert [marks[d] for d in range(4)] == [70, 71, 72, 1]

    def test_pool_recovered_from_persisted_text_commits_the_same_rows(self):
        scripts = [script(k, 1000 + k) for k in range(8)]
        with make_db() as twin:
            for text in scripts:
                twin.session("s").run_script(text)
            twin.drain()
            expected = items(twin)

        db = make_db(config=EngineConfig(persist_state=True))
        for text in scripts:
            db.session("s").run_script(text)  # submitted, never run
        recovered, report = db.crash_and_recover()
        assert len(report.resubmitted) == len(scripts)
        recovered.drain()
        assert items(recovered) == expected
        recovered.close()

    def test_interactive_and_direct_statements_use_the_table(self):
        with make_db() as db:
            session = db.session("s")
            with session.transaction() as txn:
                txn.execute("UPDATE Items SET v = 1 WHERE k = 1")
                txn.execute("UPDATE Items SET v = 2 WHERE k = 2")
                assert txn.query("SELECT v FROM Items WHERE k = 1") == [(1,)]
                assert txn.query("SELECT v FROM Items WHERE k = 2") == [(2,)]
            assert db.query("SELECT v FROM Items WHERE k = 63") == [(630,)]


class TestSharedTemplateUnderThreads:
    def test_two_threads_compiling_one_template_agree_with_literals(self):
        """Parameters are per call, resolutions per template: concurrent
        compiles of one shared statement must not see each other's."""
        db = Database("d")
        db.create_table(TableSchema.build(
            "Items", [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
            primary_key=["k"]))
        sql = "SELECT v AS @v, k + {0} FROM Items WHERE k = {0} OR v = '{1}'"
        template = parse_transaction(
            f"BEGIN TRANSACTION; {sql.format(0, 'a')}; COMMIT;").template[0]
        failures: list = []

        def worker(base: int) -> None:
            try:
                for i in range(base, base + 400):
                    params = (i, i, f"s{i}")
                    got = compile_select(template, db, {}, params)
                    want = compile_select(
                        reference.parse_statement(sql.format(i, f"s{i}")), db, {})
                    if ((literal(got), got.bindings)
                            != (literal(want), want.bindings)):
                        failures.append((i, got, want))
            except Exception as exc:  # pragma: no cover - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(1000 * n,))
                       for n in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not failures
        assert len(template.resolutions) == 1

    def test_pool_executor_agrees_with_serial_execution(self):
        scripts = [script(k, 500 + k) for k in range(48)]

        def run(**kwargs):
            with make_db(**kwargs) as db:
                handles = [
                    db.session(f"c{i}").run_script(text)
                    for i, text in enumerate(scripts)
                ]
                assert len({id(h._txn.program.template) for h in handles}) == 1
                db.drain()
                assert all(h.succeeded for h in handles)
                return items(db), [h.host_variables() for h in handles]

        assert run(shards=2, executor="pool") == run(executor="serial")
