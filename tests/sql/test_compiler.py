"""Unit tests for SQL compilation: classical plans and entangled IR."""

import pytest

from repro.entangled.ir import Val, Var
from repro.errors import CompileError, UnknownColumnError
from repro.sql import (
    compile_delete,
    compile_entangled,
    compile_insert,
    compile_select,
    compile_update,
    parse_statement,
)
from repro.storage import ColumnType, TableSchema, evaluate

from _reference_bind import literal


@pytest.fixture
def db(figure1_db):
    figure1_db.create_table(TableSchema.build(
        "Reserve", [("uid", ColumnType.INTEGER), ("fid", ColumnType.INTEGER)],
    ))
    figure1_db.create_table(TableSchema.build(
        "User", [("uid", ColumnType.INTEGER), ("hometown", ColumnType.TEXT)],
        primary_key=["uid"],
    ))
    figure1_db.load("User", [(1, "FAT"), (2, "FAT"), (3, "CAT")])
    return figure1_db


class TestCompileSelect:
    def test_simple(self, db):
        compiled = compile_select(
            parse_statement("SELECT fno FROM Flights WHERE dest='LA'"),
            db, {})
        rows = evaluate(literal(compiled), db)
        assert [r[0] for r in rows] == [122, 123, 124]

    def test_star_expansion(self, db):
        compiled = compile_select(parse_statement("SELECT * FROM Airlines"), db, {})
        assert len(literal(compiled).select) == 2

    def test_bare_hostvar_items_bind_like_named_columns(self, db):
        compiled = compile_select(
            parse_statement("SELECT @uid, @hometown FROM User WHERE uid=2"),
            db, {})
        assert compiled.bindings == (("@uid", 0), ("@hometown", 1))
        assert evaluate(literal(compiled), db) == [(2, "FAT")]

    def test_as_hostvar_binding(self, db):
        compiled = compile_select(
            parse_statement("SELECT fno AS @f FROM Flights WHERE dest='Paris'"),
            db, {})
        assert compiled.bindings == (("@f", 0),)

    def test_hostvar_inlined_in_where(self, db):
        compiled = compile_select(
            parse_statement("SELECT fno FROM Flights WHERE dest=@d"),
            db, {"@d": "Paris"})
        assert [r[0] for r in evaluate(literal(compiled), db)] == [235]

    def test_unbound_hostvar_rejected(self, db):
        with pytest.raises(CompileError):
            compile_select(
                parse_statement("SELECT fno FROM Flights WHERE dest=@d"),
                db, {})

    def test_ambiguous_bare_column_rejected(self, db):
        with pytest.raises(CompileError):
            compile_select(
                parse_statement(
                    "SELECT fno FROM Flights, Airlines"),
                db, {})

    def test_qualified_disambiguation(self, db):
        compiled = compile_select(
            parse_statement(
                "SELECT Flights.fno FROM Flights, Airlines "
                "WHERE Flights.fno = Airlines.fno AND airline='Delta'"),
            db, {})
        assert [r[0] for r in evaluate(literal(compiled), db)] == [235]

    def test_unknown_column(self, db):
        with pytest.raises(UnknownColumnError):
            compile_select(
                parse_statement("SELECT ghost FROM Flights"), db, {})

    def test_in_subquery_rewritten(self, db):
        compiled = compile_select(
            parse_statement(
                "SELECT fno FROM Flights WHERE fno IN "
                "(SELECT fno FROM Airlines WHERE airline='United')"),
            db, {})
        # The subquery runs first; the outer query tests its rows.
        values = compiled.values
        for key, subquery in compiled.subqueries:
            values[key] = evaluate(subquery.query, db, values, bound=subquery)
        rows = evaluate(compiled.query, db, values, bound=compiled.bound)
        assert [r[0] for r in rows] == [122, 123]

    def test_tableless_select(self, db):
        compiled = compile_select(parse_statement("SELECT 1 AS one"), db, {})
        assert evaluate(literal(compiled), db) == [(1,)]


class TestCompileDml:
    def test_insert_named_columns(self, db):
        compiled = compile_insert(
            parse_statement("INSERT INTO Reserve (uid, fid) VALUES (1, 2)"),
            db, {})
        assert compiled.values == (1, 2)

    def test_insert_column_reorder(self, db):
        compiled = compile_insert(
            parse_statement("INSERT INTO Reserve (fid, uid) VALUES (2, 1)"),
            db, {})
        assert compiled.values == (1, 2)

    def test_insert_hostvars(self, db):
        compiled = compile_insert(
            parse_statement("INSERT INTO Reserve VALUES (@u, @f)"),
            db, {"@u": 7, "@f": 9})
        assert compiled.values == (7, 9)

    def test_insert_arity_error(self, db):
        with pytest.raises(CompileError):
            compile_insert(
                parse_statement("INSERT INTO Reserve VALUES (1)"), db, {})

    def test_update_compiles(self, db):
        compiled = compile_update(
            parse_statement("UPDATE User SET hometown='LAX' WHERE uid=1"),
            db, {})
        assert compiled.assignments.assigned_columns() == {"hometown"}

    def test_delete_compiles(self, db):
        compiled = compile_delete(
            parse_statement("DELETE FROM Reserve WHERE uid=@u"), db, {"@u": 1})
        assert compiled.table == "Reserve"


class TestCompileEntangled:
    MICKEY = """
        SELECT 'Mickey', fno, fdate INTO ANSWER Reservation
        WHERE fno, fdate IN
            (SELECT fno, fdate FROM Flights WHERE dest='LA')
        AND ('Minnie', fno, fdate) IN ANSWER Reservation
        CHOOSE 1
    """
    MINNIE = """
        SELECT 'Minnie', fno, fdate INTO ANSWER Reservation
        WHERE fno, fdate IN
            (SELECT fno, fdate FROM Flights F, Airlines A WHERE
             F.dest='LA' and F.fno = A.fno AND A.airline = 'United')
        AND ('Mickey', fno, fdate) IN ANSWER Reservation
        CHOOSE 1
    """

    def test_figure7_mickey_shape(self, db):
        # {R(Minnie, x, y)} R(Mickey, x, y) <- F(x, y, LA)
        query = compile_entangled(parse_statement(self.MICKEY), db, {}, "m")
        assert query.heads[0].relation == "Reservation"
        assert query.heads[0].terms[0] == Val("Mickey")
        assert isinstance(query.heads[0].terms[1], Var)
        assert query.postconditions[0].terms[0] == Val("Minnie")
        assert len(query.body_atoms) == 1
        atom = query.body_atoms[0]
        assert atom.relation == "Flights"
        assert atom.terms[2] == Val("LA")
        # Head variables are exactly the body's fno/fdate variables.
        assert query.heads[0].terms[1] == atom.terms[0]
        assert query.heads[0].terms[2] == atom.terms[1]

    def test_figure7_minnie_shape(self, db):
        # {R(Mickey, z, w)} R(Minnie, z, w) <- F(z,w,LA) ∧ A(z, United)
        query = compile_entangled(parse_statement(self.MINNIE), db, {}, "n")
        relations = sorted(a.relation for a in query.body_atoms)
        assert relations == ["Airlines", "Flights"]
        airlines = next(a for a in query.body_atoms if a.relation == "Airlines")
        flights = next(a for a in query.body_atoms if a.relation == "Flights")
        assert airlines.terms[1] == Val("United")
        assert flights.terms[2] == Val("LA")
        # The join F.fno = A.fno is a shared variable.
        assert flights.terms[0] == airlines.terms[0]

    def test_hostvars_become_constants(self, db):
        sql = """
            SELECT 'Mickey', hid, @ArrivalDay INTO ANSWER HotelRes
            WHERE hid IN (SELECT hid FROM Hotels WHERE location='LA')
            AND ('Minnie', hid, @ArrivalDay) IN ANSWER HotelRes
            CHOOSE 1
        """
        query = compile_entangled(
            parse_statement(sql), db, {"@ArrivalDay": "May 3"}, "m")
        assert query.heads[0].terms[2] == Val("May 3")
        assert query.postconditions[0].terms[2] == Val("May 3")

    def test_unbound_hostvar_rejected(self, db):
        sql = """
            SELECT 'Mickey', hid, @Ghost INTO ANSWER HotelRes
            WHERE hid IN (SELECT hid FROM Hotels)
            AND ('Minnie', hid) IN ANSWER HotelRes
            CHOOSE 1
        """
        with pytest.raises(CompileError):
            compile_entangled(parse_statement(sql), db, {}, "m")

    def test_var_bindings_recorded(self, db):
        sql = """
            SELECT 'Mickey', fno AS @f, fdate AS @d INTO ANSWER R
            WHERE fno, fdate IN (SELECT fno, fdate FROM Flights)
            AND ('Minnie', fno, fdate) IN ANSWER R
            CHOOSE 1
        """
        query = compile_entangled(parse_statement(sql), db, {}, "m")
        assert ("@f", 0, 1) in query.var_bindings
        assert ("@d", 0, 2) in query.var_bindings

    def test_residual_predicate_from_subquery(self, db):
        sql = """
            SELECT 'Mickey', fno INTO ANSWER R
            WHERE fno IN (SELECT fno FROM Flights WHERE dest='LA' AND fno > 122)
            AND ('Minnie', fno) IN ANSWER R
            CHOOSE 1
        """
        query = compile_entangled(parse_statement(sql), db, {}, "m")
        assert query.body_predicate is not None

    def test_appendix_d_entangled_query(self, db):
        db.create_table(TableSchema.build(
            "Friends", [("uid1", ColumnType.INTEGER), ("uid2", ColumnType.INTEGER)],
        ))
        db.load("Friends", [(1, 2), (2, 1)])
        sql = """
            SELECT 1 AS @uid, 'CAT' AS @destination INTO ANSWER Reserve
            WHERE (1, 2) IN
                (SELECT uid1, uid2 FROM Friends, User as u1, User as u2
                 WHERE Friends.uid1=1 AND Friends.uid2=2
                 AND u1.uid=1 AND u2.uid=2 AND u1.hometown=u2.hometown)
            AND (2, 'PHF') IN ANSWER Reserve
            CHOOSE 1
        """
        query = compile_entangled(parse_statement(sql), db, {}, "e")
        assert query.heads[0].terms == (Val(1), Val("CAT"))
        assert query.postconditions[0].terms == (Val(2), Val("PHF"))
        relations = sorted(a.relation for a in query.body_atoms)
        assert relations == ["Friends", "User", "User"]

    def test_tuple_arity_mismatch(self, db):
        sql = """
            SELECT 'M', fno INTO ANSWER R
            WHERE fno, fdate IN (SELECT fno FROM Flights)
            AND ('N', fno) IN ANSWER R
            CHOOSE 1
        """
        with pytest.raises(CompileError):
            compile_entangled(parse_statement(sql), db, {}, "m")
