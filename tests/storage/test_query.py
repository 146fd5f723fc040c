"""Unit tests for select-project-join evaluation."""

import pytest

from repro.storage import (
    AccessKind,
    Cmp,
    CmpOp,
    Col,
    Const,
    ReadAccess,
    SPJQuery,
    TableRef,
    And,
    evaluate,
)
from repro.errors import CompileError


@pytest.fixture
def db(figure1_db):
    return figure1_db


def q(tables, select, names, where=None, **kwargs) -> SPJQuery:
    return SPJQuery(
        tables=tuple(tables),
        select=tuple(select),
        select_names=tuple(names),
        where=where,
        **kwargs,
    )


class TestSingleTable:
    def test_full_scan(self, db):
        plan = q([TableRef("Flights")], [Col("fno")], ["fno"])
        rows = evaluate(plan, db)
        assert [r[0] for r in rows] == [122, 123, 124, 235]

    def test_filter(self, db):
        plan = q(
            [TableRef("Flights")],
            [Col("fno")],
            ["fno"],
            where=Cmp(CmpOp.EQ, Col("dest"), Const("LA")),
        )
        assert [r[0] for r in evaluate(plan, db)] == [122, 123, 124]

    def test_projection_multiple(self, db):
        plan = q([TableRef("Flights")], [Col("fno"), Col("dest")], ["f", "d"],
                 where=Cmp(CmpOp.EQ, Col("fno"), Const(122)))
        assert evaluate(plan, db) == [(122, "LA")]

    def test_limit(self, db):
        plan = q([TableRef("Flights")], [Col("fno")], ["fno"], limit=2)
        assert len(evaluate(plan, db)) == 2

    def test_distinct(self, db):
        plan = q([TableRef("Flights")], [Col("dest")], ["dest"], distinct=True)
        assert sorted(r[0] for r in evaluate(plan, db)) == ["LA", "Paris"]


class TestJoins:
    def test_two_table_join(self, db):
        # Minnie's grounding: LA flights on United.
        plan = q(
            [TableRef("Flights", "F"), TableRef("Airlines", "A")],
            [Col("F.fno")],
            ["fno"],
            where=And(
                And(
                    Cmp(CmpOp.EQ, Col("F.dest"), Const("LA")),
                    Cmp(CmpOp.EQ, Col("F.fno"), Col("A.fno")),
                ),
                Cmp(CmpOp.EQ, Col("A.airline"), Const("United")),
            ),
        )
        assert sorted(r[0] for r in evaluate(plan, db)) == [122, 123]

    def test_cross_product_count(self, db):
        plan = q(
            [TableRef("Flights", "F"), TableRef("Airlines", "A")],
            [Col("F.fno"), Col("A.fno")],
            ["f", "a"],
        )
        assert len(evaluate(plan, db)) == 16

    def test_self_join_aliases(self, db):
        plan = q(
            [TableRef("Flights", "x"), TableRef("Flights", "y")],
            [Col("x.fno"), Col("y.fno")],
            ["a", "b"],
            where=And(
                Cmp(CmpOp.EQ, Col("x.fdate"), Col("y.fdate")),
                Cmp(CmpOp.LT, Col("x.fno"), Col("y.fno")),
            ),
        )
        assert evaluate(plan, db) == [(122, 124)]  # both on May 3

    def test_duplicate_aliases_rejected(self, db):
        with pytest.raises(CompileError):
            q([TableRef("Flights", "F"), TableRef("Airlines", "F")],
              [Col("F.fno")], ["fno"])


class TestAccessPaths:
    def test_pk_point_lookup(self, db):
        plan = q([TableRef("Flights")], [Col("dest")], ["dest"],
                 where=Cmp(CmpOp.EQ, Col("fno"), Const(124)))
        assert evaluate(plan, db) == [("LA",)]

    def test_secondary_index_used(self, db):
        # Flights has an index on dest; result must match a scan.
        plan = q([TableRef("Flights")], [Col("fno")], ["fno"],
                 where=Cmp(CmpOp.EQ, Col("dest"), Const("LA")))
        assert sorted(r[0] for r in evaluate(plan, db)) == [122, 123, 124]

    def test_join_binding_pushdown(self, db):
        # The A.fno = F.fno conjunct becomes a PK lookup on Airlines once
        # F is bound; verify correctness (the speedup is the bench's job).
        plan = q(
            [TableRef("Flights", "F"), TableRef("Airlines", "A")],
            [Col("F.fno"), Col("A.airline")],
            ["fno", "airline"],
            where=Cmp(CmpOp.EQ, Col("F.fno"), Col("A.fno")),
        )
        rows = dict(evaluate(plan, db))
        assert rows == {122: "United", 123: "United", 124: "USAir", 235: "Delta"}

    def test_params_bind_hostvars(self, db):
        plan = q([TableRef("Flights")], [Col("fno")], ["fno"],
                 where=Cmp(CmpOp.EQ, Col("dest"), Col("@dest")))
        assert [r[0] for r in evaluate(plan, db, params={"@dest": "Paris"})] == [235]


class TestReadObserver:
    def test_scan_reports_table_scan_only(self, db):
        plan = q([TableRef("Flights")], [Col("fno")], ["fno"])
        seen = []
        evaluate(plan, db, read_observer=seen.append)
        assert seen == [ReadAccess.scan("Flights")]

    def test_join_scan_reports_each_table_once(self, db):
        plan = q(
            [TableRef("Flights", "F"), TableRef("Airlines", "A")],
            [Col("F.fno")],
            ["fno"],
        )
        seen = []
        evaluate(plan, db, read_observer=seen.append)
        # The inner scan would repeat per outer row; accesses are deduped.
        assert seen == [ReadAccess.scan("Flights"), ReadAccess.scan("Airlines")]

    def test_pk_probe_reports_key_then_row(self, db):
        plan = q([TableRef("Flights")], [Col("dest")], ["dest"],
                 where=Cmp(CmpOp.EQ, Col("fno"), Const(124)))
        seen = []
        evaluate(plan, db, read_observer=seen.append)
        assert seen[0] == ReadAccess.index_key("Flights", ("fno",), (124,))
        assert seen[1].kind is AccessKind.ROW
        assert seen[1].table == "Flights"
        assert len(seen) == 2

    def test_pk_miss_still_reports_key(self, db):
        # Negative reads must report the probed key: the engine's S lock
        # on it keeps "no such row" repeatable (gap protection).
        plan = q([TableRef("Flights")], [Col("dest")], ["dest"],
                 where=Cmp(CmpOp.EQ, Col("fno"), Const(999)))
        seen = []
        assert evaluate(plan, db, read_observer=seen.append) == []
        assert seen == [ReadAccess.index_key("Flights", ("fno",), (999,))]

    def test_secondary_index_reports_key_and_rows(self, db):
        plan = q([TableRef("Flights")], [Col("fno")], ["fno"],
                 where=Cmp(CmpOp.EQ, Col("dest"), Const("LA")))
        seen = []
        rows = evaluate(plan, db, read_observer=seen.append)
        assert seen[0] == ReadAccess.index_key("Flights", ("dest",), ("LA",))
        row_accesses = [a for a in seen[1:] if a.kind is AccessKind.ROW]
        assert len(row_accesses) == len(rows) == 3

    def test_key_reported_before_rows(self, db):
        order = []
        plan = q([TableRef("Flights")], [Col("fno")], ["fno"],
                 where=Cmp(CmpOp.EQ, Col("dest"), Const("LA")))
        evaluate(plan, db, read_observer=lambda a: order.append(a.kind))
        assert order[0] is AccessKind.INDEX_KEY
        assert all(k is AccessKind.ROW for k in order[1:])

    def test_join_pushdown_reports_inner_keys(self, db):
        # A.fno = F.fno becomes a PK probe on Airlines per outer row.
        plan = q(
            [TableRef("Flights", "F"), TableRef("Airlines", "A")],
            [Col("F.fno"), Col("A.airline")],
            ["fno", "airline"],
            where=Cmp(CmpOp.EQ, Col("F.fno"), Col("A.fno")),
        )
        seen = []
        evaluate(plan, db, read_observer=seen.append)
        inner_keys = [
            a for a in seen
            if a.table == "Airlines" and a.kind is AccessKind.INDEX_KEY
        ]
        assert {a.key for a in inner_keys} == {(122,), (123,), (124,), (235,)}

    def test_observer_exception_aborts_evaluation(self, db):
        class Stop(Exception):
            pass

        def observer(access):
            raise Stop()

        plan = q([TableRef("Flights")], [Col("fno")], ["fno"])
        with pytest.raises(Stop):
            evaluate(plan, db, read_observer=observer)
