"""Unit tests for the IR, groundings (Figure 7), and answer relations."""

import pytest

from repro.entangled import (
    AnswerRelationSet,
    Atom,
    EntangledQuery,
    GroundAtom,
    Val,
    Var,
    check_arity_consistency,
    compile_body,
    ground,
)
from repro.errors import (
    AnswerRelationError,
    EntangledQueryError,
    RangeRestrictionError,
    SchemaError,
)


def mickey_query() -> EntangledQuery:
    return EntangledQuery(
        query_id="mickey",
        heads=(Atom("Reservation", (Val("Mickey"), Var("x"), Var("y"))),),
        postconditions=(Atom("Reservation", (Val("Minnie"), Var("x"), Var("y"))),),
        body_atoms=(Atom("Flights", (Var("x"), Var("y"), Val("LA"))),),
    )


def minnie_query() -> EntangledQuery:
    return EntangledQuery(
        query_id="minnie",
        heads=(Atom("Reservation", (Val("Minnie"), Var("z"), Var("w"))),),
        postconditions=(Atom("Reservation", (Val("Mickey"), Var("z"), Var("w"))),),
        body_atoms=(
            Atom("Flights", (Var("z"), Var("w"), Val("LA"))),
            Atom("Airlines", (Var("z"), Val("United"))),
        ),
    )


class TestIR:
    def test_range_restriction_enforced(self):
        with pytest.raises(RangeRestrictionError):
            EntangledQuery(
                query_id="bad",
                heads=(Atom("R", (Var("loose"),)),),
                postconditions=(),
                body_atoms=(Atom("T", (Var("x"),)),),
            )

    def test_postcondition_range_restriction(self):
        with pytest.raises(RangeRestrictionError):
            EntangledQuery(
                query_id="bad",
                heads=(Atom("R", (Var("x"),)),),
                postconditions=(Atom("R", (Var("loose"),)),),
                body_atoms=(Atom("T", (Var("x"),)),),
            )

    def test_head_required(self):
        with pytest.raises(SchemaError):
            EntangledQuery("q", (), (), (Atom("T", (Var("x"),)),))

    def test_choose_must_be_one(self):
        with pytest.raises(SchemaError):
            EntangledQuery(
                "q",
                heads=(Atom("R", (Var("x"),)),),
                postconditions=(),
                body_atoms=(Atom("T", (Var("x"),)),),
                choose=2,
            )

    def test_relations_introspection(self):
        query = minnie_query()
        assert query.answer_relations() == {"Reservation"}
        assert query.database_relations() == {"Airlines", "Flights"}

    def test_template_unification(self):
        ground_post = Atom("R", (Val("Minnie"), Var("x")))
        matching = Atom("R", (Val("Minnie"), Var("q")))
        clashing = Atom("R", (Val("Donald"), Var("q")))
        wrong_arity = Atom("R", (Val("Minnie"),))
        assert ground_post.unifies_with(matching)
        assert not ground_post.unifies_with(clashing)
        assert not ground_post.unifies_with(wrong_arity)

    def test_atom_ground(self):
        atom = Atom("R", (Val("Mickey"), Var("x")))
        assert atom.ground({"x": 122}) == GroundAtom("R", ("Mickey", 122))

    def test_atom_ground_unbound(self):
        atom = Atom("R", (Var("x"),))
        with pytest.raises(RangeRestrictionError):
            atom.ground({})

    def test_arity_consistency(self):
        with pytest.raises(AnswerRelationError):
            check_arity_consistency([
                EntangledQuery(
                    "a", (Atom("R", (Var("x"),)),), (),
                    (Atom("T", (Var("x"),)),)),
                EntangledQuery(
                    "b", (Atom("R", (Var("x"), Var("x"))),), (),
                    (Atom("T", (Var("x"),)),)),
            ])


class TestGrounding:
    def test_figure7b_mickey_groundings(self, figure1_db):
        # Figure 7(b): Mickey grounds to flights 122, 123, 124.
        groundings = ground(mickey_query(), figure1_db)
        heads = [g.heads[0].values for g in groundings]
        assert sorted(h[1] for h in heads) == [122, 123, 124]
        for g in groundings:
            assert g.heads[0].values[0] == "Mickey"
            assert g.postconditions[0].values[0] == "Minnie"
            # Same flight/date in head and postcondition.
            assert g.heads[0].values[1:] == g.postconditions[0].values[1:]

    def test_figure7b_minnie_groundings(self, figure1_db):
        # Minnie's join restricts to United: 122 and 123 only.
        groundings = ground(minnie_query(), figure1_db)
        assert sorted(g.heads[0].values[1] for g in groundings) == [122, 123]

    def test_grounding_reads_observed(self, figure1_db):
        seen = []
        ground(minnie_query(), figure1_db, read_observer=seen.append)
        assert sorted({access.table for access in seen}) == [
            "Airlines", "Flights",
        ]

    def test_grounding_reads_use_real_index_names(self, figure1_db):
        # Grounding reports index keys under the schema's own column
        # names, so lock resources match the writers'.
        from repro.storage import AccessKind

        seen = []
        ground(minnie_query(), figure1_db, read_observer=seen.append)
        key_accesses = [a for a in seen if a.kind is AccessKind.INDEX_KEY]
        assert key_accesses, "expected at least one index probe"
        for access in key_accesses:
            schema = figure1_db.table(access.table).schema
            assert schema.has_index(access.index)

    def test_deterministic_order(self, figure1_db):
        first = ground(mickey_query(), figure1_db)
        second = ground(mickey_query(), figure1_db)
        assert first == second

    def test_empty_body_rejected(self, figure1_db):
        query = EntangledQuery(
            "q", (Atom("R", (Val(1),)),), (), (Atom("T", (Var("x"),)),))
        stripped = EntangledQuery.__new__(EntangledQuery)
        object.__setattr__(stripped, "query_id", "q")
        object.__setattr__(stripped, "heads", query.heads)
        object.__setattr__(stripped, "postconditions", ())
        object.__setattr__(stripped, "body_atoms", ())
        object.__setattr__(stripped, "body_predicate", None)
        object.__setattr__(stripped, "choose", 1)
        object.__setattr__(stripped, "var_bindings", ())
        with pytest.raises(EntangledQueryError):
            compile_body(stripped, figure1_db)

    def test_repeated_variable_join(self, figure1_db):
        # Same variable twice in one atom: fno = dest never holds.
        query = EntangledQuery(
            "q",
            heads=(Atom("R", (Var("x"),)),),
            postconditions=(),
            body_atoms=(Atom("Airlines", (Var("x"), Var("x"))),),
        )
        assert ground(query, figure1_db) == []

    def test_params_feed_body_predicate(self, figure1_db):
        from repro.storage.expressions import Cmp, CmpOp, Col

        query = EntangledQuery(
            "q",
            heads=(Atom("R", (Var("x"),)),),
            postconditions=(),
            body_atoms=(Atom("Flights", (Var("x"), Var("y"), Var("d"))),),
            body_predicate=Cmp(CmpOp.EQ, Col("d"), Col("@dest")),
        )
        groundings = ground(query, figure1_db, params={"@dest": "Paris"})
        assert [g.heads[0].values[0] for g in groundings] == [235]


class TestAnswerRelations:
    def test_add_and_contains(self):
        answers = AnswerRelationSet()
        atom = GroundAtom("R", ("Mickey", 122))
        answers.add(atom)
        assert answers.contains(atom)
        assert not answers.contains(GroundAtom("R", ("Minnie", 122)))

    def test_arity_enforced(self):
        answers = AnswerRelationSet()
        answers.add(GroundAtom("R", (1, 2)))
        with pytest.raises(AnswerRelationError):
            answers.add(GroundAtom("R", (1,)))

    def test_satisfies(self):
        answers = AnswerRelationSet()
        a, b = GroundAtom("R", (1,)), GroundAtom("R", (2,))
        answers.add_all([a, b])
        assert answers.satisfies([a, b])
        assert not answers.satisfies([GroundAtom("R", (3,))])

    def test_iteration_deterministic(self):
        answers = AnswerRelationSet()
        answers.add(GroundAtom("B", (2,)))
        answers.add(GroundAtom("A", (1,)))
        answers.add(GroundAtom("A", (0,)))
        assert [str(a) for a in answers] == ["A(0)", "A(1)", "B(2)"]
