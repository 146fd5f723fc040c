"""Grounding on real column names equals grounding through the facade.

``_reference_positional.py`` is grounding as it stood while the compiled
body named columns by position and a facade over the provider renamed
them back.  The property: for every entangled query shape
``repro.workloads`` generates (the Appendix D query, the structure
workloads' coordination query) under drawn parameters, and for a family
of hand-built bodies over the same tables (repeated variables, constants,
range predicates, host variables), on a live ``Database``, a
``SnapshotDatabase``, the 2-shard union views live and at a vector, and
the same behind two worker processes — the two return **the same
groundings in the same order** after reporting **the same ``ReadAccess``
sequence**, hence hold the same locks under 2PL and the same SIREAD items
under ``SERIALIZABLE``.  Every snapshot in the property is one the live
tables have moved away from: a writer re-keys a flight and rewrites a
user between the readers' ``begin`` and their grounding.

Last, what the facade could not say: an atom whose arity is not its
relation's is an ``EntangledQueryError`` — on an empty relation too.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.entangled import Atom, EntangledQuery, Val, Var, compile_body, ground
from repro.errors import EntangledQueryError, ReproError
from repro.sql import parse_transaction
from repro.sql.ast import EntangledSelectStmt
from repro.sql.compiler import compile_entangled
from repro.storage import (
    Cmp,
    CmpOp,
    Col,
    Const,
    Database,
    ShardedStorageEngine,
    StorageEngine,
    TxnIsolation,
)
from repro.storage.expressions import conjoin
from repro.transport.process import ProcessShardedStorageEngine
from repro.workloads import SocialNetwork, TravelDatabase
from repro.workloads.programs import entangled_program
from repro.workloads.structures import cycle_structure, spoke_hub_structure
from repro.workloads.traveldb import AIRPORTS, travel_schema

import _reference_positional as reference

NETWORK = SocialNetwork(n_users=48, attachment=3, seed=11)
TRAVEL = TravelDatabase(NETWORK, seed=11)
USERS = NETWORK.users()
EDGES = NETWORK.friend_edges()
N_FLIGHTS = len(AIRPORTS) * (len(AIRPORTS) - 1) * TRAVEL.flights_per_route


class _Through:
    """What ``TravelDatabase.populate`` asks of a ``Database``, answered
    by a store: DDL fans out to every shard and the load is WAL-logged."""

    def __init__(self, store):
        self.has_table = store.db.has_table
        self.create_table = store.create_table
        self.load = store.load


STORES = {
    "engine": StorageEngine,
    "sharded": lambda: ShardedStorageEngine(2),
    "process": lambda: ProcessShardedStorageEngine(2),
}


@pytest.fixture(scope="module", params=list(STORES))
def store(request):
    built = STORES[request.param]()
    try:
        TRAVEL.populate(_Through(built))
        yield built
    finally:
        built.close()


# -- the queries --------------------------------------------------------------------------


def _entangled_queries(program: str, db) -> list[EntangledQuery]:
    """The IR of every entangled statement of one workload program."""
    return [
        compile_entangled(stmt, db, {}, f"q{i}")
        for i, stmt in enumerate(parse_transaction(program).statements)
        if isinstance(stmt, EntangledSelectStmt)
    ]


@st.composite
def workload_queries(draw):
    """``db -> [EntangledQuery]``: one program of ``repro.workloads``."""
    kind = draw(st.sampled_from(["appendix-d", "appendix-d", "spoke-hub", "cycle"]))
    if kind == "appendix-d":
        # Friends or strangers, sharing a hometown or not, or nobody at all.
        uid, friend = draw(st.one_of(
            st.sampled_from(EDGES),
            st.tuples(st.sampled_from(USERS), st.sampled_from(USERS + [10_000])),
        ))
        program = entangled_program(
            uid, friend, draw(st.sampled_from(AIRPORTS)),
            draw(st.sampled_from(AIRPORTS)))
        return lambda db: _entangled_queries(program, db)
    build = spoke_hub_structure if kind == "spoke-hub" else cycle_structure
    items = build(TRAVEL, draw(st.integers(2, 4)), draw(st.integers(0, 5)))
    program = draw(st.sampled_from(items)).program
    return lambda db: _entangled_queries(program, db)


#: per relation and position, the constants a hand-built atom may carry.
DOMAINS = {
    "User": (USERS[:6] + [10_000], AIRPORTS[:4]),
    "Friends": (USERS[:6], USERS[:6]),
    "Flight": (AIRPORTS[:4], AIRPORTS[:4], [1, 2, 7, N_FLIGHTS, N_FLIGHTS + 5]),
    "Reserve": (USERS[:3], [1, 2]),
}
#: variables by the type of the positions they may stand in, so a
#: repeated variable joins columns of one type.
INT_VARS, TEXT_VARS = ("a", "b", "c"), ("s", "t")
INT_POSITIONS = {("User", 0), ("Friends", 0), ("Friends", 1), ("Flight", 2),
                 ("Reserve", 0), ("Reserve", 1)}


@st.composite
def built_queries(draw):
    """``(db -> [EntangledQuery], params)``: a body of 1-3 atoms over the
    travel tables, with a residual predicate over its integer variables."""
    atoms = []
    for relation in draw(st.lists(st.sampled_from(sorted(DOMAINS)), min_size=1, max_size=3)):
        terms = []
        for position, domain in enumerate(DOMAINS[relation]):
            if draw(st.integers(0, 2)) == 0:
                terms.append(Val(draw(st.sampled_from(domain))))
            else:
                pool = INT_VARS if (relation, position) in INT_POSITIONS else TEXT_VARS
                terms.append(Var(draw(st.sampled_from(pool))))
        atoms.append(Atom(relation, tuple(terms)))
    bound = sorted({t.name for atom in atoms for t in atom.terms if isinstance(t, Var)})
    conjuncts = []
    for name in bound:
        if name in INT_VARS and draw(st.booleans()):
            other = draw(st.sampled_from(
                [Const(draw(st.integers(0, 12))), Col("@h")]
                + [Col(v) for v in bound if v in INT_VARS and v != name]))
            op = draw(st.sampled_from(
                [CmpOp.LT, CmpOp.LE, CmpOp.GT, CmpOp.GE, CmpOp.EQ, CmpOp.NE]))
            conjuncts.append(Cmp(op, Col(name), other))
    query = EntangledQuery(
        query_id="built",
        heads=(Atom("Ans", tuple(Var(v) for v in bound) or (Val(1),)),),
        postconditions=(),
        body_atoms=tuple(atoms),
        body_predicate=conjoin(conjuncts),
    )
    params = draw(st.sampled_from([None, {"@h": 3}, {"@h": None}]))
    return (lambda db: [query]), params


CASES = st.one_of(
    workload_queries().map(lambda build: (build, None)), built_queries())


# -- the comparison ---------------------------------------------------------------------------


class _Recorder:
    """A read observer that remembers what it was told, then tells
    ``inner`` (the store's own observer: locks, or the SSI read set)."""

    def __init__(self, inner=None):
        self.seen: list = []
        self._inner = inner

    def __call__(self, access) -> None:
        self.seen.append(access)
        if self._inner is not None:
            self._inner(access)


class _BatchRecorder(_Recorder):
    """One that takes a range leaf's rows as a batch."""

    def many(self, table, rids, path) -> None:
        self.seen.append(("many", table, tuple(rids), path))


def outcome(run):
    """The groundings, or the class of what grounding raised (a
    comparison between a number and a NULL host variable's column)."""
    try:
        return run()
    except ReproError as exc:
        return type(exc)


def _churn(store, flight: int, uid: int) -> None:
    """Commit a re-key of one flight (its ``source`` is indexed) and a
    rewrite of one user: what a snapshot begun before this must not see."""
    writer = store.begin()
    row = store.db.table("Flight").lookup_pk((flight,))
    source = AIRPORTS[(AIRPORTS.index(row.values[0]) + 1) % len(AIRPORTS)]
    store.update(writer, "Flight", row.rid, (source, *row.values[1:]))
    row = store.db.table("User").lookup_pk((uid,))
    store.update(writer, "User", row.rid, (uid, AIRPORTS[(flight + uid) % 4]))
    store.commit(writer)


RELAXED = settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.mark.parametrize("isolation", list(TxnIsolation), ids=lambda i: i.value)
@RELAXED
@given(case=CASES, flight=st.integers(1, N_FLIGHTS), uid=st.sampled_from(USERS))
def test_same_groundings_accesses_locks_and_read_sets(
    store, isolation, case, flight, uid
):
    (build, params) = case
    queries = build(store.db)
    sides = {}
    txns = [store.begin(isolation), store.begin(isolation)]
    try:
        _churn(store, flight, uid)
        for txn, ground_with in zip(txns, (ground, reference.ground)):
            observe, provider = store.grounding_hooks(txn)
            recorder = _Recorder(observe)
            results = [
                outcome(lambda: ground_with(
                    query, provider or store.db, params=params,
                    read_observer=recorder))
                for query in queries
            ]
            sides[ground_with] = (
                results,
                recorder.seen,
                store.locks.held_resources(txn),
                set(store.ssi._txns[txn].reads),
            )
        assert sides[ground] == sides[reference.ground]
        _results, seen, held, reads = sides[ground]
        # The arms are not vacuous: 2PL locked what it saw, and only
        # SERIALIZABLE recorded it.
        assert bool(held) == (isolation is TxnIsolation.TWO_PL and bool(seen))
        assert bool(reads) == (
            isolation is TxnIsolation.SERIALIZABLE and bool(seen))
    finally:
        for txn in txns:
            store.abort(txn)


@settings(max_examples=60, deadline=None)
@given(case=CASES)
def test_same_groundings_and_batches_on_a_plain_database(case):
    """No engine: the provider is the ``Database`` itself and the
    observer takes range leaves as ``(table, rids, path)`` batches."""
    (build, params) = case
    db = Database("travel")
    TRAVEL.populate(db)
    sides = []
    for ground_with in (ground, reference.ground):
        recorder = _BatchRecorder()
        sides.append((
            [outcome(lambda: ground_with(
                query, db, params=params, read_observer=recorder))
             for query in build(db)],
            recorder.seen,
        ))
    assert sides[0] == sides[1]


# -- arity --------------------------------------------------------------------------------------


@pytest.mark.parametrize("loaded", [False, True], ids=["empty", "non-empty"])
@pytest.mark.parametrize("terms", [
    (Var("x"),), (Var("x"), Var("y"), Var("z")),
], ids=["too-few", "too-many"])
def test_an_atom_of_the_wrong_arity_is_rejected(loaded, terms):
    db = Database("travel")
    for schema in travel_schema():
        db.create_table(schema)
    if loaded:
        db.load("User", [(1, "LAX"), (2, "JFK")])
    query = EntangledQuery(
        "q", heads=(Atom("Ans", (Var("x"),)),), postconditions=(),
        body_atoms=(Atom("Friends", (Var("x"), Var("w"))), Atom("User", terms)))
    for run in (compile_body, ground):
        with pytest.raises(EntangledQueryError, match="User has"):
            run(query, db)
    assert not db.plans
