"""The store contract's oracle.

:class:`repro.storage.protocol.Store` declares what the middle tier may
call on a store; this module checks the declaration against the code
three ways:

* **completeness** — every ``store.<name>`` / ``self.store.<name>`` /
  ``self._store.<name>`` the ASTs of ``core/``, ``client.py`` and
  ``entangled/`` name — and of ``sim/costs.py``, the cost model that
  subscribes to the engine's run events — is a declared member, and
  every declared member is reached; removing a member or adding an
  undeclared call is a gap;
* **structure** — every store in ``src/`` satisfies the
  runtime-checkable Protocol;
* **conformance** — one scripted sequence per isolation is run, step by
  step, through the contract only, on the plain ``StorageEngine`` and on
  each of the four ensembles: rows, isolation-visible outcomes, the
  observer event stream and the topology-independent counters must
  agree after every step, through a crash and ``recover``; and an
  ensemble's ``metrics()`` must be its shards' lock, MVCC and version
  counters summed after every step.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import repro
from repro.errors import ReproError, StorageError
from repro.replication import ReplicatedStorageEngine
from repro.sql import parse_statement
from repro.sql.compiler import compile_select
from repro.storage import (
    ColumnType,
    ShardedStorageEngine,
    StorageEngine,
    TableSchema,
    TxnIsolation,
    shard_members,
)
from repro.storage import recovery
from repro.storage.engine import WouldBlock
from repro.storage.expressions import (
    Cmp,
    CmpOp,
    Col,
    Const,
    RowAssignments,
    RowPredicate,
)
from repro.storage.protocol import ShardEngine, Store
from repro.storage.query import evaluate
from repro.storage.row import Row
from repro.storage.store import METRICS, StoreBase
from repro.transport.process import spawn_workers

from _reference_bind import literal

SRC = Path(repro.__file__).parent
MIDDLE_TIER = sorted([
    *SRC.glob("core/*.py"), SRC / "client.py", *SRC.glob("entangled/*.py"),
    SRC / "sim" / "costs.py",
])

STORES = {
    "single": StorageEngine,
    "sharded1": lambda: ShardedStorageEngine(1),
    "sharded2": lambda: ShardedStorageEngine(2),
    "process2": lambda: ShardedStorageEngine(shards=spawn_workers(shard_members(2))),
    "replicated2": lambda: ReplicatedStorageEngine(2, replicas=1),
}


# -- completeness ------------------------------------------------------------------------

#: declared members the middle tier reaches by another route than an
#: attribute of something called ``store``.
REACHED_ELSEWHERE = {
    "recover": (recovery.recover, "engine.recover("),
}


def store_members() -> set[str]:
    declared = set(Store.__annotations__)
    declared |= {
        name for name, value in vars(Store).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or isinstance(value, property))
    }
    return declared


def store_calls(sources: dict[str, str]) -> dict[str, str]:
    """``{attribute: first place}`` for every attribute read off a name or
    an attribute called ``store`` / ``_store``."""
    calls: dict[str, str] = {}
    for path, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            named = (
                owner.id if isinstance(owner, ast.Name)
                else owner.attr if isinstance(owner, ast.Attribute) else None)
            if named in ("store", "_store"):
                calls.setdefault(node.attr, f"{path}:{node.lineno}")
    return calls


def contract_gaps(members: set[str], sources: dict[str, str]) -> list[str]:
    """Everything that keeps ``members`` from being exactly what the
    middle tier uses of a store."""
    calls = store_calls(sources)
    gaps = [f"{name} ({where}) is not a Store member"
            for name, where in sorted(calls.items()) if name not in members]
    for name in sorted(members - set(calls)):
        route = REACHED_ELSEWHERE.get(name)
        if route is None or route[1] not in inspect.getsource(route[0]):
            gaps.append(f"{name} is declared but nothing reaches it")
    return gaps


def middle_tier_sources() -> dict[str, str]:
    return {str(path.relative_to(SRC)): path.read_text() for path in MIDDLE_TIER}


def test_the_protocol_is_what_the_middle_tier_calls():
    assert contract_gaps(store_members(), middle_tier_sources()) == []


@pytest.mark.parametrize(
    "member", ["query", "grounding_hooks", "commit_vector", "n_shards", "locks"])
def test_removing_a_member_is_a_gap(member):
    gaps = contract_gaps(store_members() - {member}, middle_tier_sources())
    assert gaps and all(gap.startswith(f"{member} (") for gap in gaps), gaps


def test_an_undeclared_call_is_a_gap():
    sources = dict(middle_tier_sources(), **{
        "core/new.py": "def f(self):\n    return self.store.shards[0].oracle\n"})
    assert contract_gaps(store_members(), sources) == [
        "shards (core/new.py:2) is not a Store member"]


def test_the_middle_tier_never_asks_a_store_what_it_is():
    for path, text in middle_tier_sources().items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
                continue
            if node.func.id == "getattr":
                target = ast.unparse(node.args[0])
                assert "store" not in target, f"{path}:{node.lineno}"
            if node.func.id == "isinstance":
                asked = ast.unparse(node.args[1])
                assert "StorageEngine" not in asked, f"{path}:{node.lineno}"


# -- structure ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", STORES)
def test_every_store_satisfies_the_protocol(name):
    store = STORES[name]()
    try:
        assert isinstance(store, Store)
        assert not isinstance(store.db, Store)  # a catalog is not a store
    finally:
        store.close()


#: the counter members ``metrics()`` replaced.
COUNTER_MEMBERS = {
    ShardEngine: {"commit_count", "abort_count", "checkpoint_stats",
                  "mvcc_stats", "version_stats"},
    Store: {"ssi", "plan_stats", "cross_shard_commit_count",
            "follower_read_count", "version_stats"},
}


@pytest.mark.parametrize("protocol", COUNTER_MEMBERS, ids=lambda p: p.__name__)
def test_the_counters_are_one_reading(protocol):
    declared = set(protocol.__annotations__) | set(vars(protocol))
    assert "metrics" in declared
    assert not declared & COUNTER_MEMBERS[protocol]


@pytest.mark.parametrize("name", STORES)
def test_every_store_reads_every_key_and_zero_for_what_it_lacks(name):
    """Same keys, in :data:`METRICS` order, on every topology; a lone
    engine spans no shards and no store here has a follower but the
    replicated one."""
    store = STORES[name]()
    try:
        assert store.metrics() == dict.fromkeys(METRICS, 0)
        store.create_table(T)
        store.load("T", [(k, "ab"[k % 2], 0) for k in range(1, 13)])
        txn = store.begin(TxnIsolation.SNAPSHOT)
        store.read_table(txn, "T")
        store.commit(txn)
        reading = store.metrics()
        assert list(reading) == list(METRICS)
        assert reading["commits"] == 2 and reading["versions"] == 12
        assert reading["mvcc.snapshot_reads"] == 1
        if name == "single":
            assert reading["cross_shard_commits"] == 0
        if name != "replicated2":
            assert reading["follower_reads"] == 0
    finally:
        store.close()


@pytest.mark.parametrize("member", [
    "load", "query", "read_table", "grounding_hooks", "reads_from",
    "isolation_of", "status", "context", "serialization_doomed",
    "serialization_doomed_group", "_plan_hints", "_notify", "park_snapshot",
    "unpark_snapshot", "refresh_snapshot", "_context", "_merge_plan_stats",
])
def test_shared_members_have_one_body(member):
    """The sharded engines inherit the body — or put a guard in front of
    ``super()``'s (the replicated ``_context``'s failover check); the
    single engine defines at most a pass-through to it under its mutex."""
    for cls in (ShardedStorageEngine, ReplicatedStorageEngine):
        own = vars(cls).get(member)
        assert own is None or (
            f"return super().{member}(" in inspect.getsource(own)), cls.__name__
    own = vars(StorageEngine).get(member)
    if own is not None:
        shared = vars(StoreBase)[member]
        assert own.__wrapped__ is shared or (  # _locked(StoreBase.member)
            f"super().{member}(" in inspect.getsource(own)), member


# -- conformance -------------------------------------------------------------------------

T = TableSchema.build(
    "T",
    [("k", ColumnType.INTEGER), ("grp", ColumnType.TEXT),
     ("n", ColumnType.INTEGER)],
    primary_key=["k"], indexes=[["grp"]],
)
U = TableSchema.build(
    "U", [("k", ColumnType.INTEGER), ("tag", ColumnType.TEXT)],
    primary_key=["k"],
)


def k_is(k: int) -> RowPredicate:
    """``WHERE k = <k>``, keyed by the primary key as the compiler keys it."""
    return RowPredicate(T.column_names, Cmp(CmpOp.EQ, Col("k"), Const(k)),
                        key=(("k",), (k,), True))


class World:
    """One store under the script: the store (replaced by its crash
    successor), the transaction ids the steps name, the event stream."""

    def __init__(self, build):
        self.ids: dict[str, int] = {}
        self.events: list = []
        self.adopt(build())

    def adopt(self, store) -> None:
        self.store = store
        store.observers.append(lambda *event: self.events.append(event))

    def select(self, txn: str, sql: str):
        plan = literal(compile_select(parse_statement(sql), self.store.db, {}))
        return self.store.query(self.ids[txn], plan)

    def set_n(self, txn: str, k: int, n: int):
        """``UPDATE T SET n = <n> WHERE k = <k>`` as the executor ships it."""
        return self.store.update_where(
            self.ids[txn], "T", k_is(k),
            RowAssignments(T.column_names, ((2, Const(n)),)))

    def rid(self, k: int) -> int:
        return self.store.db.table("T").lookup_pk((k,)).rid

    def ground(self, txn: str, sql: str):
        """Evaluate the way grounding does: through the owner's hooks."""
        observer, provider = self.store.grounding_hooks(self.ids[txn])
        plan = literal(compile_select(parse_statement(sql), self.store.db, {}))
        before = self.store.metrics()["locks.acquired"]
        rows = evaluate(plan, provider or self.store.db, read_observer=observer)
        return (rows, provider is not None,
                self.store.metrics()["locks.acquired"] - before)

    def finish(self, txn: str):
        """Commit; a store that refuses gets the abort it asks for."""
        try:
            return sorted(self.store.commit(self.ids[txn]))
        except ReproError as exc:
            self.store.abort(self.ids[txn])
            return ("aborted", type(exc).__name__)


def begin(name: str, isolation):
    def step(w: World):
        w.ids[name] = w.store.begin(isolation)
        return w.ids[name]
    return step


def index_miss(w: World):
    """A probe no declared index covers: the error, class and message."""
    try:
        w.store.db.table("U").lookup_index(("tag",), ("t2",))
    except StorageError as exc:
        return type(exc).__name__, str(exc)
    return "no error"


def crash(w: World):
    dead = w.store
    w.adopt(dead.crash())
    dead.close()
    w.store.recover()


def script(iso) -> list:
    """``(name, step)``: a step takes the world and returns what the
    caller of the contract member sees."""
    s = lambda w: w.store  # noqa: E731
    return [
        ("create T", lambda w: s(w).create_table(T).schema),
        ("create U", lambda w: s(w).create_table(U).schema),
        ("load T", lambda w: s(w).load(
            "T", [(k, "ab"[k % 2], 0) for k in range(1, 13)])),
        ("load U", lambda w: s(w).load("U", [(k, f"t{k}") for k in range(1, 5)])),
        # -- the four access paths, read_table, the version annotation ------------------
        ("begin reader", begin("r", iso)),
        ("isolation_of", lambda w: s(w).isolation_of(w.ids["r"])),
        ("query pk", lambda w: w.select("r", "SELECT n FROM T WHERE k = 3")),
        ("query secondary", lambda w: w.select(
            "r", "SELECT k FROM T WHERE grp = 'a'")),
        ("query range", lambda w: w.select(
            "r", "SELECT k FROM T WHERE k >= 4 AND k < 9 ORDER BY k")),
        ("query range limit", lambda w: w.select(
            "r", "SELECT k FROM T WHERE k >= 2 ORDER BY k LIMIT 3")),
        ("query scan", lambda w: w.select("r", "SELECT k FROM T WHERE n >= 0")),
        ("read_table", lambda w: s(w).read_table(w.ids["r"], "U")),
        ("reads_from", lambda w: s(w).reads_from(w.ids["r"], "T")),
        ("plans", lambda w: part(s(w).metrics(), "plans.")),
        ("commit reader", lambda w: w.finish("r")),
        # -- the write verbs, a deferred flush, an abort ----------------------------------
        ("begin old", begin("old", iso)),
        ("begin writer", begin("w", iso)),
        ("insert", lambda w: s(w).insert(w.ids["w"], "T", (13, "b", 0))),
        ("update", lambda w: s(w).update(
            w.ids["w"], "T", w.rid(3), (3, "a", 7))),
        ("delete", lambda w: s(w).delete(w.ids["w"], "T", w.rid(12))),
        ("update_where", lambda w: w.set_n("w", 4, 9)),
        ("update_where miss", lambda w: w.set_n("w", 77, 9)),
        ("delete_where", lambda w: s(w).delete_where(
            w.ids["w"], "T", k_is(11)) and None),
        ("written_shards", lambda w: len(s(w).written_shards(w.ids["w"])) >= 1),
        ("commit unflushed", lambda w: sorted(
            s(w).commit(w.ids["w"], flush=False))),
        ("not durable yet", lambda w: w.ids["w"] in s(w).durably_committed_txns()),
        ("flush_commits", lambda w: s(w).flush_commits([w.ids["w"]])),
        ("durable", lambda w: w.ids["w"] in s(w).durably_committed_txns()),
        ("commit_vector", lambda w: s(w).commit_vector(w.ids["w"]) is None
            or len(s(w).commit_vector(w.ids["w"])) == s(w).n_shards),
        # ``old`` began before the writer committed: a snapshot still
        # reads the old rows and says whose version it saw.
        ("old reads", lambda w: w.select("old", "SELECT n FROM T WHERE k = 3")),
        ("old reads_from", lambda w: s(w).reads_from(w.ids["old"], "T")),
        ("commit old", lambda w: w.finish("old")),
        ("begin doomed", begin("x", iso)),
        ("doomed insert", lambda w: s(w).insert(w.ids["x"], "T", (99, "a", 0))),
        ("abort", lambda w: sorted(s(w).abort(w.ids["x"]))),
        # -- two transactions that each read what the other writes -----------------------
        ("begin a", begin("a", iso)),
        ("begin b", begin("b", iso)),
        ("a grounds k=1", lambda w: w.ground("a", "SELECT n FROM T WHERE k = 1")),
        ("b reads k=2", lambda w: w.select("b", "SELECT n FROM T WHERE k = 2")),
        ("a writes k=2", lambda w: w.set_n("a", 2, 21)),
        ("b writes k=1", lambda w: w.set_n("b", 1, 11)),
        ("waiting", lambda w: s(w).locks.waiting(w.ids["a"])),
        ("finish b", lambda w: w.finish("b")),
        ("a writes k=2 again", lambda w: w.set_n("a", 2, 21)),
        ("finish a", lambda w: w.finish("a")),
        ("ssi", lambda w: part(s(w).metrics(), "ssi.")),
        # -- the same pair as one commit group: validated before either commits ------------
        ("begin c", begin("c", iso)),
        ("begin d", begin("d", iso)),
        ("c reads k=9", lambda w: w.select("c", "SELECT n FROM T WHERE k = 9")),
        ("d reads k=10", lambda w: w.select("d", "SELECT n FROM T WHERE k = 10")),
        ("c writes k=10", lambda w: w.set_n("c", 10, 1)),
        ("d writes k=9", lambda w: w.set_n("d", 9, 1)),
        ("writing group", lambda w: s(w).serialization_doomed_group(
            [w.ids["c"], w.ids["d"]])),
        ("either alone", lambda w: (
            s(w).serialization_doomed_group([w.ids["c"]]),
            s(w).serialization_doomed_group([w.ids["d"]]))),
        ("abort c", lambda w: sorted(s(w).abort(w.ids["c"]))),
        ("abort d", lambda w: sorted(s(w).abort(w.ids["d"]))),
        # -- the snapshot lifetime of an idle session --------------------------------------
        ("begin idle", begin("p", iso)),
        ("park", lambda w: s(w).park_snapshot(w.ids["p"])),
        ("begin clean", begin("q", iso)),
        ("begin bump", begin("m", iso)),
        ("bump", lambda w: w.set_n("m", 5, 55)),
        ("commit bump", lambda w: w.finish("m")),
        ("unpark", lambda w: s(w).unpark_snapshot(w.ids["p"])),
        ("unparked reads", lambda w: w.select("p", "SELECT n FROM T WHERE k = 5")),
        ("park observed", lambda w: s(w).park_snapshot(w.ids["p"])),
        ("clean group", lambda w: s(w).serialization_doomed_group(
            [w.ids["p"], w.ids["q"]])),
        ("refresh", lambda w: s(w).refresh_snapshot(w.ids["q"])),
        ("refresh again", lambda w: s(w).refresh_snapshot(w.ids["q"])),
        ("pin", lambda w: s(w).pin_snapshot(w.ids["q"])),
        ("refreshed reads", lambda w: w.select("q", "SELECT n FROM T WHERE k = 5")),
        ("release_read_locks", lambda w: sorted(
            s(w).release_read_locks(w.ids["q"]))),
        ("commit idle", lambda w: w.finish("p")),
        ("commit clean", lambda w: w.finish("q")),
        # -- a probe no declared index covers -----------------------------------------------
        ("index miss", index_miss),
        # -- statistics: shapes, whatever the topology ---------------------------------------
        ("metrics keys", lambda w: tuple(s(w).metrics())),
        ("chain_histograms", lambda w: {
            name: sum(length * rids for length, rids in histogram.items()) > 0
            for name, histogram in s(w).chain_histograms().items()}),
        ("zero-valued defaults", lambda w: (
            s(w).metrics()["cross_shard_commits"] >= 0,
            s(w).metrics()["follower_reads"] >= 0,
            s(w).promotion_count, s(w).replication_lag() >= 0,
            all(n > 0 for n in s(w).read_probe_counts().values()))),
        # -- vacuum trims the committed-writer log reads_from walks ---------------------------
        ("vacuum", lambda w: s(w).vacuum() >= 0),
        ("writer log", lambda w: {
            name: len(log) for name, log in s(w)._table_writers.items()}),
        ("begin late", begin("late", iso)),
        ("late reads_from", lambda w: s(w).reads_from(w.ids["late"], "T")),
        ("commit late", lambda w: w.finish("late")),
        # -- checkpoint, then a commit the crash takes and one it does not --------------------
        ("checkpoint", lambda w: bool(s(w).checkpoint())),
        ("begin kept", begin("kept", iso)),
        ("kept writes", lambda w: w.set_n("kept", 6, 66)),
        ("kept commits", lambda w: w.finish("kept")),
        ("begin lost", begin("lost", iso)),
        ("lost writes", lambda w: w.set_n("lost", 7, 77)),
        ("lost commits", lambda w: sorted(
            s(w).commit(w.ids["lost"], flush=False))),
        ("crash and recover", crash),
        ("rows after", lambda w: list(s(w).db.table("T").scan())),
        # The recovered state is the new epoch's initial load.
        ("begin after reader", begin("after r", iso)),
        ("read after", lambda w: w.select("after r", "SELECT n FROM T WHERE k = 6")),
        ("reads_from after", lambda w: s(w).reads_from(w.ids["after r"], "T")),
        ("commit after reader", lambda w: w.finish("after r")),
        ("begin after", begin("after", iso)),
        ("write after", lambda w: w.set_n("after", 7, 78)),
        ("commit after", lambda w: w.finish("after")),
    ]


def part(reading: dict, prefix: str) -> dict:
    """The counters of one ``metrics()`` group."""
    return {key: value for key, value in reading.items()
            if key.startswith(prefix)}


#: what an ensemble's reading adds up from its shards' (``max_chain``:
#: the longest); the coordinator's own counts are the rest.
SUMMED = [key for key in METRICS if key.startswith("locks.")] + [
    "mvcc.write_conflicts", "mvcc.supersede_prunes", "versions"]


def assert_sums_its_shards(store) -> None:
    reading = store.metrics()
    members = [shard.metrics() for shard in store.shards]
    assert {key: reading[key] for key in SUMMED} == {
        key: sum(member[key] for member in members) for key in SUMMED}
    assert reading["max_chain"] == max(m["max_chain"] for m in members)


def plain(value):
    """What a step returned, without what legitimately differs between
    topologies: a rid names its shard, and rows reach the caller in rid
    order unless the query asked for another."""
    if isinstance(value, Row):
        return value.values
    if isinstance(value, tuple):
        return tuple(plain(item) for item in value)
    if isinstance(value, list):
        return [plain(item) for item in value]
    return value


def outcome(step, world, ordered: bool):
    try:
        value = plain(step(world))
    except WouldBlock as exc:  # a worker's too, rebuilt by the frame codec
        return ("WouldBlock", exc.txn, exc.resource)
    except ReproError as exc:
        return (type(exc).__name__,)
    if isinstance(value, list) and not ordered:
        return sorted(value, key=repr)
    return value


@pytest.mark.parametrize("name", [name for name in STORES if name != "single"])
@pytest.mark.parametrize("iso", list(TxnIsolation), ids=lambda iso: iso.value)
def test_every_store_agrees_with_the_plain_engine_step_by_step(iso, name):
    reference, candidate = World(STORES["single"]), World(STORES[name])
    seen = {}
    try:
        for step_name, step in script(iso):
            ordered = "range" in step_name
            want = seen[step_name] = outcome(step, reference, ordered)
            assert outcome(step, candidate, ordered) == want, step_name
            assert candidate.events == reference.events, f"after {step_name}"
            assert_sums_its_shards(candidate.store)
    finally:
        candidate.store.close()

    # The script reached what it set out to pin, on the reference too.
    snapshot = iso.uses_snapshot
    assert seen["query pk"] == [(0,)] and seen["query range"] == [
        (4,), (5,), (6,), (7,), (8,)]
    assert seen["reads_from"] == (1 if snapshot else None)  # load T's id
    assert seen["not durable yet"] is False and seen["durable"] is True
    assert seen["old reads"] == ([(0,)] if snapshot else [(7,)])
    rows, provided, locked = seen["a grounds k=1"]
    assert rows == [(0,)] and provided is snapshot
    assert (locked == 0) if snapshot else (locked > 0)
    assert seen["a writes k=2"][0] == (
        ((2, "a", 0), (2, "a", 21)) if snapshot else "WouldBlock")
    assert seen["b writes k=1"] == (
        ("DeadlockError",) if not snapshot else [((1, "b", 0), (1, "b", 11))])
    serializable = iso is TxnIsolation.SERIALIZABLE
    assert ("aborted", "SerializationFailureError") in (
        seen["finish a"], seen["finish b"]) or not serializable
    assert seen["writing group"] is serializable
    assert seen["either alone"] == (False, False)
    assert seen["park"] is snapshot and seen["park observed"] is False
    assert seen["refresh"] is snapshot and seen["refresh again"] is False
    assert seen["unparked reads"] == [(55,)]
    assert seen["refreshed reads"] == [(55,)]
    assert seen["metrics keys"] == METRICS
    assert seen["index miss"] == (
        "StorageError", "table 'U' declares no secondary index on ('tag',)")
    assert seen["writer log"] == {"T": 1, "U": 1}
    assert seen["checkpoint"] is True
    assert seen["read after"] == [(66,)]
    assert seen["reads_from after"] == (0 if snapshot else None)
    after = {values[0]: values[2] for values in seen["rows after"]}
    assert after[6] == 66 and after[7] == 0 and 11 not in after and 13 in after
