"""The shard-engine contract's oracle.

:mod:`repro.storage.protocol` declares what a shard must provide; this
module checks the declaration against the code three ways:

* **conformance** — one scripted behavioural sequence is run, step by
  step, on shard 1 of 2 built in process (``StorageEngine.shard_member``)
  and on the same shard behind a real worker (``RemoteShardEngine``):
  every return value, the durable WAL and every statistic must agree
  after every step, through a SIGKILL, a restart and ``recover``;
* **structure** — every implementation in ``src/`` satisfies the
  runtime-checkable Protocols, and a table view is its seven members:
  what a schema can answer, no view answers;
* **completeness** — the verb table says exactly what the contract
  says: every row names a real member of a real shard engine, every
  contract member of a proxy class is either answered locally or has a
  row, and no row is unreachable from the proxies.
"""

from __future__ import annotations

import inspect
import re

import pytest

from repro.errors import DuplicateKeyError, SnapshotTooOldError, WriteConflictError
from repro.storage import (
    ColumnType,
    ReadAccess,
    RowId,
    ShardedStorageEngine,
    StorageEngine,
    TableSchema,
    TxnIsolation,
)
from repro.storage.engine import WouldBlock
from repro.storage.locks import index_key_resource, table_resource
from repro.storage.expressions import (
    Arith,
    ArithOp,
    Cmp,
    CmpOp,
    Col,
    Const,
    RowAssignments,
    RowPredicate,
)
from repro.storage.protocol import ShardEngine, TableView
from repro.storage.table import Table
from repro.transport import proxy
from repro.transport.process import ProcessShardedStorageEngine
from repro.transport.proxy import RemoteShardEngine, RemoteTableView
from repro.transport.verbs import VERBS, Target, members_of

SCHEMA = TableSchema.build(
    "T",
    [("k", ColumnType.INTEGER), ("grp", ColumnType.TEXT),
     ("n", ColumnType.INTEGER)],
    primary_key=["k"], indexes=[["grp"]],
)
COLUMNS = SCHEMA.column_names
IDX, N_SHARDS = 1, 2
TWO_PL, SNAPSHOT = TxnIsolation.TWO_PL, TxnIsolation.SNAPSHOT


def eq(column, value):
    return Cmp(CmpOp.EQ, Col(column), Const(value))


def bump(shard, txn, where):
    """``UPDATE T SET n = n + 1 WHERE <where>``, as the interpreter ships it."""
    return shard.update_where(
        txn, "T", RowPredicate(COLUMNS, where),
        RowAssignments(COLUMNS, ((2, Arith(ArithOp.ADD, Col("n"), Const(1))),)),
        where,
    )


def begin(shard, isolation, txn, read_ts=None):
    return shard.begin(isolation, txn_id=txn, read_ts=read_ts)


def outcome(step, shard):
    """A step's return value — or, for the errors the contract lets a
    shard raise at its caller, what the caller can tell them apart by."""
    try:
        value = step(shard)
    except WouldBlock as exc:  # RemoteWouldBlock is one
        return ("WouldBlock", exc.txn, exc.resource)
    except (DuplicateKeyError, SnapshotTooOldError, WriteConflictError) as exc:
        return (type(exc).__name__,)
    return value


def observe(shard):
    """Everything a coordinator can read off a shard without changing it.
    The first read is a round trip for a remote shard, so what follows
    are mirrors as of a response that ran after every earlier step."""
    return {
        "waiting": shard.locks.waiting(0),
        "commit_ts": shard.oracle.last_commit_ts,
        "last_lsn": shard.wal.last_lsn,
        "flushed_lsn": shard.wal.flushed_lsn,
        "durable": list(shard.wal.records(durable_only=True)),
        "commits": shard.commit_count,
        "aborts": shard.abort_count,
        "checkpoints": dict(shard.checkpoint_stats),
        "locks": dict(shard.locks.stats),
        "versions": shard.version_stats(),
        "chains": shard.chain_histograms(),
        "mvcc": dict(shard.mvcc_stats),
        "tables": shard.db.table_names(),
        "rows": {name: list(shard.db.table(name).scan())
                 for name in shard.db.table_names()},
    }


def view_probes(txn, read_ts):
    """One step per data method of ``snapshot_view``."""
    def probe(read):
        return lambda shard: read(shard.snapshot_view("T", txn, read_ts))
    return [
        ("view.scan", probe(lambda v: list(v.scan()))),
        ("view.len", probe(len)),
        ("view.lookup_pk", probe(lambda v: v.lookup_pk((2,)))),
        ("view.lookup_pk miss", probe(lambda v: v.lookup_pk((77,)))),
        ("view.lookup_index", probe(lambda v: v.lookup_index(("grp",), ("a",)))),
        ("view.range_scan", probe(lambda v: v.range_scan(("k",), (2,), (8,)))),
        ("view.range_scan limit/reverse", probe(lambda v: v.range_scan(
            ("k",), (1,), None, hi_inc=False, reverse=True, limit=2))),
    ]


#: what a second writer of ``k = 1`` has to wait for.
PK_1 = index_key_resource("T", ("k",), (1,))

BEFORE_CRASH = [
    ("create_table", lambda s: s.create_table(SCHEMA).schema, SCHEMA),
    # -- imposed id, a first writer, prepare, deferred flush -----------------------
    ("begin 2pl", lambda s: begin(s, TWO_PL, 1)),
    *[(f"insert {k}", lambda s, k=k: s.insert(1, "T", (k, "ab"[k % 2], 0)))
      for k in range(1, 9)],
    ("prepare", lambda s: s.prepare(1)),
    ("prepare unknown", lambda s: s.prepare(404)),
    ("commit unflushed", lambda s: s.commit(1, flush=False)),
    ("wal.flush", lambda s: s.wal.flush()),
    # -- an old snapshot that will be vacuumed away under its reader ----------------
    ("begin snapshot @1", lambda s: begin(s, SNAPSHOT, 2, read_ts=1)),
    # -- statement verbs and their return shapes ----------------------------------------
    ("begin writer", lambda s: begin(s, TWO_PL, 3)),
    ("update_where pk", lambda s: bump(s, 3, eq("k", 1))),
    ("update_where index", lambda s: bump(s, 3, eq("grp", "a"))),
    ("update_where miss", lambda s: bump(s, 3, eq("k", 77))),
    ("delete_where", lambda s: s.delete_where(
        3, "T", RowPredicate(COLUMNS, eq("k", 8)), eq("k", 8))),
    ("lock_write_candidates", lambda s: s.lock_write_candidates(
        3, "T", eq("grp", "b"))),
    ("update by rid", lambda s: s.update(3, "T", 2, (1, "b", 40))),
    ("delete by rid", lambda s: s.delete(3, "T", 6)),
    # -- a blocked write: the wait is enqueued, then withdrawn --------------------------
    ("begin blocked", lambda s: begin(s, TWO_PL, 4)),
    ("blocked write", lambda s: bump(s, 4, eq("k", 1)),
     ("WouldBlock", 4, PK_1)),
    ("waiting", lambda s: s.locks.waiting(4), True),
    ("waits_edges", lambda s: s.locks.waits_edges(), {4: {3}}),
    ("held", lambda s: PK_1 in s.locks.held_resources(3), True),
    ("cancel_wait", lambda s: s.locks.cancel_wait(4, PK_1), True),
    ("not waiting", lambda s: s.locks.waiting(4), False),
    ("abort blocked", lambda s: s.abort(4)),
    ("scan read blocked", lambda s: (
        begin(s, TWO_PL, 5), s.lock_read_access(5, ReadAccess.scan("T"))),
     ("WouldBlock", 5, table_resource("T"))),
    ("abort reader", lambda s: s.abort(5)),
    # -- versioned reads: the old cut, the writer's own view -----------------------------
    *view_probes(2, 1),
    *[(f"{name} (own writes)", step) for name, step in view_probes(3, 1)],
    ("commit writer", lambda s: s.commit(3, participants=(0, 1), flush=False)),
    ("wal.flush to lsn", lambda s: s.wal.flush(s.wal.last_lsn)),
    # -- refresh / unpark move a clean transaction's cut -----------------------------------
    ("begin stale", lambda s: begin(s, SNAPSHOT, 6, read_ts=1)),
    ("refresh_snapshot", lambda s: s.refresh_snapshot(6), True),
    ("refresh again", lambda s: s.refresh_snapshot(6), False),
    ("write after refresh", lambda s: len(bump(s, 6, eq("k", 1))), 1),
    ("begin parked", lambda s: begin(s, SNAPSHOT, 7, read_ts=1)),
    ("park", lambda s: s.oracle.release_snapshot(7)),
    ("unpark_snapshot", lambda s: s.unpark_snapshot(7)),
    ("write after unpark", lambda s: len(bump(s, 7, eq("k", 2))), 1),
    ("begin unmoved", lambda s: begin(s, SNAPSHOT, 8, read_ts=1)),
    ("first updater wins", lambda s: bump(s, 8, eq("k", 4)),
     ("WriteConflictError",)),
    ("abort loser", lambda s: s.abort(8)),
    ("commit refreshed", lambda s: s.commit(6, flush=False)),
    ("commit unparked", lambda s: s.commit(7, flush=False)),
    # -- 2PL read locks ----------------------------------------------------------------
    ("begin locker", lambda s: begin(s, TWO_PL, 9)),
    ("lock_read_access", lambda s: s.lock_read_access(9, ReadAccess.scan("T"))),
    ("release_read_locks", lambda s: s.release_read_locks(9)),
    ("lock_read_rows", lambda s: (
        s.lock_read_rows(9, "T", [2]), RowId("T", 2) in s.locks.held_resources(9)),
     (None, True)),
    ("commit locker", lambda s: s.commit(9, flush=False)),
    ("row read blocked", lambda s: (
        begin(s, TWO_PL, 34), s.update(34, "T", 2, (1, "b", 41)),
        begin(s, TWO_PL, 35), s.lock_read_rows(35, "T", [2])),
     ("WouldBlock", 35, RowId("T", 2))),
    ("abort row writer", lambda s: s.abort(34)),
    ("abort blocked row reader", lambda s: s.abort(35)),
    # -- a forced vacuum takes the old cut away from its reader ----------------------------
    ("vacuum", lambda s: s.vacuum(s.oracle.last_commit_ts)),
    ("snapshot too old", lambda s: list(s.snapshot_view("T", 2, 1).scan()),
     ("SnapshotTooOldError",)),
    ("abort old reader", lambda s: s.abort(2)),
    ("auto vacuum", lambda s: s.vacuum()),
    # -- a bulk load: one table X lock, all rows; a failed one rolls back --------------------
    ("begin loader", lambda s: begin(s, TWO_PL, 30)),
    ("insert_many", lambda s: s.insert_many(
        30, "T", [(k, "ab"[k % 2], 0) for k in (31, 33, 35)]), 3),
    ("insert_many nothing", lambda s: s.insert_many(30, "T", []), 0),
    ("commit loader", lambda s: s.commit(30, flush=False)),
    ("begin failing loader", lambda s: begin(s, TWO_PL, 31)),
    ("insert_many duplicate", lambda s: s.insert_many(
        31, "T", [(37, "a", 0), (31, "b", 0)]), ("DuplicateKeyError",)),
    ("abort failing loader", lambda s: s.abort(31)),
    ("load beside a reader", lambda s: (
        begin(s, TWO_PL, 32), s.lock_read_access(32, ReadAccess.row("T", 2)),
        begin(s, TWO_PL, 33), s.insert_many(33, "T", [(39, "a", 0)])),
     ("WouldBlock", 33, table_resource("T"))),
    ("abort blocked loader", lambda s: s.abort(33)),
    ("abort row reader", lambda s: s.abort(32)),
    # -- checkpoint, then the three fates a crash deals out -----------------------------------
    ("checkpoint", lambda s: s.checkpoint()),
    ("begin winner", lambda s: begin(s, TWO_PL, 10)),
    ("winner writes", lambda s: s.insert(10, "T", (10, "a", 0))),
    ("winner commits", lambda s: (s.commit(10, flush=False), s.wal.flush())),
    ("begin demoted", lambda s: begin(s, TWO_PL, 11)),
    ("demoted writes", lambda s: bump(s, 11, eq("k", 10))),
    ("demoted commits", lambda s: (s.commit(11, flush=False), s.wal.flush())),
    ("checkpoint skipped", lambda s: (
        begin(s, TWO_PL, 12), s.insert(12, "T", (12, "a", 0)), s.checkpoint())),
    ("lost commit", lambda s: s.commit(12, flush=False)),  # never flushed
]

AFTER_CRASH = [
    ("recover", lambda s: s.recover({11})),
    *view_probes(20, 99),
    ("begin after", lambda s: begin(s, TWO_PL, 20)),
    ("insert after", lambda s: s.insert(20, "T", (14, "b", 0))),
    ("commit after", lambda s: (s.commit(20, flush=False), s.wal.flush())),
]


def run_in_step(script, local, remote):
    """``(name, step[, expected])``: a step takes the shard."""
    for name, step, *expected in script:
        result = outcome(step, local)
        assert result == outcome(step, remote), name
        if expected:
            assert result == expected[0], name
        assert observe(local) == observe(remote), f"after {name}"


def test_local_and_remote_shards_agree_step_by_step():
    local = StorageEngine.shard_member(IDX, N_SHARDS)
    fleet = ProcessShardedStorageEngine(N_SHARDS)
    successor = None
    try:
        remote = fleet.shards[IDX]
        run_in_step(BEFORE_CRASH, local, remote)
        # The script reached what it set out to pin.
        seen = observe(local)
        assert seen["mvcc"]["write_conflicts"] == 1
        assert seen["mvcc"]["snapshot_refreshes"] == 1
        assert seen["checkpoints"] == {"taken": 1, "skipped": 1}
        assert seen["locks"]["waits"] >= 2
        assert seen["flushed_lsn"] < seen["last_lsn"]  # the lost commit

        local = local.crash()
        successor = fleet.crash()  # SIGKILLs the workers
        remote = successor.shards[IDX]
        run_in_step(AFTER_CRASH, local, remote)
        rows = observe(local)["rows"]["T"]
        assert {row.values[0] for row in rows} >= {10, 14}
        assert 12 not in {row.values[0] for row in rows}
        assert next(r for r in rows if r.values[0] == 10).values[2] == 0
        # Every rid this member ever assigned names its place.
        assert {(row.rid - 1) % N_SHARDS for row in rows} == {IDX}
    finally:
        fleet.close()
        if successor is not None:
            successor.close()


# -- structure ---------------------------------------------------------------------------


def test_a_table_view_is_seven_members():
    assert protocol_members(TableView) == {
        "schema", "__len__", "row_estimate", "scan", "lookup_pk",
        "lookup_index", "range_scan"}
    assert SCHEMA.has_index(("k",)) and SCHEMA.has_index(("grp",))
    assert not SCHEMA.has_index(("n",)) and not SCHEMA.has_index(("grp", "k"))
    assert SCHEMA.index_keys((7, "a", 1)) == [(("k",), (7,)), (("grp",), ("a",))]


def test_a_remote_view_answers_only_schema_and_estimate_locally():
    """Everything else a ``RemoteTableView`` offers is a generated
    forwarder (a frame), and it builds no table of its own to answer."""
    public = {
        name for name in dir(RemoteTableView)
        if not name.startswith("_") or name == "__len__"}
    local = {name for name in public if not is_generated(RemoteTableView, name)}
    assert local == {"name", "at", "row_estimate"}
    view = RemoteTableView(None, SCHEMA)
    assert view.schema is SCHEMA and view.row_estimate() == 0
    assert not any(
        isinstance(value, Table) for value in vars(view).values())


def test_every_implementation_satisfies_the_protocols():
    sharded = ShardedStorageEngine(2)
    sharded.create_table(SCHEMA)
    txn = sharded.begin(SNAPSHOT)
    member = sharded.shards[0]
    fleet = ProcessShardedStorageEngine(2)
    try:
        fleet.create_table(SCHEMA)
        remote = fleet.shards[0]
        engines = [StorageEngine(), member, remote]
        views = [
            member.db.table("T"),
            member.snapshot_view("T", 1, 0),
            sharded.db.table("T"),
            sharded.snapshot_provider(txn).table("T"),
            remote.db.table("T"),
            remote.snapshot_view("T", 1, 0),
        ]
        for engine in engines:
            assert isinstance(engine, ShardEngine), type(engine).__name__
        for view in views:
            assert isinstance(view, TableView), type(view).__name__
            assert view.schema == SCHEMA
            # Catalog questions go to the schema: no view forwards them.
            for gone in ("has_ordered_index", "canonical_index"):
                assert not hasattr(view, gone), (type(view).__name__, gone)
        # The four that are not the table itself answer nothing else.
        for view in views[1:]:
            assert not hasattr(view, "index_keys"), type(view).__name__
        assert isinstance(remote, RemoteShardEngine)
        assert not isinstance(sharded, ShardEngine)  # a coordinator is not a shard
    finally:
        fleet.close()


# -- completeness ------------------------------------------------------------------------

#: contract members a proxy answers without a frame: mirrors fed by
#: response envelopes, the schema, and views built locally.
LOCAL = {
    RemoteShardEngine: {
        "mutex", "oracle", "wal", "locks", "db", "commit_count", "abort_count",
        "checkpoint_stats", "version_stats", "chain_histograms", "snapshot_view",
    },
    RemoteTableView: {"schema", "row_estimate"},
}
#: where each proxy class's remaining contract members must have a row.
SPEAKS = {
    RemoteShardEngine: (ShardEngine, [Target.ENGINE]),
    RemoteTableView: (TableView, [Target.TABLE, Target.SNAPSHOT]),
}
PROXIES = {
    Target.ENGINE: RemoteShardEngine, Target.LOCKS: proxy.RemoteLocks,
    Target.WAL: proxy.WalReplica, Target.ORACLE: proxy.OracleMirror,
    Target.TABLE: RemoteTableView, Target.SNAPSHOT: RemoteTableView,
}


def protocol_members(protocol) -> set[str]:
    declared = set(protocol.__annotations__)
    declared |= {name for name, value in vars(protocol).items()
                 if inspect.isfunction(value)
                 and (not name.startswith("_") or name == "__len__")}
    return declared


def is_generated(cls, member) -> bool:
    value = inspect.getattr_static(cls, member, None)
    return inspect.isfunction(value) and "_forwarder" in value.__qualname__


def contract_gaps(verbs) -> list[str]:
    """Everything that keeps ``verbs`` from being the contract, exactly."""
    gaps = []
    rows = {}
    for verb in verbs.values():
        rows.setdefault(verb.target, {})[verb.member] = verb

    # 1. Every row names a real member of a real shard member.
    engine = StorageEngine.shard_member(0, 1)
    engine.create_table(SCHEMA)
    address = {Target.TABLE: ("T",), Target.SNAPSHOT: ("T", 1, 0)}
    for verb in verbs.values():
        target, rest = verb.target.resolve(
            engine, address.get(verb.target, ()) + ("rest",))
        if rest != ("rest",):
            gaps.append(f"{verb.wire}: target consumed the wrong arguments")
        member = getattr(target, verb.member, None)
        if member is None:
            gaps.append(f"{verb.wire}: no {verb.member} on {verb.target.value}")
        elif callable(member) == verb.attribute:
            gaps.append(f"{verb.wire}: attribute flag disagrees with the engine")

    # 2. Every contract member of a proxy is local or has a row, on every
    #    target the proxy speaks — and nothing is both.
    for cls, (protocol, targets) in SPEAKS.items():
        for member in protocol_members(protocol):
            for target in targets:
                has_row = member in rows.get(target, {})
                if (member in LOCAL[cls]) == has_row:
                    gaps.append(
                        f"{cls.__name__}.{member}: "
                        f"{'both local and' if has_row else 'neither local nor'}"
                        f" a row on {target.name}")

    # 3. No row is unreachable: a proxy of its target sends it, through a
    #    generated forwarder or by name in a hand-written method — a
    #    one-way verb deferred, every other requested.
    source = inspect.getsource(proxy)
    for verb in verbs.values():
        sender = "defer" if verb.one_way else "request"
        by_hand = re.search(rf'\.{sender}\(\s*"{verb.wire}"', source)
        if verb.one_way and is_generated(PROXIES[verb.target], verb.member):
            gaps.append(f"{verb.wire}: one-way, yet generated as a request")
        elif not by_hand and not is_generated(PROXIES[verb.target], verb.member):
            gaps.append(f"{verb.wire}: no proxy sends it")
    return gaps


def test_the_verb_table_is_the_contract():
    assert contract_gaps(VERBS) == []


def test_wire_names_and_members_are_unique_per_target():
    assert len({(v.target, v.member) for v in VERBS.values()}) == len(VERBS)
    for target in Target:
        assert members_of(target), target  # no target without a row


@pytest.mark.parametrize("wire", ["abort", "snap_range_scan", "mvcc_stats"])
def test_removing_a_row_is_a_gap(wire):
    """Adding a verb is one row (plus, at most, one Protocol line): without
    its row, a contract member has nowhere to go and the check says so."""
    without = {name: verb for name, verb in VERBS.items() if name != wire}
    gaps = contract_gaps(without)
    assert gaps and all(VERBS[wire].member in gap for gap in gaps), gaps


def test_a_row_nothing_sends_is_a_gap():
    from repro.transport.verbs import Verb

    extra = dict(VERBS, table_version_chains=Verb(
        "table_version_chains", Target.TABLE, "version_chains"))
    assert contract_gaps(extra) == ["table_version_chains: no proxy sends it"]
