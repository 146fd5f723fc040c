"""The locks a 2PL transaction holds at its end are the ones its reads
ask for, access by access — however the read path batches them.

The read observer (:class:`~repro.storage.query.Reads`) hands rows to the
lock manager one leaf at a time (``acquire_many``), split by shard on the
router; before, every reported access made its own requests.  The oracle
here is that per-access rule, kept as it was: :func:`per_access_requests`
is ``StorageEngine._lock_read_access`` for one access (rows included),
applied on each shard the router's ``_shards_for_access`` sent it to.

Seeded scripts are driven through ``connect()`` on one engine and on the
router at 2 and 4 shards: the transfer, the travel workload's Social-T
(a ``LIMIT 1`` join whose row locks are taken one at a time) and
entangled pairs (grounding), and the ledger's 2PL range read.  For every
transaction that commits, the ``(shard, resource, mode)`` set each
shard's manager holds at ``release_all`` must equal what the oracle
derives from the accesses the evaluator reported, together with the
write path's own ``acquire`` requests — each resource at the supremum
of the modes asked for it.

A process fleet must send each shard one lock frame per leaf batch.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict

import pytest

from repro import connect
from repro.sql import parse_statement
from repro.sql.compiler import compile_select
from repro.storage import (
    ColumnType,
    LockMode,
    RowId,
    TableSchema,
    index_key_resource,
    table_resource,
)
from repro.storage.query import AccessKind, ReadAccess, Reads
from repro.transport.frames import FrameChannel
from repro.transport.process import ProcessShardedStorageEngine
from repro.workloads import (
    PaymentLedger,
    SocialNetwork,
    TravelDatabase,
    WorkloadKind,
    generate_workload,
)

from _reference_bind import literal

SEED = 7
S, IS = LockMode.SHARED, LockMode.INTENTION_SHARED


# -- the oracle: the per-access rule ---------------------------------------------------


def per_access_requests(store, access: ReadAccess) -> list[tuple]:
    """``(shard, resource, mode)`` per request the per-access rule makes
    for one reported access of a 2PL read at FINE granularity, on the
    shards the router sends it to, against the tables as they are now."""
    shards = getattr(store, "shards", None)
    table = access.table
    if shards is None:
        shards, targets = [store], [0]
    elif access.kind is AccessKind.ROW:
        targets = [store.shard_of_rid(access.rid)]
    elif access.kind is AccessKind.INDEX_KEY and access.index == tuple(
            shards[0].db.table(table).schema.primary_key):
        targets = [store.route_key(table, access.key)]
    else:
        targets = range(len(shards))
    requests = []
    for shard in targets:
        if access.kind is AccessKind.TABLE_SCAN:
            requests.append((shard, table_resource(table), S))
            continue
        requests.append((shard, table_resource(table), IS))
        if access.kind is AccessKind.INDEX_KEY:
            requests.append(
                (shard, index_key_resource(table, access.index, access.key), S))
        elif access.kind is AccessKind.INDEX_RANGE:
            for key in shards[shard].db.table(table).ordered_keys_in_range(
                access.index, access.lo, access.hi,
                lo_inc=access.lo_inc, hi_inc=access.hi_inc,
                reverse=access.reverse, limit=access.limit,
            ):
                requests.append(
                    (shard, index_key_resource(table, access.index, key), S))
        else:
            requests.append((shard, RowId(table, access.rid), S))
    return requests


class LockCensus:
    """What each 2PL transaction asked for and what it held at the end.

    ``asked[txn]`` gathers the oracle's requests for every access the
    evaluator reported to a :class:`Reads` and every direct ``acquire``
    (the write path's); ``held[txn]`` what each shard's manager held at
    ``release_all``.  Transactions that aborted are left out."""

    def __init__(self, store, monkeypatch):
        self.asked: dict[int, list] = defaultdict(list)
        self.held: dict[int, dict] = defaultdict(dict)
        self.aborted: set[int] = set()
        census = self

        def reported(reads, access):
            owner = reads._owner
            census.asked[owner.txn_id] += per_access_requests(store, access)

        call, range_, row, many = Reads.__call__, Reads.range, Reads.row, Reads.many

        def on_call(reads, access):
            reported(reads, access)
            return call(reads, access)

        def on_range(reads, path):
            reported(reads, path)
            return range_(reads, path)

        def on_row(reads, table, rid):
            reported(reads, ReadAccess.row(table, rid))
            return row(reads, table, rid)

        def on_many(reads, table, rids, path):
            for rid in rids:
                reported(reads, ReadAccess.row(table, rid))
            return many(reads, table, rids, path)

        for name, patched in (("__call__", on_call), ("range", on_range),
                              ("row", on_row), ("many", on_many)):
            monkeypatch.setattr(Reads, name, patched)

        for index, shard in enumerate(getattr(store, "shards", [store])):
            self._watch(index, shard, monkeypatch)

    def _watch(self, index, shard, monkeypatch):
        locks, census = shard.locks, self
        acquire, release_all, abort = locks.acquire, locks.release_all, shard.abort

        def asked(txn, resource, mode):
            census.asked[txn].append((index, resource, mode))
            return acquire(txn, resource, mode)

        def released(txn):
            for resource in locks.held_resources(txn):
                census.held[txn][index, resource] = locks.holders(resource)[txn]
            return release_all(txn)

        def aborted(txn):
            census.aborted.add(txn)
            return abort(txn)

        monkeypatch.setattr(locks, "acquire", asked)
        monkeypatch.setattr(locks, "release_all", released)
        monkeypatch.setattr(shard, "abort", aborted)

    def expected(self, txn) -> dict:
        """Each resource asked for, at the supremum of its modes."""
        modes: dict = {}
        for shard, resource, mode in self.asked[txn]:
            held = modes.get((shard, resource))
            modes[shard, resource] = mode if held is None else held.combine(mode)
        return modes

    def compared(self) -> int:
        """Check every committed transaction; how many there were."""
        ended = [txn for txn in self.held if txn not in self.aborted]
        for txn in ended:
            assert self.held[txn] == self.expected(txn), txn
        return len(ended)


# -- the drives --------------------------------------------------------------------------


def drive(client, rounds) -> int:
    """Run each round's scripts, one per session, to their end; the
    number committed."""
    sessions = [client.session(f"c{i}") for i in range(max(map(len, rounds)))]
    committed = 0
    for scripts in rounds:
        handles = {session.run_script(sql).handle
                   for session, sql in zip(sessions, scripts)}
        for _ in range(200):
            if not handles:
                break
            report = client.run()
            committed += len(report.committed)
            handles -= {*report.committed, *report.aborted, *report.timed_out}
    return committed


def transfer_rounds(rng, clients=8, n_rounds=4):
    rounds = []
    for _ in range(n_rounds):
        ids = rng.sample(range(256), 2 * clients)
        rounds.append([
            "BEGIN TRANSACTION; "
            f"SELECT balance AS @b FROM Accounts WHERE id={ids[2 * i]}; "
            f"UPDATE Accounts SET balance = balance + 1 WHERE id={ids[2 * i + 1]}; "
            f"INSERT INTO Transfers (account, amount) VALUES ({ids[2 * i + 1]}, 1); "
            "COMMIT;"
            for i in range(clients)])
    return rounds


def install_transfer(client):
    client.create_table(TableSchema.build(
        "Accounts", [("id", ColumnType.INTEGER), ("balance", ColumnType.FLOAT)],
        primary_key=["id"]))
    client.create_table(TableSchema.build(
        "Transfers", [("account", ColumnType.INTEGER), ("amount", ColumnType.FLOAT)],
        indexes=[["account"]]))
    client.load("Accounts", [(i, 100.0) for i in range(256)])


class _LoggedLoad:
    def __init__(self, client):
        self._client = client

    def has_table(self, name):
        return self._client.store.db.has_table(name)

    def create_table(self, schema):
        self._client.create_table(schema)

    def load(self, table, rows):
        self._client.load(table, rows)


def travel_rounds(travel, pairs=3, social=4, n_rounds=3):
    entangled = generate_workload(
        WorkloadKind.ENTANGLED_T, travel, 2 * pairs * n_rounds)
    socials = generate_workload(WorkloadKind.SOCIAL_T, travel, social * n_rounds)
    return [
        [item.program for item in entangled[2 * pairs * r: 2 * pairs * (r + 1)]]
        + [item.program for item in socials[social * r: social * (r + 1)]]
        for r in range(n_rounds)]


def ledger_rounds(ledger, clients=6, n_rounds=4):
    rounds, index = [], 0
    for _ in range(n_rounds):
        scripts = []
        for i in range(clients):
            at = 1.0 + index * 0.01
            scripts.append(ledger.temporal_query_program(at) if i % 2
                           else ledger.transfer_program(at))
            index += 1
        rounds.append(scripts)
    return rounds


SHARDS = [1, 2, 4]


@pytest.mark.parametrize("shards", SHARDS)
def test_transfer(shards, monkeypatch):
    client = connect(shards=shards, executor="serial", isolation="full")
    try:
        install_transfer(client)
        census = LockCensus(client.store, monkeypatch)
        committed = drive(client, transfer_rounds(random.Random(SEED)))
        assert committed == 32
        assert census.compared() == committed
    finally:
        client.close(checkpoint=False)


@pytest.mark.parametrize("shards", SHARDS)
def test_travel_social_and_entangled(shards, monkeypatch):
    travel = TravelDatabase(SocialNetwork(60, seed=SEED), seed=SEED)
    client = connect(shards=shards, executor="serial", isolation="full")
    try:
        travel.populate(_LoggedLoad(client))
        census = LockCensus(client.store, monkeypatch)
        committed = drive(client, travel_rounds(travel))
        assert committed == 30
        assert census.compared() == committed
        # The entangled pairs were grounded and answered.
        assert sum(report.answered_queries for report in client.run_reports) == 18
        rows = Counter(
            type(resource) for txn in census.held
            for (_shard, resource) in census.held[txn])
        assert rows[RowId] > committed  # the row locks were exercised
    finally:
        client.close(checkpoint=False)


@pytest.mark.parametrize("shards", SHARDS)
def test_ledger_range_read(shards, monkeypatch):
    ledger = PaymentLedger(n_accounts=64, seed=SEED)
    client = connect(shards=shards, executor="serial", isolation="full")
    try:
        ledger.install(client)
        drive(client, [[ledger.transfer_program(i * 0.01) for i in range(40)]])
        census = LockCensus(client.store, monkeypatch)
        committed = drive(client, ledger_rounds(ledger))
        assert committed == 24
        assert census.compared() == committed
    finally:
        client.close(checkpoint=False)


# -- a process fleet: one lock frame per shard per leaf batch --------------------------


@pytest.fixture
def fleet():
    store = ProcessShardedStorageEngine(2)
    store.create_table(TableSchema.build(
        "L", [("id", ColumnType.INTEGER), ("at", ColumnType.INTEGER),
              ("grp", ColumnType.INTEGER)],
        primary_key=["id"], indexes=[["at"], ["grp"]]))
    store.load("L", [(i, i, i % 3) for i in range(60)])
    yield store
    store.close()


def frames_of(store, monkeypatch, sql):
    """The lock frames one 2PL statement sends, by verb."""
    sent: Counter = Counter()
    send = FrameChannel.send

    def counted(channel, frame):
        if frame[1].startswith("lock_"):
            sent[frame[1]] += 1
        send(channel, frame)

    txn = store.begin()
    monkeypatch.setattr(FrameChannel, "send", counted)
    plan = literal(compile_select(parse_statement(sql), store.db, {}))
    rows = store.query(txn, plan)
    monkeypatch.setattr(FrameChannel, "send", send)
    locked = sum(
        isinstance(resource, RowId)
        for shard in range(2) for resource in store.shards[shard].locks.held_resources(txn))
    store.abort(txn)
    return rows, sent, locked


def test_a_range_leaf_is_one_lock_frame_per_shard(fleet, monkeypatch):
    rows, sent, locked = frames_of(
        fleet, monkeypatch, "SELECT id FROM L WHERE at >= 10 AND at < 30")
    assert len(rows) == locked == 20
    assert sent == {"lock_read_access": 2, "lock_read_rows": 2}


def test_a_point_probe_without_limit_is_one_lock_frame_per_shard(fleet, monkeypatch):
    rows, sent, locked = frames_of(fleet, monkeypatch, "SELECT id FROM L WHERE grp = 1")
    assert len(rows) == locked == 20
    assert sent == {"lock_read_access": 2, "lock_read_rows": 2}
