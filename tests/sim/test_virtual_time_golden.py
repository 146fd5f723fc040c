"""Virtual time, pinned to the bit.

Each drive below is a small batch that exercises one charge of the cost
model — read and write statements (with an uncharged ``SET``), entangled
submission and evaluation, autocommit (no bracket), the retry tax of
returned transactions, per-shard commit flushes with the cross-shard
prepare tax, and read-service probes on follower replicas.  The pinned
values are the virtual clock's total, the per-run ``elapsed`` list and
the clock's final reading, as ``float.hex`` strings: a refactor of the
accounting must keep every float addition in the same order.

Every drive runs serially: under the thread pool the order of charges
on a shared connection slot follows thread interleaving.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import bank_store
from repro.client import connect
from repro.core.engine import EngineConfig
from repro.core.policies import ManualPolicy
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.storage.schema import TableSchema
from repro.storage.types import ColumnType
from repro.workloads import example_schema, figure1_rows

#: Every charge nonzero, so every event shows in the pinned sums.
COSTS = CostModel(
    commit_flush_cost=0.004,
    cross_shard_prepare_cost=0.003,
    read_service_cost=0.025,
)


def _connect(store=None, **kwargs):
    """A serial client whose virtual clock charges ``COSTS``."""
    return connect(
        store, executor="serial", policy=ManualPolicy(),
        clock=VirtualClock(costs=COSTS), **kwargs)


def _totals(client):
    """(total elapsed, clock reading) of the client's cost account."""
    return client.clock.account.total_elapsed, client.clock.now


def _txn(*statements: str) -> str:
    return "BEGIN TRANSACTION; " + "; ".join(statements) + "; COMMIT;"


def _transfer(src: int, dst: int) -> str:
    return _txn(
        f"SELECT balance AS @b FROM Accounts WHERE id={src}",
        "SET @c = @b + 1",
        f"UPDATE Accounts SET balance = balance - 1 WHERE id={src}",
        f"UPDATE Accounts SET balance = balance + 1 WHERE id={dst}",
        f"INSERT INTO Transfers (account, amount) VALUES ({dst}, 1)",
    )


def _run(client, scripts):
    try:
        for who, program in scripts:
            client.session(who).run_script(program)
        client.drain()
        total, now = _totals(client)
        return (total.hex(), now.hex(),
                [r.elapsed.hex() for r in client.run_reports])
    finally:
        client.close(checkpoint=False)


def drive_statements():
    client = _connect(bank_store(32), config=EngineConfig(connections=4))
    return _run(client, [
        (f"u{i}", _transfer(2 * i, 2 * i + 1)) for i in range(10)])


def drive_autocommit():
    client = _connect(
        bank_store(32), config=EngineConfig(connections=4, autocommit=True))
    return _run(client, [
        (f"u{i}", _transfer(2 * i, 2 * i + 1)) for i in range(10)])


def drive_retry():
    """Transfers out of one hot account: lock waits return most of each
    run's batch to the pool, so the retry tax is charged."""
    client = _connect(bank_store(16), config=EngineConfig(connections=8))
    return _run(client, [(f"u{i}", _transfer(0, i + 1)) for i in range(6)])


def _trip(me: str, friend: str) -> str:
    return f"""
        BEGIN TRANSACTION WITH TIMEOUT 2 DAYS;
        SELECT '{me}', fno AS @fno, fdate INTO ANSWER FlightRes
        WHERE fno, fdate IN (SELECT fno, fdate FROM Flights WHERE dest='LA')
        AND ('{friend}', fno, fdate) IN ANSWER FlightRes
        CHOOSE 1;
        INSERT INTO FlightBookings (name, fno) VALUES ('{me}', @fno);
        SELECT '{me}', hid AS @hid INTO ANSWER HotelRes
        WHERE hid IN (SELECT hid FROM Hotels WHERE location='LA')
        AND ('{friend}', hid) IN ANSWER HotelRes
        CHOOSE 1;
        INSERT INTO HotelBookings (name, hid) VALUES ('{me}', @hid);
        COMMIT;
    """


def drive_entangled():
    """Two entangled pairs plus a lonely traveller who cycles dormant
    until the drain stops on no progress."""
    client = _connect(config=EngineConfig(connections=4))
    for schema in example_schema():
        client.create_table(schema)
    for table, rows in figure1_rows().items():
        client.load(table, rows)
    client.load("Hotels", [(7, "LA"), (9, "LA"), (11, "Paris")])
    for table, column in (("FlightBookings", "fno"), ("HotelBookings", "hid")):
        client.create_table(TableSchema.build(
            table, [("name", ColumnType.TEXT), (column, ColumnType.INTEGER)]))
    return _run(client, [
        ("mickey", _trip("Mickey", "Minnie")),
        ("minnie", _trip("Minnie", "Mickey")),
        ("donald", _trip("Donald", "Daffy")),
        ("goofy", _trip("Goofy", "Pluto")),
        ("pluto", _trip("Pluto", "Goofy")),
    ])


def drive_cross_shard():
    """Per-shard flush loads: single-shard and two-shard transfers."""
    store = bank_store(32, kind="sharded", shards=2)
    client = _connect(
        store, isolation="snapshot", config=EngineConfig(connections=4))
    pairs = [(0, 1), (4, 5), (8, 9), (12, 13), (2, 6), (10, 14), (3, 7)]
    assert [store.route_key("Accounts", (a,)) for pair in pairs[:4]
            for a in pair] == [0, 1] * 4
    return _run(client, [
        (f"u{src}", _transfer(src, dst)) for src, dst in pairs])


def drive_follower_reads():
    """Snapshot reads routed over two leaders and their followers."""
    client = _connect(
        shards=2, replicas=2, isolation="snapshot",
        config=EngineConfig(connections=4))
    client.create_table(TableSchema.build(
        "Accounts",
        [("id", ColumnType.INTEGER), ("balance", ColumnType.FLOAT)],
        primary_key=["id"],
    ))
    client.load("Accounts", [(i, 100.0) for i in range(16)])
    reads = [
        (f"r{i}", _txn(
            f"SELECT balance AS @a FROM Accounts WHERE id={i}",
            f"SELECT balance AS @b FROM Accounts WHERE id={i + 8}"))
        for i in range(8)
    ]
    return _run(client, reads)


DRIVES = {
    "statements": drive_statements,
    "autocommit": drive_autocommit,
    "retry": drive_retry,
    "entangled": drive_entangled,
    "cross_shard": drive_cross_shard,
    "follower_reads": drive_follower_reads,
}

#: (total elapsed, final clock, per-run elapsed), measured before the
#: cost model moved out of the engine.
GOLDEN = {
    "statements": ("0x1.851eb851eb853p-3",
                   "0x1.851eb851eb853p-3",
                   ["0x1.851eb851eb853p-3"]),
    "autocommit": ("0x1.a1cac083126e9p-4",
                   "0x1.a1cac083126e9p-4",
                   ["0x1.a1cac083126e9p-4"]),
    "retry": ("0x1.9a1cac083126ep-2",
              "0x1.9a1cac083126ep-2",
              ["0x1.353f7ced91687p-4",
               "0x1.26e978d4fdf3bp-4",
               "0x1.189374bc6a7efp-4",
               "0x1.0a3d70a3d70a3p-4",
               "0x1.f7ced916872b0p-5",
               "0x1.db22d0e560418p-5"]),
    "entangled": ("0x1.3923a29c779a7p-3",
                  "0x1.3923a29c779a7p-3",
                  ["0x1.ca57a786c2268p-4", "0x1.4fdf3b645a1cbp-5"]),
    "cross_shard": ("0x1.4bc6a7ef9db23p-3",
                    "0x1.4bc6a7ef9db23p-3",
                    ["0x1.4bc6a7ef9db23p-3"]),
    "follower_reads": ("0x1.20c49ba5e3540p-3",
                       "0x1.20c49ba5e3540p-3",
                       ["0x1.20c49ba5e3540p-3"]),
}


@pytest.mark.parametrize("name", sorted(DRIVES))
def test_virtual_time_is_bit_identical(name):
    assert DRIVES[name]() == GOLDEN[name]
