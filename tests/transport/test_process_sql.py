"""SQL through the process transport: pool vs process, end to end.

The frame/proxy suites drive the storage API directly; this one drives
*SQL scripts* through ``connect(shards=2, executor="process")`` — the
path on which the coordinator's lock requests (read accesses, index
keys, table S), live index/range probes and versioned index/range
probes all become transport frames — and demands the same outcome as
the in-process thread pool: equal committed counts and equal table
contents, under 2PL (``"full"``) and under ``"snapshot"``.

Every write commutes (``balance + 1``; inserts with unique ids), so the
final contents are independent of the order in which the two executors
happen to commit the batch.
"""

from __future__ import annotations

import random

import pytest

from repro import connect
from repro.core.transaction import TxnPhase
from repro.storage import ColumnType, TableSchema
from repro.storage.engine import WouldBlock

N_ACCOUNTS = 24
SCRIPTS = 18

ACCOUNTS = TableSchema.build(
    "Accounts",
    [("id", ColumnType.INTEGER), ("balance", ColumnType.INTEGER)],
    primary_key=["id"],
)
LEDGER = TableSchema.build(
    "Ledger",
    [("id", ColumnType.INTEGER), ("account", ColumnType.INTEGER),
     ("amount", ColumnType.INTEGER)],
    primary_key=["id"],
    indexes=[["account"]],
)


def ledger_scripts(seed: int = 11) -> list[str]:
    """Seeded ledger-style scripts: a pk read, a bounded range read, an
    indexed read, an update and an insert each (plus one unindexed scan
    in every sixth script, for the table S path)."""
    rng = random.Random(seed)
    scripts = []
    for i in range(SCRIPTS):
        account = rng.randrange(N_ACCOUNTS)
        lo = rng.randrange(N_ACCOUNTS - 4)
        statements = [
            f"SELECT balance AS @b FROM Accounts WHERE id={account}",
            f"SELECT id AS @r FROM Accounts WHERE id >= {lo} AND id < {lo + 4}",
            f"SELECT amount AS @a FROM Ledger WHERE account={account}",
            f"UPDATE Accounts SET balance = balance + 1 WHERE id={account}",
            "INSERT INTO Ledger (id, account, amount) "
            f"VALUES ({100 + i}, {account}, {i})",
        ]
        if i % 6 == 0:
            statements.insert(
                0, "SELECT id AS @s FROM Accounts WHERE balance > 1000000")
        scripts.append(
            "BEGIN TRANSACTION; " + "; ".join(statements) + "; COMMIT;")
    return scripts


def interactive_leg(client) -> int:
    """Statement-at-a-time and direct transactions over the same store.

    A teller's first write blocks behind a holder's row lock — its shard
    transaction has begun but it has observed nothing — so when it then
    parks on an entangled query nobody answers and cancels, its (clean)
    snapshot is parked and the next statement re-arms it on a fresh cut,
    shard-side too.  An auditor reads a whole table inside a direct
    storage transaction.  Returns the commits made.
    """
    bump = "UPDATE Accounts SET balance = balance + 1 WHERE id=5;"
    holder = client.session("holder")
    holder.execute(bump)
    teller = client.session("teller")
    with pytest.raises(WouldBlock):
        teller.execute(bump)
    assert holder.commit()
    waiting = teller.execute(
        "SELECT 'teller', id AS @pick INTO ANSWER Pick "
        "WHERE id IN (SELECT id FROM Accounts WHERE id=3) "
        "AND ('nobody', id) IN ANSWER Pick CHOOSE 1;")
    assert not waiting.poll()
    waiting.cancel()
    teller.execute("SELECT amount AS @a FROM Ledger WHERE account=3;")
    teller.execute(bump)
    assert teller.commit()
    with client.session("auditor").transaction() as txn:
        assert len(txn.read_table("Accounts")) == N_ACCOUNTS
    return 3


def run_ledger(executor: str, isolation: str):
    """Drive the scripts; returns (committed count, table contents)."""
    client = connect(shards=2, executor=executor, isolation=isolation)
    try:
        client.create_table(ACCOUNTS)
        client.create_table(LEDGER)
        client.load("Accounts", [(i, 100) for i in range(N_ACCOUNTS)])
        client.load("Ledger", [(i, i % N_ACCOUNTS, 0) for i in range(12)])
        handles = [
            client.session(f"c{i}").run_script(script)
            for i, script in enumerate(ledger_scripts())
        ]
        # Under real threads a whole run can end with every script
        # lock-blocked or a deadlock victim; drain() reads one such run
        # as "no progress" and stops, so re-drain (bounded) until done.
        for _ in range(32):
            client.drain()
            if all(handle.done for handle in handles):
                break
        committed = sum(h.phase is TxnPhase.COMMITTED for h in handles)
        committed += interactive_leg(client)
        contents = {
            name: sorted(
                tuple(row.values) for row in client.store.db.table(name).scan())
            for name in ("Accounts", "Ledger")
        }
        if executor == "process":
            # The maintenance frames: an explicit vacuum, then close()'s
            # WAL flush + quiescent checkpoint, all over the transport.
            assert client.store.vacuum() >= 0
    finally:
        client.close()
    assert client.closed
    return committed, contents


@pytest.mark.parametrize("isolation", ["full", "snapshot"])
def test_sql_scripts_agree_between_pool_and_process(isolation):
    pool_committed, pool_contents = run_ledger("pool", isolation)
    proc_committed, proc_contents = run_ledger("process", isolation)
    assert pool_committed == proc_committed == SCRIPTS + 3
    assert proc_contents == pool_contents
    # Everything really wrote: every script's update and insert landed,
    # and so did the holder's and the teller's.
    balances = dict(proc_contents["Accounts"])
    assert sum(balances.values()) == 100 * N_ACCOUNTS + SCRIPTS + 2
    assert len(proc_contents["Ledger"]) == 12 + SCRIPTS
