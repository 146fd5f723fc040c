"""One deadlock detector, whatever kind of member a shard is.

Two transactions close a wait cycle: ``a`` holds x and waits for y,
then ``b``, holding y, asks for x.  On one engine its lock manager sees
the whole cycle; across shards each manager sees half of it, and the
router's probe unions every shard's waits-for edges — in process, in
worker processes, and over promoted leaders after a failover.  Every
store must tell the same story: the closing request raises
:class:`DeadlockError`, the reading counts one wait (``a``'s) and one
deadlock (``b``'s refused request counts as a deadlock, not a wait),
and ``a`` commits once the victim has aborted.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.errors import DeadlockError
from repro.replication import ReplicatedStorageEngine
from repro.storage import (
    ColumnType,
    ReadAccess,
    ShardedStorageEngine,
    StorageEngine,
    TableSchema,
    shard_members,
)
from repro.storage.engine import WouldBlock
from repro.transport.process import spawn_workers

SCHEMA = TableSchema.build(
    "T",
    [("k", ColumnType.INTEGER), ("v", ColumnType.TEXT)],
    primary_key=["k"],
)


def failed_over():
    """A replicated store whose every leader is a promoted follower."""
    store = ReplicatedStorageEngine(2, replicas=1)
    store.fail_over(0)
    store.fail_over(1)
    return store


STORES = {
    "single": StorageEngine,
    "sharded2": lambda: ShardedStorageEngine(2),
    "process2": lambda: ShardedStorageEngine(shards=spawn_workers(shard_members(2))),
    "replicated2": lambda: ReplicatedStorageEngine(2, replicas=1),
    "replicated2-failed-over": failed_over,
}


def keys(store) -> tuple[int, int]:
    """x and y: on different shards whenever there are two."""
    if not hasattr(store, "route_key"):
        return 0, 1
    home = store.route_key("T", (0,))
    return 0, next(
        k for k in range(1, 64) if store.route_key("T", (k,)) != home)


@pytest.mark.parametrize("name", list(STORES))
def test_the_closing_request_is_the_one_victim(name):
    store = STORES[name]()
    try:
        store.create_table(SCHEMA)
        x, y = keys(store)
        store.load("T", [(x, "0"), (y, "0")])
        a, b = store.begin(), store.begin()
        table = store.db.table("T")
        rid_x, rid_y = table.lookup_pk((x,)).rid, table.lookup_pk((y,)).rid
        store.update(a, "T", rid_x, (x, "a"))  # a holds x
        store.update(b, "T", rid_y, (y, "b"))  # b holds y
        with pytest.raises(WouldBlock):
            store.update(a, "T", rid_y, (y, "a"))  # a waits for b
        with pytest.raises(DeadlockError):
            store.update(b, "T", rid_x, (x, "b"))  # closes the cycle
        reading = store.metrics()
        assert (reading["locks.waits"], reading["locks.deadlocks"]) == (1, 1)
        store.abort(b)  # the victim releases; a proceeds
        store.update(a, "T", rid_y, (y, "a"))
        store.commit(a)
        reading = store.metrics()
        assert (reading["locks.waits"], reading["locks.deadlocks"]) == (1, 1)
        assert {
            row.values[0]: row.values[1] for row in store.db.table("T").scan()
        } == {x: "a", y: "a"}
    finally:
        store.close()


def test_threads_closing_cycles_neither_hang_nor_lose_an_update():
    """Four threads (more than cores) increment x and y in opposite
    orders on an in-process ensemble — read under S, then upgrade to X —
    so cross-shard cycles form and close concurrently, each probe inside
    its member's engine mutex.  A missed cycle polls until the deadline;
    a lost update leaves x or y short of the commit count."""
    store = ShardedStorageEngine(2)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        store.create_table(TableSchema.build(
            "T", [("k", ColumnType.INTEGER), ("n", ColumnType.INTEGER)],
            primary_key=["k"]))
        x, y = keys(store)
        store.load("T", [(x, 0), (y, 0)])
        rids = {k: store.db.table("T").lookup_pk((k,)).rid for k in (x, y)}
        deadline = time.monotonic() + 60
        commits, errors = [], []

        def until_granted(step):
            while True:
                try:
                    return step()
                except WouldBlock:
                    assert time.monotonic() < deadline, "a cycle went unbroken"
                    time.sleep(0)

        def bump(txn, k):
            until_granted(lambda: store.lock_read_access(
                txn, ReadAccess.row("T", rids[k])))
            n = store.db.table("T").lookup_pk((k,)).values[1]
            until_granted(lambda: store.update(txn, "T", rids[k], (k, n + 1)))

        def worker(order):
            try:
                for _ in range(25):
                    txn = store.begin()
                    try:
                        for k in order:
                            bump(txn, k)
                    except DeadlockError:
                        store.abort(txn)
                        continue
                    store.commit(txn)
                    commits.append(txn)
            except BaseException as exc:  # re-raised by the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=((x, y) if i % 2 else (y, x),))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=90)
            assert not thread.is_alive()
        if errors:
            raise errors[0]
        final = {row.values[0]: row.values[1]
                 for row in store.db.table("T").scan()}
        assert commits and final == {x: len(commits), y: len(commits)}
        assert store.metrics()["locks.deadlocks"] > 0
        assert all(not shard.locks.waits_edges() for shard in store.shards)
    finally:
        sys.setswitchinterval(switch)
        store.close()
