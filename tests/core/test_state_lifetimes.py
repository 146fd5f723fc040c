"""A finished transaction leaves nothing behind.

Once a transaction is committed, aborted for good or timed out, no
registry of the middle tier or of the store holds it: not the engine's
transaction table, dormant pool or entanglement groups, not the
client's sessions or the broker's, not a store's or a router's contexts,
writer set or vector horizons, not the replicated engine's failover and
acknowledgement sets, and not any member's contexts, locks or
snapshots.  What stays is the WAL, row versions until vacuum, the run
reports — and what the caller kept: every ``ScriptHandle`` still
answers ``phase``, ``attempts`` and ``abort_reason``.

One workload per topology, under SERIALIZABLE: guarded sign-offs that
write-skew (SSI aborts and retries), two sign-ons of one doctor in one
run (a lock wait, then a retry), an explicit ROLLBACK, a script that
times out waiting for a partner, an entangled pair, and an interactive
and a direct transaction.  ``REPRO_SHARDS`` widens the ensembles and
``REPRO_EXECUTOR=process`` runs the replicated leaders in workers.
"""

from __future__ import annotations

import os
import sys
import threading

import pytest

from repro import connect
from repro.core.transaction import TxnPhase
from repro.errors import TransactionStateError
from repro.sim.clock import VirtualClock
from repro.workloads.oncall import OnCallRoster

WIDTH = max(2, int(os.environ.get("REPRO_SHARDS", "2")))

TOPOLOGIES = {
    "single": dict(),
    "sharded": dict(shards=WIDTH, executor="serial"),
    "process": dict(shards=WIDTH, executor="process"),
    "replicated": dict(shards=WIDTH, replicas=2),
}

ROSTER = OnCallRoster(n_wards=2, doctors_per_ward=2)

#: an entangled pick among ward 1's doctors; the row a member writes lies
#: outside what the pair grounded on, or the pair would write-skew itself.
PICK = """
    BEGIN TRANSACTION{timeout};
    SELECT '{me}', doc AS @d INTO ANSWER Pick
    WHERE doc IN (SELECT doc FROM Doctors WHERE ward = 1)
    AND ('{friend}', doc) IN ANSWER Pick
    CHOOSE 1;
    UPDATE Doctors SET oncall = 1 WHERE doc = {own};
    COMMIT;
"""


def run_workload(db) -> dict[str, list]:
    """Every kind of ending, each script's handle kept by its kind."""
    ROSTER.install(db)
    scripts: dict[str, list] = {}

    def submit(kind: str, sql: str) -> None:
        scripts.setdefault(kind, []).append(
            db.session(f"{kind}{len(scripts.get(kind, ()))}").run_script(sql))

    for doc in range(4):
        submit("skew", ROSTER.signoff_program(doc // 2, doc))
    for _ in range(2):
        submit("signon", ROSTER.signon_program(0))
    submit("rollback", """
        BEGIN TRANSACTION;
        UPDATE Doctors SET oncall = 0 WHERE doc = 1;
        ROLLBACK;
        COMMIT;
    """)
    submit("pair", PICK.format(me="ann", friend="bob", own=0, timeout=""))
    submit("pair", PICK.format(me="bob", friend="ann", own=1, timeout=""))
    submit("timeout", PICK.format(
        me="cal", friend="nobody", own=0, timeout=" WITH TIMEOUT 1 SECONDS"))
    db.drain()
    db.clock.advance(5.0)
    db.drain()

    with db.session("direct") as session:
        with session.transaction() as txn:
            txn.execute("UPDATE Doctors SET oncall = 1 WHERE doc = 0")
        session.execute("SELECT oncall AS @o FROM Doctors WHERE doc = 2")
    # Opened and dropped without a statement: its transaction aborts.
    db.session("idle").execute("SELECT oncall AS @o FROM Doctors WHERE doc = 3")
    for session in list(db._sessions):
        session.close()
    return scripts


def registries(db) -> dict[str, int]:
    """The size of every per-transaction registry of the stack."""
    engine, broker, store = db.engine, db.broker, db.store
    sizes = {
        "engine transactions": len(engine._transactions),
        "engine dormant pool": len(engine._dormant),
        "engine groups": len(engine.groups._adjacency),
        "client sessions": len(db._sessions),
        "broker sessions": len(broker._sessions),
        "broker waiting": len(broker._waiting),
        "broker groups": len(broker.groups._adjacency),
        "store contexts": len(store._contexts),
        "store active writers": len(store._active_writers),
        "store ssi": store.ssi.tracked(),
    }
    for name in ("_active_seqs", "_failed_over", "_acking"):
        if hasattr(store, name):
            sizes[f"store {name}"] = len(getattr(store, name))
    for idx, member in enumerate(getattr(store, "shards", [store])):
        sizes[f"member {idx} snapshots"] = len(member.oracle._active_snapshots)
        if hasattr(member, "_contexts"):  # in process
            sizes[f"member {idx} contexts"] = len(member._contexts)
            sizes[f"member {idx} active writers"] = len(member._active_writers)
            sizes[f"member {idx} lock holders"] = len(member.locks._held)
            sizes[f"member {idx} lock waiters"] = len(member.locks._queued)
    return sizes


def unknown_everywhere(db, finished: list[int]) -> list[str]:
    """Each finished storage transaction, asked of every member (over
    the pipe for a worker): anything but "unknown" is kept state."""
    kept = []
    for idx, member in enumerate(getattr(db.store, "shards", [db.store])):
        for txn in finished:
            try:
                member.unpark_snapshot(txn)
            except TransactionStateError as exc:
                if "unknown transaction" in str(exc):
                    continue
            kept.append(f"member {idx} still knows transaction {txn}")
    return kept


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_a_finished_transaction_leaves_nothing_behind(topology):
    db = connect(isolation="serializable", clock=VirtualClock(),
                 **TOPOLOGIES[topology])
    finished: list[int] = []
    db.store.observers.append(
        lambda txn, kind, _table, _reads_from=None:
        finished.append(txn) if kind in ("commit", "abort") else None)
    try:
        scripts = run_workload(db)
        reports = db.run_reports
        # The workload met what it is meant to: SSI aborts, a lock wait,
        # retries, a rollback, a timeout and an answered pair.
        assert sum(r.ssi_aborts for r in reports) >= 1
        assert sum(r.lock_waits for r in reports) >= 1
        assert sum(len(r.returned_to_pool) for r in reports) >= 2

        assert {k: v for k, v in registries(db).items() if v} == {}
        assert unknown_everywhere(db, finished) == []

        for script in scripts["skew"] + scripts["signon"] + scripts["pair"]:
            assert script.phase is TxnPhase.COMMITTED, script.abort_reason
        assert max(s.attempts for s in scripts["skew"] + scripts["signon"]) > 1
        (rollback,) = scripts["rollback"]
        assert rollback.phase is TxnPhase.ABORTED
        assert rollback.abort_reason == "rollback"
        (timeout,) = scripts["timeout"]
        assert timeout.phase is TxnPhase.TIMED_OUT
        assert "timeout" in timeout.abort_reason
        assert all(s.attempts >= 1 for kind in scripts.values() for s in kind)
    finally:
        db.close()


def test_closed_sessions_leave_the_client():
    db = connect()
    kept = db.session("kept")
    for n in range(1000):
        db.session(f"s{n}").close()
    assert list(db._sessions) == [kept]
    kept.close()
    assert not db._sessions
    db.close()


def test_concurrent_commits_and_closes_leave_nothing_behind():
    """Eight threads on two cores, each committing direct transactions
    on its own row through a two-shard pool and closing its sessions,
    with the switch interval shortened: no increment is lost, and no
    context or session outlives its end."""
    db = connect(shards=2, executor="pool")
    OnCallRoster(n_wards=4, doctors_per_ward=2).install(db)
    rounds, errors = 25, []

    def worker(doc: int) -> None:
        try:
            for n in range(rounds):
                with db.session(f"w{doc}.{n}") as session:
                    with session.transaction() as txn:
                        txn.execute(
                            f"UPDATE Doctors SET oncall = oncall + 1 "
                            f"WHERE doc = {doc}")
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(doc,))
                   for doc in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    try:
        assert errors == []
        assert sorted(db.query("SELECT doc, oncall FROM Doctors")) == [
            (doc, 1 + rounds) for doc in range(8)]
        assert not db._sessions and not db.store._contexts
        assert all(not member._contexts for member in db.store.shards)
    finally:
        db.close()
