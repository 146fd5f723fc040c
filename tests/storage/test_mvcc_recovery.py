"""Crash-recovery property tests for versioned storage.

A Hypothesis stateful machine drives transactions through the engine,
then crashes it at an *arbitrary WAL flush watermark* — including
watermarks that land mid-commit, leaving a transaction's row operations
durable but its COMMIT record lost — recovers, and compares the
recovered version chains against a **never-crashed twin**: a fresh
engine that executes only the transactions whose COMMIT made it below
the watermark, in commit order.

Chains are compared logically (keyed by primary key, not rid, since the
twin never burns rids on rolled-back inserts): same values, same
begin/end commit timestamps, same order.  That is the strongest
observable statement about MVCC recovery — every snapshot at every
timestamp reads identically on both engines.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.storage import ColumnType, StorageEngine, TableSchema
from repro.storage.recovery import recover

KEYS = list(range(6))
VALUES = ["a", "b", "c", "d"]

#: one recorded operation: ("insert", k, v) / ("update", k, v) / ("delete", k)
Op = tuple


def fresh_engine() -> StorageEngine:
    engine = StorageEngine()
    engine.create_table(TableSchema.build(
        "K",
        [("k", ColumnType.INTEGER), ("v", ColumnType.TEXT)],
        primary_key=["k"],
    ))
    return engine


def apply_op(engine: StorageEngine, txn: int, op: Op) -> bool:
    """Replay one recorded operation; returns True when it applied."""
    table = engine.db.table("K")
    kind = op[0]
    if kind == "insert":
        _, k, v = op
        if table.pk_rid((k,)) is not None:
            return False
        engine.insert(txn, "K", (k, v))
        return True
    if kind == "update":
        _, k, v = op
        rid = table.pk_rid((k,))
        if rid is None:
            return False
        engine.update(txn, "K", rid, (k, v))
        return True
    _, k = op
    rid = table.pk_rid((k,))
    if rid is None:
        return False
    engine.delete(txn, "K", rid)
    return True


def logical_chains(engine: StorageEngine) -> dict:
    """Committed version chains keyed by primary key (rid-independent).

    Keyed by the pk carried by each version (a re-keyed row contributes
    to both keys' histories), each entry sorted by begin timestamp.
    """
    chains: dict[tuple, list[tuple]] = {}
    for chain in engine.db.table("K").version_chains().values():
        for version in chain:
            if version.begin_ts is None:
                continue  # pending: not part of the committed state
            key = (version.values[0],)
            chains.setdefault(key, []).append(
                (version.values, version.begin_ts, version.end_ts)
            )
    return {
        key: sorted(entries, key=lambda e: e[1])
        for key, entries in chains.items()
    }


class CrashRecoveryMachine(RuleBasedStateMachine):
    """Engine + crash/recover vs. a committed-only twin."""

    @initialize()
    def setup(self):
        self.engine = fresh_engine()
        #: committed programs in commit order: (ops, commit_lsn)
        self.committed: list[tuple[list[Op], int]] = []
        self.open_txn: int | None = None
        self.open_ops: list[Op] = []

    # -- transaction driving ---------------------------------------------------

    @rule()
    @precondition(lambda self: self.open_txn is None)
    def begin(self):
        self.open_txn = self.engine.begin()
        self.open_ops = []

    @rule(k=st.sampled_from(KEYS), v=st.sampled_from(VALUES),
          kind=st.sampled_from(["insert", "update", "delete"]))
    @precondition(lambda self: self.open_txn is not None)
    def write(self, k, v, kind):
        op: Op = ("delete", k) if kind == "delete" else (kind, k, v)
        if apply_op(self.engine, self.open_txn, op):
            self.open_ops.append(op)

    @rule()
    @precondition(lambda self: self.open_txn is not None)
    def commit(self):
        self.engine.commit(self.open_txn)
        if self.open_ops:
            self.committed.append((self.open_ops, self.engine.wal.last_lsn))
        self.open_txn = None
        self.open_ops = []

    @rule()
    @precondition(lambda self: self.open_txn is not None)
    def abort(self):
        self.engine.abort(self.open_txn)
        self.open_txn = None
        self.open_ops = []

    # -- the crash -------------------------------------------------------------

    @rule(tail=st.integers(min_value=0, max_value=40))
    def crash_and_recover(self, tail):
        """Crash at an arbitrary flush watermark and compare with a twin.

        ``tail`` picks how much of the volatile log tail becomes durable
        before the crash — 0 loses everything unflushed (mid-commit
        included), larger values slide the watermark forward record by
        record.
        """
        wal = self.engine.wal
        watermark = min(wal.flushed_lsn + tail, wal.last_lsn)
        wal.flush(watermark)
        survivor = self.engine.crash()
        recover(survivor)

        surviving = [
            (ops, lsn) for ops, lsn in self.committed if lsn <= watermark
        ]
        twin = fresh_engine()
        for ops, _lsn in surviving:
            txn = twin.begin()
            for op in ops:
                assert apply_op(twin, txn, op), (
                    "committed op must replay on the twin"
                )
            twin.commit(txn)

        assert logical_chains(survivor) == logical_chains(twin)
        assert survivor.db.content_equal(twin.db)
        assert survivor.oracle.last_commit_ts == twin.oracle.last_commit_ts

        # Continue the machine on the recovered engine.  The surviving
        # entries keep their original LSNs, which remain valid in the
        # survivor's WAL (recovery preserves the durable prefix), so a
        # later crash compares correctly again.
        self.engine = survivor
        self.committed = surviving
        self.open_txn = None
        self.open_ops = []

    # -- invariants ------------------------------------------------------------

    @invariant()
    def committed_versions_are_stamped(self):
        """No committed chain entry may carry a dangling writer mark."""
        for chain in self.engine.db.table("K").version_chains().values():
            for version in chain:
                if version.begin_ts is not None and version.end_ts is not None:
                    assert version.begin_ts <= version.end_ts


TestCrashRecovery = CrashRecoveryMachine.TestCase
TestCrashRecovery.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
