"""Observational equivalence: follower reads vs leader snapshots.

The follower-read correctness argument is that a routed snapshot probe
is indistinguishable from a leader probe at the same timestamp — the
follower applied the same commits, in the same order, stamped with the
same timestamps, through the same redo helper recovery uses.  The
property here pins it down end to end: whatever the replication lag and
staleness bound, every SNAPSHOT read observes *some consistent leader
prefix* — a state the leader's committed history actually passed
through — never a torn mixture; and a reader whose session floor
(``min_vector``) is the freshest acknowledged vector observes exactly
the freshest state (read-your-writes, however lagged the replicas).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replication import ReplicatedStorageEngine
from repro.storage import ColumnType, TableSchema, TxnIsolation, shard_members
from repro.transport.process import spawn_workers

SCHEMA = TableSchema.build(
    "T",
    [("k", ColumnType.INTEGER), ("v", ColumnType.TEXT)],
    primary_key=["k"],
)


def build(n_shards, leaders="in_process", **kwargs):
    """``leaders="workers"`` runs each leader in a worker process (its
    followers stay here); close the store when done."""
    members = (
        spawn_workers(shard_members(n_shards)) if leaders == "workers" else None
    )
    engine = ReplicatedStorageEngine(n_shards, shards=members, **kwargs)
    engine.create_table(SCHEMA)
    return engine


def committed_contents(engine) -> frozenset:
    return frozenset(
        (row.values[0], row.values[1])
        for row in engine.db.table("T").scan()
    )


def snapshot_read(engine, *, min_vector=None) -> frozenset:
    txn = engine.begin(TxnIsolation.SNAPSHOT, min_vector=min_vector)
    seen = frozenset(
        (row.values[0], row.values[1])
        for row in engine.snapshot_provider(txn).table("T").scan()
    )
    engine.commit(txn)
    return seen


class TestFollowerReadEquivalence:
    @pytest.mark.parametrize("leaders", ["in_process", "workers"])
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        n_shards=st.sampled_from((1, 2)),
        apply_lag=st.integers(min_value=0, max_value=5),
        max_staleness=st.sampled_from((0, 4, 64)),
        txns=st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=9),
                    st.sampled_from(["a", "b", "c"]),
                ),
                min_size=1, max_size=3,
            ),
            min_size=1, max_size=10,
        ),
        read_after=st.integers(min_value=0, max_value=9),
    )
    def test_every_read_observes_some_consistent_leader_prefix(
        self, leaders, n_shards, apply_lag, max_staleness, txns, read_after
    ):
        engine = build(
            n_shards, leaders, replicas=2,
            apply_lag=apply_lag, max_staleness=max_staleness,
        )
        try:
            self.check_every_read(engine, txns, read_after)
        finally:
            engine.close()

    @staticmethod
    def check_every_read(engine, txns, read_after):
        # The committed history: every state the leader passed through.
        history = [committed_contents(engine)]
        for i, ops in enumerate(txns):
            txn = engine.begin()
            for key, value in ops:
                row = engine.db.table("T").lookup_pk((key,))
                if row is None:
                    engine.insert(txn, "T", (key, value))
                else:
                    engine.update(txn, "T", row.rid, (key, value))
            engine.commit(txn)
            history.append(committed_contents(engine))
            if i == read_after % len(txns):
                # Mid-history reads too, not just the final state.
                seen = snapshot_read(engine)
                assert seen in history, (
                    f"read observed a state the leader never passed "
                    f"through: {sorted(seen)}"
                )
        seen = snapshot_read(engine)
        assert seen in history
        # Draining the replicas never changes what a fresh-floor reader
        # sees — only *where* the probe is served from.
        floor = tuple(s.oracle.last_commit_ts for s in engine.shards)
        assert snapshot_read(engine, min_vector=floor) == history[-1]
        engine.drain_replicas()
        assert snapshot_read(engine, min_vector=floor) == history[-1]

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        apply_lag=st.integers(min_value=1, max_value=6),
        n_commits=st.integers(min_value=2, max_value=12),
    )
    def test_read_your_writes_floor_defeats_any_lag(
        self, apply_lag, n_commits
    ):
        """A reader floored at its own acknowledged writes is never
        served anything staler, whatever the replica lag or bound."""
        engine = build(
            2, replicas=2, apply_lag=apply_lag, max_staleness=1_000,
        )
        for i in range(n_commits):
            txn = engine.begin()
            engine.insert(txn, "T", (i, f"v{i}"))
            engine.commit(txn)
            floor = tuple(s.oracle.last_commit_ts for s in engine.shards)
            seen = snapshot_read(engine, min_vector=floor)
            assert seen == committed_contents(engine), (
                f"session lost its own write at commit {i}"
            )
