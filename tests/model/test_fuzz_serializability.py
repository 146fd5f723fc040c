"""Schedule-fuzzing harness: random workloads vs. the serializability oracle.

Hypothesis generates small random batch workloads — a handful of
transactions doing point SELECTs and UPDATEs over single-row tables —
plus a *seeded interleaving*: a submission permutation and a chunking of
the batch into scheduler runs.  Each workload executes on the real
engine under both the retained 2PL-serializable mode and
``IsolationConfig.SNAPSHOT``, with the formal-model recorder attached;
every committed history is then cross-checked:

* **2PL** — the recorded schedule must be entangled-isolated and
  oracle-serializable (``model/oracle.py`` machinery via
  :func:`find_serialization_order`), for every generated interleaving.
* **SNAPSHOT** — the schedule must satisfy ``IsolationLevel.SNAPSHOT``:
  any conflict cycle carries the consecutive-rw dangerous structure
  (write skew), never a ww/wr cycle that MVCC's first-updater-wins rules
  out.  Serializability is *allowed* to fail — the deterministic
  write-skew test asserts it actually does.
* **SERIALIZABLE** — runtime SSI: every committed history must pass the
  full serializability oracle (``IsolationLevel.SERIALIZABLE``), with
  the dangerous-structure pivots aborted and retried at runtime.  The
  *upgrade proof* runs the same seeded write-skew-prone interleavings
  under both SNAPSHOT and SERIALIZABLE: the SNAPSHOT arm must exhibit at
  least one write-skew history (the anomaly is real) while the
  SERIALIZABLE arm commits zero histories the oracle rejects.

Failures shrink: the strategies compose from plain integer/choice draws,
so Hypothesis reduces any counterexample to a minimal workload and
interleaving, and the failure message carries the recorded schedule.

``REPRO_ISOLATION`` (``2pl`` / ``snapshot`` / ``serializable``)
restricts the module to one arm — the CI isolation matrix sets it per
job.  ``REPRO_SHARDS`` (default 1) runs every arm against a
``ShardedStorageEngine`` with that many shards: each table's single row
carries a distinct key (T0: k=0, T1: k=1, T2: k=2) whose hashes land on
different shards at N=2 and N=4, so multi-table programs exercise
cross-shard transactions and the same oracles verify the
vector-snapshot consistent cut, the global SSI tracker's cross-shard
dangerous structures, and the two-phase cross-shard commit.  (Tables
stay single-row on purpose — the formal model works at table
granularity, so one row per table keeps table == object exact.)
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _batch import engine_for
from repro.core.engine import (
    EngineConfig,
    EntangledTransactionEngine,
    IsolationConfig,
)
from repro.core.transaction import TxnPhase
from repro.model.anomalies import (
    find_conflict_cycles,
    find_non_si_conflict_cycles,
    find_widowed_transactions,
)
from repro.model.isolation import IsolationLevel, check_isolation
from repro.model.quasi import expand_quasi_reads
from repro.model.serializability import find_serialization_order
from repro.storage import (
    ColumnType,
    ShardedStorageEngine,
    StorageEngine,
    TableSchema,
)

TABLES = ("T0", "T1", "T2")
#: each table's single row carries its own key so the tables hash to
#: different shards under REPRO_SHARDS (0/1/2 -> shards 0/1/0 at N=2,
#: 0/3/2 at N=4).
KEY_OF = {"T0": 0, "T1": 1, "T2": 2}

ISOLATION_ARM = os.environ.get("REPRO_ISOLATION", "").lower()
N_SHARDS = int(os.environ.get("REPRO_SHARDS", "1"))
#: ``REPRO_EXECUTOR=1`` runs every arm under the per-shard thread-pool
#: executor (real worker threads driving the same seeded workloads), so
#: the isolation oracles also vet the thread-safety layer.
USE_EXECUTOR = os.environ.get("REPRO_EXECUTOR", "") == "1"
#: ``REPRO_RANGE_PREDICATES=1`` makes the generated workloads read
#: through bounded range predicates (``k >= lo AND k <= hi``) instead of
#: point probes only: the planner routes them through the B+ tree's
#: index-range path, 2PL takes next-key locks, SSI records ``ixrange``
#: read intervals — and the same serializability oracles must still hold
#: for every seeded interleaving.  The bounds always cover the table's
#: single row, so the model-level read set is unchanged.
RANGE_PREDICATES = os.environ.get("REPRO_RANGE_PREDICATES", "") == "1"
only_2pl = pytest.mark.skipif(
    ISOLATION_ARM not in ("", "2pl"), reason="different CI isolation arm"
)
only_snapshot = pytest.mark.skipif(
    ISOLATION_ARM not in ("", "snapshot"), reason="different CI isolation arm"
)
only_serializable = pytest.mark.skipif(
    ISOLATION_ARM not in ("", "serializable"),
    reason="different CI isolation arm",
)


def build_engine(mode: IsolationConfig) -> EntangledTransactionEngine:
    store = (
        ShardedStorageEngine(N_SHARDS) if N_SHARDS > 1 else StorageEngine()
    )
    for name in TABLES:
        store.create_table(TableSchema.build(
            name,
            [("k", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
            primary_key=["k"],
        ))
        store.load(name, [(KEY_OF[name], 10)])
    config = EngineConfig(
        isolation=mode, record_schedule=True, executor=USE_EXECUTOR
    )
    return engine_for(store, config)


@st.composite
def workloads(draw):
    """(programs, submission order, run chunking) — one seeded schedule."""
    n_txns = draw(st.integers(min_value=2, max_value=4))
    programs = []
    for t in range(n_txns):
        statements = []
        for i in range(draw(st.integers(min_value=1, max_value=3))):
            table = draw(st.sampled_from(TABLES))
            key = KEY_OF[table]
            if draw(st.booleans()):
                if RANGE_PREDICATES:
                    lo = key - draw(st.integers(min_value=0, max_value=2))
                    hi = key + draw(st.integers(min_value=0, max_value=2))
                    statements.append(
                        f"SELECT v AS @r{t}_{i} FROM {table} "
                        f"WHERE k >= {lo} AND k <= {hi};"
                    )
                else:
                    statements.append(
                        f"SELECT v AS @r{t}_{i} FROM {table} WHERE k = {key};"
                    )
            else:
                delta = draw(st.integers(min_value=1, max_value=3))
                statements.append(
                    f"UPDATE {table} SET v = v + {delta} WHERE k = {key};"
                )
        programs.append(
            "BEGIN TRANSACTION; " + " ".join(statements) + " COMMIT;"
        )
    order = draw(st.permutations(tuple(range(n_txns))))
    chunks = draw(
        st.lists(st.integers(min_value=1, max_value=n_txns),
                 min_size=1, max_size=3)
    )
    return programs, list(order), chunks


def run_workload(mode: IsolationConfig, workload):
    """Execute one seeded workload to completion; returns the engine."""
    programs, order, chunks = workload
    engine = build_engine(mode)
    # Kept from submission: the engine forgets a finished transaction.
    txns = [engine.transaction(engine.submit(p, client=f"c{i}"))
            for i, p in enumerate(programs)]
    handles = [txn.handle for txn in txns]
    shuffled = [handles[i] for i in order]
    position = 0
    for size in chunks:
        if position >= len(shuffled):
            break
        engine.run_once(handles=shuffled[position:position + size])
        position += size
    engine.drain()
    engine.close()  # join executor workers; the recorded schedule stays
    for txn in txns:
        assert txn.phase is TxnPhase.COMMITTED, (
            f"transaction {txn.handle} did not commit: {txn.abort_reason}"
        )
    return engine


@only_2pl
class TestTwoPhaseLockingFuzz:
    """The acceptance bar: >= 200 seeded schedules, zero violations."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(workload=workloads())
    def test_2pl_histories_are_serializable(self, workload):
        """Serializability plus the structural C.2/C.4 requirements.

        The conservative positional C.3 detector is deliberately *not*
        asserted here: a retried attempt that overwrites and re-reads an
        object its own rolled-back predecessor wrote trips it, even
        though the engine's rollback is exact and the history
        serializes — the conservatism belongs to the abstract model
        (see ``find_read_from_aborted``'s docstring), not to the
        engine's guarantee.
        """
        engine = run_workload(IsolationConfig.FULL, workload)
        schedule = engine.recorded_schedule()
        result = find_serialization_order(schedule)
        assert result.serializable, (
            f"2PL produced a non-serializable history: {schedule}"
        )
        expanded = expand_quasi_reads(schedule)
        assert find_conflict_cycles(expanded) == [], (
            f"2PL history has a conflict cycle: {schedule}"
        )
        assert find_widowed_transactions(expanded) == []


@only_snapshot
class TestSnapshotFuzz:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(workload=workloads())
    def test_snapshot_histories_stay_within_si(self, workload):
        """SI may admit write skew, never a ww/wr cycle or a widow."""
        engine = run_workload(IsolationConfig.SNAPSHOT, workload)
        schedule = engine.recorded_schedule()
        expanded = expand_quasi_reads(schedule)
        assert find_non_si_conflict_cycles(expanded) == [], (
            f"SNAPSHOT history exceeds snapshot isolation: {schedule}"
        )
        assert find_widowed_transactions(expanded) == []


@only_serializable
class TestSerializableFuzz:
    """Runtime SSI: >= 200 seeded schedules, zero oracle rejections."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(workload=workloads())
    def test_serializable_histories_pass_the_oracle(self, workload):
        """Every committed SSI history must satisfy the full
        ``IsolationLevel.SERIALIZABLE`` bar: acyclic (multiversion)
        conflict graph, oracle-serializable outcome, no widows."""
        engine = run_workload(IsolationConfig.SERIALIZABLE, workload)
        schedule = engine.recorded_schedule()
        check = check_isolation(schedule, IsolationLevel.SERIALIZABLE)
        assert check.ok, (
            f"SSI committed a non-serializable history: "
            f"{[str(v) for v in check.violations]}: {schedule}"
        )


def skew_prone_workload(seed: int):
    """One seeded write-skew-prone workload + interleaving.

    Every transaction reads one table and writes a *different* one —
    exactly the disjoint-write/overlapping-read shape whose concurrent
    commits produce write skew under snapshot isolation.
    """
    rng = random.Random(seed)
    n_txns = rng.randint(2, 4)
    programs = []
    for t in range(n_txns):
        read_table = rng.choice(TABLES)
        write_table = rng.choice([x for x in TABLES if x != read_table])
        programs.append(
            f"BEGIN TRANSACTION; "
            f"SELECT v AS @r{t} FROM {read_table} "
            f"WHERE k = {KEY_OF[read_table]}; "
            f"UPDATE {write_table} SET v = v + 1 "
            f"WHERE k = {KEY_OF[write_table]}; COMMIT;"
        )
    order = list(range(n_txns))
    rng.shuffle(order)
    chunks = [rng.randint(1, n_txns) for _ in range(rng.randint(1, 3))]
    return programs, order, chunks


@only_serializable
class TestSerializableUpgrade:
    """The acceptance bar for the SSI upgrade, on *identical* seeds.

    200 seeded write-skew-prone interleavings run under both isolation
    modes: SNAPSHOT must exhibit at least one write-skew history (the
    anomaly the upgrade closes is real, not hypothetical), while
    SERIALIZABLE commits zero histories the serializability oracle
    rejects — and pays for it with observable pivot aborts.
    """

    SEEDS = range(200)

    def test_same_seeds_skew_under_snapshot_never_under_serializable(self):
        skewed = 0
        ssi_aborts = 0
        for seed in self.SEEDS:
            workload = skew_prone_workload(seed)

            snap = run_workload(IsolationConfig.SNAPSHOT, workload)
            snap_schedule = snap.recorded_schedule()
            expanded = expand_quasi_reads(snap_schedule)
            # Within SI always; write skew = a (consecutive-rw) cycle.
            assert find_non_si_conflict_cycles(expanded) == []
            if find_conflict_cycles(expanded):
                skewed += 1

            ssi = run_workload(IsolationConfig.SERIALIZABLE, workload)
            ssi_schedule = ssi.recorded_schedule()
            check = check_isolation(ssi_schedule, IsolationLevel.SERIALIZABLE)
            assert check.ok, (
                f"seed {seed}: SSI committed a non-serializable history: "
                f"{[str(v) for v in check.violations]}: {ssi_schedule}"
            )
            ssi_aborts += sum(r.ssi_aborts for r in ssi.run_reports)
        # The upgrade must be doing real work on these seeds.
        assert skewed >= 1, (
            "no seeded interleaving exhibited write skew under SNAPSHOT — "
            "the workload no longer exercises the anomaly"
        )
        assert ssi_aborts >= 1, (
            "SSI never aborted a pivot on seeds that skew under SNAPSHOT"
        )


WRITE_SKEW = (
    "BEGIN TRANSACTION; SELECT v AS @x FROM T0 WHERE k = 0; "
    "UPDATE T1 SET v = v + 1 WHERE k = 1; COMMIT;",
    "BEGIN TRANSACTION; SELECT v AS @y FROM T1 WHERE k = 1; "
    "UPDATE T0 SET v = v + 1 WHERE k = 0; COMMIT;",
)


class TestWriteSkew:
    """Write skew must be observable under SNAPSHOT, absent under 2PL."""

    @only_snapshot
    def test_snapshot_admits_write_skew(self):
        engine = build_engine(IsolationConfig.SNAPSHOT)
        handles = [engine.submit(p) for p in WRITE_SKEW]
        report = engine.run_once()
        # Both commit together in one run: neither saw the other's write.
        assert sorted(report.committed) == sorted(handles)
        schedule = engine.recorded_schedule()
        assert not find_serialization_order(schedule).serializable
        assert not check_isolation(schedule, IsolationLevel.FULL_ENTANGLED).ok
        # ... yet the anomaly is exactly SI-shaped: consecutive rw cycle.
        assert check_isolation(schedule, IsolationLevel.SNAPSHOT).ok

    @only_2pl
    def test_2pl_prevents_write_skew(self):
        engine = build_engine(IsolationConfig.FULL)
        txns = [engine.transaction(engine.submit(p)) for p in WRITE_SKEW]
        engine.run_once()
        engine.drain()
        for txn in txns:
            assert txn.phase is TxnPhase.COMMITTED
        schedule = engine.recorded_schedule()
        assert find_serialization_order(schedule).serializable
        assert check_isolation(schedule, IsolationLevel.FULL_ENTANGLED).ok

    @only_serializable
    def test_serializable_closes_write_skew(self):
        """The same two programs that skew under SNAPSHOT: SSI aborts
        the pivot in the concurrent run, retries it, and the final
        history is serializable with both transactions committed."""
        engine = build_engine(IsolationConfig.SERIALIZABLE)
        txns = [engine.transaction(engine.submit(p)) for p in WRITE_SKEW]
        report = engine.run_once()
        # The concurrent run cannot commit both: the second committer is
        # the pivot of the dangerous structure and aborts.
        assert len(report.committed) == 1
        assert report.ssi_aborts == 1
        assert report.pivot_aborts == 1
        engine.drain()
        for txn in txns:
            assert txn.phase is TxnPhase.COMMITTED
        schedule = engine.recorded_schedule()
        assert find_serialization_order(schedule).serializable
        assert check_isolation(schedule, IsolationLevel.SERIALIZABLE).ok
        # The retried attempt saw the first writer's commit, so the
        # increments compose serially: both updates landed.
        store = engine.store
        txn = store.begin()
        values = {
            name: {
                row.values[0]: row.values[1]
                for row in store.read_table(txn, name)
            }[KEY_OF[name]]
            for name in ("T0", "T1")
        }
        assert values == {"T0": 11, "T1": 11}

    @only_snapshot
    def test_lost_update_still_impossible_under_snapshot(self):
        """First-updater-wins: concurrent increments of one row both land."""
        program = (
            "BEGIN TRANSACTION; "
            "UPDATE T0 SET v = v + 1 WHERE k = 0; COMMIT;"
        )
        engine = build_engine(IsolationConfig.SNAPSHOT)
        for _ in range(4):
            engine.submit(program)
        engine.drain()
        store = engine.store
        txn = store.begin()
        value = {
            row.values[0]: row.values[1]
            for row in store.read_table(txn, "T0")
        }[0]
        assert value == 14  # 10 + 4: no increment was lost
        schedule = engine.recorded_schedule()
        assert check_isolation(schedule, IsolationLevel.SNAPSHOT).ok
