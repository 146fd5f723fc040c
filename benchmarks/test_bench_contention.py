"""Locking ablation benchmark: the tentpole contention win, quantified.

Disjoint-row batches on one hot table: under table-granularity read
locking the batch serializes (one commit per run); under row + index-key
locking it commits in a single run with zero lock waits.  The >= 1.5x
committed-throughput bar is the acceptance criterion for the
fine-grained-locking refactor; measured speedups are far larger.

Every arm of ``repro.bench.contention.ARMS`` runs here through the one
harness: virtual-clock arms on their smallest grid against their shape
rules, the two wall-clock arms for table/series names only, and one
golden case pinning the virtual-clock series to ``BENCH_contention.json``.
"""

import json
from pathlib import Path

import pytest

from repro.bench.contention import ARMS
from repro.bench.harness import check_shapes, grid, run_point
from repro.core.engine import IsolationConfig
from repro.storage.engine import LockGranularity

GOLDEN = Path(__file__).resolve().parent.parent / "BENCH_contention.json"
#: the grid BENCH_contention.json was generated with (--sizes 8,16,32).
GOLDEN_SIZES = (8, 16, 32)

#: the smallest grid each arm still means something on (the shard and
#: range arms' own defaults are already small).
SMALLEST = {
    "granularity": {"xs": (4,)},
    "mvcc": {"xs": (4,)},
    "ssi": {"xs": (4,)},
    "ssi_false_positives": {"xs": (8,)},
    # wall-clock arms: one tiny point per series, names only.
    "wallclock": {"xs": (1, 2), "transactions": 4, "repeats": 1},
    "scaling": {"xs": (2,), "transactions": 2, "repeats": 1,
                "writes_per_txn": 2},
}


def _ratios(arm, tables):
    return {label: derived(tables) for label, derived in arm.ratios.items()}


@pytest.mark.benchmark(group="contention")
def test_locking_ablation_throughput(one_round):
    arm = ARMS["granularity"]
    results = one_round(grid, arm, xs=(4, 8, 16))
    print("\n" + results["throughput"].render())
    print(results["lock_waits"].render())
    for x, speedup in _ratios(arm, results)["speedup (fine/table)"].items():
        print(f"speedup at n={int(x)}: {speedup:.2f}x")
    assert check_shapes(arm, results) == []


@pytest.mark.benchmark(group="contention")
def test_fine_grained_commits_in_one_run(one_round):
    point = one_round(
        run_point, ARMS["granularity"], LockGranularity.FINE, 16,
        {"n_accounts": 256},
    )
    # The whole disjoint batch commits in its first run, without a single
    # lock conflict: coordination is only paid where transactions
    # actually observe each other.
    assert point.runs == 1
    assert point.total("lock_waits") == 0
    assert point.total("deadlocks") == 0
    assert point.committed == 16


@pytest.mark.benchmark(group="contention")
def test_mvcc_ablation_throughput(one_round):
    arm = ARMS["mvcc"]
    results = one_round(grid, arm, xs=(4, 8, 16))
    print("\n" + results["throughput"].render())
    print(results["lock_waits"].render())
    print(results["read_locks"].render())
    for x, speedup in _ratios(arm, results)["speedup (mvcc/2pl)"].items():
        print(f"mvcc speedup at n={int(x)}: {speedup:.2f}x")
    assert check_shapes(arm, results) == []


@pytest.mark.benchmark(group="contention")
def test_snapshot_readers_never_lock_or_wait(one_round):
    point = one_round(
        run_point, ARMS["mvcc"], IsolationConfig.SNAPSHOT, 16,
        {"n_accounts": 256},
    )
    # The acceptance bar for the MVCC refactor: read-only transactions on
    # writer-hot rows acquire zero S/IS locks, hit zero lock waits and
    # zero read restarts, and the whole batch commits in a single run
    # while the writers commit concurrently.
    assert point.committed == 16
    assert point.runs == 1
    assert point.metrics["locks.read_grants"] == 0
    assert point.total("lock_waits") == 0
    assert point.total("read_restarts") == 0
    # the price: one superseded version
    assert max(r.max_version_chain for r in point.reports) >= 2


@pytest.mark.benchmark(group="contention")
def test_2pl_on_shared_hot_rows_does_contend(one_round):
    point = one_round(
        run_point, ARMS["mvcc"], IsolationConfig.FULL, 16,
        {"n_accounts": 256},
    )
    # The control arm: identical workload, readers queue behind writers.
    assert point.committed == 16
    assert point.total("lock_waits") > 0
    assert point.runs > 1


@pytest.mark.benchmark(group="contention")
@pytest.mark.parametrize("name", list(ARMS))
def test_every_arm_runs_through_the_harness(name, one_round):
    arm = ARMS[name]
    tables = one_round(grid, arm, **SMALLEST.get(name, {}))
    assert set(tables) == {table.key for table in arm.tables}
    for table in tables.values():
        assert table.clock == arm.clock
        assert table.x_label == arm.x_label
    if arm.clock == "wall":
        # Ratios are host-dependent; the names are the contract.
        (throughput,) = tables.values()
        assert set(throughput.series) == set(arm.series)
    else:
        assert check_shapes(arm, tables) == []


@pytest.mark.benchmark(group="contention")
def test_virtual_clock_series_match_the_checked_in_json(one_round):
    """The cost accounting is deterministic: a PR that shifts it must
    regenerate ``BENCH_contention.json`` in the same PR."""
    golden = json.loads(GOLDEN.read_text())["experiments"]

    def measure():
        return {
            name: grid(
                arm, **({"xs": GOLDEN_SIZES}
                        if arm.x_label == "transactions" else {}))
            for name, arm in ARMS.items() if arm.clock == "virtual"
        }

    measured = one_round(measure)
    assert set(measured) == {
        "granularity", "mvcc", "ssi", "shards", "ssi_false_positives",
        "range",
    }
    for name, tables in measured.items():
        assert set(tables) == set(golden[name])
        for key, table in tables.items():
            series = {
                column: [list(point) for point in curve.points]
                for column, curve in table.series.items()
            }
            assert series == golden[name][key]["series"], (name, key)
