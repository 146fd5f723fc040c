"""Replication bench: follower-read scaling, lag, and failover.

Three measured arms over the WAL-shipping replicated engine
(:class:`repro.replication.ReplicatedStorageEngine`):

* **follower-reads** — a read-heavy open workload (≥90% SNAPSHOT
  temporal queries) at replica counts 0..3, with snapshot-read service
  time priced per *server* (:attr:`CostModel.read_service_cost`): each
  leader and each follower is a serial pipeline, so spreading probes
  over 1+N servers per shard divides the busiest server's load and
  goodput scales with the replica count.  The ``replicas=0`` baseline
  runs the *same* replicated engine (with zero followers), so the
  pricing is identical and the comparison is pure routing.
* **replication-lag** — lazy followers (``replica_lag`` held-back
  commits) under a mixed workload; the worst-follower lag is sampled
  after every run and reported as p50/p95/p99 per configured lag.
  A read-your-writes session runs alongside, writing a marker and
  immediately reading it back through the lagging replicas — the
  violation count must be zero (the session floor defeats any lag).
* **failover** — the leader of shard 0 is killed mid-schedule
  (:meth:`fail_over`); the arm must complete, promote exactly once,
  and lose nothing acknowledged: every committed transfer's ledger row
  is present afterwards, and none from aborted ones.

Run as a script::

    PYTHONPATH=src python -m repro.bench.replication \\
        --json-out BENCH_replication.json --check
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools

from repro.bench.harness import OpenPoint, drive_open, report
from repro.bench.traffic import TRAFFIC_CONNECTIONS, poisson_arrivals
from repro.client import connect
from repro.core.engine import EngineConfig
from repro.errors import WorkloadError
from repro.sim.clock import VirtualClock
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.metrics import LatencySummary, Measurements
from repro.storage.schema import TableSchema
from repro.storage.types import ColumnType
from repro.workloads.payments import PaymentLedger

#: Snapshot-read service time per probe.  Deliberately dominant over
#: the per-statement connection costs so the read path, not statement
#: latency, sets the capacity — the quantity replica routing divides.
READ_SERVICE_COST = 0.025

BENCH_COSTS = dataclasses.replace(
    DEFAULT_COSTS, read_service_cost=READ_SERVICE_COST
)

#: replica counts for the scaling arm (0 = leaders only, same engine).
DEFAULT_REPLICA_COUNTS = (0, 1, 2, 3)

#: held-back-commit counts for the lag arm.
DEFAULT_LAG_STEPS = (0, 4, 8)

DEFAULT_ARRIVALS = 200
DEFAULT_DEADLINE = 2.0
DEFAULT_SHARDS = 2

#: the read-your-writes marker table (kept off the scenario's tables).
_RYW_SCHEMA = TableSchema.build(
    "RywProbe",
    [("k", ColumnType.INTEGER), ("run", ColumnType.INTEGER)],
    primary_key=["k"],
)


def read_heavy_scenario(seed: int = 2011) -> PaymentLedger:
    """The ≥90%-reads arm: temporal ledger queries over a wide pool."""
    return PaymentLedger(n_accounts=128, query_share=0.9, seed=seed)


@dataclasses.dataclass
class ReplicaStats:
    """The replication instrumentation of one point, beside its
    :class:`~repro.bench.harness.OpenPoint`."""

    follower_reads: int = 0       # summed over the point's runs
    promotions: int = 0
    committed_transfers: int = 0
    ledger_rows: int = 0
    ryw_probes: int = 0
    ryw_violations: int = 0
    #: worst-follower lag, sampled after every run.
    lag_samples: list[float] = dataclasses.field(
        default_factory=list, repr=False)

    @property
    def lag(self) -> "LatencySummary | None":
        return LatencySummary.of(self.lag_samples) if self.lag_samples else None

    @property
    def zero_acknowledged_loss(self) -> bool:
        """Every committed transfer's ledger row survived — and only
        those (aborted transfers left nothing behind)."""
        return self.ledger_rows == self.committed_transfers


def run_replica_point(
    scenario,
    arrivals: list[float],
    *,
    deadline: float,
    replicas: int,
    shards: int = DEFAULT_SHARDS,
    max_staleness: int = 8,
    replica_lag: int = 0,
    fail_over_midway: bool = False,
    ryw_probe_every: int = 0,
) -> "tuple[OpenPoint, ReplicaStats]":
    """Drive one arrival schedule through a fresh replicated ensemble.

    The open-loop driver of :func:`repro.bench.traffic.run_traffic_point`
    (:func:`~repro.bench.harness.drive_open`), minus admission (the arms
    here measure routing and durability, not shedding), plus the
    replication instrumentation in a :class:`ReplicaStats`: follower
    reads summed over the runs, worst-follower lag sampled after every
    run, committed-transfer conservation for the zero-loss check,
    optional read-your-writes probes between runs, and an optional
    leader kill at the schedule's midpoint.
    """
    db = connect(
        shards=shards,
        isolation="snapshot",
        config=EngineConfig(connections=TRAFFIC_CONNECTIONS),
        clock=VirtualClock(costs=BENCH_COSTS),
        replicas=replicas,
        max_staleness=max_staleness,
        replica_lag=replica_lag,
    )
    try:
        scenario.install(db)
        db.create_table(_RYW_SCHEMA)
        ryw = db.session("ryw-probe")
        stats = ReplicaStats()
        transfers: set[int] = set()
        submitted = itertools.count(1)
        kill_at = max(len(arrivals) // 2, 1) if fail_over_midway else 0

        def after_submit(handle, program: str) -> None:
            if "UPDATE" in program:
                transfers.add(handle.handle)
            if next(submitted) == kill_at:
                db.store.fail_over(0)

        def after_run(point: OpenPoint, report) -> None:
            # The probes below read through followers too: only the
            # scheduled runs' reports count toward ``follower_reads``.
            stats.follower_reads += report.follower_reads
            stats.committed_transfers += len(
                transfers.intersection(report.committed))
            stats.lag_samples.append(float(db.store.replication_lag()))
            if ryw_probe_every and point.runs % ryw_probe_every == 0:
                stats.ryw_probes += 1
                probes = stats.ryw_probes
                with ryw.transaction() as t:
                    t.insert("RywProbe", (probes, point.runs))
                with ryw.transaction() as t:
                    seen = {row.values[0] for row in t.read_table("RywProbe")}
                if any(k not in seen for k in range(1, probes + 1)):
                    stats.ryw_violations += 1

        point = drive_open(
            db, scenario, arrivals, deadline=deadline,
            after_submit=after_submit, after_run=after_run)
        stats.promotions = db.store.promotion_count
        stats.ledger_rows = sum(1 for _ in db.store.db.table("Ledger").scan())
    finally:
        db.close()
    return point, stats


def estimate_capacity(
    *, shards: int = DEFAULT_SHARDS, arrivals: int = 120, seed: int = 11
) -> float:
    """Service capacity μ₀ of the replicas=0 ensemble (commits/s).

    A deliberately saturating schedule: with the engine busy end to
    end, throughput *is* capacity under the bench cost model.
    """
    schedule = poisson_arrivals(500.0, arrivals, seed=seed)
    probe, _stats = run_replica_point(
        read_heavy_scenario(seed=seed), schedule,
        deadline=1e9, replicas=0, shards=shards,
    )
    if probe.throughput <= 0:
        raise WorkloadError("capacity probe made no progress")
    return probe.throughput


def run(
    *,
    n_arrivals: int = DEFAULT_ARRIVALS,
    deadline: float = DEFAULT_DEADLINE,
    replica_counts: tuple = DEFAULT_REPLICA_COUNTS,
    lag_steps: tuple = DEFAULT_LAG_STEPS,
    shards: int = DEFAULT_SHARDS,
    seed: int = 7,
    verbose: bool = True,
) -> "dict[str, dict[str, Measurements]]":
    """All three arms; returns the ``{arm: {table: Measurements}}``
    shape :func:`~repro.bench.harness.report` renders and serializes."""
    mu0 = estimate_capacity(shards=shards, seed=seed)
    if verbose:
        print(f"[replication] replicas=0 capacity μ₀ = {mu0:.1f}/s")

    # -- follower-read scaling: 3×μ₀ offered, replicas 0..N ------------------
    goodput = Measurements(
        experiment="follower reads: goodput vs replica count "
                   "(read-heavy, offered 3×μ₀)",
        x_label="replicas per shard",
        y_label="goodput (timely commits/s)",
    )
    routing = Measurements(
        experiment="follower reads: routing vs replica count",
        x_label="replicas per shard",
        y_label="count / share",
    )
    schedule = poisson_arrivals(3.0 * mu0, n_arrivals, seed=seed)
    for n in replica_counts:
        point, stats = run_replica_point(
            read_heavy_scenario(seed=seed), schedule,
            deadline=deadline, replicas=n, shards=shards,
            ryw_probe_every=4,
        )
        settled = point.committed + point.aborted
        goodput.add("goodput", n, point.goodput)
        goodput.add("throughput", n, point.throughput)
        routing.add("follower-reads", n, float(stats.follower_reads))
        routing.add(
            "follower-read-share", n,
            stats.follower_reads / settled if settled else 0.0)
        routing.add("ryw-violations", n, float(stats.ryw_violations))
        routing.add("ryw-probes", n, float(stats.ryw_probes))
        if verbose:
            print(
                f"[follower-reads] replicas={n}  goodput={point.goodput:7.1f}"
                f"  follower-reads={stats.follower_reads}"
                f"  ryw={stats.ryw_violations}/{stats.ryw_probes} stale"
            )

    # -- replication lag percentiles -----------------------------------------
    lag_t = Measurements(
        experiment="replication lag vs configured apply lag "
                   "(replicas=2, mixed workload)",
        x_label="replica_lag (held-back commits)",
        y_label="worst-follower lag (commit ticks)",
    )
    lag_schedule = poisson_arrivals(1.0 * mu0, n_arrivals, seed=seed + 1)
    for lag in lag_steps:
        _point, stats = run_replica_point(
            PaymentLedger(n_accounts=128, query_share=0.5, seed=seed),
            lag_schedule,
            deadline=deadline, replicas=2, shards=shards,
            max_staleness=256, replica_lag=lag,
            ryw_probe_every=4,
        )
        summary = stats.lag
        for p in ("p50", "p95", "p99"):
            lag_t.add(p, lag, getattr(summary, p) if summary else 0.0)
        lag_t.add("ryw-violations", lag, float(stats.ryw_violations))
        if verbose:
            print(
                f"[replication-lag] replica_lag={lag}  "
                f"p50={summary.p50 if summary else 0.0:.1f}  "
                f"p99={summary.p99 if summary else 0.0:.1f}  "
                f"ryw={stats.ryw_violations}/{stats.ryw_probes} stale"
            )

    # -- failover mid-schedule ------------------------------------------------
    failover_t = Measurements(
        experiment="leader failover mid-schedule (replicas=2)",
        x_label="(single point)",
        y_label="count / flag",
    )
    kill_schedule = poisson_arrivals(1.0 * mu0, n_arrivals, seed=seed + 2)
    point, stats = run_replica_point(
        read_heavy_scenario(seed=seed), kill_schedule,
        deadline=deadline, replicas=2, shards=shards,
        fail_over_midway=True,
    )
    zero_loss = stats.zero_acknowledged_loss
    failover_t.add("promotions", 0, float(stats.promotions))
    failover_t.add("committed", 0, float(point.committed))
    failover_t.add("aborted", 0, float(point.aborted))
    failover_t.add("committed-transfers", 0, float(stats.committed_transfers))
    failover_t.add("ledger-rows", 0, float(stats.ledger_rows))
    failover_t.add("zero-acknowledged-loss", 0, 1.0 if zero_loss else 0.0)
    if verbose:
        print(
            f"[failover] promotions={stats.promotions}  "
            f"committed={point.committed} (transfers="
            f"{stats.committed_transfers})  "
            f"ledger-rows={stats.ledger_rows}"
            f"  zero-loss={zero_loss}"
        )

    return {
        "follower-reads": {"goodput": goodput, "routing": routing},
        "replication-lag": {"lag": lag_t},
        "failover": {"failover": failover_t},
    }


def check_replication_shapes(
    groups: "dict[str, dict[str, Measurements]]",
) -> list[str]:
    """Sanity assertions on the measured curves; returns violations.

    * follower-read goodput scales: ≥2× at 3 replicas vs 0 replicas
      (the acceptance bar — each shard's probes spread over 4 servers,
      so the busiest server carries ≤ ~1/4 of the read service time);
    * zero follower reads at replicas=0, a positive count at ≥2;
    * read-your-writes is never stale, at any replica count or lag;
    * worst-follower lag grows with the configured apply lag (p50
      monotone, p99 ≥ p50 ≥ 0);
    * the failover arm promoted exactly once, completed, and lost no
      acknowledged commit (ledger rows == committed transfers).
    """
    problems: list[str] = []

    g = groups["follower-reads"]["goodput"].series_named("goodput")
    by_n = dict(g.points)
    base, scaled = by_n.get(0, 0.0), by_n.get(max(by_n), 0.0)
    if base <= 0:
        problems.append("follower-reads: replicas=0 baseline made no "
                        "timely progress")
    elif scaled < 2.0 * base:
        problems.append(
            f"follower-reads: goodput at {max(by_n):.0f} replicas "
            f"({scaled:.1f}/s) is below 2x the replicas=0 baseline "
            f"({base:.1f}/s)")
    routing = groups["follower-reads"]["routing"]
    reads = dict(routing.series_named("follower-reads").points)
    if reads.get(0, 0.0) != 0.0:
        problems.append(
            f"follower-reads: {reads[0]:.0f} follower reads with zero "
            f"replicas")
    if max(n for n in reads) >= 2 and reads[max(reads)] <= 0.0:
        problems.append(
            "follower-reads: no probe ever routed to a follower")
    for x, y in routing.series_named("ryw-violations").points:
        if y > 0:
            problems.append(
                f"follower-reads: {y:.0f} read-your-writes violations "
                f"at {x:.0f} replicas")

    lag_t = groups["replication-lag"]["lag"]
    p50 = lag_t.series_named("p50")
    p99 = dict(lag_t.series_named("p99").points)
    last = -1.0
    for x, y in p50.points:
        if y < 0 or p99.get(x, 0.0) < y:
            problems.append(
                f"replication-lag: incoherent percentiles at "
                f"replica_lag={x:.0f} (p50={y:.1f}, p99={p99.get(x)})")
        if y < last:
            problems.append(
                f"replication-lag: p50 not monotone in replica_lag "
                f"({last:.1f} -> {y:.1f} at {x:.0f})")
        last = y
    if p50.points and p50.points[-1][1] <= 0.0:
        problems.append(
            "replication-lag: lazy followers show no lag at the "
            "largest configured replica_lag")
    for x, y in lag_t.series_named("ryw-violations").points:
        if y > 0:
            problems.append(
                f"replication-lag: {y:.0f} read-your-writes violations "
                f"at replica_lag={x:.0f}")

    f = groups["failover"]["failover"]
    series = {name: s.points[0][1] for name, s in f.series.items()}
    if series.get("promotions") != 1.0:
        problems.append(
            f"failover: expected exactly one promotion, saw "
            f"{series.get('promotions', 0):.0f}")
    if series.get("zero-acknowledged-loss") != 1.0:
        problems.append(
            f"failover: acknowledged-commit conservation failed "
            f"(ledger rows {series.get('ledger-rows', 0):.0f} != "
            f"committed transfers "
            f"{series.get('committed-transfers', 0):.0f})")
    if series.get("committed", 0.0) <= 0.0:
        problems.append("failover: nothing committed — the arm did not "
                        "survive the kill")
    return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--arrivals", type=int, default=DEFAULT_ARRIVALS)
    parser.add_argument("--deadline", type=float, default=DEFAULT_DEADLINE)
    parser.add_argument(
        "--replicas", default=None,
        help="comma-separated replica counts for the scaling arm "
             f"(default: {','.join(map(str, DEFAULT_REPLICA_COUNTS))})")
    parser.add_argument("--shards", type=int, default=DEFAULT_SHARDS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json-out", default=None,
                        help="write all results as JSON to this path")
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 1) when curve shapes are wrong")
    args = parser.parse_args()

    replica_counts = (
        tuple(int(n) for n in args.replicas.split(","))
        if args.replicas else DEFAULT_REPLICA_COUNTS
    )
    groups = run(
        n_arrivals=args.arrivals,
        deadline=args.deadline,
        replica_counts=replica_counts,
        shards=args.shards,
        seed=args.seed,
    )
    print()
    problems = check_replication_shapes(groups)
    raise SystemExit(report(
        groups, problems, json_out=args.json_out, enforce=args.check,
        ok="follower reads scale; read-your-writes never stale; lag "
           "tracks the configured apply lag; failover loses nothing",
        extra={
            "bench": "replication",
            "n_arrivals": args.arrivals,
            "deadline": args.deadline,
            "shards": args.shards,
            "replica_counts": list(replica_counts),
            "read_service_cost": READ_SERVICE_COST,
            "shape_check": {"passed": not problems, "problems": problems},
        },
    ))


if __name__ == "__main__":
    main()
