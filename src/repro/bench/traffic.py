"""Open-workload traffic harness: goodput vs. offered load.

Every other bench in this package is *closed-loop*: submit a batch,
drain it, measure the makespan.  Closed loops cannot show what overload
does, because the workload politely waits for the system — the arrival
rate is whatever the system can serve.  This harness is *open-loop*:
arrivals come from an external schedule (Poisson or bursty) at a
configurable offered rate, whether or not the engine has kept up.

The driver — :func:`repro.bench.harness.drive_open`, which
:mod:`repro.bench.replication` runs too — injects each arrival at its
scheduled (virtual) instant, runs the scheduler whenever work is
pending, and records per-transaction
**end-to-end latency**: commit instant minus *intended arrival instant*
— queueing delay included, which is the whole point.  A transaction is
*timely* when its latency is within the deadline SLO; **goodput** is
timely commits per virtual second of makespan.

The curves this produces are the classic open-workload story:

* below saturation, goodput tracks offered load and latency is flat;
* past saturation **without admission control**, the dormant pool grows
  without bound, every commit lands later than the one before, and
  goodput *collapses* — the engine is still committing at full rate,
  but nothing finishes inside its deadline;
* past saturation **with admission control**
  (:class:`repro.client.AdmissionConfig` — a queue-depth bound that
  sheds with the retryable :class:`~repro.errors.OverloadError`),
  excess arrivals bounce before touching storage and the admitted
  remainder still commits in time: goodput *plateaus* at capacity.

Four scenario arms ride the harness: the low-contention payment ledger
with temporal queries (:class:`repro.workloads.PaymentLedger`), the
hot-row flash-sale storm (:class:`repro.workloads.FlashSale`), the
write-amplified social-feed fanout
(:class:`repro.workloads.SocialFeed`) over a sharded engine, where each
post's timeline inserts spread across shards inside one transaction,
and the guard-style write-skew on-call roster
(:class:`repro.workloads.OnCallRoster`), whose serializable pass is the
one that *must* show SSI aborts — snapshot isolation silently commits
its write skew.

Each (arm, load) point is measured three ways: without admission
control, with shedding, and with shedding under ``SERIALIZABLE``
isolation.  The serializable pass also reports SSI precision — what
share of its SSI aborts were *unproven* pivots
(``pivot_aborts_unproven``: the dangerous structure was never shown
complete) — per offered-load point.

Run as a script::

    PYTHONPATH=src python -m repro.bench.traffic --json-out BENCH_traffic.json
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import random

from repro.bench.harness import OpenPoint, drive_open, report
from repro.client import AdmissionConfig, RetryPolicy, connect
from repro.core.engine import EngineConfig
from repro.errors import WorkloadError
from repro.sim.clock import VirtualClock
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.metrics import Measurements
from repro.workloads.flashsale import FlashSale
from repro.workloads.oncall import OnCallRoster
from repro.workloads.payments import PaymentLedger
from repro.workloads.socialfeed import SocialFeed

#: connection slots for the traffic engine.  Deliberately far below the
#: Figure-6 default of 100: capacity must be reachable by the arrival
#: rates we can afford to simulate, so the saturation knee lands inside
#: the measured range.
TRAFFIC_CONNECTIONS = 8

#: offered load points, as multiples of the calibrated service rate μ.
#: Three below the knee, one at it, three past it.
DEFAULT_LOAD_FACTORS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.5, 4.0)

#: arrivals per measured point (horizon follows: n / rate).
DEFAULT_ARRIVALS = 240

#: deadline SLO in virtual seconds — a few multiples of the uncongested
#: p99 (see :func:`run`'s printout), so timeliness is forgiving of
#: batching jitter but unforgiving of queue growth.  Must stay well
#: below each point's horizon (``n_arrivals / rate``) or overload can
#: never produce a late commit.
DEFAULT_DEADLINE = 0.5

#: dormant-pool bound for the shedding arms: a couple of full service
#: batches of headroom.  Sized so the queueing delay of a full pool
#: stays inside the deadline — a deeper queue absorbs more burst but
#: turns overload into lateness instead of sheds.
DEFAULT_QUEUE_DEPTH = 16


# -- arrival schedules --------------------------------------------------------


def poisson_arrivals(
    rate: float, n: int, *, seed: int = 0, start: float = 0.0
) -> list[float]:
    """``n`` arrival instants of a Poisson process at ``rate``/s.

    Exponential inter-arrival times — the memoryless open-workload
    baseline.  Deterministic for a given seed.
    """
    if rate <= 0:
        raise WorkloadError(f"arrival rate must be positive, got {rate}")
    if n < 1:
        raise WorkloadError(f"need at least one arrival, got {n}")
    rng = random.Random(seed)
    t = start
    out = []
    for _ in range(n):
        t += rng.expovariate(rate)
        out.append(t)
    return out


def bursty_arrivals(
    rate: float,
    n: int,
    *,
    seed: int = 0,
    start: float = 0.0,
    burst_factor: float = 5.0,
    duty: float = 0.1,
) -> list[float]:
    """``n`` arrivals of an on/off (interrupted Poisson) process.

    The *average* rate is ``rate``, but arrivals concentrate in "on"
    windows covering a ``duty`` fraction of time at ``burst_factor``×
    the base intensity, separated by quiet gaps — the flash-sale shape.
    Peak intensity is ``rate * burst_factor``; the quiet remainder
    carries the rest so the long-run average stays ``rate``, which
    requires ``duty * burst_factor < 1`` (the bursts alone may not
    exceed the average they are supposed to make up).
    """
    if rate <= 0:
        raise WorkloadError(f"arrival rate must be positive, got {rate}")
    if n < 1:
        raise WorkloadError(f"need at least one arrival, got {n}")
    if burst_factor <= 1.0:
        raise WorkloadError(
            f"burst_factor must exceed 1, got {burst_factor}")
    if not 0.0 < duty < 1.0:
        raise WorkloadError(f"duty must be in (0, 1), got {duty}")
    if duty * burst_factor >= 1.0:
        raise WorkloadError(
            f"duty*burst_factor must stay below 1 (got "
            f"{duty * burst_factor:.2f}): the off-windows would need "
            f"negative intensity to keep the average at `rate`")
    on_rate = rate * burst_factor
    # Mass balance: duty·on + (1-duty)·off = 1 (in units of `rate`).
    off_rate = rate * (1.0 - duty * burst_factor) / (1.0 - duty)
    # Window lengths chosen so each on-window carries ~n/8 arrivals.
    on_len = (n / 8.0) / on_rate
    off_len = on_len * (1.0 - duty) / duty
    rng = random.Random(seed)
    t = start
    window_end = start + on_len
    in_burst = True
    out: list[float] = []
    while len(out) < n:
        t += rng.expovariate(on_rate if in_burst else off_rate)
        while t >= window_end:
            in_burst = not in_burst
            window_end += on_len if in_burst else off_len
        out.append(t)
    return out


# -- one measured point -------------------------------------------------------


def run_traffic_point(
    scenario,
    arrivals: list[float],
    *,
    deadline: float,
    admission: "AdmissionConfig | None" = None,
    retry: "RetryPolicy | None" = None,
    isolation: str = "full",
    shards: int = 1,
) -> OpenPoint:
    """Drive one arrival schedule through a fresh engine
    (:func:`~repro.bench.harness.drive_open`).

    Shed arrivals are dropped — a pure open workload does not wait to
    retry — unless a :class:`~repro.client.RetryPolicy` resubmits them.
    Latency is always measured from the *original* intended arrival
    instant, so a retried commit pays its backoff in full: retries trade
    sheds for lateness, which is exactly the trade-off worth measuring.

    ``isolation`` is the engine-level isolation (``"full"``,
    ``"snapshot"``, ``"serializable"``, ...); under ``"serializable"``
    the point's SSI counters — ``pivot_aborts``, ``conservative_aborts``
    and the unproven-pivot count whose share of total SSI aborts
    measures validation precision — are the interesting ones.
    ``shards > 1`` drives the schedule through a sharded engine (the
    fanout arms' cross-shard commit path).  Execution is serial at any
    shard count, as in :func:`calibrate`: under the thread pool the
    order of cost charges per connection slot follows thread
    interleaving, and the virtual series would change from run to run.
    A scenario with a ``verify(client)`` hook has it called on the
    quiesced store.
    """
    db = connect(
        shards=shards,
        isolation=isolation,
        executor="serial",
        config=EngineConfig(connections=TRAFFIC_CONNECTIONS),
        clock=VirtualClock(costs=DEFAULT_COSTS),
        admission=admission,
    )
    try:
        scenario.install(db)
        point = drive_open(
            db, scenario, arrivals, deadline=deadline, retry=retry)
        verify = getattr(scenario, "verify", None)
        if verify is not None:
            verify(db)
    finally:
        db.close()
    return point


# -- calibration --------------------------------------------------------------


def calibrate(make_scenario, *, waves: int = 25, shards: int = 1) -> float:
    """Closed-loop service rate μ (commits per virtual second).

    Submits work in *waves* of :data:`TRAFFIC_CONNECTIONS` transactions
    and drains
    each before the next, so the engine runs at full connection
    occupancy without the self-inflicted lock thrashing a single huge
    batch would add (hundreds of concurrent transfers retrying against
    each other measures contention collapse, not service capacity).
    Submissions within a wave get distinct nanosecond-offset arrival
    stamps, as real open-loop arrivals would — identical stamps make
    the scheduler thrash on ordering ties and halve the measured rate.
    μ is total commits over total elapsed virtual time — the saturation
    point the offered-load factors multiply.
    """
    scenario = make_scenario()
    db = connect(
        shards=shards,
        executor="serial",
        config=EngineConfig(connections=TRAFFIC_CONNECTIONS),
        clock=VirtualClock(costs=DEFAULT_COSTS),
    )
    try:
        scenario.install(db)
        session = db.session("calibrate")
        t0 = db.clock.now
        committed = 0
        for _ in range(waves):
            for i in range(TRAFFIC_CONNECTIONS):
                at = db.clock.now + i * 1e-9
                session.run_script(scenario.program(at=at), at=at)
            committed += sum(len(r.committed) for r in db.drain())
        elapsed = db.clock.now - t0
        if committed == 0 or elapsed <= 0:
            raise WorkloadError(
                f"calibration of {scenario.name} made no progress")
        return committed / elapsed
    finally:
        db.close()


# -- the experiment -----------------------------------------------------------

ARMS = {
    "payment-ledger": {
        "make": lambda: PaymentLedger(n_accounts=128, query_share=0.25),
        "schedule": poisson_arrivals,
        # Low contention: the default bound keeps full-pool queueing
        # delay inside the deadline.
        "queue_depth": DEFAULT_QUEUE_DEPTH,
        "shards": 1,
    },
    "flash-sale": {
        "make": lambda: FlashSale(n_hot=4),
        "schedule": bursty_arrivals,
        # Hot rows serialize the pool, so the same depth costs ~4× the
        # queueing delay; halve it to keep admitted work timely during
        # bursts.
        "queue_depth": 8,
        "shards": 1,
    },
    "social-feed": {
        "make": lambda: SocialFeed(n_users=64, fanout=8, read_share=0.5),
        "schedule": poisson_arrivals,
        # Fanout writes make each post several times heavier than a
        # transfer; a shallower queue keeps admitted posts timely.
        "queue_depth": 8,
        # The point of the arm: each post's timeline inserts spread
        # across shards, so the cross-shard commit path carries the
        # steady-state write load.
        "shards": 4,
    },
    "doctor-oncall": {
        "make": lambda: OnCallRoster(n_wards=4, doctors_per_ward=4),
        "schedule": poisson_arrivals,
        # Guard scans are cheap; the arm is about write skew, not
        # queueing, so the default bound is fine.
        "queue_depth": DEFAULT_QUEUE_DEPTH,
        "shards": 1,
    },
}

#: Arms whose whole point is guard-style write skew: the serializable
#: pass must catch at least one dangerous structure somewhere on the
#: load curve, or SSI validation is asleep (checked by
#: :func:`check_traffic_shapes`).
WRITE_SKEW_ARMS = frozenset({"doctor-oncall"})


def run(
    *,
    load_factors: tuple = DEFAULT_LOAD_FACTORS,
    n_arrivals: int = DEFAULT_ARRIVALS,
    deadline: float = DEFAULT_DEADLINE,
    queue_depth: "int | None" = None,
    arms: "tuple[str, ...] | None" = None,
    retry: "RetryPolicy | None" = None,
    seed: int = 7,
    verbose: bool = True,
) -> "dict[str, dict[str, Measurements]]":
    """The full experiment: each arm, each load point, shed vs. not.

    Returns ``{arm: {table: Measurements}}`` — the shape
    :func:`repro.bench.harness.report` renders and serializes.  Each
    arm gets four tables: ``goodput`` (offered vs. goodput for the
    no-admission, admission and serializable-with-admission arms),
    ``latency`` (p50/p95/p99 with admission), ``admission`` (shed
    share, throughput), and ``ssi_precision`` (the serializable pass's
    SSI aborts and the unproven-pivot share of them, per load point).

    ``queue_depth`` overrides every arm's dormant-pool bound; the
    default (``None``) uses each arm's own (contention-tuned) depth
    from :data:`ARMS`.

    ``retry`` (optional) makes the admission arm resubmit shed arrivals
    under the given :class:`~repro.client.RetryPolicy` instead of
    dropping them; the admission table then also reports per-point
    ``retried`` and ``exhausted`` counts.  The CI shape checks
    (:func:`check_traffic_shapes`) assume drop-on-shed, so retries stay
    off unless asked for.
    """
    groups: dict[str, dict[str, Measurements]] = {}
    for arm_name in arms or tuple(ARMS):
        arm = ARMS[arm_name]
        depth = queue_depth if queue_depth is not None else arm["queue_depth"]
        arm_shards = arm.get("shards", 1)
        mu = calibrate(arm["make"], shards=arm_shards)
        if verbose:
            print(f"[{arm_name}] calibrated service rate μ = {mu:.1f}/s")

        goodput = Measurements(
            experiment=f"{arm_name}: goodput vs offered load",
            x_label="offered (fraction of μ)",
            y_label="goodput (timely commits/s)",
        )
        latency = Measurements(
            experiment=f"{arm_name}: latency vs offered load (with shedding)",
            x_label="offered (fraction of μ)",
            y_label="end-to-end latency (virtual s)",
        )
        admission_t = Measurements(
            experiment=f"{arm_name}: admission control vs offered load",
            x_label="offered (fraction of μ)",
            y_label="share / rate",
        )
        precision = Measurements(
            experiment=f"{arm_name}: SSI precision vs offered load "
                       f"(serializable, with shedding)",
            x_label="offered (fraction of μ)",
            y_label="count / share",
        )

        for factor in load_factors:
            rate = mu * factor
            arrivals = arm["schedule"](rate, n_arrivals, seed=seed)
            unshed = run_traffic_point(
                arm["make"](), arrivals, deadline=deadline,
                shards=arm_shards)
            shed = run_traffic_point(
                arm["make"](), arrivals, deadline=deadline,
                admission=AdmissionConfig(max_queue_depth=depth),
                retry=retry, shards=arm_shards)
            strict = run_traffic_point(
                arm["make"](), arrivals, deadline=deadline,
                admission=AdmissionConfig(max_queue_depth=depth),
                retry=retry, isolation="serializable", shards=arm_shards)

            goodput.add("offered", factor, unshed.offered)
            goodput.add("no-admission", factor, unshed.goodput)
            goodput.add("with-shedding", factor, shed.goodput)
            goodput.add("serializable", factor, strict.goodput)
            precision.add("ssi-aborts", factor, float(strict.ssi_aborts))
            precision.add("pivot-aborts", factor, float(strict.pivot_aborts))
            precision.add(
                "unproven-pivots", factor,
                float(strict.unproven_pivot_aborts))
            precision.add("unproven-share", factor, strict.unproven_share)
            if shed.latency is not None:
                latency.add("p50", factor, shed.latency.p50)
                latency.add("p95", factor, shed.latency.p95)
                latency.add("p99", factor, shed.latency.p99)
            admission_t.add("shed-share", factor, shed.shed_share)
            admission_t.add("throughput", factor, shed.throughput)
            if retry is not None:
                admission_t.add("retried", factor, float(shed.retried))
                admission_t.add("exhausted", factor, float(shed.exhausted))
            if verbose:
                print(
                    f"[{arm_name}] {factor:>4}×μ  offered={unshed.offered:7.1f}"
                    f"  goodput: no-adm={unshed.goodput:7.1f}"
                    f"  shed={shed.goodput:7.1f}"
                    f"  serial={strict.goodput:7.1f}"
                    f"  shed-share={shed.shed_share:.2f}"
                    f"  ssi-aborts={strict.ssi_aborts}"
                    f" (unproven {strict.unproven_share:.2f})"
                    f"  p99={shed.latency.p99 if shed.latency else float('nan'):.3f}"
                )

        groups[arm_name] = {
            "goodput": goodput,
            "latency": latency,
            "admission": admission_t,
            "ssi_precision": precision,
        }
    return groups


# -- shape checks (CI) --------------------------------------------------------


def check_traffic_shapes(
    groups: "dict[str, dict[str, Measurements]]",
    *,
    saturation: float = 1.0,
) -> list[str]:
    """Sanity assertions on the measured curves; returns violations.

    Checked per arm:

    * goodput (with shedding) is monotone non-decreasing below
      saturation, within a 10% measurement tolerance;
    * every latency percentile is finite;
    * past saturation the shedding arm actually sheds (share > 0);
    * goodput with shedding *plateaus* past saturation — the worst
      post-saturation point keeps at least 70% of the best measured
      goodput — while the no-admission arm is strictly worse there;
    * the serializable pass commits timely work somewhere on the
      curve, and its SSI precision numbers are coherent — the unproven-pivot share is
      a valid ratio in [0, 1] and unproven pivots never exceed total
      SSI aborts.  (Whether the share is *large* is the measurement,
      not an assertion.)
    * write-skew arms (:data:`WRITE_SKEW_ARMS`) catch at least one SSI
      abort somewhere on the load curve — their snapshot-silent skew is
      precisely what serializable validation exists to break.
    """
    problems: list[str] = []
    for arm, tables in groups.items():
        g = tables["goodput"]
        factors = g.series_named("with-shedding").xs()
        shed_ys = g.series_named("with-shedding").ys()
        noadm_ys = g.series_named("no-admission").ys()

        below = [(x, y) for x, y in zip(factors, shed_ys) if x < saturation]
        for (x0, y0), (x1, y1) in zip(below, below[1:]):
            if y1 < y0 * 0.9:
                problems.append(
                    f"{arm}: goodput not monotone below saturation "
                    f"({y0:.1f}@{x0} -> {y1:.1f}@{x1})")

        for name, series in tables["latency"].series.items():
            for x, y in series.points:
                if not math.isfinite(y):
                    problems.append(
                        f"{arm}: latency {name} not finite at {x}×μ")

        past = [x for x in factors if x > saturation]
        shed_share = tables["admission"].series_named("shed-share")
        for x in past:
            if shed_share.y_at(x) <= 0.0:
                problems.append(
                    f"{arm}: no shedding at {x}×μ despite overload")

        if past and shed_ys:
            best = max(shed_ys)
            worst_past = min(
                y for x, y in zip(factors, shed_ys) if x > saturation)
            if worst_past < 0.7 * best:
                problems.append(
                    f"{arm}: goodput collapses past saturation even with "
                    f"shedding ({worst_past:.1f} < 70% of {best:.1f})")
            worst_noadm = min(
                y for x, y in zip(factors, noadm_ys) if x > saturation)
            if worst_noadm >= worst_past:
                problems.append(
                    f"{arm}: no-admission goodput ({worst_noadm:.1f}) not "
                    f"worse than shedding ({worst_past:.1f}) past saturation")

        if "serializable" in g.series:
            serial_pts = g.series_named("serializable").points
            if serial_pts and max(y for _x, y in serial_pts) <= 0.0:
                problems.append(
                    f"{arm}: serializable arm never made timely progress")

        precision = tables.get("ssi_precision")
        if arm in WRITE_SKEW_ARMS and precision is not None:
            aborts = precision.series_named("ssi-aborts").ys()
            if not aborts or max(aborts) <= 0.0:
                problems.append(
                    f"{arm}: a write-skew arm's serializable pass caught "
                    f"zero SSI aborts across the whole load curve")
        if precision is not None and "unproven-share" in precision.series:
            totals = dict(precision.series_named("ssi-aborts").points)
            unproven = dict(precision.series_named("unproven-pivots").points)
            for x, y in precision.series_named("unproven-share").points:
                if not 0.0 <= y <= 1.0:
                    problems.append(
                        f"{arm}: unproven-pivot share {y:.2f} outside "
                        f"[0, 1] at {x}×μ")
                if unproven.get(x, 0.0) > totals.get(x, 0.0):
                    problems.append(
                        f"{arm}: unproven pivots ({unproven.get(x, 0.0):.0f})"
                        f" exceed SSI aborts ({totals.get(x, 0.0):.0f}) "
                        f"at {x}×μ")
    return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--factors", default=None,
        help="comma-separated offered-load factors (multiples of μ)")
    parser.add_argument("--arrivals", type=int, default=DEFAULT_ARRIVALS)
    parser.add_argument("--deadline", type=float, default=DEFAULT_DEADLINE)
    parser.add_argument(
        "--queue-depth", type=int, default=None,
        help="override every arm's dormant-pool bound "
             "(default: per-arm depths from ARMS)")
    parser.add_argument(
        "--arms", default=None,
        help=f"comma-separated arm names (default: {','.join(ARMS)})")
    parser.add_argument(
        "--retry", action="store_true",
        help="resubmit shed arrivals with jittered exponential backoff "
             "(RetryPolicy defaults) instead of dropping them")
    parser.add_argument(
        "--retry-attempts", type=int, default=None,
        help="override RetryPolicy.max_attempts (implies --retry)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json-out", default=None,
                        help="write all results as JSON to this path")
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 1) when curve shapes are wrong")
    args = parser.parse_args()

    factors = (
        tuple(float(f) for f in args.factors.split(","))
        if args.factors else DEFAULT_LOAD_FACTORS
    )
    arms = tuple(args.arms.split(",")) if args.arms else None
    retry = None
    if args.retry or args.retry_attempts is not None:
        retry = (
            RetryPolicy(max_attempts=args.retry_attempts)
            if args.retry_attempts is not None else RetryPolicy()
        )
    groups = run(
        load_factors=factors,
        n_arrivals=args.arrivals,
        deadline=args.deadline,
        queue_depth=args.queue_depth,
        arms=arms,
        retry=retry,
        seed=args.seed,
    )
    print()
    problems = check_traffic_shapes(groups)
    raise SystemExit(report(
        groups, problems, json_out=args.json_out, enforce=args.check,
        ok="goodput curves and SSI precision coherent on every arm",
        extra={
            "bench": "traffic",
            "deadline": args.deadline,
            "queue_depth": args.queue_depth if args.queue_depth is not None
            else {name: arm["queue_depth"] for name, arm in ARMS.items()},
            "n_arrivals": args.arrivals,
            "retry": dataclasses.asdict(retry) if retry is not None else None,
            "shape_check": {"passed": not problems, "problems": problems},
        },
    ))


if __name__ == "__main__":
    main()
