"""Figure 6(b): "Pending transactions" — time vs. p for f ∈ {1, 10, 50}.

"We ran a second experiment where the number of pending transactions
remaining at the end of a run, p, was nonzero and varied from 10 to 100.
... We used three different run scheduling policies with different run
frequencies f ... from 1 (start a new run after a single new transaction
arrives) to f = 50 ... As expected, using higher run frequencies had a
negative impact on execution time.  Moreover, increasing p caused a
linear increase in the total execution time.  However, this increase was
much slower when the run frequency was lower."

Shape expectations checked by the test suite:

1. for each f, time increases (roughly linearly) in p;
2. pointwise, f=1 ≥ f=10 ≥ f=50 (more runs = more overhead);
3. the slope in p is steepest for f=1 (every run re-executes the p
   partner-less transactions, and f=1 maximizes the number of runs).

Run directly for the full grid::

    python -m repro.bench.fig6b [--total 10000] [--paper-grid]
"""

from __future__ import annotations

import argparse
from typing import Sequence

from repro.bench.harness import drive, make_travel_env, report, travel_scripts
from repro.core.policies import ArrivalCountPolicy
from repro.sim.metrics import Measurements
from repro.workloads.batches import build_pending_plan
from repro.workloads.socialnet import SocialNetwork

PAPER_PENDING = tuple(range(0, 101, 10))
FAST_PENDING = (10, 30, 50)
FREQUENCIES = (1, 10, 50)


def run(
    *,
    pending_grid: Sequence[int] = FAST_PENDING,
    frequencies: Sequence[int] = FREQUENCIES,
    total: int = 240,
    n_users: int = 2_000,
    seed: int = 2011,
) -> Measurements:
    """Run the Figure 6(b) experiment; returns the measured series."""
    measurements = Measurements(
        experiment="Figure 6(b): pending transactions",
        x_label="pending (p)",
        y_label="time (s, virtual)",
    )
    network = SocialNetwork(n_users=n_users, seed=seed)
    for frequency in frequencies:
        for pending in pending_grid:
            env = make_travel_env(
                connections=100,
                network=network,
                seed=seed,
                policy=ArrivalCountPolicy(frequency),
            )
            plan = build_pending_plan(
                env.travel, pending=pending, total=total
            )
            # The plan should complete everything (aborts are terminal too).
            point = drive(
                env.client, travel_scripts(plan.all_items()),
                label=f"fig6b p={pending} f={frequency}",
                tick_each=True, allow_aborts=True,
            )
            measurements.add(f"f={frequency}", pending, point.elapsed)
    return measurements


def check_shapes(measurements: Measurements) -> list[str]:
    """Verify the paper's qualitative claims; returns violation messages."""
    problems: list[str] = []
    xs = measurements.xs()

    def y(name: str, x: float) -> float:
        return measurements.series[name].y_at(x)

    # (1) time increases in p for each frequency.
    for name in measurements.series:
        ys = [y(name, x) for x in xs]
        if not all(a < b for a, b in zip(ys, ys[1:])):
            problems.append(f"{name}: time is not increasing in p: {ys}")

    # (2) higher run frequency costs more, pointwise.
    ordered = [n for n in ("f=1", "f=10", "f=50") if n in measurements.series]
    for x in xs:
        values = [y(n, x) for n in ordered]
        if not all(a >= b for a, b in zip(values, values[1:])):
            problems.append(
                f"frequency ordering violated at p={x}: "
                + ", ".join(f"{n}={v:.2f}" for n, v in zip(ordered, values))
            )

    # (3) slope in p is steepest for f=1.
    if len(xs) >= 2 and "f=1" in measurements.series and "f=50" in measurements.series:
        def slope(name: str) -> float:
            return (y(name, xs[-1]) - y(name, xs[0])) / (xs[-1] - xs[0])

        if not slope("f=1") > slope("f=50"):
            problems.append(
                f"slope(f=1)={slope('f=1'):.3f} not steeper than "
                f"slope(f=50)={slope('f=50'):.3f}"
            )
    return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--total", type=int, default=600)
    parser.add_argument("--users", type=int, default=2_000)
    parser.add_argument("--paper-grid", action="store_true",
                        help="use the full p ∈ 0..100 grid")
    args = parser.parse_args()
    grid = PAPER_PENDING if args.paper_grid else FAST_PENDING
    grid = tuple(p for p in grid if args.total >= 2 * p + 2)
    measurements = run(pending_grid=grid, total=args.total, n_users=args.users)
    raise SystemExit(report(
        {"fig6b": {"time": measurements}}, check_shapes(measurements),
        ok="linear in p; f=1 >= f=10 >= f=50; steepest slope at f=1",
    ))


if __name__ == "__main__":
    main()
