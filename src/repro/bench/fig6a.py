"""Figure 6(a): "Concurrent transactions" — time vs. #connections.

"We varied the number of concurrent connections to MySQL from 10 to 100
and investigated the performance of six different workloads. ... The time
taken to execute any given set of transactions was observed to be
inversely proportional to the number of concurrent connections for all
three transactional workloads.  Although the time taken by Entangled-T
was always marginally higher compared to NoSocial-T (and Social-T), the
difference was roughly equal to the difference in execution time between
Entangled-Q and NoSocial-Q (and Social-Q)."

Shape expectations checked by the test suite:

1. every workload's time decreases as connections grow (≈ 1/c);
2. Entangled-T ≥ Social-T ≥ NoSocial-T at every point;
3. the entanglement *overhead* is the query-evaluation cost, not a
   transaction-machinery cost: (Entangled-T − NoSocial-T) ≈
   (Entangled-Q − NoSocial-Q) within a small tolerance.

Run directly for the full grid::

    python -m repro.bench.fig6a [--transactions 10000] [--users 82168]
"""

from __future__ import annotations

import argparse
from typing import Sequence

from repro.bench.harness import drive, make_travel_env, report, travel_scripts
from repro.sim.metrics import Measurements
from repro.workloads.programs import WorkloadKind, generate_workload
from repro.workloads.socialnet import SocialNetwork

#: The paper's grid.
PAPER_CONNECTIONS = tuple(range(10, 101, 10))
#: The fast grid used by the pytest benchmark.
FAST_CONNECTIONS = (10, 25, 50, 100)

ALL_WORKLOADS = tuple(WorkloadKind)


def run(
    *,
    connections_grid: Sequence[int] = FAST_CONNECTIONS,
    transactions: int = 200,
    n_users: int = 2_000,
    workloads: Sequence[WorkloadKind] = ALL_WORKLOADS,
    seed: int = 2011,
) -> Measurements:
    """Run the Figure 6(a) experiment; returns the measured series."""
    measurements = Measurements(
        experiment="Figure 6(a): concurrent transactions",
        x_label="connections",
        y_label="time (s, virtual)",
    )
    network = SocialNetwork(n_users=n_users, seed=seed)
    for kind in workloads:
        for connections in connections_grid:
            env = make_travel_env(
                connections=connections,
                autocommit=not kind.transactional,
                network=network,
                seed=seed,
            )
            items = generate_workload(kind, env.travel, transactions)
            point = drive(
                env.client, travel_scripts(items),
                label=f"fig6a {kind.value} c={connections}",
            )
            measurements.add(kind.value, connections, point.elapsed)
    return measurements


def check_shapes(measurements: Measurements) -> list[str]:
    """Verify the paper's qualitative claims; returns violation messages."""
    problems: list[str] = []
    xs = measurements.xs()

    def y(name: str, x: float) -> float:
        return measurements.series[name].y_at(x)

    # (1) time decreases with connections for the -T workloads.
    for name in ("NoSocial-T", "Social-T", "Entangled-T"):
        if name not in measurements.series:
            continue
        ys = [y(name, x) for x in xs]
        if not all(a > b for a, b in zip(ys, ys[1:])):
            problems.append(f"{name}: time is not decreasing in connections: {ys}")

    # (2) Entangled-T >= Social-T >= NoSocial-T pointwise.
    for x in xs:
        if not y("Entangled-T", x) >= y("Social-T", x) >= y("NoSocial-T", x):
            problems.append(
                f"workload ordering violated at c={x}: "
                f"E={y('Entangled-T', x):.2f} S={y('Social-T', x):.2f} "
                f"N={y('NoSocial-T', x):.2f}"
            )

    # (3) entangled overhead ≈ evaluation cost: the -T gap tracks the -Q
    # gap within 50% (the paper says "roughly equal").
    for x in xs:
        gap_t = y("Entangled-T", x) - y("NoSocial-T", x)
        gap_q = y("Entangled-Q", x) - y("NoSocial-Q", x)
        if gap_q <= 0:
            problems.append(f"-Q gap not positive at c={x}")
            continue
        ratio = gap_t / gap_q
        if not 0.5 <= ratio <= 2.0:
            problems.append(
                f"entanglement overhead mismatch at c={x}: "
                f"T-gap {gap_t:.2f} vs Q-gap {gap_q:.2f} (ratio {ratio:.2f})"
            )
    return problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--transactions", type=int, default=1_000)
    parser.add_argument("--users", type=int, default=2_000)
    parser.add_argument("--paper-grid", action="store_true",
                        help="use the full 10..100 connections grid")
    args = parser.parse_args()
    grid = PAPER_CONNECTIONS if args.paper_grid else FAST_CONNECTIONS
    measurements = run(
        connections_grid=grid,
        transactions=args.transactions,
        n_users=args.users,
    )
    raise SystemExit(report(
        {"fig6a": {"time": measurements}}, check_shapes(measurements),
        ok="inverse scaling; E>=S>=N; T-gap ≈ Q-gap",
    ))


if __name__ == "__main__":
    main()
