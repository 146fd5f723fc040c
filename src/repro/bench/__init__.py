"""Experiment harness: one module per figure of the paper's evaluation.

* :mod:`repro.bench.fig6a` — concurrent transactions (6 workloads vs.
  connection count).
* :mod:`repro.bench.fig6b` — pending transactions (p vs. run frequency).
* :mod:`repro.bench.fig6c` — entanglement complexity (coordinating-set
  size, Spoke-hub vs. Cycle).

Beyond the paper's figures: :mod:`repro.bench.contention` (locking /
MVCC / SSI / sharding ablations, ``BENCH_contention.json``),
:mod:`repro.bench.traffic` (the open-workload goodput-vs-offered-load
harness with admission control, ``BENCH_traffic.json``), and
:mod:`repro.bench.replication` (follower-read scaling, replication-lag
percentiles and leader failover, ``BENCH_replication.json``).

Every closed-loop experiment runs on :mod:`repro.bench.harness` (one
store builder, one ``drive()``, one ``Point``, one shape checker), both
open-loop benches on its one arrival-schedule driver (``drive_open()``
into one ``OpenPoint``), and every module's ``main()`` ends in the
harness's ``report()``.  The
figure modules have a ``run()`` returning
:class:`~repro.sim.metrics.Measurements` and a ``check_shapes()``
verifying the paper's qualitative claims; the contention ablations are
entries of the declarative ``repro.bench.contention.ARMS`` table.
"""

from repro.bench.harness import (
    Arm,
    OpenPoint,
    Point,
    Script,
    TravelEnv,
    bank_store,
    drive,
    drive_open,
    grid,
    make_travel_env,
    report,
    require_all_committed,
    run_arms,
    travel_scripts,
)

__all__ = [
    "Arm",
    "OpenPoint",
    "Point",
    "Script",
    "TravelEnv",
    "bank_store",
    "drive",
    "drive_open",
    "grid",
    "make_travel_env",
    "report",
    "require_all_committed",
    "run_arms",
    "travel_scripts",
]
