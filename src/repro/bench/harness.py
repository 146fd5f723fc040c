"""The one closed-loop benchmark harness.

Every closed-loop experiment in this package — the three Figure 6
modules and every arm of :mod:`repro.bench.contention` — is the same
five steps, written here once each: build a populated store
(:func:`bank_store`, :func:`make_travel_env`) behind the one front door,
:func:`repro.connect`; :func:`drive` a submission sequence to completion
into the one :class:`Point` type; :func:`grid` an :class:`Arm` (one
experiment as data: series × x-grid × named metric extractors) into
:class:`~repro.sim.metrics.Measurements` tables; :func:`check_shapes`
them against the arm's :class:`Rule` list; and :func:`report` — render,
persist, exit code — which the open-loop benches
(:mod:`repro.bench.traffic`, :mod:`repro.bench.replication`) share.

A ``clock="virtual"`` arm runs the engine on a
:class:`~repro.sim.clock.VirtualClock` and measures its *virtual elapsed
time* (:mod:`repro.sim.costs`): the paper measures wall-clock seconds on
MySQL; we measure the same workload structure under a calibrated cost
model, so curve *shapes* (who wins, slopes, crossovers) are comparable
while absolute seconds are model outputs.  ``clock="wall"`` arms run on
the product's real-seconds clock and time the drain with
``time.perf_counter``.

Adding an experiment is adding one :class:`Arm` entry to
``repro.bench.contention.ARMS`` — a program generator plus data; no new
runner, point type, grid builder or checker.
"""

from __future__ import annotations

import json
import math
import operator
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from repro.client import Client, connect
from repro.core.engine import EngineConfig, IsolationConfig, RunReport
from repro.core.policies import ManualPolicy, RunPolicy
from repro.core.transaction import TxnPhase
from repro.errors import BenchError
from repro.sim.clock import VirtualClock
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.metrics import Measurements
from repro.storage.engine import LockGranularity
from repro.storage.schema import TableSchema
from repro.storage.sharding import ShardedStorageEngine, build_storage_engine
from repro.storage.store import metrics_delta
from repro.storage.types import ColumnType
from repro.workloads.programs import WorkloadItem
from repro.workloads.socialnet import SocialNetwork
from repro.workloads.traveldb import TravelDatabase

# -- systems under test ----------------------------------------------------------------


def bank_store(
    n_accounts: int,
    *,
    kind: str = "auto",
    shards: int = 1,
    granularity: LockGranularity = LockGranularity.FINE,
    ordered_indexes: bool = True,
    indexes: Sequence[Sequence[str]] = (),
    flush_latency: float = 0.0,
):
    """The bank every contention arm runs on: ``n_accounts`` loaded
    ``Accounts(id pk, owner, balance)`` rows plus an empty, indexed
    ``Transfers(account, amount)`` journal.

    ``kind`` picks the storage ensemble: ``"auto"`` is the stock policy
    (one shard is a plain engine, more is the sharded router),
    ``"sharded"`` forces the router even at one shard, ``"process"``
    runs each shard's engine in its own worker process.  ``indexes``
    adds secondary indexes to ``Accounts``; ``flush_latency`` arms the
    simulated fsync *after* the bulk load, so only the measured section
    pays it.
    """
    if kind == "process":
        from repro.transport.process import ProcessShardedStorageEngine as build
    else:
        build = {"auto": build_storage_engine, "sharded": ShardedStorageEngine}[kind]
    store = build(
        shards, granularity=granularity, ordered_indexes=ordered_indexes)
    try:
        store.create_table(TableSchema.build(
            "Accounts",
            [("id", ColumnType.INTEGER), ("owner", ColumnType.TEXT),
             ("balance", ColumnType.FLOAT)],
            primary_key=["id"],
            indexes=[list(columns) for columns in indexes],
        ))
        store.create_table(TableSchema.build(
            "Transfers",
            [("account", ColumnType.INTEGER), ("amount", ColumnType.FLOAT)],
            indexes=[["account"]],
        ))
        store.load("Accounts", [(i, f"u{i}", 100.0) for i in range(n_accounts)])
        if flush_latency:
            for wal in store.wals():
                wal.flush_latency = flush_latency
    except BaseException:
        if kind == "process":
            store.close()  # never leak the worker fleet
        raise
    return store


class TravelEnv(NamedTuple):
    """A populated travel database behind one :class:`~repro.client.Client`."""

    travel: TravelDatabase
    client: Client


def make_travel_env(
    *,
    network: SocialNetwork,
    connections: int = 100,
    autocommit: bool = False,
    isolation: IsolationConfig = IsolationConfig.FULL,
    policy: RunPolicy | None = None,
    seed: int = 2011,
) -> TravelEnv:
    """Build one measurement environment for the Figure 6 workloads.

    The (expensive) ``network`` graph is shared across points; the
    database itself is always rebuilt fresh, so reservations never
    accumulate across points.
    """
    travel = TravelDatabase(network, seed=seed)
    client = connect(
        isolation=isolation,
        executor="serial",
        clock=VirtualClock(costs=DEFAULT_COSTS),
        config=EngineConfig(connections=connections, autocommit=autocommit),
        policy=policy or ManualPolicy(),
    )
    travel.populate(client.store.db)
    return TravelEnv(travel, client)


# -- driving a batch: the one Point type -------------------------------------------------


class Script(NamedTuple):
    """One submission: who, what, and the home shard to pin it to."""

    client: str
    program: str
    shard_hint: "int | None" = None


def travel_scripts(items: Iterable[WorkloadItem]) -> list[Script]:
    """Generated travel transactions, each submitted by its owner."""
    return [Script(f"u{item.uid}", item.program) for item in items]


@dataclass
class Point:
    """Outcome of driving one submission sequence to completion."""

    transactions: int
    committed: int
    timed_out: int
    aborted: int
    unfinished: int
    #: virtual seconds (cost model; 0 on a wall clock) and real seconds
    #: around the drain.
    elapsed: float
    wall_seconds: float
    #: coordinator (entangled-evaluation) share of ``elapsed``.
    eval_time: float
    #: which of the two clocks :attr:`throughput` divides by.
    clock: str
    reports: list[RunReport] = field(repr=False)
    #: the store's counters over the batch (``metrics()`` deltas) — the
    #: contention picture behind the elapsed time (``locks.read_grants``,
    #: ``locks.table_s_grants``, ``ssi.pivot_aborts_unproven``, ...).
    metrics: dict[str, int] = field(repr=False)
    #: the driven client, for measurements only its internals can answer
    #: (e.g. the recorded schedule).
    client: Client = field(repr=False)
    #: arm-specific measurements attached after the drive.
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def runs(self) -> int:
        """Scheduler runs needed (retry pressure)."""
        return len(self.reports)

    def total(self, counter: str) -> int:
        """A :class:`~repro.core.engine.RunReport` counter summed over
        every run of the batch (``lock_waits``, ``ssi_aborts``, ...)."""
        return sum(getattr(report, counter) for report in self.reports)

    def per_commit(self, counter: str) -> float:
        return self.total(counter) / self.committed if self.committed else 0.0

    @property
    def throughput(self) -> float:
        """Committed transactions per second of the point's clock."""
        seconds = self.wall_seconds if self.clock == "wall" else self.elapsed
        return self.committed / seconds if seconds > 0 else 0.0


def require_all_committed(
    point: Point, label: str, *, allow_aborts: bool = False
) -> None:
    """Fail loudly when a designed-to-complete workload did not finish
    (``allow_aborts``: aborted is an acceptable terminal outcome)."""
    if point.unfinished or point.timed_out or (
            point.aborted and not allow_aborts):
        raise BenchError(
            f"{label}: only {point.committed}/{point.transactions} committed "
            f"({point.unfinished} unfinished, {point.timed_out} timed out, "
            f"{point.aborted} aborted)"
        )


def drive(
    client: Client,
    scripts: Iterable[Script],
    *,
    label: str,
    tick_each: bool = False,
    allow_aborts: bool = False,
) -> Point:
    """Submit every script (ticking the run policy after each arrival
    when ``tick_each``), drain the pool, check everything finished, and
    total the run reports.  The ``wall_seconds`` window covers the drain
    only: submission is parse work, not the system under test."""
    store = client.store
    before = store.metrics()
    handles = []
    for script in scripts:
        handles.append(client.session(script.client).run_script(
            script.program, shard_hint=script.shard_hint))
        if tick_each:
            client.tick()
    start = time.perf_counter()
    client.drain(max_runs=100_000)
    wall_seconds = time.perf_counter() - start
    phases = [handle.phase for handle in handles]
    # A virtual clock's cost model keeps the totals: the engine does no
    # time accounting of its own.
    virtual = isinstance(client.clock, VirtualClock)
    account = client.clock.account if virtual else None
    point = Point(
        transactions=len(handles),
        committed=sum(p is TxnPhase.COMMITTED for p in phases),
        timed_out=sum(p is TxnPhase.TIMED_OUT for p in phases),
        aborted=sum(p is TxnPhase.ABORTED for p in phases),
        unfinished=sum(not p.is_terminal for p in phases),
        elapsed=account.total_elapsed if account else 0.0,
        wall_seconds=wall_seconds,
        eval_time=account.total_eval_time if account else 0.0,
        clock="virtual" if virtual else "wall",
        reports=list(client.run_reports),
        metrics=metrics_delta(store.metrics(), before),
        client=client,
    )
    require_all_committed(point, label, allow_aborts=allow_aborts)
    return point


# -- arms: one experiment as data ---------------------------------------------------------

@dataclass(frozen=True)
class Table:
    """One output table of an arm: one column per arm series, each cell
    ``metric(point)`` — or, when the metric returns a ``{column: value}``
    mapping, those columns (curves that are different measurements of
    one run)."""

    key: str
    experiment: str
    y_label: str
    metric: "Callable[[Point], float | Mapping[str, float]]"


#: A curve expression: measured tables in, ``{x: y}`` out.
Curve = Callable[[Mapping[str, Measurements]], "dict[float, float]"]


def curve(table: str, series: str) -> Curve:
    """The measured points of one series of one table."""
    return lambda tables: dict(tables[table].series_named(series).points)


def ratio(num: Curve, den: Curve, *, at: "float | None" = None) -> Curve:
    """``num / den`` pointwise over their shared x values; with ``at``,
    every point is divided by ``den``'s value at that one x instead (a
    fixed baseline; no points when the baseline was not measured).
    ``ratio(c, c, at=1)`` is "scaling relative to x=1"."""

    def evaluate(tables: Mapping[str, Measurements]) -> dict[float, float]:
        top, bottom = num(tables), den(tables)
        out = {}
        for x, y in top.items():
            base = bottom.get(x if at is None else at)
            if base is None:
                continue
            out[x] = y / base if base else (0.0 if not y else math.inf)
        return out

    return evaluate


_OPS: dict[str, Callable[[float, Any], bool]] = {
    "==": operator.eq, "!=": operator.ne,
    ">=": operator.ge, ">": operator.gt,
    "<=": operator.le, "<": operator.lt,
    "within": lambda y, bounds: bounds[0] <= y <= bounds[1],
}


@dataclass(frozen=True)
class Rule:
    """One shape claim: every point of ``curve`` satisfies ``op bound``.

    ``op`` is a comparison (``== != >= > <= <``), ``"within"`` (``bound``
    is an inclusive ``(lo, hi)``), or ``"monotone"`` (non-decreasing in
    x).  ``at`` restricts the claim to one x (``"max"``: the largest
    measured) and ``where`` to the x values it accepts.  ``min_cores``
    arms the rule only on hosts with that many cores (wall-clock
    parallelism claims mean nothing on a single-core runner).
    """

    claim: str
    curve: Curve
    op: str
    bound: Any = 0
    at: "float | str | None" = None
    where: "Callable[[float], bool] | None" = None
    min_cores: int = 0


@dataclass(frozen=True)
class Arm:
    """One closed-loop experiment as data — what is genuinely its own:
    ``programs`` (the workload, given the series parameter, the x value,
    the built store and the merged ``params``), the ``series`` and ``xs``
    axes, ``store`` / ``engine`` (overrides for :func:`bank_store` /
    :func:`repro.connect`), the ``tables`` of metric extractors and the
    shape ``rules``.  Building, driving, totalling, checking and
    reporting are the harness's."""

    name: str
    x_label: str
    xs: tuple
    #: series name -> the parameter that distinguishes it.
    series: Mapping[str, Any]
    programs: Callable[[Any, Any, Any, Mapping[str, Any]], "list[Script]"]
    tables: "tuple[Table, ...]"
    rules: "tuple[Rule, ...]"
    #: derived curves printed under the tables (label -> curve) and
    #: persisted beside them in the JSON document (key -> curve).
    ratios: Mapping[str, Curve] = field(default_factory=dict)
    extras: Mapping[str, Curve] = field(default_factory=dict)
    store: Callable[[Any, Any, Mapping[str, Any]], dict] = lambda *_: {}
    engine: Callable[[Any, Any, Mapping[str, Any]], dict] = lambda *_: {}
    #: tunables with their defaults (``n_accounts``, ``transactions``,
    #: ``repeats`` ...), overridable per :func:`grid` call.
    params: Mapping[str, Any] = field(default_factory=dict)
    clock: str = "virtual"
    #: series/x combinations the grid leaves out.
    skip: "Callable[[Any, Any], bool] | None" = None
    #: replaces :func:`run_point` for arms whose point is more than one
    #: driven batch.
    measure: "Callable[[Arm, Any, Any, Mapping[str, Any]], Point] | None" = None


def run_point(
    arm: Arm, param: Any, x: Any, params: "Mapping[str, Any] | None" = None
) -> Point:
    """Build the arm's system under test for one (series parameter, x)
    cell and drive the arm's programs through it."""
    p = {**arm.params, **(params or {})}
    store = bank_store(**{
        "n_accounts": p.get("n_accounts", 0), **arm.store(param, x, p)})
    client = connect(store, policy=ManualPolicy(), **{
        "executor": "serial",
        "clock": (
            VirtualClock(costs=DEFAULT_COSTS) if arm.clock == "virtual"
            else None),
        **arm.engine(param, x, p),
    })
    try:
        return drive(
            client, arm.programs(param, x, store, p),
            label=f"{arm.name} point {param!r} {arm.x_label}={x}",
        )
    finally:
        # Joins executor threads and shuts a process fleet down; no
        # checkpoint — the store is discarded with the point.
        client.close(checkpoint=False)


def grid(
    arm: Arm, *, xs: "Sequence | None" = None, **params: Any
) -> dict[str, Measurements]:
    """Run the arm's series × x grid; returns plot-ready tables.  Each
    cell keeps the best of ``params["repeats"]`` points (default 1) —
    standard wall-clock practice, since a noisy neighbor can only ever
    slow a run down."""
    p = {**arm.params, **params}
    measure = arm.measure or run_point
    tables = {
        table.key: Measurements(
            experiment=table.experiment, x_label=arm.x_label,
            y_label=table.y_label, clock=arm.clock,
        )
        for table in arm.tables
    }
    for name, param in arm.series.items():
        for x in (arm.xs if xs is None else xs):
            if arm.skip is not None and arm.skip(param, x):
                continue
            point = max(
                (measure(arm, param, x, p) for _ in range(p.get("repeats", 1))),
                key=lambda candidate: candidate.throughput,
            )
            for table in arm.tables:
                cell = table.metric(point)
                columns = cell if isinstance(cell, Mapping) else {name: cell}
                for column, value in columns.items():
                    tables[table.key].add(column, x, value)
    return tables


def check_shapes(arm: Arm, tables: Mapping[str, Measurements]) -> list[str]:
    """Evaluate the arm's rules; returns violation messages."""
    problems: list[str] = []
    for rule in arm.rules:
        if (os.cpu_count() or 1) < rule.min_cores:
            continue
        points = rule.curve(tables)
        if rule.at is not None:
            at = max(points, default=None) if rule.at == "max" else rule.at
            points = {x: y for x, y in points.items() if x == at}
        if rule.where is not None:
            points = {x: y for x, y in points.items() if rule.where(x)}
        if rule.op == "monotone":
            ordered = sorted(points.items())
            for (x_lo, y_lo), (x_hi, y_hi) in zip(ordered, ordered[1:]):
                if y_hi < y_lo:
                    problems.append(
                        f"{arm.name}: {rule.claim}: fell from {y_lo:.4g} at "
                        f"{arm.x_label}={x_lo:g} to {y_hi:.4g} at {x_hi:g}")
            continue
        for x, y in sorted(points.items()):
            if not _OPS[rule.op](y, rule.bound):
                problems.append(
                    f"{arm.name}: {rule.claim}: got {y:.4g} at "
                    f"{arm.x_label}={x:g}, need {rule.op} {rule.bound}")
    return problems


# -- reporting ------------------------------------------------------------------------------


def report(
    groups: "Mapping[str, Mapping[str, Measurements]]",
    problems: Sequence[str],
    *,
    notes: "Mapping[str, Sequence[str]] | None" = None,
    json_out: "str | None" = None,
    extra: "Mapping[str, object] | None" = None,
    ok: str,
    enforce: bool = True,
) -> int:
    """The tail of every bench ``main()``: render each group's tables
    (followed by that group's ``notes`` lines), persist everything as
    one JSON document (``extra`` keys beside ``experiments``), list the
    shape violations.  Returns the process exit code — 1 when there are
    violations and ``enforce`` is set."""
    for group, tables in groups.items():
        for table in tables.values():
            print(table.render())
            print()
        for line in (notes or {}).get(group, ()):
            print(line)
            print()
    if json_out:
        document = {"experiments": {
            group: {
                key: {
                    "experiment": table.experiment,
                    "x_label": table.x_label,
                    "y_label": table.y_label,
                    "clock": table.clock,
                    "series": {
                        name: series.points
                        for name, series in table.series.items()
                    },
                }
                for key, table in tables.items()
            }
            for group, tables in groups.items()
        }, **(extra or {})}
        with open(json_out, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {json_out}")
    if problems:
        print("SHAPE CHECK FAILURES:")
        for problem in problems:
            print(f"  - {problem}")
        return 1 if enforce else 0
    print(f"shape checks: OK ({ok})")
    return 0


def run_arms(
    arms: Sequence[Arm],
    overrides: "Mapping[str, Mapping[str, Any]] | None" = None,
    *,
    json_out: "str | None" = None,
    extra: "Mapping[str, object] | None" = None,
) -> int:
    """Grid, check and report ``arms`` as one document; returns the exit
    code.  ``overrides`` maps an arm's name to :func:`grid` keyword
    overrides (``xs`` and params) for it."""
    groups: dict[str, dict[str, Measurements]] = {}
    notes: dict[str, list[str]] = {}
    problems: list[str] = []
    document_extra = dict(extra or {})
    for arm in arms:
        tables = groups[arm.name] = grid(
            arm, **(overrides or {}).get(arm.name, {}))
        notes[arm.name] = [
            f"{label}: " + ", ".join(
                f"{arm.x_label}={x:g}: {y:.2f}x"
                for x, y in sorted(derived(tables).items()))
            for label, derived in arm.ratios.items()
        ]
        problems += check_shapes(arm, tables)
        document_extra.update({
            key: sorted(derived(tables).items())
            for key, derived in arm.extras.items()
        })
    document_extra["shape_check_failures"] = problems
    rules = sum(len(arm.rules) for arm in arms)
    return report(
        groups, problems, notes=notes, json_out=json_out,
        extra=document_extra,
        ok=f"{rules} rules over " + ", ".join(arm.name for arm in arms),
    )
