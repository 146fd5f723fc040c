"""The open-workload traffic harness: schedules, the driver loop, and
the CI shape checks."""

from __future__ import annotations

import math

import pytest

from repro.bench.traffic import (
    ARMS,
    bursty_arrivals,
    calibrate,
    check_traffic_shapes,
    poisson_arrivals,
    run_traffic_point,
)
from repro.client import AdmissionConfig
from repro.errors import WorkloadError
from repro.sim.metrics import Measurements
from repro.workloads import PaymentLedger


class TestPoissonArrivals:
    def test_count_and_monotonicity(self):
        times = poisson_arrivals(10.0, 50, seed=1)
        assert len(times) == 50
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_rate_is_approximately_honored(self):
        times = poisson_arrivals(20.0, 2000, seed=2)
        measured = len(times) / (times[-1] - times[0])
        assert 17.0 < measured < 23.0

    def test_deterministic_per_seed(self):
        assert poisson_arrivals(5.0, 20, seed=3) \
            == poisson_arrivals(5.0, 20, seed=3)
        assert poisson_arrivals(5.0, 20, seed=3) \
            != poisson_arrivals(5.0, 20, seed=4)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            poisson_arrivals(0.0, 10)
        with pytest.raises(WorkloadError):
            poisson_arrivals(1.0, 0)


class TestBurstyArrivals:
    def test_count_and_monotonicity(self):
        times = bursty_arrivals(10.0, 100, seed=1)
        assert len(times) == 100
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_average_rate_is_approximately_honored(self):
        times = bursty_arrivals(20.0, 3000, seed=2)
        measured = len(times) / (times[-1] - times[0])
        assert 14.0 < measured < 27.0

    def test_arrivals_are_burstier_than_poisson(self):
        """Squared coefficient of variation of inter-arrival gaps: 1 for
        Poisson, substantially above 1 for an on/off process."""
        def cv2(times):
            gaps = [b - a for a, b in zip(times, times[1:])]
            mean = sum(gaps) / len(gaps)
            var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
            return var / mean**2

        bursty = cv2(bursty_arrivals(20.0, 2000, seed=5))
        poisson = cv2(poisson_arrivals(20.0, 2000, seed=5))
        assert bursty > poisson * 1.5

    def test_rejects_impossible_duty_cycle(self):
        # duty*burst_factor >= 1 would need negative off-intensity (and
        # used to hang the generator walking a near-infinite gap).
        with pytest.raises(WorkloadError):
            bursty_arrivals(10.0, 10, burst_factor=8.0, duty=0.2)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            bursty_arrivals(-1.0, 10)
        with pytest.raises(WorkloadError):
            bursty_arrivals(1.0, 10, burst_factor=0.5)
        with pytest.raises(WorkloadError):
            bursty_arrivals(1.0, 10, duty=1.5)


class TestRunTrafficPoint:
    def _arrivals(self, rate=30.0, n=40):
        return poisson_arrivals(rate, n, seed=11)

    def test_accounts_for_every_arrival(self):
        point = run_traffic_point(
            PaymentLedger(n_accounts=16, seed=1),
            self._arrivals(),
            deadline=0.5,
        )
        assert point.committed + point.aborted == 40
        assert point.shed == 0
        assert point.timely <= point.committed
        assert len(point.latencies) == point.committed
        assert point.makespan > 0
        assert point.goodput > 0
        assert point.latency is not None
        assert point.latency.p50 <= point.latency.p99

    def test_overload_with_admission_sheds(self):
        point = run_traffic_point(
            PaymentLedger(n_accounts=16, seed=1),
            self._arrivals(rate=500.0),
            deadline=0.5,
            admission=AdmissionConfig(max_queue_depth=4),
        )
        assert point.shed > 0
        assert point.committed + point.aborted + point.shed == 40
        assert 0 < point.shed_share < 1
        # The whole point: admitted work still lands inside its SLO.
        assert point.timely > 0

    def test_rejects_empty_schedule(self):
        with pytest.raises(WorkloadError):
            run_traffic_point(
                PaymentLedger(n_accounts=16), [], deadline=0.5)

    def test_serializable_point_reports_ssi_tracker_counters(self):
        """A write-skew-prone mix under ``isolation="serializable"``
        must surface the tracker's abort counters on the point — the
        raw data behind the ``ssi_precision`` table."""
        point = run_traffic_point(
            _WriteSkewScenario(),
            [1.0 + i * 1e-6 for i in range(24)],   # maximal overlap
            deadline=10.0,
            isolation="serializable",
        )
        assert point.ssi_aborts > 0
        assert point.ssi_aborts == \
            point.pivot_aborts + point.conservative_aborts
        assert 0.0 <= point.unproven_share <= 1.0
        assert point.unproven_pivot_aborts <= point.ssi_aborts

    def test_default_isolation_never_counts_ssi_aborts(self):
        point = run_traffic_point(
            _WriteSkewScenario(),
            [1.0 + i * 1e-6 for i in range(12)],
            deadline=10.0,
        )
        assert point.ssi_aborts == 0
        assert point.unproven_share == 0.0

    def test_social_feed_point_runs_sharded_and_verifies_fanout(self):
        from repro.bench.traffic import ARMS

        arrivals = poisson_arrivals(30.0, 24, seed=11)
        point = run_traffic_point(
            ARMS["social-feed"]["make"](), arrivals, deadline=0.5,
            shards=ARMS["social-feed"]["shards"],
        )
        # run_traffic_point calls the scenario's fanout-integrity
        # verify() hook before returning, so reaching these assertions
        # means every committed post reached every follower timeline.
        assert point.committed + point.aborted == 24
        assert point.goodput > 0


class _WriteSkewScenario:
    """Alternating guard-check programs on two rows: classic write
    skew, the minimal mix that makes SSI validation fire."""

    name = "write-skew"

    def __init__(self):
        self._turn = 0

    def install(self, client):
        from repro.storage.schema import TableSchema
        from repro.storage.types import ColumnType

        client.create_table(TableSchema.build(
            "Guards",
            [("id", ColumnType.INTEGER), ("v", ColumnType.INTEGER)],
            primary_key=["id"],
        ))
        client.load("Guards", [(0, 1), (1, 1)])

    def program(self, at):
        del at
        mine = self._turn % 2
        self._turn += 1
        other = 1 - mine
        return f"""
            BEGIN TRANSACTION;
            SELECT v AS @a FROM Guards WHERE id={mine};
            SELECT v AS @b FROM Guards WHERE id={other};
            UPDATE Guards SET v = v - 1 WHERE id={mine};
            COMMIT;
        """


class TestCalibrate:
    def test_service_rate_is_positive_and_stable(self):
        make = ARMS["payment-ledger"]["make"]
        mu = calibrate(make, waves=4)
        assert mu > 0
        assert calibrate(make, waves=4) == pytest.approx(mu, rel=0.2)


def synthetic_groups(
    shed_ys, noadm_ys, shed_shares, factors=(0.5, 1.0, 2.0, 4.0)
):
    goodput = Measurements("g", "x", "y")
    latency = Measurements("l", "x", "y")
    admission = Measurements("a", "x", "y")
    for x, shed, noadm, share in zip(
        factors, shed_ys, noadm_ys, shed_shares
    ):
        goodput.add("with-shedding", x, shed)
        goodput.add("no-admission", x, noadm)
        goodput.add("offered", x, x * 100)
        for p in ("p50", "p95", "p99"):
            latency.add(p, x, 0.1)
        admission.add("shed-share", x, share)
        admission.add("throughput", x, shed)
    return {"arm": {
        "goodput": goodput, "latency": latency, "admission": admission,
    }}


def add_precision(groups, shares, totals=None, unproven=None,
                  serial_goodput=None, factors=(0.5, 1.0, 2.0, 4.0)):
    """Augment synthetic groups with the serializable/SSI tables."""
    tables = groups["arm"]
    precision = Measurements("p", "x", "y")
    for i, x in enumerate(factors):
        total = totals[i] if totals else 10.0
        npv = unproven[i] if unproven else shares[i] * total
        precision.add("ssi-aborts", x, total)
        precision.add("pivot-aborts", x, total)
        precision.add("unproven-pivots", x, npv)
        precision.add("unproven-share", x, shares[i])
        tables["goodput"].add(
            "serializable", x,
            serial_goodput[i] if serial_goodput else 40.0)
    tables["ssi_precision"] = precision
    return groups


class TestSSIPrecisionShapes:
    def healthy(self):
        return synthetic_groups(
            shed_ys=[50, 95, 100, 98],
            noadm_ys=[50, 95, 10, 5],
            shed_shares=[0.0, 0.05, 0.5, 0.7],
        )

    def test_healthy_precision_passes(self):
        groups = add_precision(self.healthy(), shares=[0.0, 0.2, 0.5, 1.0])
        assert check_traffic_shapes(groups) == []

    def test_flags_share_outside_unit_interval(self):
        groups = add_precision(self.healthy(), shares=[0.0, 0.2, 1.4, 0.5])
        assert any("outside" in p for p in check_traffic_shapes(groups))

    def test_flags_unproven_exceeding_totals(self):
        groups = add_precision(
            self.healthy(), shares=[0.0, 0.2, 0.5, 0.5],
            totals=[10, 10, 10, 10], unproven=[0, 2, 12, 5])
        assert any("exceed" in p for p in check_traffic_shapes(groups))

    def test_flags_serializable_arm_that_never_progresses(self):
        groups = add_precision(
            self.healthy(), shares=[0.0, 0.0, 0.0, 0.0],
            serial_goodput=[0.0, 0.0, 0.0, 0.0])
        assert any(
            "never made timely progress" in p
            for p in check_traffic_shapes(groups))


class TestShapeChecks:
    def test_healthy_curves_pass(self):
        groups = synthetic_groups(
            shed_ys=[50, 95, 100, 98],
            noadm_ys=[50, 95, 10, 5],
            shed_shares=[0.0, 0.05, 0.5, 0.7],
        )
        assert check_traffic_shapes(groups) == []

    def test_flags_goodput_collapse_despite_shedding(self):
        groups = synthetic_groups(
            shed_ys=[50, 95, 40, 20],
            noadm_ys=[50, 95, 10, 5],
            shed_shares=[0.0, 0.05, 0.5, 0.7],
        )
        assert any("collapses" in p for p in check_traffic_shapes(groups))

    def test_flags_missing_shedding_past_saturation(self):
        groups = synthetic_groups(
            shed_ys=[50, 95, 100, 98],
            noadm_ys=[50, 95, 10, 5],
            shed_shares=[0.0, 0.0, 0.0, 0.7],
        )
        assert any("no shedding" in p for p in check_traffic_shapes(groups))

    def test_flags_non_monotone_ramp(self):
        groups = synthetic_groups(
            shed_ys=[80, 30, 90, 85],
            noadm_ys=[80, 30, 10, 5],
            shed_shares=[0.0, 0.1, 0.5, 0.7],
            factors=(0.25, 0.5, 2.0, 4.0),   # the dip sits below saturation
        )
        assert any("monotone" in p for p in check_traffic_shapes(groups))

    def test_flags_admission_not_helping(self):
        groups = synthetic_groups(
            shed_ys=[50, 95, 90, 88],
            noadm_ys=[50, 95, 91, 89],
            shed_shares=[0.0, 0.05, 0.5, 0.7],
        )
        assert any("not worse" in p for p in check_traffic_shapes(groups))

    def test_flags_non_finite_latency(self):
        groups = synthetic_groups(
            shed_ys=[50, 95, 100, 98],
            noadm_ys=[50, 95, 10, 5],
            shed_shares=[0.0, 0.05, 0.5, 0.7],
        )
        groups["arm"]["latency"].add("p99", 8.0, math.inf)
        assert any("not finite" in p for p in check_traffic_shapes(groups))
