"""The replication bench's point driver: a leader killed mid-schedule
under read-your-writes probes, through the shared open-loop driver."""

from __future__ import annotations

from repro.bench.replication import run_replica_point
from repro.bench.traffic import poisson_arrivals
from repro.workloads import PaymentLedger


def test_failover_point_accounts_for_every_arrival_and_loses_nothing():
    arrivals = poisson_arrivals(40.0, 48, seed=5)
    point, stats = run_replica_point(
        PaymentLedger(n_accounts=32, query_share=0.5, seed=5), arrivals,
        deadline=2.0, replicas=2, fail_over_midway=True, ryw_probe_every=4,
    )
    assert point.committed + point.aborted == len(arrivals)
    assert stats.promotions == 1
    assert stats.committed_transfers > 0
    assert stats.zero_acknowledged_loss
    assert stats.ryw_probes > 0
    assert stats.ryw_violations == 0


def test_a_point_without_replicas_reads_only_from_its_leaders():
    arrivals = poisson_arrivals(40.0, 32, seed=6)
    point, stats = run_replica_point(
        PaymentLedger(n_accounts=32, query_share=0.9, seed=6), arrivals,
        deadline=2.0, replicas=0,
    )
    assert point.committed + point.aborted == len(arrivals)
    assert stats.follower_reads == 0
    assert stats.promotions == 0
    assert stats.zero_acknowledged_loss
