"""Unit tests for the shared benchmark harness."""

import pytest

from repro.bench import (
    drive,
    drive_open,
    make_travel_env,
    require_all_committed,
    travel_scripts,
)
from repro.client import connect
from repro.core.policies import ArrivalCountPolicy
from repro.errors import BenchError
from repro.sim.clock import VirtualClock
from repro.sim.costs import DEFAULT_COSTS
from repro.workloads import PaymentLedger, WorkloadKind, generate_workload


class TestMakeTravelEnv:
    def test_builds_populated_engine(self, small_network):
        env = make_travel_env(network=small_network, connections=25)
        assert env.client.engine.config.connections == 25
        assert len(env.client.store.db.table("User")) == small_network.n_users

    def test_autocommit_flag(self, small_network):
        env = make_travel_env(network=small_network, autocommit=True)
        assert env.client.engine.config.autocommit

    def test_fresh_database_per_env(self, small_network):
        first = make_travel_env(network=small_network)
        second = make_travel_env(network=small_network)
        assert first.client.store is not second.client.store
        assert len(first.client.store.db.table("Reserve")) == 0


class TestRunSingleBatch:
    """Submit everything, then drain (Figure 6(a)'s discipline)."""

    def test_all_committed_workload(self, small_network):
        env = make_travel_env(network=small_network)
        items = generate_workload(WorkloadKind.NOSOCIAL_T, env.travel, 10)
        result = drive(env.client, travel_scripts(items), label="test")
        assert result.committed == 10
        assert result.unfinished == 0
        assert result.elapsed > 0
        require_all_committed(result, "test")  # does not raise

    def test_entangled_batch_commits(self, small_network):
        env = make_travel_env(network=small_network)
        items = generate_workload(WorkloadKind.ENTANGLED_T, env.travel, 10)
        result = drive(env.client, travel_scripts(items), label="test")
        assert result.committed == 10
        assert result.eval_time > 0

    def test_require_all_committed_raises(self, small_network):
        env = make_travel_env(network=small_network)
        items = generate_workload(WorkloadKind.NOSOCIAL_T, env.travel, 2)
        result = drive(env.client, travel_scripts(items), label="test")
        result.unfinished = 1  # doctor the result
        with pytest.raises(BenchError):
            require_all_committed(result, "doctored")


class TestSubmitAndDrain:
    """Tick the run policy after every arrival (Figures 6(b)/(c))."""

    def test_ticks_policy(self, small_network):
        env = make_travel_env(
            network=small_network, policy=ArrivalCountPolicy(5))
        items = generate_workload(WorkloadKind.NOSOCIAL_T, env.travel, 12)
        result = drive(
            env.client, travel_scripts(items), label="test", tick_each=True)
        assert result.committed == 12
        # 12 arrivals at f=5 -> runs at 5 and 10, then the final drain.
        assert result.runs == 3

    def test_elapsed_accumulates_across_runs(self, small_network):
        env = make_travel_env(
            network=small_network, policy=ArrivalCountPolicy(1))
        items = generate_workload(WorkloadKind.NOSOCIAL_T, env.travel, 5)
        result = drive(
            env.client, travel_scripts(items), label="test", tick_each=True)
        assert result.runs == 5
        per_run = [r.elapsed for r in env.client.run_reports]
        assert result.elapsed == pytest.approx(sum(per_run))


class TestDriveOpen:
    """The open-loop driver both arrival-schedule benches run."""

    def test_an_idle_engine_jumps_to_the_next_arrival(self):
        client = connect(
            executor="serial", clock=VirtualClock(costs=DEFAULT_COSTS))
        scenario = PaymentLedger(n_accounts=16, seed=1)
        scenario.install(client)
        point = drive_open(client, scenario, [1.0, 5.0, 9.0], deadline=0.1)
        client.close()
        # Each arrival finds the engine idle and commits in its own run,
        # which starts at the arrival instant, not at the previous run's
        # end or later: every commit lands within one run's service time.
        assert point.committed == point.timely == point.runs == 3
        assert all(0 < latency < 0.1 for latency in point.latencies)
        assert 8.0 < point.makespan < 8.1
