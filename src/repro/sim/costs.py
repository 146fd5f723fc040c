"""The cost model behind the virtual clock, and its run subscriber.

Calibration targets the paper's Figure 6 magnitudes: 10,000 transactions
over 10–100 MySQL connections complete in roughly 160s down to 20s, with
the entangled workloads marginally above the classical ones by about the
entangled-query evaluation cost.  The constants below reproduce those
relative magnitudes; EXPERIMENTS.md records paper-vs-measured for every
series.

Costs are *per logical operation*, charged by the engine as it executes:

* each classical statement costs ``statement_cost`` (reads) or
  ``write_statement_cost`` (inserts/updates/deletes) of connection time;
* an entangled query costs ``entangled_submit_cost`` from its own
  transaction plus, at evaluation time, ``entangled_eval_base`` +
  ``entangled_eval_per_grounding`` × groundings on the coordinator;
* each run costs ``run_overhead`` plus ``suspend_resume_cost`` for every
  transaction it suspends and later retries (the abort/restart tax that
  makes high run frequencies expensive in Figure 6b);
* transactions occupy one of ``connections`` equal slots; a run's elapsed
  connection time is the max over slots of the per-slot work (transactions
  are assigned round-robin, matching the paper's uniform batches).

:class:`CostAccount` does the charging: a
:class:`~repro.sim.clock.VirtualClock` built with a cost model subscribes
one to each engine's run events (:mod:`repro.core.events`) and is
advanced by it at the end of every run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.events import RunListener
from repro.core.interpreter import StepOutcome
from repro.sim.resources import ConnectionPool
from repro.sql.ast import DeleteStmt, InsertStmt, SelectStmt, UpdateStmt


@dataclass(frozen=True)
class CostModel:
    """Virtual-time costs, in seconds, calibrated to Figure 6."""

    #: connection time per classical read statement (SELECT).
    statement_cost: float = 0.0045
    #: connection time per classical write statement (INSERT/UPDATE/DELETE).
    write_statement_cost: float = 0.0065
    #: connection time a transaction spends submitting an entangled query.
    entangled_submit_cost: float = 0.0012
    #: coordinator time per evaluation round (batch fixed cost).
    entangled_eval_base: float = 0.004
    #: coordinator time per grounding considered during matching.
    entangled_eval_per_grounding: float = 0.0006
    #: coordinator time per answered query (answer materialization).
    entangled_answer_cost: float = 0.0008
    #: fixed scheduler cost to start/stop one run.
    run_overhead: float = 0.030
    #: cost to suspend, abort and later re-execute one pending transaction.
    suspend_resume_cost: float = 0.0035
    #: per-transaction begin/commit bracket cost (the transactional tax
    #: that separates the -T from the -Q workloads in Figure 6a).
    txn_bracket_cost: float = 0.0035
    #: commit-flush time charged to each *shard* a committing transaction
    #: wrote in.  Shards are serial resources (one WAL, one group-commit
    #: pipeline each): a run's flush time is the max over shards of the
    #: accumulated charges, which is what the shard-count ablation scales.
    #: 0 (the default) keeps the Figure-6 calibration untouched.
    commit_flush_cost: float = 0.0
    #: extra per-shard prepare charge for cross-shard commits (the
    #: two-phase coordination tax the adversarial ablation arm measures).
    cross_shard_prepare_cost: float = 0.0
    #: service time per snapshot-read probe, charged to the *server*
    #: (leader or follower replica) that answered it.  Each server is a
    #: serial resource like a shard's flush pipeline: a run's read time
    #: is the max over servers of the accumulated charges, which is what
    #: the follower-read replica ablation scales.  0 (the default) keeps
    #: every existing calibration untouched.
    read_service_cost: float = 0.0

    def scaled(self, factor: float) -> "CostModel":
        """Uniformly scale all costs (used to match paper magnitudes when
        running reduced-size workloads)."""
        return CostModel(
            statement_cost=self.statement_cost * factor,
            write_statement_cost=self.write_statement_cost * factor,
            entangled_submit_cost=self.entangled_submit_cost * factor,
            entangled_eval_base=self.entangled_eval_base * factor,
            entangled_eval_per_grounding=self.entangled_eval_per_grounding * factor,
            entangled_answer_cost=self.entangled_answer_cost * factor,
            run_overhead=self.run_overhead * factor,
            suspend_resume_cost=self.suspend_resume_cost * factor,
            txn_bracket_cost=self.txn_bracket_cost * factor,
            commit_flush_cost=self.commit_flush_cost * factor,
            cross_shard_prepare_cost=self.cross_shard_prepare_cost * factor,
            read_service_cost=self.read_service_cost * factor,
        )


#: The default calibration used by the benchmark harness.
DEFAULT_COSTS = CostModel()


class CostAccount(RunListener):
    """Charges one engine's runs to a virtual clock.

    Each run gets fresh resources: ``connections`` slots for statement
    work, and one serial commit pipeline per shard.  A scheduled
    transaction takes the next slot round-robin; its begin/commit
    bracket is charged to the slot after that.  Its statements and its
    entangled submissions land on its own slot, evaluation rounds on the
    coordinator, commit flushes on every shard it wrote in.  At the end
    of the run the clock advances by the run's elapsed time, and the
    totals grow by it.
    """

    def __init__(self, costs: CostModel, clock, engine):
        self.costs = costs
        self.clock = clock
        self.engine = engine
        #: total virtual time, and the coordinator's (entangled-evaluation)
        #: share of it — the -Q vs -T comparison of Figure 6(a).
        self.total_elapsed = 0.0
        self.total_eval_time = 0.0

    def run_started(self, report) -> None:
        store = self.engine.store
        self._connections = ConnectionPool(self.engine.config.connections)
        self._slots: dict[int, int] = {}
        #: handle -> the shards its pending commit will flush.
        self._written: dict[int, list[int]] = {}
        # Each shard's WAL/group-commit pipeline is a serial resource;
        # the run pays the busiest (the shard ablation's subject).
        self._flushes = ConnectionPool(store.n_shards)
        self._eval_time = 0.0
        self._probes_before = store.read_probe_counts()

    def attempt_started(self, txn) -> None:
        self._slots[txn.handle] = self._connections.charge(0.0)
        if not self.engine.config.autocommit:
            self._connections.charge(self.costs.txn_bracket_cost)

    def step_ended(self, txn, statements, outcome) -> None:
        slot = self._slots[txn.handle]
        for stmt in statements:
            if isinstance(stmt, SelectStmt):
                self._connections.charge_slot(slot, self.costs.statement_cost)
            elif isinstance(stmt, (InsertStmt, UpdateStmt, DeleteStmt)):
                self._connections.charge_slot(
                    slot, self.costs.write_statement_cost)
        if outcome is StepOutcome.BLOCKED_ON_QUERY:
            self._connections.charge_slot(
                slot, self.costs.entangled_submit_cost)

    def round_evaluated(self, queries, result) -> None:
        costs = self.costs
        self._eval_time += (
            costs.entangled_eval_base
            + costs.entangled_eval_per_grounding
            * sum(result.groundings_per_query.values())
            + costs.entangled_answer_cost * len(result.answers)
        )

    def committing(self, txn) -> None:
        self._written[txn.handle] = self.engine.store.written_shards(
            txn.storage_txn)

    def committed(self, txn) -> None:
        # The flush lands on every shard the transaction wrote in, plus
        # the two-phase prepare tax when it wrote more than one.
        written = self._written.pop(txn.handle)
        per_shard = self.costs.commit_flush_cost + (
            self.costs.cross_shard_prepare_cost if len(written) > 1 else 0.0
        )
        for shard in written:
            self._flushes.charge_slot(shard, per_shard)

    def run_ended(self, report) -> None:
        costs = self.costs
        retry_tax = costs.suspend_resume_cost * len(report.returned_to_pool)
        # Snapshot probes serialize per server (leader or follower) but
        # overlap across servers: the run pays the busiest, which is what
        # adding follower replicas divides down.
        before = self._probes_before
        probes = self.engine.store.read_probe_counts()
        read_time = costs.read_service_cost * max(
            (n - before.get(server, 0) for server, n in probes.items()),
            default=0)
        # The computed sum, never a difference of clock readings:
        # (now + e) - now is not e in floating point.
        report.elapsed = (
            self._connections.elapsed() + self._eval_time + costs.run_overhead
            + retry_tax + self._flushes.elapsed() + read_time
        )
        self.clock.advance(report.elapsed)
        self.total_eval_time += self._eval_time
        self.total_elapsed += report.elapsed

    def run_estimate(self, dormant: int) -> float:
        """About one run over ``dormant`` transactions: the run overhead
        plus a bracket and three reads each, spread over the slots."""
        costs = self.costs
        per_txn = costs.txn_bracket_cost + 3 * costs.statement_cost
        slots = max(1, self.engine.config.connections)
        return costs.run_overhead + per_txn * max(1, dormant) / slots
