"""Run events: what the engine tells its subscribers as a run unfolds.

Whatever observes a run subscribes a :class:`RunListener` to
``engine.listeners`` instead of adding a branch to the run loop.  Two do
today: the cost model of a virtual clock
(:class:`repro.sim.costs.CostAccount`), which turns the events into
virtual seconds, and the formal-model schedule recorder
(:class:`repro.core.recorder.ScheduleRecorder`).  Only batch scripts
emit events.  Hooks marked *worker* may run on the per-shard executor
threads, concurrently for transactions homed on different shards.
"""

from __future__ import annotations


class RunListener:
    """A subscriber to the engine's run events; every hook is a no-op
    until a subscriber overrides it."""

    def run_started(self, report) -> None:
        """A run begins, before any of its transactions does."""

    def attempt_started(self, txn) -> None:
        """A scheduled transaction began a storage attempt (batch order)."""

    def step_ended(self, txn, statements, outcome) -> None:
        """*Worker.*  An execute step of ``txn`` completed the classical
        ``statements``, in order, and stopped on ``outcome`` (a
        :class:`~repro.core.interpreter.StepOutcome`; ``BLOCKED_ON_QUERY``
        means it then submitted an entangled query)."""

    def round_evaluated(self, queries, result) -> None:
        """The pending queries (query id -> transaction) were evaluated
        together into ``result``, an
        :class:`~repro.entangled.evaluator.EvaluationResult`."""

    def entangled(self, members, chosen) -> None:
        """``members`` were answered together from ``chosen`` (query id ->
        coordinating choice), or — ``None`` — one transaction's query
        succeeded with an empty answer."""

    def committing(self, txn) -> None:
        """*Worker.*  ``txn``'s storage commit is next: its writes are
        final, and the store still knows it (the commit may yet fail
        validation).  A subscriber that needs the store's view of what
        ``txn`` wrote reads it here; once committed, ``txn`` is finished
        and the store keeps nothing of it."""

    def committed(self, txn) -> None:
        """*Worker.*  ``txn``'s storage commit stuck."""

    def run_ended(self, report) -> None:
        """``report`` is complete; its ``elapsed`` is the run's duration
        on the engine's clock, which a subscriber that charges runs may
        replace."""
