"""Run-scheduling policies (Section 4, "Scheduling").

"A simple policy is to schedule runs with a particular frequency ...
explicitly given as a time interval, or it can depend on the arrival rate
of new transactions.  For example, the system may schedule a new run once
ten new transactions have arrived."

The Figure 6(b)/(c) experiments parameterize the arrival-count policy by
*f*: "start a new run after f new transactions arrive" (f=1 runs most
often).  Both policy families are provided, plus a manual policy for
tests that want full control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.errors import EngineError


class RunPolicy(Protocol):
    """Decides when the scheduler should start the next run."""

    def on_arrival(self, now: float, dormant: int) -> None:
        """Notify: a new transaction has arrived."""
        ...  # pragma: no cover - protocol

    def should_run(self, now: float, dormant: int) -> bool:
        """Should a run be started now?"""
        ...  # pragma: no cover - protocol

    def on_run_started(self, now: float) -> None:
        """Notify: a run is starting (reset arrival counters)."""
        ...  # pragma: no cover - protocol


@dataclass
class ArrivalCountPolicy:
    """Start a run once ``frequency`` new transactions have arrived.

    This is the paper's *f* parameter.  ``f=1`` starts a run on every
    arrival; ``f=50`` batches fifty arrivals per run.
    """

    frequency: int
    arrivals_since_run: int = 0

    def __post_init__(self):
        if self.frequency < 1:
            raise EngineError("arrival-count frequency must be >= 1")

    def on_arrival(self, now: float, dormant: int) -> None:
        self.arrivals_since_run += 1

    def should_run(self, now: float, dormant: int) -> bool:
        return self.arrivals_since_run >= self.frequency and dormant > 0

    def on_run_started(self, now: float) -> None:
        self.arrivals_since_run = 0


@dataclass
class TimeIntervalPolicy:
    """Start a run every ``interval`` seconds of the engine's clock."""

    interval: float
    last_run_at: float = float("-inf")

    def __post_init__(self):
        if self.interval <= 0:
            raise EngineError("time interval must be positive")

    def on_arrival(self, now: float, dormant: int) -> None:
        pass

    def should_run(self, now: float, dormant: int) -> bool:
        return dormant > 0 and now - self.last_run_at >= self.interval

    def on_run_started(self, now: float) -> None:
        self.last_run_at = now


@dataclass
class ManualPolicy:
    """Runs start only when the caller invokes the engine explicitly."""

    def on_arrival(self, now: float, dormant: int) -> None:
        pass

    def should_run(self, now: float, dormant: int) -> bool:
        return False

    def on_run_started(self, now: float) -> None:
        pass
