"""Virtual time for the benchmarks that reproduce the paper's figures.

The paper's evaluation measures wall-clock seconds on MySQL with a fixed
number of connections.  Python cannot reproduce that hardware profile, so
those benchmarks run the engine on *virtual time*: they pass
``connect(clock=VirtualClock(costs=...))``, and the clock moves only when
its :class:`~repro.sim.costs.CostModel` charges a run.  Timeouts (``WITH
TIMEOUT``), run scheduling policies and admission hints read the same
clock, which keeps every experiment deterministic and independent of
host speed.  The product runs on real seconds
(:class:`repro.core.clock.WallClock`); a test that advances time by hand
passes a bare ``VirtualClock()``, which only :meth:`advance` and
:meth:`advance_to` move.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.clock import Clock
from repro.sim.costs import CostAccount, CostModel


@dataclass
class VirtualClock(Clock):
    """A monotonically advancing virtual clock (seconds)."""

    now: float = 0.0
    #: the cost model the engine's runs are charged against, or ``None``
    #: for a clock that moves only by hand.
    costs: "CostModel | None" = None
    #: the subscriber charging the latest engine built on this clock.
    account: "CostAccount | None" = field(
        default=None, init=False, repr=False, compare=False)

    def advance(self, seconds: float) -> float:
        """Move time forward; negative or non-finite advances are
        programming errors.

        The non-finite guard matters as much as the sign check: ``NaN``
        compares false against everything, so without it ``advance(nan)``
        would slip past ``seconds < 0`` and silently poison ``now`` —
        after which every timeout comparison (``now > deadline``) is
        false forever and expired transactions never time out.
        """
        if not math.isfinite(seconds):
            raise ValueError(f"cannot advance clock by non-finite {seconds!r}")
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds}")
        self.now += seconds
        return self.now

    def advance_to(self, timestamp: float) -> float:
        """Move to an absolute time (no-op when already past it)."""
        if not math.isfinite(timestamp):
            raise ValueError(f"cannot advance clock to non-finite {timestamp!r}")
        if timestamp > self.now:
            self.now = timestamp
        return self.now

    def subscribe(self, engine) -> None:
        """With a cost model, charge ``engine``'s runs to this clock."""
        if self.costs is not None:
            self.account = CostAccount(self.costs, self, engine)
            engine.listeners.append(self.account)

    def run_estimate(self, engine) -> float:
        """What the cost model predicts a run over the dormant pool
        costs; without one, the last run's duration (zero: nothing
        moves a bare virtual clock during a run)."""
        if self.account is None:
            return super().run_estimate(engine)
        return self.account.run_estimate(engine.dormant_count)
