"""The one clock the middle tier reads.

``WITH TIMEOUT`` deadlines (Section 3.1), the session token bucket, both
``retry_after`` hints and the time-interval run policy read
``engine.clock.now``.  The product runs on :class:`WallClock`, real
seconds.  A bench reproducing the paper's figures passes a
:class:`repro.sim.clock.VirtualClock`, which moves only when its cost
model charges a run (through :meth:`Clock.subscribe` and the run events
of :mod:`repro.core.events`) or when a caller advances it by hand.
"""

from __future__ import annotations

import math
import time


class Clock:
    """What the engine asks of its clock: ``now`` in seconds and
    :meth:`advance_to`; :meth:`subscribe` and :meth:`run_estimate` have
    working defaults."""

    now: float

    def advance_to(self, timestamp: float) -> float:
        """Move to ``timestamp`` if this clock can be moved (an arrival
        stamped ``at`` it); returns ``now``."""
        raise NotImplementedError

    def subscribe(self, engine) -> None:
        """Called by every engine built on this clock, last thing in its
        construction; a clock that charges runs appends a listener to
        ``engine.listeners`` here."""

    def run_estimate(self, engine) -> float:
        """Roughly how long the next run takes (a queue-depth shed's
        ``retry_after``): the last run's duration."""
        reports = engine.run_reports
        return reports[-1].elapsed if reports else 0.0


class WallClock(Clock):
    """Real seconds from ``time.monotonic``, comparable across engines
    and processes of one boot: a recovered pool entry keeps its arrival
    stamp, and so its deadline."""

    @property
    def now(self) -> float:
        return time.monotonic()

    def advance_to(self, timestamp: float) -> float:
        """Real time cannot be moved: checks the stamp, returns now."""
        if not math.isfinite(timestamp):
            raise ValueError(f"cannot advance clock to non-finite {timestamp!r}")
        return time.monotonic()
