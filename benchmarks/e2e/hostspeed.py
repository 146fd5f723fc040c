"""How fast this host runs Python: one fixed loop, timed two ways.

``run.py`` times it once for the host line (``run.host_calib_ops_per_s``);
``repeat.py`` samples it all through a repeat to scale measured seconds to a
reference host.  Both must time the same loop for the two to be comparable.
"""

from __future__ import annotations

import threading
from time import perf_counter


def loop_seconds(iterations: int) -> float:
    start = perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i & 7
    return perf_counter() - start


class HostSpeed(threading.Thread):
    """Samples how fast this host runs Python while the benchmark runs.

    On the VMs this benchmark runs on, CPU speed drifts by +-15% over
    minutes and CPU time moves with wall time, so raw seconds cannot resolve
    a 10% change.  Every ``PERIOD`` the thread times a fixed pure-Python
    loop; :meth:`ratio` gives the speed over an interval relative to
    ``REFERENCE``, and reported times are scaled to that reference host.
    """

    PERIOD = 0.025
    LOOP = 20_000
    REFERENCE = 30e6   # loop iterations per second on the reference host

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples: list[tuple[float, float]] = []
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.PERIOD):
            start = perf_counter()
            self.samples.append((start, loop_seconds(self.LOOP)))

    def stop(self) -> None:
        self._halt.set()
        self.join()

    def ratio(self, start: float, end: float) -> float:
        """Host speed over ``[start, end]``, widened by two periods a side
        so that even the shortest phase has samples next to it."""
        margin = 2 * self.PERIOD
        spent = [d for t, d in self.samples if start - margin <= t <= end + margin]
        return self.LOOP * len(spent) / sum(spent) / self.REFERENCE
