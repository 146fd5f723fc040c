"""Connection-pool accounting for the virtual-time model.

"In MySQL, as in most commercial database systems, the amount of
concurrency is restricted by the maximum permissible number of connections
... only a single transaction may run per connection" (Section 5.2.1).

:class:`ConnectionPool` models that constraint for virtual time: each
transaction's connection work is charged to one of ``capacity`` slots, and
the elapsed (wall-clock-equivalent) time of a batch is the maximum slot
load — work on different connections overlaps, work on the same connection
serializes.  Transactions are assigned round-robin in arrival order, which
matches the paper's uniformly sized transactions.  The cost model prices
shard commit pipelines the same way, one slot per shard.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.errors import BenchError


@dataclass
class ConnectionPool:
    """Per-slot accumulated busy time of ``capacity`` serial resources
    within one accounting window.

    Thread-safe: per-shard worker threads charge statement and commit
    costs concurrently when the engine runs under
    :mod:`repro.core.executor`.
    """

    capacity: int
    _loads: list[float] = field(default_factory=list)
    _next_slot: int = 0
    _mutex: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self):
        if self.capacity < 1:
            raise BenchError(f"connection pool needs capacity >= 1")
        self._loads = [0.0] * self.capacity

    def charge(self, seconds: float) -> int:
        """Charge ``seconds`` to the next slot round-robin; returns slot."""
        with self._mutex:
            slot = self._next_slot
            self._next_slot = (self._next_slot + 1) % self.capacity
            self._loads[slot] += seconds
            return slot

    def charge_slot(self, slot: int, seconds: float) -> None:
        """Charge additional work to a specific slot (same transaction)."""
        with self._mutex:
            self._loads[slot] += seconds

    def elapsed(self) -> float:
        """The batch's elapsed time: the busiest slot's load."""
        return max(self._loads) if self._loads else 0.0

    def total_work(self) -> float:
        return sum(self._loads)

    def reset(self) -> None:
        self._loads = [0.0] * self.capacity
        self._next_slot = 0
