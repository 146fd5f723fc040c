"""Bridge from the execution engine to the formal model.

The engine can record every data operation it performs as a formal-model
schedule (Appendix C.1): normal reads and writes at table granularity,
grounding reads during entangled-query evaluation, entanglement
operations with their delivered answers, and commit/abort terminals.

Each *attempt* of an entangled transaction is recorded as its own model
transaction — identified by its storage-transaction id, which is unique
per attempt — because the model requires exactly one terminal operation
per transaction, and a retried transaction aborts its first attempt
before starting another.

Tests use the recorder to assert system-level guarantees mechanically:
schedules produced under full isolation are entangled-isolated
(Definition C.5) and therefore oracle-serializable (Theorem 3.6).

An engine configured with ``record_schedule`` builds one over its store
and subscribes it to its run events (:mod:`repro.core.events`): the
recorder hears grounding reads and entanglements there, and every data
read, write, commit and abort from the store's observers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.latch import Latch
from repro.core.events import RunListener
from repro.model.ops import A, C, E, Op, R, RG, W
from repro.model.schedule import Schedule
from repro.storage.protocol import Store


@dataclass
class ScheduleRecorder(RunListener):
    """Accumulates model operations in engine execution order.

    Thread-safe: the per-shard worker threads of
    :mod:`repro.core.executor` report storage operations concurrently,
    so every hook appends under one mutex — the recorded sequence is a
    linearization of the actual execution (conflicting operations are
    already serialized by the storage engine's locks before their
    notifications fire).
    """

    #: the store whose observers report reads and writes (``None``: the
    #: caller feeds every operation by hand).
    store: "Store | None" = field(default=None, repr=False, compare=False)
    ops: list[Op] = field(default_factory=list)
    _next_eid: int = 1
    #: storage txns that performed at least one op (for trimming).
    _touched: set[int] = field(default_factory=set)
    _terminated: set[int] = field(default_factory=set)
    _mutex: Latch = field(
        default_factory=lambda: Latch("schedule-recorder", reentrant=False),
        repr=False,
        compare=False,
    )

    def __post_init__(self) -> None:
        if self.store is not None:
            self.store.observers.append(self.observe)

    def observe(self, storage_txn, kind, table, reads_from=None) -> None:
        """A store observer: one data operation of ``storage_txn``."""
        if kind == "commit":
            self.on_commit(storage_txn)
        elif kind == "abort":
            self.on_abort(storage_txn)
        elif table.startswith("_youtopia"):
            return  # middleware bookkeeping is not part of the model
        elif kind == "read":
            self.on_read(storage_txn, table, reads_from=reads_from)
        else:
            self.on_write(storage_txn, table)

    # -- run events (repro.core.events) -----------------------------------------------

    def round_evaluated(self, queries, result) -> None:
        """Grounding reads, with the version annotation a snapshot
        grounding carries (whose committed table state it observed)."""
        for qid, tables in sorted(result.grounding_reads.items()):
            storage_txn = queries[qid].storage_txn
            for table in tables:
                self.on_grounding_read(
                    storage_txn, table,
                    reads_from=self.store.reads_from(storage_txn, table))

    def entangled(self, members, chosen) -> None:
        self.on_entangle({
            txn.storage_txn: () if chosen is None else tuple(
                str(atom) for atom in chosen[txn.query_id()].heads)
            for txn in members
        })

    # -- model operations -----------------------------------------------------------------

    def on_read(
        self, storage_txn: int, table: str, reads_from: int | None = None
    ) -> None:
        """Record a read; ``reads_from`` is the MVCC version annotation
        (creator transaction of the version observed; None = current)."""
        with self._mutex:
            self.ops.append(R(storage_txn, table, reads_from=reads_from))
            self._touched.add(storage_txn)

    def on_write(self, storage_txn: int, table: str) -> None:
        with self._mutex:
            self.ops.append(W(storage_txn, table))
            self._touched.add(storage_txn)

    def on_grounding_read(
        self, storage_txn: int, table: str, reads_from: int | None = None
    ) -> None:
        with self._mutex:
            self.ops.append(RG(storage_txn, table, reads_from=reads_from))
            self._touched.add(storage_txn)

    def on_entangle(
        self, participants: dict[int, Any]
    ) -> int:
        """Record an entanglement; ``participants`` maps storage txn ->
        delivered answer payload.  Returns the entanglement id."""
        with self._mutex:
            eid = self._next_eid
            self._next_eid += 1
            self.ops.append(E(eid, *participants.keys(), answers=participants))
            self._touched.update(participants.keys())
            return eid

    def on_commit(self, storage_txn: int) -> None:
        with self._mutex:
            if storage_txn not in self._terminated:
                self.ops.append(C(storage_txn))
                self._terminated.add(storage_txn)
                self._touched.add(storage_txn)

    def on_abort(self, storage_txn: int) -> None:
        with self._mutex:
            if storage_txn not in self._terminated:
                self.ops.append(A(storage_txn))
                self._terminated.add(storage_txn)
                self._touched.add(storage_txn)

    def schedule(self) -> Schedule:
        """The recorded schedule, validated against Appendix C.1.

        Transactions still in flight (no terminal yet) are closed with an
        abort, mirroring how a crash would resolve them; this keeps the
        history complete as the model requires.
        """
        ops = list(self.ops)
        for txn in sorted(self._touched - self._terminated):
            ops.append(A(txn))
        return Schedule(tuple(ops))
