"""Entangled query oracles (Definitions 3.2–3.4, Appendix C.3).

An oracle is "a process that executes alongside an entangled transaction
... whenever t poses an entangled query, the oracle generates an answer
and returns it to t.  The oracle has no direct effect on the database's
state" (Definition 3.2).

:class:`RecordedOracle` is the oracle constructed from a schedule σ in
Appendix C.3.1: it stores, for each entanglement operation ``E^k``, the
answer set ``Ans_k`` observed when σ executed, and replays ``Ans_k(i)``
verbatim when transaction *i* poses the corresponding query during serial
execution — "whether or not these answers are valid".

:func:`oracle_serialization_template` builds the serialization schedule of
Appendix C.3.2: committed transactions in a chosen total order, grounding
and quasi-reads dropped, each entanglement replaced by per-transaction
oracle calls — optionally with the *validating reads* the proof of
Theorem 3.6 introduces (Appendix C.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Protocol, Sequence

from repro.errors import OracleError
from repro.model.ops import O, Op, OpKind, RV
from repro.model.schedule import Schedule


class Oracle(Protocol):
    """Anything able to answer entangled queries during serial execution."""

    def answer(self, eid: int, txn: int) -> Any:  # pragma: no cover - protocol
        ...


@dataclass
class RecordedOracle:
    """The σ-specific oracle of Appendix C.3.1.

    ``answer_sets[eid][txn]`` is ``Ans_k(i)`` — the answer entanglement
    operation *k* returned to transaction *i* when σ executed.
    """

    answer_sets: dict[int, dict[int, Any]] = field(default_factory=dict)

    @staticmethod
    def from_schedule(schedule: Schedule) -> "RecordedOracle":
        """Build from the answers recorded on the schedule's E ops."""
        sets: dict[int, dict[int, Any]] = {}
        for op in schedule.entanglements():
            sets[op.eid] = op.answers_map()
        return RecordedOracle(sets)

    @staticmethod
    def from_answers(answers: Mapping[int, Mapping[int, Any]]) -> "RecordedOracle":
        """Build from an executor's ``eid -> txn -> answer`` record."""
        return RecordedOracle({eid: dict(m) for eid, m in answers.items()})

    def answer(self, eid: int, txn: int) -> Any:
        try:
            return self.answer_sets[eid][txn]
        except KeyError:
            raise OracleError(
                f"oracle has no recorded answer for E{eid} / transaction {txn}"
            ) from None


def oracle_serialization_template(
    schedule: Schedule,
    order: Sequence[int],
    *,
    with_validating_reads: bool = False,
) -> Schedule:
    """Build the oracle-serialization os(σ) for a given total order.

    Only committed transactions appear (Definition C.6).  Per transaction,
    operations keep their σ-relative order; grounding reads and quasi-reads
    are dropped; each entanglement the transaction participates in becomes
    an oracle call ``O^k_txn``.  With ``with_validating_reads=True``, each
    oracle call is preceded by validating reads on the objects the
    transaction grounded on for that entanglement in σ (proof device of
    Appendix C.4).

    The result bypasses Appendix C.1 validation — serialization templates
    are not entangled schedules (they contain oracle calls instead of
    entanglements).
    """
    committed = schedule.committed()
    missing = [txn for txn in order if txn not in committed]
    if missing:
        raise OracleError(
            f"serialization order contains non-committed transactions {missing}"
        )
    if set(order) != committed:
        raise OracleError(
            f"serialization order {list(order)} does not cover the committed "
            f"set {sorted(committed)}"
        )

    ops: list[Op] = []
    for txn in order:
        pending_grounds: list[Op] = []
        for op in schedule.projection(txn):
            if op.kind is OpKind.GROUNDING_READ:
                pending_grounds.append(op)
            elif op.kind is OpKind.QUASI_READ:
                continue
            elif op.kind is OpKind.ENTANGLE:
                if with_validating_reads:
                    ops.extend(RV(txn, g.obj) for g in pending_grounds)
                pending_grounds = []
                ops.append(O(op.eid, txn))
            else:
                ops.append(op)
    return Schedule.unchecked(ops)
