"""ARIES-style restart recovery for the storage substrate.

After a crash (:meth:`repro.storage.engine.StorageEngine.crash`), the
database tables are empty and only the flushed WAL prefix survives.
:func:`recover` rebuilds the committed state in three passes:

1. **Analysis** — scan the durable log to classify transactions into
   winners (COMMIT record present) and losers (everything else), and
   collect the winners' logged commit timestamps.
2. **Redo** — replay *all* logged row operations in LSN order, winners and
   losers alike (repeating history, as ARIES does).  Redo runs in
   versioned mode, so the tables' version chains are rebuilt as pending
   versions attributed to their original transactions.
3. **Undo** — roll back the losers' operations in reverse LSN order
   (physical undo plus discarding their pending versions) and append
   ABORT records for them.
4. **Stamp** — commit the winners' rebuilt versions with their logged
   commit timestamps and restore the engine's commit-timestamp counter,
   so MVCC snapshot visibility is bit-for-bit what it was before the
   crash.

Entanglement-aware recovery (Section 4 "Persistence and Recovery": *"if two
transactions entangle and only one manages to commit prior to a crash, both
must be rolled back"*) is layered on top in :mod:`repro.core.recovery`,
which consults the persisted entanglement-group tables and demotes
committed-but-widowed winners to losers before calling :func:`recover`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.errors import RecoveryError
from repro.storage.wal import LogRecord, LogRecordType

if TYPE_CHECKING:
    from repro.storage.engine import StorageEngine


@dataclass
class RecoveryReport:
    """What restart recovery did, for assertions and operator logs."""

    winners: set[int] = field(default_factory=set)
    losers: set[int] = field(default_factory=set)
    redone: int = 0
    undone: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"recovery: {len(self.winners)} winners, {len(self.losers)} losers, "
            f"{self.redone} redone, {self.undone} undone"
        )


def recover(
    engine, *, demote_to_loser: Iterable[int] = frozenset()
) -> RecoveryReport:
    """Run restart recovery on a post-crash engine.

    ``demote_to_loser`` lets the entanglement-aware layer force specific
    *committed* transactions to be rolled back anyway (widowed group
    members).  Their redo still happens (repeating history) and their
    effects are then undone.

    Every engine recovers itself: a single engine replays its log
    (:func:`replay_log`); a sharded one first demotes *torn* cross-shard
    commits (COMMIT durable in some written shards but lost in others),
    then has each shard replay its own log where that log lives — which
    keeps cross-shard atomicity through the crash.
    """
    return engine.recover(set(demote_to_loser))


def replay_log(engine: "StorageEngine", demote_to_loser: set[int]) -> RecoveryReport:
    """The ARIES passes over one engine's durable log — the body of
    :meth:`StorageEngine.recover <repro.storage.engine.StorageEngine.recover>`."""
    report = RecoveryReport()
    log = engine.wal

    # ---- checkpoint: restore the newest durable image, if any ----
    # Everything at/before the checkpoint is reflected in its image
    # (checkpoints are quiescent, so no transaction straddles one); only
    # the log suffix after it is analyzed and replayed — restart cost is
    # bounded by work since the last checkpoint, not total history.
    ckpt = log.last_checkpoint(durable_only=True)
    ckpt_lsn = 0
    if ckpt is not None:
        ckpt_lsn = ckpt.lsn
        image = ckpt.image
        for name, table_image in image.tables.items():
            engine.db.table(name).restore_checkpoint(table_image)
        engine.oracle.advance_to(image.last_commit_ts)
        engine._next_txn = max(engine._next_txn, image.next_txn)

    # ---- analysis ----
    committed = log.committed_txns(durable_only=True)
    aborted = log.aborted_txns(durable_only=True)
    active = log.active_txns_at_end(durable_only=True)
    report.winners = committed - demote_to_loser
    report.losers = active | aborted | (committed & demote_to_loser)
    commit_ts_of = log.commit_timestamps(durable_only=True)
    # Transactions with a durable ABORT record were fully compensated in
    # the log (abort writes CLRs before the ABORT marker), so redo alone
    # reproduces their rollback; only still-active transactions — and
    # committed ones being demoted — need an undo pass.
    undo_needed = active | (committed & demote_to_loser)

    # ---- redo: repeat history in LSN order (rebuilding version chains) ----
    undo_stack: list[LogRecord] = []
    touched_tables: dict[int, set[str]] = {}
    for record in log.records(durable_only=True):
        if record.lsn <= ckpt_lsn or record.type in (
            LogRecordType.BEGIN,
            LogRecordType.COMMIT,
            LogRecordType.ABORT,
            LogRecordType.CHECKPOINT,
        ):
            continue
        _apply(engine, record)
        report.redone += 1
        touched_tables.setdefault(record.txn, set()).add(record.table)
        if record.txn in undo_needed:
            undo_stack.append(record)

    # ---- undo: roll back losers in reverse order ----
    for loser in sorted(report.losers):
        for name in sorted(touched_tables.get(loser, ())):
            engine.db.table(name).abort_versions(loser)
    for record in reversed(undo_stack):
        _revert(engine, record)
        _log_compensation(engine, record)
        report.undone += 1

    # ---- stamp: winners' versions get their original commit timestamps ----
    for winner, commit_ts in sorted(
        commit_ts_of.items(), key=lambda item: item[1]
    ):
        if winner in report.losers:
            continue
        for name in sorted(touched_tables.get(winner, ())):
            engine.db.table(name).commit_versions(winner, commit_ts)
    # The recovered state is the new epoch's initial load: reads-from
    # attribution annotates it 0, like bulk-loaded data.
    engine._table_writers = {}
    engine.oracle.advance_to(max(commit_ts_of.values(), default=0))

    for loser in sorted(report.losers):
        if loser not in aborted:
            log.append(LogRecordType.ABORT, loser)
    log.flush()
    return report


def _apply(engine: StorageEngine, record: LogRecord) -> None:
    """Redo one row operation exactly as logged (rebuilding its version)."""
    table = engine.db.table(record.table)
    if record.type is LogRecordType.INSERT:
        if record.rid not in table:
            table.insert_with_rid(record.rid, record.after, writer=record.txn)
    elif record.type is LogRecordType.UPDATE:
        if record.rid in table:
            table.update(record.rid, record.after, writer=record.txn)
        else:
            table.insert_with_rid(record.rid, record.after, writer=record.txn)
    elif record.type is LogRecordType.DELETE:
        if record.rid in table:
            table.delete(record.rid, writer=record.txn)
    else:  # pragma: no cover - defensive
        raise RecoveryError(f"cannot redo record {record}")


def _log_compensation(engine: StorageEngine, record: LogRecord) -> None:
    """Log the CLR for one recovery-time undo step.

    Recovery-time rollback must be as durable as live-abort rollback: a
    crash *after* this recovery would otherwise replay the loser's
    forward operations (repeating history) with an ABORT marker but no
    compensations, resurrecting the undone rows.
    """
    if record.type is LogRecordType.INSERT:
        engine.wal.append(
            LogRecordType.DELETE, record.txn, record.table, record.rid,
            record.after, None,
        )
    elif record.type is LogRecordType.UPDATE:
        engine.wal.append(
            LogRecordType.UPDATE, record.txn, record.table, record.rid,
            record.after, record.before,
        )
    elif record.type is LogRecordType.DELETE:
        engine.wal.append(
            LogRecordType.INSERT, record.txn, record.table, record.rid,
            None, record.before,
        )


def _revert(engine: StorageEngine, record: LogRecord) -> None:
    """Undo one row operation physically (inverse of :func:`_apply`).

    Runs with ``versioned=False``: the loser's pending versions were
    already discarded via ``abort_versions``, so only the heap rows and
    indexes need restoring here.
    """
    table = engine.db.table(record.table)
    if record.type is LogRecordType.INSERT:
        if record.rid in table:
            table.delete(record.rid, versioned=False)
    elif record.type is LogRecordType.UPDATE:
        if record.rid in table:
            table.update(record.rid, record.before, versioned=False)
        else:  # pragma: no cover - defensive
            table.insert_with_rid(record.rid, record.before, versioned=False)
    elif record.type is LogRecordType.DELETE:
        if record.rid not in table:
            table.insert_with_rid(record.rid, record.before, versioned=False)
    else:  # pragma: no cover - defensive
        raise RecoveryError(f"cannot undo record {record}")
