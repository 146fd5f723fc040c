"""Write-ahead log for the storage substrate.

The paper's middleware is stateless: "All relevant system state is
serialized and stored in the database ... This allows us to leverage the
recovery algorithms implemented in the DBMS" (Section 5.1).  Our DBMS-side
recovery therefore needs a real log.  The log here records *logical* row
operations (insert/update/delete with before/after images), plus
transaction begin/commit/abort and checkpoints.

Durability is simulated: the log survives a :class:`~repro.storage.engine.
StorageEngine` crash while the in-memory tables do not.  A ``flushed``
watermark models the volatile log tail — records beyond it are lost on
crash, which lets tests exercise the commit-not-durable path.

Two additions for real-thread execution (:mod:`repro.core.executor`):

* the log is **thread-safe** — append/flush/truncate run under one
  internal mutex, which also models the serial fsync pipeline a real log
  device is;
* ``flush_latency`` (seconds, default 0) makes each watermark-advancing
  flush *sleep*, standing in for the fsync a durable commit pays.  It is
  what the wall-clock shard ablation measures: per-shard WALs flush
  concurrently on per-shard worker threads, one WAL flushes serially.
"""

from __future__ import annotations

import enum
import time
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Mapping

from repro.analysis.latch import Latch, assert_may_block
from repro.errors import WALError
from repro.storage.row import ValueTuple


class LogRecordType(enum.Enum):
    BEGIN = "BEGIN"
    INSERT = "INSERT"
    UPDATE = "UPDATE"
    DELETE = "DELETE"
    COMMIT = "COMMIT"
    ABORT = "ABORT"
    CHECKPOINT = "CHECKPOINT"


@dataclass(frozen=True)
class TableImage:
    """One table's contribution to a checkpoint image.

    ``rows`` holds ``(rid, values, begin_ts)`` for every live committed
    row — ``begin_ts`` preserved so post-restart snapshot visibility of
    pre-checkpoint data is bit-for-bit what it was.  ``next_rid`` keeps
    the rid counter (and, under sharding, the shard's rid congruence
    class) across the restart.
    """

    next_rid: int
    rows: tuple[tuple[int, ValueTuple, int], ...]


@dataclass(frozen=True)
class CheckpointImage:
    """The materialized committed state a CHECKPOINT record carries.

    Stands in for the flushed data pages of a disk-based engine: restart
    recovery restores this image and replays only the records *after*
    the checkpoint, so restart cost stops scaling with history length.
    """

    last_commit_ts: int
    next_txn: int
    tables: Mapping[str, TableImage]


@dataclass(frozen=True)
class LogRecord:
    """A single WAL record.

    ``before``/``after`` carry the value tuples needed to undo/redo the
    operation; unused fields are None.  ``lsn`` is assigned by the log.
    ``commit_ts`` is carried by COMMIT records of writing transactions:
    restart recovery re-stamps the rebuilt version chains with it, so the
    multi-version visibility order survives a crash exactly.
    ``image`` is carried by CHECKPOINT records (the committed-state
    snapshot recovery restarts from).  ``participants`` is carried by
    the COMMIT records of *cross-shard* transactions: the shard indexes
    the transaction wrote in, so restart recovery can detect a commit
    that became durable in only some of them (torn) from any surviving
    shard's log alone, and roll it back everywhere.
    """

    lsn: int
    type: LogRecordType
    txn: int
    table: str | None = None
    rid: int | None = None
    before: ValueTuple | None = None
    after: ValueTuple | None = None
    commit_ts: int | None = None
    image: CheckpointImage | None = None
    participants: tuple[int, ...] | None = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        target = f" {self.table}#{self.rid}" if self.table else ""
        return f"[{self.lsn}] {self.type.value} T{self.txn}{target}"


_lsn_of = attrgetter("lsn")


class WriteAheadLog:
    """An append-only, LSN-stamped log with an explicit flush watermark."""

    def __init__(self):
        self._mutex = Latch("wal")
        self._records: list[LogRecord] = []
        self._flushed_lsn = 0
        self._next_lsn = 1
        #: simulated fsync latency per watermark-advancing flush (seconds).
        self.flush_latency = 0.0

    # -- appending -----------------------------------------------------------------

    def append(
        self,
        type: LogRecordType,
        txn: int,
        table: str | None = None,
        rid: int | None = None,
        before: ValueTuple | None = None,
        after: ValueTuple | None = None,
        commit_ts: int | None = None,
        image: CheckpointImage | None = None,
        participants: "tuple[int, ...] | None" = None,
    ) -> LogRecord:
        with self._mutex:
            record = LogRecord(
                self._next_lsn, type, txn, table, rid, before, after,
                commit_ts, image, participants,
            )
            self._records.append(record)
            self._next_lsn += 1
            return record

    def install(
        self,
        records: "Iterable[LogRecord]",
        *,
        flushed_lsn: "int | None" = None,
    ) -> None:
        """Install already-stamped records shipped from another log.

        The replication primitive behind the process-per-shard mirror
        (:mod:`repro.transport`): the coordinator's replica appends the
        worker's record deltas verbatim, keeping their LSNs.  Records at
        or below the replica's current tail are ignored (idempotent
        re-ship); ``flushed_lsn`` advances the watermark monotonically
        without simulating an fsync — the worker already paid it.
        """
        with self._mutex:
            last = self._records[-1].lsn if self._records else 0
            for record in records:
                if record.lsn <= last:
                    continue
                self._records.append(record)
                last = record.lsn
                self._next_lsn = max(self._next_lsn, record.lsn + 1)
            if flushed_lsn is not None:
                self._flushed_lsn = max(self._flushed_lsn, flushed_lsn)

    def replace(
        self,
        records: "Iterable[LogRecord]",
        *,
        flushed_lsn: int,
        next_lsn: int,
    ) -> None:
        """Wholesale resync: adopt another log's exact record list.

        Used after a worker-side checkpoint truncates its log — an
        incremental :meth:`install` cannot express truncation, so the
        replica swaps in the worker's full post-truncation state.
        """
        with self._mutex:
            self._records = list(records)
            self._flushed_lsn = flushed_lsn
            self._next_lsn = next_lsn

    def commit_timestamps(self, durable_only: bool = True) -> dict[int, int]:
        """``txn -> commit_ts`` for every (durable) stamped COMMIT record."""
        return {
            r.txn: r.commit_ts
            for r in self.records(durable_only)
            if r.type is LogRecordType.COMMIT and r.commit_ts is not None
        }

    def flush(self, upto_lsn: int | None = None) -> None:
        """Force the log to stable storage up to ``upto_lsn`` (default all).

        Commit durability requires the COMMIT record to be flushed before
        the engine acknowledges the commit (write-ahead rule).

        A watermark-advancing flush sleeps ``flush_latency`` seconds
        (simulated fsync) while holding the log mutex — one log is one
        serial flush pipeline; different shards' logs flush concurrently.
        """
        assert_may_block("wal-flush")
        with self._mutex:
            target = self._records[-1].lsn if self._records else 0
            if upto_lsn is not None:
                if upto_lsn > target:
                    raise WALError(f"cannot flush to unwritten LSN {upto_lsn}")
                target = upto_lsn
            advanced = target > self._flushed_lsn
            self._flushed_lsn = max(self._flushed_lsn, target)
            if advanced and self.flush_latency > 0.0:
                time.sleep(self.flush_latency)

    # -- reading -------------------------------------------------------------------

    @property
    def flushed_lsn(self) -> int:
        return self._flushed_lsn

    @property
    def last_lsn(self) -> int:
        return self._records[-1].lsn if self._records else 0

    def records(self, durable_only: bool = False) -> Iterator[LogRecord]:
        """Iterate records in LSN order; optionally only the flushed prefix."""
        with self._mutex:
            snapshot = list(self._records)
            flushed = self._flushed_lsn
        for record in snapshot:
            if durable_only and record.lsn > flushed:
                return
            yield record

    def tail(self, after_lsn: int, durable_only: bool = True) -> list[LogRecord]:
        """Records with ``lsn > after_lsn``, capped at the flush watermark.

        The per-ship unit of WAL shipping: a follower tracking the
        highest LSN it has received asks the leader for everything
        durable past it.  Binary-searches the (LSN-sorted) record list
        so repeated ships over a long log stay O(delta), not O(log).
        """
        with self._mutex:
            records = self._records
            start = bisect_right(records, after_lsn, key=_lsn_of)
            if not durable_only:
                return records[start:]
            return records[start:bisect_right(
                records, self._flushed_lsn, start, key=_lsn_of)]

    def truncate_to_flushed(self) -> int:
        """Simulate a crash: drop the volatile tail.  Returns #records lost."""
        with self._mutex:
            kept = [r for r in self._records if r.lsn <= self._flushed_lsn]
            lost = len(self._records) - len(kept)
            self._records = kept
            return lost

    def truncate_before(self, lsn: int) -> int:
        """Drop the (flushed) prefix strictly before ``lsn`` — called after
        a checkpoint at ``lsn``, whose image subsumes those records.
        Returns #records dropped."""
        with self._mutex:
            if lsn > self._flushed_lsn:
                raise WALError(
                    f"cannot truncate before unflushed LSN {lsn} "
                    f"(flushed {self._flushed_lsn})"
                )
            kept = [r for r in self._records if r.lsn >= lsn]
            dropped = len(self._records) - len(kept)
            self._records = kept
            return dropped

    def last_checkpoint(self, durable_only: bool = True) -> LogRecord | None:
        """The newest (durable) CHECKPOINT record carrying an image."""
        found: LogRecord | None = None
        for record in self.records(durable_only):
            if record.type is LogRecordType.CHECKPOINT and record.image is not None:
                found = record
        return found

    def committed_txns(self, durable_only: bool = True) -> set[int]:
        return {
            r.txn
            for r in self.records(durable_only)
            if r.type is LogRecordType.COMMIT
        }

    def aborted_txns(self, durable_only: bool = True) -> set[int]:
        return {
            r.txn
            for r in self.records(durable_only)
            if r.type is LogRecordType.ABORT
        }

    def active_txns_at_end(self, durable_only: bool = True) -> set[int]:
        """Transactions with a BEGIN but no COMMIT/ABORT in the (durable)
        log — the loser set for restart recovery."""
        begun: set[int] = set()
        ended: set[int] = set()
        for record in self.records(durable_only):
            if record.type is LogRecordType.BEGIN:
                begun.add(record.txn)
            elif record.type in (LogRecordType.COMMIT, LogRecordType.ABORT):
                ended.add(record.txn)
        return begun - ended

    def __len__(self) -> int:
        return len(self._records)
