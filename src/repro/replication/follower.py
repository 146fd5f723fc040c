"""One follower replica of one shard, fed by WAL shipping.

A follower is a complete :class:`~repro.storage.engine.StorageEngine`
whose state is maintained *only* by replaying its leader's log: row
operations buffer per transaction until the stream proves their fate —
a COMMIT applies them through the recovery module's redo helper and
stamps the versions at the leader's commit timestamp, an ABORT drops
the buffer (live aborts compensate with CLRs before the ABORT marker,
so dropping the whole buffer and applying nothing are the same state).
Commits therefore apply in commit-timestamp order, which gives the one
invariant follower reads rely on: once ``applied_commit_ts >= t``,
every version visible at snapshot time ``t`` is present and stamped
exactly as on the leader, so a
:class:`~repro.storage.snapshot.SnapshotView` at ``t`` against the
follower serves bit-for-bit the leader's data.

Durability is receive-time, not apply-time: :meth:`receive` installs
the shipped records into the follower's log (advancing its flush
watermark to the leader's — the leader already paid the fsync) before
anything applies, so election by durable WAL position sees every
record any acknowledged commit ever shipped, even on a follower that
is applying lazily (``apply_lag``).

Followers never vacuum: their prune floor stays 0, so a follower can
serve arbitrarily old cuts that the leader may already have pruned —
that is what makes bounded-staleness reads on followers *cheaper* than
on leaders, not just load-shedding.

A follower's engine is always built by
:meth:`~repro.storage.engine.StorageEngine.successor`, the one
replacement recipe: it is born as its leader's successor on an empty
log, and :meth:`FollowerShard.resync` (after a failover or a restart)
makes it its own engine's successor on the log the new leader
recovered from.
"""

from __future__ import annotations

from collections import deque

from repro.storage.engine import StorageEngine
from repro.storage.recovery import _apply
from repro.storage.schema import TableSchema
from repro.storage.wal import LogRecord, LogRecordType, WriteAheadLog

#: Record types that mutate rows (buffered until the commit decides).
_ROW_OPS = (
    LogRecordType.INSERT,
    LogRecordType.UPDATE,
    LogRecordType.DELETE,
)


class FollowerShard:
    """A replica engine for shard ``shard_idx``, replica ``replica_idx``.

    Not thread-safe by itself: the replicated coordinator serializes
    :meth:`receive`/:meth:`drain`/:meth:`resync` under the shard's
    ``replication-ship`` latch; reads take the follower engine's own
    mutex (which :meth:`_apply_one` also holds while mutating), so
    routed snapshot reads never observe a half-applied commit.
    """

    def __init__(self, shard_idx: int, replica_idx: int, leader: StorageEngine):
        self.shard_idx = shard_idx
        self.replica_idx = replica_idx
        self.name = f"shard{shard_idx}r{replica_idx}"
        #: commits to hold back from application (simulated apply lag:
        #: the newest ``apply_lag`` received commits stay unapplied until
        #: later ships, a drain, or a checkpoint push them through).
        self.apply_lag = 0
        #: COMMIT LSN of the newest applied commit.
        self.applied_lsn = 0
        #: total commits applied (bench/telemetry).
        self.applied_count = 0
        #: the leader's successor on an empty log: same rid class and
        #: catalog.  Replay is its only writer, so it never vacuums (its
        #: prune floor stays 0 and stale cuts stay serveable).
        self.engine = leader.successor(WriteAheadLog())
        self.engine.vacuum_interval = 0
        #: highest LSN examined by the apply loop (received cursor).
        self._cursor_lsn = 0
        #: txn -> buffered row operations awaiting a COMMIT/ABORT.
        self._pending: dict[int, list[LogRecord]] = {}
        #: received, decided, but not-yet-applied commits (apply lag).
        self._ready: deque[tuple[LogRecord, list[LogRecord]]] = deque()

    # -- positions -----------------------------------------------------------------

    @property
    def wal(self) -> WriteAheadLog:
        return self.engine.wal

    @property
    def received_lsn(self) -> int:
        """Highest LSN this follower holds (applied or not)."""
        return self.engine.wal.last_lsn

    @property
    def durable_lsn(self) -> int:
        """Durable WAL position — the election criterion at failover."""
        return self.engine.wal.flushed_lsn

    @property
    def applied_commit_ts(self) -> int:
        """The follower serves any snapshot read at/below this."""
        return self.engine.oracle.last_commit_ts

    def lag_ticks(self, leader: StorageEngine) -> int:
        """Replication lag in commit-timestamp ticks behind ``leader``."""
        return max(0, leader.oracle.last_commit_ts - self.applied_commit_ts)

    # -- DDL mirroring -------------------------------------------------------------

    def mirror_table(self, schema: TableSchema) -> None:
        """DDL is not WAL-logged; the coordinator mirrors it directly."""
        self.engine.create_table(schema)

    # -- the replication stream ----------------------------------------------------

    def receive(
        self, records: list[LogRecord], *, flushed_lsn: int
    ) -> None:
        """Install a shipped log delta, then apply what the lag allows.

        Installation happens first and unconditionally: the commit is
        acknowledged leader-side only after this returns, so by then the
        records are in this follower's durable log whatever the apply
        lag — the zero-acknowledged-loss half of the failover contract.
        """
        self.engine.wal.install(records, flushed_lsn=flushed_lsn)
        self._ingest()
        self._drain(keep=self.apply_lag)

    def drain(self) -> None:
        """Apply every received commit (catch a lagging follower up)."""
        self._ingest()
        self._drain(keep=0)

    def _ingest(self) -> None:
        """Classify received records past the cursor into apply units."""
        for record in self.engine.wal.tail(self._cursor_lsn,
                                           durable_only=False):
            self._cursor_lsn = record.lsn
            if record.type in _ROW_OPS:
                self._pending.setdefault(record.txn, []).append(record)
            elif record.type is LogRecordType.COMMIT:
                ops = self._pending.pop(record.txn, [])
                if ops or record.commit_ts is not None:
                    self._ready.append((record, ops))
            elif record.type is LogRecordType.ABORT:
                # Live aborts write their CLRs before the ABORT marker,
                # so the buffered forward ops + CLRs are a net no-op:
                # dropping the buffer is the same state, minus the work.
                self._pending.pop(record.txn, None)
            elif record.type is LogRecordType.CHECKPOINT:
                # The leader checkpointed (quiescent, ensemble-wide) and
                # truncated its log before this record; mirror the cut
                # so the logs stay record-for-record identical — the
                # torn-commit evidence a future failover analysis reads
                # must mean the same thing on every copy.  Held-back
                # commits apply first: their records are about to be
                # subsumed by the image, and they are committed —
                # holding them past a checkpoint would just freeze
                # ``applied_commit_ts`` forever.
                self._drain(keep=0)
                self._pending.clear()
                if record.lsn <= self.engine.wal.flushed_lsn:
                    self.engine.wal.truncate_before(record.lsn)

    def _drain(self, keep: int) -> None:
        while len(self._ready) > keep:
            commit, ops = self._ready.popleft()
            self._apply_one(commit, ops)

    def _apply_one(self, commit: LogRecord, ops: list[LogRecord]) -> None:
        """Replay one committed transaction under the engine mutex.

        Reuses restart recovery's redo helper, then stamps the versions
        at the leader's commit timestamp and fast-forwards the oracle —
        what recovery does for a winner, except the prune: recovery
        keeps only what a post-restart snapshot can see, while a
        follower keeps the superseded versions, so the stale cuts it
        serves stay readable.  Every snapshot at or past the applied
        commit reads what recovery would rebuild from the same log
        prefix.
        """
        with self.engine.mutex:
            tables: set[str] = set()
            for record in ops:
                _apply(self.engine, record)
                tables.add(record.table)
            for name in sorted(tables):
                self.engine.db.table(name).commit_versions(
                    commit.txn, commit.commit_ts
                )
            if commit.commit_ts is not None:
                self.engine.oracle.advance_to(commit.commit_ts)
            self.applied_lsn = commit.lsn
            self.applied_count += 1

    # -- failover ------------------------------------------------------------------

    def resync(self, log: WriteAheadLog, demote: set[int]) -> None:
        """Wholesale rebuild after this shard's leader was replaced.

        Incremental apply cannot express a demotion — this follower may
        already have applied a COMMIT that the new leader's torn-commit
        analysis just rolled back — so after a failover or a restart
        every follower of the shard rebuilds: a successor of its engine
        adopts a copy of ``log`` (the durable, *pre-recovery* log the
        leader recovered from) and recovers it with the leader's
        demotion set.  Recovery is deterministic, so every copy —
        leader and followers alike — converges to bit-identical state
        *and* bit-identical logs (including the compensation records
        recovery appends), which is what keeps the next election, and
        the next incremental ship, coherent.
        """
        self.engine = self.engine.successor(log.durable_copy())
        self.engine.recover(demote)
        self._pending.clear()
        self._ready.clear()
        self._cursor_lsn = self.engine.wal.last_lsn
        self.applied_lsn = self._cursor_lsn

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FollowerShard({self.name}, received={self.received_lsn}, "
            f"applied_ts={self.applied_commit_ts})"
        )
