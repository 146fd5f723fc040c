"""The shard worker process: one full storage engine behind a frame loop.

A worker owns everything shard-local — timestamp oracle, lock manager,
version chains, WAL — exactly as a thread-mode shard does; the only
difference is that requests arrive as frames on a pipe instead of
method calls under the shard mutex.  The serve loop is deliberately
**single-threaded FIFO**: one request runs at a time, in arrival
order, so handlers never race each other and need no engine-mutex
wrapping (worker-side snapshot views are built with ``mutex=None``).
Cross-shard parallelism comes from having one such process per shard,
not from concurrency inside one.

One frame is one *step of the protocol* — a statement on this shard, a
commit, a flush — not one line of the coordinator's implementation of
it (the coordinator half of this table is in :mod:`repro.transport.
proxy`):

====================  ==========================================  ============
verb                  what the handler fuses                      payload
====================  ==========================================  ============
``update_where`` /    IX + candidate probe at the shard's         changed
``delete_where``      ``read_ts`` + row X locks + first-updater-  ``(old, new)``
                      wins check + the writes                     pairs / rows
``lock_write_``       the probe and locks alone (multi-shard      candidate
``candidates``        statements lock everywhere before writing)  rows
``insert`` ...        one row write with its key/gap locks        the row(s)
``snap_*``            one versioned leaf access (``limit`` caps   row(s)
                      a range scan's rows worker-side)
``commit``            in-memory commit, never the fsync           woken txns
``wal_flush``         the fsync; acks the durable WAL delta       —
====================  ==========================================  ============

One-way traffic (``begin``, ``register_snapshot``, ``release_snapshot``,
the ``set_*`` knobs) has no frame of its own: it arrives as the
**prelude** of the next request frame and runs, in order, before that
request.  A prelude entry that *fails* stashes its exception and the
carrier request fails with it instead of executing — the coordinator
never silently loses a worker-side error.

Every response carries an **envelope** (``None`` when nothing moved):
the oracle's commit timestamp, commit/abort counters, the durable WAL
delta and watermarks, per-table fallback-scan counters, and — when they
changed — lock-manager and version-chain statistics.  The coordinator's
receiver thread folds it into its local mirrors, which is how the proxy
objects answer hot-path reads (``oracle.last_commit_ts``,
``wal.last_lsn``, ``locks.stats``, ``chain_histograms``) without a
round trip.
"""

from __future__ import annotations

import os

from repro.storage.catalog import Database
from repro.storage.engine import StorageEngine, WouldBlock
from repro.storage.locks import index_key_resource, table_resource
from repro.storage.recovery import recover
from repro.storage.row import RowId
from repro.storage.snapshot import SnapshotView
from repro.transport.frames import FrameChannel, encode_error


def worker_main(shard_idx, read_fd, write_fd, close_fds, options):
    """Entry point of a forked shard worker (never returns normally)."""
    # The fork inherited every pipe end the coordinator created for the
    # *other* shards; close them so an EOF on a sibling's pipe means what
    # it should, and so fds don't leak across worker generations.
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:  # pragma: no cover - already closed
            pass
    # The forked child inherits the coordinator's latch witness state
    # (whatever latches the forking thread held are recorded as held).
    # This process starts its own single-threaded world: reset it.
    from repro.analysis.latch import reset_lockdep

    reset_lockdep()
    channel = FrameChannel(read_fd, write_fd)
    engine = build_shard_engine(shard_idx, options)
    try:
        ShardServer(engine, channel).serve()
    finally:
        channel.close()


def build_shard_engine(shard_idx, options):
    """Construct the worker-side engine from picklable ``options``.

    ``options`` mirrors what :class:`~repro.storage.sharding.
    ShardedStorageEngine` does when building thread-mode shards, plus an
    optional ``install`` dict used by crash rebuilds: schemas, rid
    namespaces and the surviving (flushed) WAL prefix, so a freshly
    forked worker starts in exactly the post-crash state restart
    recovery expects.
    """
    engine = StorageEngine(
        Database(f"shard{shard_idx}"),
        locking=options.get("locking", True),
        granularity=options["granularity"],
        ssi_tracking=False,  # SSI is coordinator-resident in process mode
        ordered_indexes=options.get("ordered_indexes", True),
    )
    engine.checkpoint_interval = 0
    install = options.get("install")
    if install:
        for schema in install.get("schemas", ()):
            engine.create_table(schema)
        for name, (base, step) in install.get("rid_namespaces", {}).items():
            engine.db.table(name).set_rid_namespace(base, step)
        wal_state = install.get("wal")
        if wal_state is not None:
            records, flushed_lsn, next_lsn = wal_state
            engine.wal.replace(
                records, flushed_lsn=flushed_lsn, next_lsn=next_lsn
            )
        engine.wal.flush_latency = install.get("flush_latency", 0.0)
        if "vacuum_interval" in install:
            engine.vacuum_interval = install["vacuum_interval"]
        if "next_txn" in install:
            engine._next_txn = max(engine._next_txn, install["next_txn"])
    return engine


class ShardServer:
    """Dispatch loop mapping frame methods onto one shard engine."""

    def __init__(self, engine: StorageEngine, channel: FrameChannel):
        self.engine = engine
        self.channel = channel
        #: highest WAL lsn already shipped to the coordinator's replica.
        self._shipped_lsn = 0
        #: set by handlers that rewrite WAL history (checkpoint/recover):
        #: the next envelope carries a wholesale log resync instead of a
        #: delta, because ``install`` cannot express truncation.
        self._wal_resync = False
        #: a failed prelude entry poisons the request that carried it.
        self._pending_error: BaseException | None = None
        #: the state behind the last envelope actually shipped; a
        #: response finding it unchanged carries ``None`` instead (the
        #: hot read path — nothing moved, nothing to mirror).
        self._last_state = None

    # -- the loop --------------------------------------------------------------------

    def serve(self) -> None:
        while True:
            frame = self.channel.recv()
            if frame is None:  # coordinator died without a shutdown frame
                return
            req_id, method, args, prelude = frame
            for name, prelude_args in prelude:
                try:
                    getattr(self, f"do_{name}")(*prelude_args)
                except Exception as exc:  # noqa: BLE001 - fails the carrier
                    self._pending_error = exc
            if method == "shutdown":
                self.channel.send((req_id, "ok", None, None))
                return
            self.channel.send(self._respond(req_id, method, args))

    def _respond(self, req_id, method, args):
        if self._pending_error is not None:
            exc, self._pending_error = self._pending_error, None
            return (req_id, "error", encode_error(exc), self._envelope())
        try:
            payload = getattr(self, f"do_{method}")(*args)
            status = "ok"
        except WouldBlock as exc:
            # The wait is already enqueued shard-side; tell the
            # coordinator who blocks us so its probe detector can chase
            # the cross-shard cycle.
            blockers = self.engine.locks.waits_edges().get(exc.txn, set())
            payload = (exc.txn, exc.resource, sorted(blockers))
            status = "would_block"
        except Exception as exc:  # noqa: BLE001 - reconstructed remotely
            payload = encode_error(exc)
            status = "error"
        return (req_id, status, payload, self._envelope())

    def _envelope(self):
        """``(ts, commits, aborts, wal delta, wal resync, last lsn,
        flushed lsn, fallback scans, stats)`` — positional, because it
        rides most responses and dict keys would outweigh its values."""
        engine = self.engine
        wal = engine.wal
        head = (
            engine.oracle.last_commit_ts, engine.commit_count,
            engine.abort_count,
        )
        fallback = tuple(
            engine.db.table(name).fallback_scans
            for name in engine.db.table_names()
        )
        stats = (
            tuple(engine.locks.stats.values()),
            tuple(engine.version_stats().values()),
            tuple(engine.chain_histograms().values()),
        )
        # Responses are FIFO per connection and the coordinator's
        # receiver applies envelopes in order, so "same state as the last
        # shipped envelope" means the mirrors are already exact.
        state = (head, wal._next_lsn, wal.flushed_lsn, fallback, stats)
        last = self._last_state
        if self._wal_resync:
            self._wal_resync = False
            records = tuple(wal.records())
            self._shipped_lsn = records[-1].lsn if records else 0
            wal_full = (records, wal.flushed_lsn, wal._next_lsn)
            delta = ()
        elif state == last:
            return None
        else:
            wal_full = None
            delta = self._wal_delta()
        self._last_state = state
        if last is not None and stats == last[-1]:
            stats = None
        return (
            *head, delta, wal_full, wal.last_lsn, wal.flushed_lsn, fallback,
            stats,
        )

    def _wal_delta(self):
        # The serve loop is this process's only thread, so reading the
        # record list without the WAL mutex is safe.  Records are
        # LSN-ordered and (between resyncs) append-only: scan back from
        # the tail, which is O(new records), not O(log).
        #
        # Only *durable* records ship.  The mirror exists to rebuild a
        # crashed fleet from what was acknowledged as flushed — its
        # volatile tail would be truncated on crash anyway, so shipping
        # it per-append is pure overhead on the write hot path.  The
        # envelope's ``last_lsn`` int keeps the coordinator's dependency
        # watermarks exact; the records themselves ride the flush ack
        # that makes them durable.
        records = self.engine.wal._records
        flushed = self.engine.wal.flushed_lsn
        start = len(records)
        while start > 0 and records[start - 1].lsn > self._shipped_lsn:
            start -= 1
        end = start
        while end < len(records) and records[end].lsn <= flushed:
            end += 1
        delta = tuple(records[start:end])
        if delta:
            self._shipped_lsn = delta[-1].lsn
        return delta

    # -- prelude handlers (one-way; never a request of their own) ------------------------

    def do_begin(self, isolation, txn_id, read_ts):
        self.engine.begin(isolation, txn_id=txn_id, read_ts=read_ts)

    def do_register_snapshot(self, txn, read_ts):
        self.engine.oracle.register_snapshot(txn, read_ts)

    def do_release_snapshot(self, txn):
        self.engine.oracle.release_snapshot(txn)

    def do_set_flush_latency(self, value):
        self.engine.wal.flush_latency = value

    def do_set_vacuum_interval(self, value):
        self.engine.vacuum_interval = value

    def do_set_checkpoint_interval(self, value):
        self.engine.checkpoint_interval = value

    # -- transactions ------------------------------------------------------------------

    def do_commit(self, txn, participants):
        # flush=False always: the coordinator owns flush ordering (its
        # reads-from dependency vector spans shards this worker can't see).
        return self.engine.commit(txn, participants=participants, flush=False)

    def do_abort(self, txn):
        return self.engine.abort(txn)

    def do_prepare(self, txn):
        """Phase one of two-phase commit: report this shard's write set.

        Derived from the transaction's undo log — the shard-local ground
        truth of what it wrote — as SSI resource items (row, table and
        every index key either image touches).  The coordinator merges
        these into its resident SSI tracker before validation, so the
        dangerous-structure test runs against worker-authoritative
        write sets, not just what the routing layer believes it sent.
        """
        ctx = self.engine._contexts.get(txn)
        if ctx is None:
            return []
        items = []
        seen = set()
        for entry in ctx.undo:
            table = self.engine.db.table(entry.table)
            base = (RowId(entry.table, entry.rid), table_resource(entry.table))
            keys = set()
            for values in (entry.before, entry.after):
                if values is not None:
                    keys.update(table.index_keys(values))
            for item in base:
                if item not in seen:
                    seen.add(item)
                    items.append(item)
            for columns, key in sorted(keys):
                item = index_key_resource(entry.table, columns, key)
                if item not in seen:
                    seen.add(item)
                    items.append(item)
        return items

    # -- writes ------------------------------------------------------------------------

    def do_insert(self, txn, table_name, values):
        return self.engine.insert(txn, table_name, values, validated=True)

    def do_update(self, txn, table_name, rid, values):
        return self.engine.update(txn, table_name, rid, values, validated=True)

    def do_delete(self, txn, table_name, rid):
        return self.engine.delete(txn, table_name, rid)

    def do_update_where(self, txn, table_name, predicate, new_values, where):
        return self.engine.update_where(
            txn, table_name, predicate, new_values, where=where)

    def do_delete_where(self, txn, table_name, predicate, where):
        return self.engine.delete_where(
            txn, table_name, predicate, where=where)

    # -- locking -----------------------------------------------------------------------

    def do_lock_write_candidates(self, txn, table_name, where):
        return self.engine.lock_write_candidates(txn, table_name, where)

    def do_lock_read_access(self, txn, access):
        self.engine.lock_read_access(txn, access)

    def do_lock_table_shared(self, txn, table):
        self.engine.lock_table_shared(txn, table)

    def do_release_read_locks(self, txn):
        return self.engine.release_read_locks(txn)

    def do_waits_edges(self):
        return self.engine.locks.waits_edges()

    def do_cancel_wait(self, txn, resource):
        return self.engine.locks.cancel_wait(txn, resource)

    def do_lock_waiting(self, txn):
        return self.engine.locks.waiting(txn)

    def do_lock_held(self, txn):
        return self.engine.locks.held_resources(txn)

    # -- snapshots ---------------------------------------------------------------------

    def _snapshot_view(self, name, txn, read_ts):
        return SnapshotView(self.engine.db.table(name), txn, read_ts, mutex=None)

    def do_snap_scan(self, name, txn, read_ts):
        return list(self._snapshot_view(name, txn, read_ts).scan())

    def do_snap_lookup_pk(self, name, txn, read_ts, key):
        return self._snapshot_view(name, txn, read_ts).lookup_pk(key)

    def do_snap_lookup_index(self, name, txn, read_ts, columns, key):
        return self._snapshot_view(name, txn, read_ts).lookup_index(columns, key)

    def do_snap_len(self, name, txn, read_ts):
        return len(self._snapshot_view(name, txn, read_ts))

    def do_snap_range_scan(self, name, txn, read_ts, columns, lo, hi, options):
        return self._snapshot_view(name, txn, read_ts).range_scan(
            columns, lo, hi, **options)

    def do_unpark_snapshot(self, txn):
        self.engine.unpark_snapshot(txn)

    def do_refresh_snapshot(self, txn):
        return self.engine.refresh_snapshot(txn)

    # -- table reads (2PL path) --------------------------------------------------------

    def do_table_scan(self, name):
        return list(self.engine.db.table(name).scan())

    def do_table_lookup_pk(self, name, key):
        return self.engine.db.table(name).lookup_pk(key)

    def do_table_lookup_index(self, name, columns, key):
        return self.engine.db.table(name).lookup_index(columns, key)

    def do_table_range_scan(self, name, columns, lo, hi, options):
        return self.engine.db.table(name).range_scan(columns, lo, hi, **options)

    def do_table_len(self, name):
        return len(self.engine.db.table(name))

    def do_table_snapshot(self, name):
        return self.engine.db.table(name).snapshot()

    def do_table_version_chains(self, name):
        return self.engine.db.table(name).version_chains()

    # -- DDL / maintenance -------------------------------------------------------------

    def do_create_table(self, schema):
        self.engine.create_table(schema)

    def do_set_rid_namespace(self, name, base, step):
        self.engine.db.table(name).set_rid_namespace(base, step)

    def do_vacuum(self, horizon):
        return self.engine.vacuum(horizon)

    def do_checkpoint(self):
        record = self.engine.checkpoint()
        if record is not None:
            self._wal_resync = True  # checkpoint truncated the log
        return record

    def do_wal_flush(self, upto_lsn):
        self.engine.wal.flush(upto_lsn)

    def do_recover(self, demote):
        report = recover(self.engine, demote_to_loser=demote)
        self._wal_resync = True  # recovery appended/abandoned records
        return report

    # -- stats -------------------------------------------------------------------------

    def do_mvcc_stats(self):
        return dict(self.engine.mvcc_stats)
