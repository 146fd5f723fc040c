"""The shard worker process: one full storage engine behind a frame loop.

A worker owns everything shard-local — timestamp oracle, lock manager,
version chains, WAL — exactly as a thread-mode shard does; the only
difference is that requests arrive as frames on a pipe instead of
method calls under the shard mutex.  The serve loop is deliberately
**single-threaded FIFO**: one request runs at a time, in arrival
order, so handlers never race each other.  Cross-shard parallelism
comes from having one such process per shard, not from concurrency
inside one.

What a frame may ask for is the verb table, :data:`repro.transport.
verbs.VERBS`: the server resolves the frame's method there and calls the
named member of the named part of its engine.  The only handlers written
out here are the ones that do more than that — ``begin`` (the engine
takes the imposed id and cut by keyword), ``commit`` (never the fsync),
``checkpoint`` and ``recover`` (rewrite WAL history, so the next
envelope resyncs the coordinator's replica wholesale) and
``create_table`` (the table it returns lives here).

One-way verbs have no frame of their own: they arrive as the
**prelude** of the next request frame and run, in order, before that
request.  A prelude entry that *fails* stashes its exception and the
carrier request fails with it instead of executing — the coordinator
never silently loses a worker-side error.

Every response carries an **envelope** (``None`` when nothing moved):
the oracle's commit timestamp, the engine's commit and abort counts, the
durable WAL delta and watermarks, per-table live row counts, and — when
they changed — the stats: the rest of what the engine's ``metrics()``
reading counts, as one tuple in :data:`~repro.storage.store.
SHARD_METRICS` order, and its chain histograms.  The coordinator's receiver thread folds it
into its local mirrors, which is how the proxy objects answer hot-path
reads (``oracle.last_commit_ts``, ``wal.last_lsn``, ``metrics()``,
``chain_histograms()``, a table's ``row_estimate``) without a round
trip.
"""

from __future__ import annotations

import gc
import os
from collections.abc import Iterator

from repro.storage.engine import StorageEngine, WouldBlock
from repro.storage.store import SHARD_METRICS
from repro.transport.frames import FrameChannel, encode_error
from repro.transport.verbs import VERBS


def worker_main(shard_idx, read_fd, write_fd, close_fds, options):
    """Entry point of a forked shard worker (never returns normally)."""
    # Everything on the heap right now is the coordinator's, inherited by
    # the fork and never freed here: move it to the permanent generation
    # so this process's full collections walk only what it allocates
    # itself, instead of paying one tens-of-milliseconds pass over the
    # inherited heap somewhere in its first few hundred requests.
    gc.freeze()
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
    """Construct the worker-side engine from picklable ``options``: the
    :meth:`StorageEngine.shard_member` settings, plus an optional
    ``install`` dict used by crash rebuilds — schemas, the surviving
    (flushed) WAL prefix and the transaction-id floor — so a freshly
    forked worker starts in exactly the post-crash state restart
    recovery expects.
    """
    install = options.pop("install") or {}
    engine = StorageEngine.shard_member(
        shard_idx, **options,
        schemas=install.get("schemas", ()), next_txn=install.get("next_txn"),
    )
    if install:
        records, flushed_lsn, next_lsn = install["wal"]
        engine.wal.replace(records, flushed_lsn=flushed_lsn, next_lsn=next_lsn)
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
        #: wire name -> the ``do_*`` handlers below, which do more than
        #: call the verb's member; every other verb goes through the table.
        self._by_hand = {
            name[3:]: getattr(self, name)
            for name in vars(type(self)) if name.startswith("do_")
        }
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
                    self._call(name, prelude_args)
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
            payload = self._call(method, args)
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
        flushed lsn, per-table live rows, stats)`` —
        positional, because it rides most responses and dict keys would
        outweigh its values.  Commits and aborts ride the head: they
        often change alone, and the stats part ships only when the rest
        of the reading or a histogram moved."""
        engine = self.engine
        wal = engine.wal
        reading = engine.metrics()
        head = (
            engine.oracle.last_commit_ts, reading["commits"], reading["aborts"],
        )
        live_rows = tuple(
            table.row_estimate()
            for table in map(engine.db.table, engine.db.table_names()))
        stats = (
            tuple([reading[key] for key in SHARD_METRICS]),
            tuple(engine.chain_histograms().values()),
        )
        # Responses are FIFO per connection and the coordinator's
        # receiver applies envelopes in order, so "same state as the last
        # shipped envelope" means the mirrors are already exact.
        state = (head, wal._next_lsn, wal.flushed_lsn, live_rows, stats)
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
            *head, delta, wal_full, wal.last_lsn, wal.flushed_lsn,
            live_rows, stats,
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

    # -- dispatch ------------------------------------------------------------------------

    def _call(self, method, args):
        handler = self._by_hand.get(method)
        if handler is not None:
            return handler(*args)
        verb = VERBS[method]
        target, args = verb.target.resolve(self.engine, args)
        if verb.attribute:
            if not args:
                return getattr(target, verb.member)
            (value,) = args
            setattr(target, verb.member, value)
            return None
        options = {}
        if verb.options:
            *args, options = args
        result = getattr(target, verb.member)(*args, **options)
        # A scan is lazy where it is written; only its rows can travel.
        return list(result) if isinstance(result, Iterator) else result

    # -- the handlers that do more than call the verb's member ---------------------------

    def do_begin(self, isolation, txn_id, read_ts):
        self.engine.begin(isolation, txn_id=txn_id, read_ts=read_ts)

    def do_commit(self, txn, participants):
        # flush=False always: the coordinator owns flush ordering (its
        # reads-from dependency vector spans shards this worker can't see).
        return self.engine.commit(txn, participants=participants, flush=False)

    def do_create_table(self, schema):
        # The Table stays here; the coordinator keeps the schema it sent.
        self.engine.create_table(schema)

    def do_checkpoint(self):
        record = self.engine.checkpoint()
        if record is not None:
            self._wal_resync = True  # checkpoint truncated the log
        return record

    def do_recover(self, demote):
        report = self.engine.recover(demote)
        self._wal_resync = True  # recovery appended/abandoned records
        return report
