"""Coordinator-side stand-ins for a shard engine living in another process.

:class:`RemoteShardEngine` implements :class:`~repro.storage.protocol.
ShardEngine` — exactly what :class:`~repro.storage.sharding.
ShardedStorageEngine` uses on a shard — so the whole coordinator layer
(vector begins, ordered two-phase commit, query planning, vacuum,
checkpointing, reporting) runs **unchanged** over process-backed shards.
Planning stays here; only leaf accesses and write statements cross the
pipe, one frame per statement per shard.

What crosses is the verb table, :data:`repro.transport.verbs.VERBS`: a
proxy method that only forwards is *generated* from its row
(:func:`forwards`), so remoteness adds nothing to the contract.  What is
written out below is what does more than forward, and answers locally:

* **mirrors** — the shard's oracle timestamp, WAL contents, its
  ``metrics()`` reading and chain histograms are replicated
  coordinator-side, folded in from the envelope responses carry.
  Because the coordinator performs begins/commits under its commit
  funnel (each enclosed RPC is awaited before the funnel is released)
  and a worker only changes state while serving a request, a mirror read
  equals the worker's value as of its last response.
* **schema replicas** — a remote table view holds the table's
  :class:`~repro.storage.schema.TableSchema` (it crossed the pipe once,
  with ``create_table``), and what a schema can answer — column names
  and types, ``has_index``, ``index_keys`` — the planner asks that;
* **the worker itself** — a :class:`RemoteShardEngine` owns the process
  it talks to: ``close()`` shuts it down, ``crash()`` SIGKILLs it and
  returns the successor of the mirrors, and ``place`` forks successors
  (:func:`~repro.transport.process.spawn_workers`), so a router treats
  it as any other member.

Everything else is a synchronous RPC over the shard's
:class:`~repro.transport.frames.FrameChannel`.  A per-connection
receiver thread matches responses to callers: the pending table lives
under the ``transport-state`` latch, frame writes (and the prelude
queue they drain) are serialized by ``transport-send`` — both rank
*above* every engine latch, so a receiver folding an envelope (oracle,
WAL) never inverts the lattice.
"""

from __future__ import annotations

import os
import signal
import threading

from repro.analysis.latch import Latch, assert_may_block
from repro.errors import TransactionStateError, TransportError, UnknownTableError
from repro.storage.catalog import Database
from repro.storage.engine import StorageEngine, WouldBlock, no_deadlock_probe
from repro.storage.oracle import TimestampOracle
from repro.storage.schema import TableSchema
from repro.storage.store import METRICS, SHARD_METRICS
from repro.storage.wal import WriteAheadLog
from repro.transport.frames import FrameChannel, decode_error
from repro.transport.verbs import Target, Verb, members_of


class _PendingCall:
    __slots__ = ("done", "status", "payload")

    def __init__(self):
        self.done = threading.Event()
        self.status = "closed"
        self.payload = None


#: per-thread reusable call slot.  A thread blocks on exactly one
#: synchronous call at a time (calls never nest — even the deadlock
#: probe's fan-out runs its peer requests sequentially), and by the time
#: :meth:`ShardConnection.call` returns the slot has been popped from
#: the pending table, so no late completion can touch a reused slot.
#: Reuse keeps Event/Condition construction off the RPC hot path.
_call_slots = threading.local()


def _thread_slot() -> _PendingCall:
    slot = getattr(_call_slots, "slot", None)
    if slot is None:
        slot = _PendingCall()
        _call_slots.slot = slot
    slot.done.clear()
    slot.status = "closed"
    slot.payload = None
    return slot


class ShardConnection:
    """One shard worker's frame pipe plus its response receiver thread."""

    def __init__(self, shard_idx: int, channel: FrameChannel):
        self.shard_idx = shard_idx
        self._channel = channel
        self._state = Latch("transport-state", reentrant=False)
        self._send_latch = Latch("transport-send", reentrant=False)
        self._pending: dict[int, _PendingCall] = {}
        #: one-way calls waiting for a carrier (under ``transport-send``).
        self._prelude: list[tuple[str, tuple]] = []
        self._next_req = 1
        self._closed = False
        #: installed by :class:`RemoteShardEngine` before :meth:`start`.
        self.apply_envelope = None
        self._receiver: threading.Thread | None = None

    def start(self) -> None:
        self._receiver = threading.Thread(
            target=self._receive_loop,
            name=f"shard{self.shard_idx}-recv",
            daemon=True,
        )
        self._receiver.start()

    # -- sending ---------------------------------------------------------------------

    def call(self, method: str, *args):
        """Send a synchronous request; block until its response arrives."""
        slot = _thread_slot()
        with self._state:
            if self._closed:
                raise TransportError(
                    f"shard {self.shard_idx} worker connection is closed"
                )
            req_id = self._next_req
            self._next_req += 1
            self._pending[req_id] = slot
        with self._send_latch:
            prelude, self._prelude = self._prelude, []
            self._channel.send((req_id, method, args, prelude))
        slot.done.wait()
        if slot.status == "closed":
            raise TransportError(
                f"shard {self.shard_idx} worker died before answering "
                f"{method!r}"
            )
        return slot.status, slot.payload

    def defer(self, method: str, *args) -> None:
        """A one-way call with no frame of its own: it joins the prelude
        the next request frame carries, and runs worker-side before that
        request — in FIFO order, so it still precedes everything sent
        after it.  If it fails there, its carrier fails with its error."""
        with self._send_latch:
            self._prelude.append((method, args))

    def request(self, method: str, *args):
        """:meth:`call`, with remote failures re-raised as themselves."""
        status, payload = self.call(method, *args)
        if status == "ok":
            return payload
        raise decode_error(payload)

    # -- receiving -------------------------------------------------------------------

    def _receive_loop(self) -> None:
        try:
            while True:
                frame = self._channel.recv()
                if frame is None:
                    return
                req_id, status, payload, envelope = frame
                with self._state:
                    slot = self._pending.pop(req_id, None)
                # Envelope first, completion second: when the caller
                # wakes, the mirrors already reflect the response.
                if envelope is not None and self.apply_envelope is not None:
                    self.apply_envelope(envelope)
                if slot is not None:
                    slot.status = status
                    slot.payload = payload
                    slot.done.set()
        except TransportError:
            return  # worker died mid-frame; fail the callers below
        finally:
            self._fail_pending()

    def _fail_pending(self) -> None:
        with self._state:
            self._closed = True
            pending = list(self._pending.values())
            self._pending.clear()
        for slot in pending:
            slot.done.set()  # status stays "closed"

    # -- teardown --------------------------------------------------------------------

    def shutdown(self) -> None:
        """Ask the worker to exit its serve loop (best effort)."""
        try:
            self.call("shutdown")
        except TransportError:
            pass

    def close(self) -> None:
        self._fail_pending()
        self._channel.close()
        if self._receiver is not None:
            self._receiver.join(timeout=2.0)


# -- generated forwarders ------------------------------------------------------------


def _forwarder(verb: Verb):
    member = verb.member
    if verb.options:
        def forward(self, *args, **options):
            return self._send(self._verbs[member], *args, options)
    else:
        def forward(self, *args):
            return self._send(self._verbs[member], *args)

    forward.__name__ = member
    return forward


def forwards(*targets: Target):
    """Class decorator: one forwarding method per verb-table row on
    ``targets`` that the class does not define by hand.  The class says
    how a verb is sent (``_send(verb, *args)``) and which rows its
    instance speaks (``_verbs``: member name -> verb)."""

    def decorate(cls):
        for target in targets:
            for member, verb in members_of(target).items():
                if member not in cls.__dict__:
                    setattr(cls, member, _forwarder(verb))
        return cls

    return decorate


# -- mirrors -------------------------------------------------------------------------


class OracleMirror(TimestampOracle):
    """The coordinator's replica of one worker's timestamp oracle.

    ``last_commit_ts`` and ``oldest_active`` answer from local state:
    the commit timestamp advances via response envelopes, the snapshot
    registry via the coordinator's own register/release calls (which
    are also deferred to the worker, so the worker's vacuum horizon
    respects coordinator-held snapshots — prelude FIFO guarantees a
    registration outruns any later commit's auto-vacuum).
    """

    def __init__(self, connection: ShardConnection):
        self._connection = connection
        super().__init__()

    def allocate(self) -> int:
        raise TransactionStateError(
            "remote shard oracles allocate timestamps worker-side"
        )

    def register_snapshot(self, txn: int, read_ts: int) -> None:
        super().register_snapshot(txn, read_ts)
        self._connection.defer("register_snapshot", txn, read_ts)

    def release_snapshot(self, txn: int) -> None:
        super().release_snapshot(txn)
        self._connection.defer("release_snapshot", txn)


class WalReplica(WriteAheadLog):
    """The coordinator's replica of one worker's write-ahead log.

    Record deltas arrive in response envelopes (:meth:`~repro.storage.
    wal.WriteAheadLog.install`), recovery's appends among them; a
    checkpoint's truncation arrives as a wholesale :meth:`~repro.storage.
    wal.WriteAheadLog.replace` resync.  Reads (``last_lsn``, ``records`` — commit analysis,
    durability reporting) answer locally; :meth:`flush` is the one
    verb that must touch the worker, because the fsync it simulates
    happens where the authoritative log lives.
    """

    def __init__(self, connection: ShardConnection, log: WriteAheadLog):
        # Set before super().__init__: the base constructor assigns
        # ``flush_latency`` its default, which our data descriptor sees
        # here as no change, so no frame.
        self._connection = connection
        self._flush_latency = 0.0
        super().__init__()
        # The worker was forked holding ``log``: start as its copy.
        self._flush_latency = log.flush_latency
        self.replace(list(log.records(durable_only=True)),
                     flushed_lsn=log.flushed_lsn, next_lsn=log._next_lsn)
        #: the worker's true log tail as of the last envelope.  The
        #: replica's own record list holds only the *durable* prefix
        #: (volatile records would be truncated on crash anyway), so the
        #: tail watermark — which dependency vectors and flush targets
        #: read — is mirrored as a plain int instead.
        self._mirror_last_lsn = log.last_lsn

    @property
    def flush_latency(self) -> float:
        return self._flush_latency

    @flush_latency.setter
    def flush_latency(self, value: float) -> None:
        if value != self._flush_latency:  # else the worker already has it
            self._flush_latency = value
            self._connection.defer("set_flush_latency", value)

    @property
    def last_lsn(self) -> int:
        return self._mirror_last_lsn

    def flush(self, upto_lsn: int | None = None) -> None:
        assert_may_block("wal-flush")
        self._connection.request("wal_flush", upto_lsn)


@forwards(Target.LOCKS)
class RemoteLocks:
    """Lock-manager facade; the real manager lives in the worker."""

    _verbs = members_of(Target.LOCKS)

    def __init__(self, connection: ShardConnection):
        self._connection = connection

    def _send(self, verb: Verb, *args):
        return self._connection.request(verb.wire, *args)


# -- catalog / tables ----------------------------------------------------------------


_LIVE_READS = members_of(Target.TABLE)
_SNAPSHOT_READS = members_of(Target.SNAPSHOT)


@forwards(Target.TABLE, Target.SNAPSHOT)
class RemoteTableView:
    """One shard's fragment of a table, read over the pipe — live
    (``at=None``: the worker's current rows, for 2PL reads under the
    coordinator's locks) or at ``at=(txn, read_ts)`` (the worker's
    ``snapshot_view``).  The data methods are the verb table's.

    Nothing but ``schema`` and ``row_estimate`` is answered here:
    ``live_rows`` (what ``row_estimate`` answers with: the planner costs
    a path without a frame) is a plain attribute refreshed from response
    envelopes.  The live instance is cached per name by
    :class:`RemoteCatalog`, so those envelope updates land on the object
    callers hold, and a view ``at`` a snapshot asks it.
    """

    def __init__(self, connection: ShardConnection, schema: TableSchema,
                 at: "tuple[int, int] | None" = None,
                 live: "RemoteTableView | None" = None):
        self._connection = connection
        self.schema = schema
        self.live_rows = 0
        self._live = self if live is None else live
        self._verbs = _LIVE_READS if at is None else _SNAPSHOT_READS
        #: what every frame of this view starts with.
        self._address = (self.schema.name, *(at or ()))

    @property
    def name(self) -> str:
        return self.schema.name

    def at(self, txn: int, read_ts: int) -> "RemoteTableView":
        return RemoteTableView(
            self._connection, self.schema, (txn, read_ts), live=self._live)

    def _send(self, verb: Verb, *args):
        return self._connection.request(verb.wire, *self._address, *args)

    def row_estimate(self) -> int:
        return self._live.live_rows


class RemoteCatalog(Database):
    """One remote shard's catalog: a :class:`Database` whose tables are
    :class:`RemoteTableView` s.  DDL round-trips, names don't."""

    def __init__(self, connection: ShardConnection, name: str):
        super().__init__(name)
        self._connection = connection

    def create_table(self, schema) -> RemoteTableView:
        if self.has_table(schema.name):
            raise UnknownTableError(f"table {schema.name!r} already exists")
        self._connection.request("create_table", schema)
        return self.adopt_table(schema)

    def adopt_table(self, schema) -> RemoteTableView:
        """Register a table the worker already has (crash rebuilds)."""
        table = self._tables[schema.name] = RemoteTableView(
            self._connection, schema)
        return table


# -- the shard proxy -----------------------------------------------------------------


def _shard_proxy_mutex() -> Latch:
    # The proxy's engine mutex exists for the coordinator code that
    # nests shard mutexes around reads (``with shard.mutex:``); the
    # worker itself is single-threaded FIFO and needs no guarding.
    return Latch("engine-mutex", ordered=True)


@forwards(Target.ENGINE)
class RemoteShardEngine:
    """A :class:`~repro.storage.protocol.ShardEngine` whose engine lives
    in one worker process, which the proxy owns.  Statements, locks,
    prepare, abort, vacuum, checkpoint, recovery and the snapshot
    re-arms are the verb table's rows; written out here are the mirrors,
    the calls that do more than forward, and the worker's lifecycle:
    :meth:`close` shuts it down, :meth:`crash` SIGKILLs it, and
    :meth:`place` forks the successors.  :meth:`metrics` and
    :meth:`chain_histograms` answer from the mirror the envelopes keep —
    the worker's reading as of its last response — without a frame."""

    _verbs = members_of(Target.ENGINE)

    #: the one replacement recipe: it reads only the settings, catalog,
    #: durable log, cadences and flush latency, which the mirrors hold.
    successor = StorageEngine.successor

    def __init__(self, connection: ShardConnection, engine: StorageEngine,
                 worker):
        """Stand in for ``engine``, the one ``worker`` (a forked
        :class:`multiprocessing.Process`, ``connection``'s peer) was
        forked serving.  The mirrors start from its catalog, durable log,
        cadences and flush latency — torn-commit analysis reads the log
        mirror before any response — and the proxy keeps its settings
        and place in the ensemble; nothing else of it is kept."""
        self._connection = connection
        self._worker = worker
        self._member = engine._member
        self.granularity = engine.granularity
        self.ordered_indexes = engine.ordered_indexes
        self.mutex = _shard_proxy_mutex()
        self.oracle = OracleMirror(connection)
        self.wal = WalReplica(connection, engine.wal)
        self.locks = RemoteLocks(connection)
        self.db = RemoteCatalog(connection, engine.db.name)
        for schema in engine.db.schemas():
            self.db.adopt_table(schema)
        #: the worker's ``metrics()`` and per-table chain-length
        #: histograms (catalog order), as of the last response.
        self._metrics = dict.fromkeys(METRICS, 0)
        self._chain_histograms: tuple = ()
        self._vacuum_interval = engine.vacuum_interval
        self._checkpoint_interval = engine.checkpoint_interval
        #: replaced by the router's cross-shard probe (may raise
        #: DeadlockError when a request would block).
        self.deadlock_probe = no_deadlock_probe
        connection.apply_envelope = self._apply_envelope

    # -- envelope folding (receiver-thread context) --------------------------------

    def _apply_envelope(self, envelope) -> None:
        # Latch order: oracle (50) then wal (52), acquired separately,
        # never nested; counter writes are plain dict stores.
        (ts, commits, aborts, delta, wal_full, last_lsn, flushed, live_rows,
         stats) = envelope
        self._metrics["commits"] = commits
        self._metrics["aborts"] = aborts
        self.oracle.advance_to(ts)
        wal = self.wal
        if wal_full is not None:
            records, full_flushed, next_lsn = wal_full
            wal.replace(records, flushed_lsn=full_flushed, next_lsn=next_lsn)
            wal._mirror_last_lsn = last_lsn
        else:
            if delta or flushed:
                wal.install(delta, flushed_lsn=flushed)
            if last_lsn > wal._mirror_last_lsn:
                wal._mirror_last_lsn = last_lsn
        # The successor fleet after a crash must never reuse LSNs the
        # lost volatile tail consumed (this thread is the only writer).
        if last_lsn >= wal._next_lsn:
            wal._next_lsn = last_lsn + 1
        for name, rows in zip(self.db.table_names(), live_rows):
            self.db.table(name).live_rows = rows
        if stats is not None:
            counters, self._chain_histograms = stats
            self._metrics.update(zip(SHARD_METRICS, counters))

    def _send(self, verb: Verb, *args):
        """A request; if it may hit a lock conflict worker-side, then on
        ``WouldBlock`` the wait is already enqueued in the worker —
        give the probe detector a chance to find (and break) a
        cross-shard cycle before surfacing the wait to the scheduler."""
        try:
            return self._connection.request(verb.wire, *args)
        except WouldBlock as exc:
            if verb.blocking:
                self.deadlock_probe(self, exc)  # may raise DeadlockError
            raise

    # -- transactions --------------------------------------------------------------

    def begin(self, isolation, *, txn_id: int, read_ts=None) -> int:
        # The coordinator names the transaction, so nothing has to come
        # back: the begin rides the first statement's frame.
        self._connection.defer("begin", isolation, txn_id, read_ts)
        return txn_id

    def commit(self, txn: int, *, participants=None, flush: bool = True):
        # The coordinator owns flush ordering (its reads-from dependency
        # vector spans shards this worker cannot see), so the worker
        # always commits with flush=False regardless of this flag.
        del flush
        return self._connection.request("commit", txn, participants)

    # -- snapshots -----------------------------------------------------------------

    def snapshot_view(self, name: str, txn: int, read_ts: int) -> RemoteTableView:
        return self.db.table(name).at(txn, read_ts)

    # -- DDL / maintenance ---------------------------------------------------------

    def create_table(self, schema) -> RemoteTableView:
        return self.db.create_table(schema)

    @property
    def vacuum_interval(self) -> int:
        return self._vacuum_interval

    @vacuum_interval.setter
    def vacuum_interval(self, value: int) -> None:
        self._vacuum_interval = value
        self._connection.defer("set_vacuum_interval", value)

    @property
    def checkpoint_interval(self) -> int:
        return self._checkpoint_interval

    @checkpoint_interval.setter
    def checkpoint_interval(self, value: int) -> None:
        self._checkpoint_interval = value
        self._connection.defer("set_checkpoint_interval", value)

    # -- the worker's lifecycle -----------------------------------------------------

    @staticmethod
    def place(engines: "list[StorageEngine]") -> "list[RemoteShardEngine]":
        """Serve each of ``engines`` where a remote member runs: each in
        a worker of its own, forked in one batch."""
        # Deferred: the forking module builds these proxies.
        from repro.transport.process import spawn_workers

        return spawn_workers(engines)

    def worker_pids(self) -> list[int]:
        return [self._worker.pid]

    def kill(self) -> None:
        """SIGKILL the worker (crash injection: :meth:`crash` does it,
        and a test may do it first to tear a commit between flushes)."""
        try:
            os.kill(self._worker.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self._worker.join(timeout=5.0)

    def crash(self) -> StorageEngine:
        """SIGKILL the worker; returns the :meth:`successor` of the
        mirrors, for :meth:`place` to serve.

        Honest crash semantics: the mirrors are the coordinator's view
        of the worker's log, so anything the worker made durable after
        its last envelope is lost with the process, exactly as a machine
        losing power loses what it never acknowledged."""
        self.kill()
        self._connection.close()
        survivor = self.successor()
        # The successor shares the mirrored records; this proxy keeps
        # only its catalog and counters.
        self.wal.discard_records()
        return survivor

    def close(self) -> None:
        """Shut the worker down (idempotent; a dead worker is left alone)."""
        self._connection.shutdown()
        self._connection.close()
        self._worker.join(timeout=2.0)
        if self._worker.is_alive():  # pragma: no cover - stuck worker
            self.kill()

    # -- stats ---------------------------------------------------------------------

    def metrics(self) -> dict[str, int]:
        return dict(self._metrics)

    def chain_histograms(self) -> dict[str, dict[int, int]]:
        return dict(zip(self.db.table_names(), self._chain_histograms))
