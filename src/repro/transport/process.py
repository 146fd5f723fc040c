"""The process-per-shard sharded engine and its deadlock probe.

:class:`ProcessShardedStorageEngine` is the thread-mode
:class:`~repro.storage.sharding.ShardedStorageEngine` constructed over
:class:`~repro.transport.proxy.RemoteShardEngine` proxies instead of
in-process shards: the entire coordinator layer — vector begins,
ordered two-phase prepare/commit, planning, vacuum, ensemble
checkpoints — is inherited unchanged, with no override: write sets
(``prepare``), snapshot reads (``snapshot_view``) and restart recovery
(``recover``) are verbs every shard answers, a remote one with a frame.
That is also the observational-equivalence argument (property-tested
against the threaded pool in ``tests/transport``).

What this class adds:

* **spawning** — all pipes are created before any fork, every worker
  is forked before any coordinator receiver thread starts (forking a
  process while sibling receiver threads hold transport latches would
  clone a locked world into the child), and each child closes every
  pipe end that is not its own;
* the **probe-based distributed deadlock detector**: a shard worker
  reporting ``would_block`` returns who blocks the waiter; the
  coordinator unions every shard's waits-for edges and chases the
  cycle, withdrawing the victim's enqueued wait when it finds one;
* **crash/kill semantics** — :meth:`crash` SIGKILLs the worker fleet
  mid-flight (tests point it at a worker between WAL flushes to get a
  genuinely torn cross-shard commit) and rebuilds a successor fleet
  from the coordinator's durable mirrors.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

from repro.analysis.latch import Latch
from repro.errors import DeadlockError, TransportError
from repro.storage.engine import LockGranularity
from repro.storage.sharding import ShardedStorageEngine
from repro.transport.frames import FrameChannel
from repro.transport.proxy import (
    RemoteShardEngine,
    RemoteWouldBlock,
    ShardConnection,
)
from repro.transport.worker import worker_main


def _spawn_workers(n_shards, per_shard_options):
    """Fork one worker per shard; returns (processes, channels).

    Order matters twice over: every pipe exists before the first fork
    (so each child can close all sibling ends by fd), and every fork
    happens before the caller starts receiver threads (fork clones only
    the calling thread — forking while a receiver holds a transport
    latch would wedge the child if it ever touched coordinator state).
    """
    ctx = multiprocessing.get_context("fork")
    pipes = []
    for _ in range(n_shards):
        c2w_read, c2w_write = os.pipe()  # coordinator -> worker
        w2c_read, w2c_write = os.pipe()  # worker -> coordinator
        pipes.append((c2w_read, c2w_write, w2c_read, w2c_write))
    processes = []
    for idx in range(n_shards):
        c2w_read, c2w_write, w2c_read, w2c_write = pipes[idx]
        close_fds = [
            fd for j, quad in enumerate(pipes) if j != idx for fd in quad
        ]
        close_fds += [c2w_write, w2c_read]  # the coordinator's ends
        process = ctx.Process(
            target=worker_main,
            args=(idx, c2w_read, w2c_write, close_fds, per_shard_options[idx]),
            name=f"repro-shard{idx}",
            daemon=True,
        )
        process.start()
        processes.append(process)
    channels = []
    for c2w_read, c2w_write, w2c_read, w2c_write in pipes:
        os.close(c2w_read)  # the workers' ends
        os.close(w2c_write)
        channels.append(FrameChannel(w2c_read, c2w_write))
    return processes, channels


def _kill_process(process) -> None:
    if process.pid is not None:
        try:
            os.kill(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    process.join(timeout=5.0)


class ProcessShardedStorageEngine(ShardedStorageEngine):
    """N shard engines in N worker processes behind one coordinator."""

    def __init__(
        self,
        n_shards: int = 2,
        *,
        locking: bool = True,
        granularity: LockGranularity = LockGranularity.FINE,
        ordered_indexes: bool = True,
        install=None,
    ):
        member_settings = {
            "n_shards": n_shards,
            "locking": locking,
            "granularity": granularity,
            "ordered_indexes": ordered_indexes,
        }
        installs = install or [None] * n_shards
        per_shard = [dict(member_settings, install=i) for i in installs]
        self._processes, channels = _spawn_workers(n_shards, per_shard)
        self._connections = [
            ShardConnection(i, channel) for i, channel in enumerate(channels)
        ]
        proxies = []
        for i, connection in enumerate(self._connections):
            proxy = RemoteShardEngine(i, connection, install=installs[i])
            proxy.deadlock_probe = self._deadlock_probe
            proxies.append(proxy)
        # Receivers only start once every envelope hook is installed and
        # every fork is done, before anything can send a request.
        for connection in self._connections:
            connection.start()
        self._probe_latch = Latch("deadlock-probe", reentrant=False)
        self._closed = False
        super().__init__(
            n_shards,
            locking=locking,
            granularity=granularity,
            shards=proxies,
            ordered_indexes=ordered_indexes,
        )

    # -- distributed deadlock detection ----------------------------------------------

    def _deadlock_probe(self, shard, exc: RemoteWouldBlock) -> None:
        """Chase a fresh would-block edge across every shard's graph.

        Workers detect intra-shard cycles themselves (before enqueuing
        the wait); only cycles spanning shards reach this probe.  The
        union of per-shard waits-for edges plus the just-reported edge
        is a faithful snapshot of a *stable* cross-shard cycle — every
        transaction in one is parked and cannot move — so a DFS from
        the new waiter either closes the loop or proves none exists
        yet.  The victim is the prober itself: its wait is withdrawn
        shard-side (``cancel_wait``) and it aborts with
        :class:`DeadlockError`, exactly like an intra-shard victim.
        """
        with self._probe_latch:
            edges: dict[int, set[int]] = {exc.txn: set(exc.blockers)}
            for peer in self.shards:
                try:
                    for waiter, blockers in peer.locks.waits_edges().items():
                        edges.setdefault(waiter, set()).update(blockers)
                except TransportError:  # peer mid-teardown: partial view
                    continue
            stack = list(edges[exc.txn])
            seen: set[int] = set()
            while stack:
                node = stack.pop()
                if node == exc.txn:
                    shard.locks.cancel_wait(exc.txn, exc.resource)
                    raise DeadlockError(
                        f"cross-shard deadlock: transaction {exc.txn} waiting "
                        f"for {exc.resource!r} closes a waits-for cycle"
                    )
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(edges.get(node, ()))

    # -- crash / teardown ----------------------------------------------------------

    def worker_pids(self) -> list[int]:
        return [process.pid for process in self._processes]

    def kill_worker(self, shard_idx: int) -> None:
        """SIGKILL one shard's worker (crash-injection hook for tests)."""
        _kill_process(self._processes[shard_idx])

    def _survivor(self) -> "ProcessShardedStorageEngine":
        """Kill the fleet; rebuild a successor from the durable mirrors.

        Mirrors are the coordinator's view of each worker's log —
        honest crash semantics: anything a worker made durable after
        its last envelope is lost with the process, exactly as a
        machine losing power loses what it never acknowledged.
        """
        for process in self._processes:
            _kill_process(process)
        for connection in self._connections:
            connection.close()
        install = []
        for shard in self.shards:
            shard.wal.truncate_to_flushed()
            install.append({
                "schemas": list(shard.db.schemas()),
                # Private on purpose: the successor log must continue
                # the LSN sequence, never reuse lost tail LSNs.
                "wal": (
                    tuple(shard.wal.records()),
                    shard.wal.flushed_lsn,
                    shard.wal._next_lsn,
                ),
                "next_txn": self._next_txn,
            })
        survivor = ProcessShardedStorageEngine(
            self.n_shards,
            locking=self.locking,
            granularity=self.granularity,
            ordered_indexes=self.ordered_indexes,
            install=install,
        )
        # The knobs reach the new workers ahead of their first request.
        survivor.vacuum_interval = self.vacuum_interval
        for old, new in zip(self.shards, survivor.shards):
            new.wal.flush_latency = old.wal.flush_latency
        return survivor

    def close(self) -> None:
        """Shut the worker fleet down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for connection in self._connections:
            connection.shutdown()
        for connection in self._connections:
            connection.close()
        for process in self._processes:
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                _kill_process(process)
