"""The process-per-shard sharded engine.

:class:`ProcessShardedStorageEngine` is the thread-mode
:class:`~repro.storage.sharding.ShardedStorageEngine` constructed over
:class:`~repro.transport.proxy.RemoteShardEngine` proxies instead of
in-process shards: the entire coordinator layer — vector begins,
ordered two-phase prepare/commit, planning, vacuum, ensemble
checkpoints, the cross-shard deadlock probe — is inherited unchanged,
with no override: write sets (``prepare``), snapshot reads
(``snapshot_view``) and restart recovery (``recover``) are verbs every
shard answers, a remote one with a frame, and a worker's ``WouldBlock``
reaches the probe through its proxy.  That is also the
observational-equivalence argument (property-tested against the
threaded pool in ``tests/transport``).

What this class adds:

* **spawning** — the coordinator builds every engine a worker will
  serve (:meth:`~repro.storage.engine.StorageEngine.shard_member` at
  birth, the dead worker's :meth:`~repro.storage.engine.StorageEngine.
  successor` after a crash) and forks the worker serving it.  All pipes
  are created before any fork, every worker is forked before any
  coordinator receiver thread starts (forking a process while sibling
  receiver threads hold transport latches would clone a locked world
  into the child), and each child closes every pipe end that is not its
  own;
* **crash/kill semantics** — :meth:`crash` SIGKILLs the worker fleet
  mid-flight (tests point it at a worker between WAL flushes to get a
  genuinely torn cross-shard commit) and forks a successor fleet
  serving the successors of the coordinator's durable mirrors.
"""

from __future__ import annotations

import multiprocessing
import os
import signal

from repro.storage.engine import LockGranularity, StorageEngine
from repro.storage.sharding import ShardedStorageEngine
from repro.transport.frames import FrameChannel
from repro.transport.proxy import RemoteShardEngine, ShardConnection
from repro.transport.worker import worker_main


def _spawn_workers(engines):
    """Fork one worker serving each of ``engines``; returns (processes,
    channels).

    Order matters twice over: every pipe exists before the first fork
    (so each child can close all sibling ends by fd), and every fork
    happens before the caller starts receiver threads (fork clones only
    the calling thread — forking while a receiver holds a transport
    latch would wedge the child if it ever touched coordinator state).
    """
    ctx = multiprocessing.get_context("fork")
    pipes = []
    for _ in engines:
        c2w_read, c2w_write = os.pipe()  # coordinator -> worker
        w2c_read, w2c_write = os.pipe()  # worker -> coordinator
        pipes.append((c2w_read, c2w_write, w2c_read, w2c_write))
    processes = []
    for idx, engine in enumerate(engines):
        c2w_read, c2w_write, w2c_read, w2c_write = pipes[idx]
        close_fds = [
            fd for j, quad in enumerate(pipes) if j != idx for fd in quad
        ]
        close_fds += [c2w_write, w2c_read]  # the coordinator's ends
        process = ctx.Process(
            target=worker_main,
            args=(engine, c2w_read, w2c_write, close_fds),
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
        shards: "list[StorageEngine] | None" = None,
    ):
        """``shards`` are the engines the workers serve, one per shard
        (default: fresh :meth:`StorageEngine.shard_member` s)."""
        if shards is None:
            shards = [
                StorageEngine.shard_member(
                    i, n_shards, locking=locking, granularity=granularity,
                    ordered_indexes=ordered_indexes,
                )
                for i in range(n_shards)
            ]
        self._processes, channels = _spawn_workers(shards)
        self._connections = [
            ShardConnection(i, channel) for i, channel in enumerate(channels)
        ]
        proxies = [
            RemoteShardEngine(connection, engine)
            for connection, engine in zip(self._connections, shards)
        ]
        # The workers own the engines now: the proxies keep copies of
        # what they mirror, and the coordinator no reference.
        del shards
        # Receivers only start once every envelope hook is installed and
        # every fork is done, before anything can send a request.
        for connection in self._connections:
            connection.start()
        self._closed = False
        super().__init__(
            len(proxies),
            locking=locking,
            granularity=granularity,
            shards=proxies,
            ordered_indexes=ordered_indexes,
        )

    # -- crash / teardown ----------------------------------------------------------

    def worker_pids(self) -> list[int]:
        return [process.pid for process in self._processes]

    def kill_worker(self, shard_idx: int) -> None:
        """SIGKILL one shard's worker (crash-injection hook for tests)."""
        _kill_process(self._processes[shard_idx])

    def _survivor(self) -> "ProcessShardedStorageEngine":
        """Kill the fleet; fork one serving the successors of its mirrors.

        Mirrors are the coordinator's view of each worker's log —
        honest crash semantics: anything a worker made durable after
        its last envelope is lost with the process, exactly as a
        machine losing power loses what it never acknowledged.  Every
        worker dies before any successor is forked.
        """
        for process in self._processes:
            _kill_process(process)
        for connection in self._connections:
            connection.close()
        successors = [shard.successor() for shard in self.shards]
        for engine in successors:
            engine._next_txn = self._next_txn
        return ProcessShardedStorageEngine(
            self.n_shards,
            locking=self.locking,
            granularity=self.granularity,
            ordered_indexes=self.ordered_indexes,
            shards=successors,
        )

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
