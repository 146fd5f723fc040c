"""Forking shard workers.

A process-backed store is a plain :class:`~repro.storage.sharding.
ShardedStorageEngine` or :class:`~repro.replication.
ReplicatedStorageEngine` whose members are :class:`~repro.transport.
proxy.RemoteShardEngine` proxies.  The coordinator layer — vector
begins, ordered two-phase prepare/commit, planning, vacuum, ensemble
checkpoints, the cross-shard deadlock probe, WAL shipping, failover —
runs over them unchanged, because write sets (``prepare``), snapshot
reads (``snapshot_view``) and restart recovery (``recover``) are verbs
every shard answers, a remote one with a frame.  That is also the
observational-equivalence argument (property-tested against the
threaded pool in ``tests/transport``).

:func:`spawn_workers` is the one way a worker comes to be: it forks one
worker serving each engine the coordinator built — a fresh
:meth:`~repro.storage.engine.StorageEngine.shard_member` at birth, the
:meth:`~repro.storage.engine.StorageEngine.successor` of a dead
worker's mirrors after a crash.  The rest of a worker's life belongs to
its proxy.
"""

from __future__ import annotations

import multiprocessing
import os

from repro.storage.engine import StorageEngine
from repro.transport.frames import FrameChannel
from repro.transport.proxy import RemoteShardEngine, ShardConnection
from repro.transport.worker import worker_main


def spawn_workers(engines: "list[StorageEngine]") -> "list[RemoteShardEngine]":
    """Fork one worker serving each of ``engines`` (shard members);
    returns their started proxies, in order.

    Order matters twice over: every pipe exists before the first fork
    (so each child can close all sibling ends by fd), and every fork
    happens before any receiver thread starts (fork clones only the
    calling thread — forking while a receiver holds a transport latch
    would wedge the child if it ever touched coordinator state).  A
    caller replacing workers therefore kills every old one first and
    forks their successors in one batch.

    The workers own the engines now: each proxy keeps copies of what it
    mirrors and no reference to its engine, and the caller should keep
    none either (a forked worker starts as a copy of this whole heap).
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
            name=f"repro-{engine.db.name}",
            daemon=True,
        )
        process.start()
        processes.append(process)
    connections = []
    for engine, (c2w_read, c2w_write, w2c_read, w2c_write) in zip(engines, pipes):
        os.close(c2w_read)  # the workers' ends
        os.close(w2c_write)
        connections.append(ShardConnection(
            engine._member[0], FrameChannel(w2c_read, c2w_write)))
    proxies = [
        RemoteShardEngine(connection, engine, process)
        for connection, engine, process in zip(connections, engines, processes)
    ]
    # Receivers only start once every envelope hook is installed and
    # every fork is done, before anything can send a request.
    for connection in connections:
        connection.start()
    return proxies
