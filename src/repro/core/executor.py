"""The per-shard execution layer: real threads under the run loop.

PR 4 made every shard a complete storage engine — its own lock manager,
version chains, write-ahead log and timestamp oracle — which turned the
shard ablation's *virtual*-time scaling claim into something a thread
pool can cash in for *wall-clock* time.  This module is that pool.

A :class:`ShardExecutor` owns **one worker thread per shard**.  Work is
dispatched by *home shard*: a transaction executes entirely on its home
shard's worker, so two transactions whose data lives on different shards
make wall-clock progress concurrently, while two transactions sharing a
home shard pipeline serially — exactly the per-shard serial-commit model
the virtual cost accounting already charged.  Cross-shard statements are
legal from any worker (the storage layer is thread-safe; every shard
engine is one mutex-guarded serial pipeline), they just contend on the
foreign shard's mutex like any other client of that shard.

Why this scales despite the GIL: the storage layer's dominant wall-clock
cost is the simulated commit fsync
(:attr:`~repro.storage.wal.WriteAheadLog.flush_latency`), which sleeps —
releasing the GIL — per written shard's log.  Commits funneled through
the single-threaded run loop pay those sleeps back to back; commits
dispatched to per-shard workers overlap them, one flush pipeline per
shard.  That is precisely how a real engine's group commit scales with
independent log devices, and it is what the wall-clock arm of
``bench/contention.py`` measures.

Suspension stays **cooperative**: a worker never blocks on a lock.  A
conflicting request still surfaces as
:class:`~repro.storage.engine.WouldBlock` inside the worker, the
transaction returns ``LOCK_BLOCKED`` to the coordinator, and the run
loop's existing retry machinery decides when to redispatch — so the
executor adds parallelism without adding a second blocking discipline.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, Sequence


class ExecutorClosed(RuntimeError):
    """Work was submitted to an executor after :meth:`ShardExecutor.close`."""


class _Future:
    """A minimal completion handle for one dispatched call."""

    __slots__ = ("_done", "_result", "_exception")

    def __init__(self) -> None:
        self._done = threading.Event()
        self._result: Any = None
        self._exception: BaseException | None = None

    def _finish(self, result: Any, exception: BaseException | None) -> None:
        self._result = result
        self._exception = exception
        self._done.set()

    def result(self, timeout: float | None = None) -> Any:
        """Wait for completion; re-raise the call's exception, if any."""
        if not self._done.wait(timeout):
            raise TimeoutError("executor task did not complete in time")
        if self._exception is not None:
            raise self._exception
        return self._result


class ShardExecutor:
    """One worker thread per shard; FIFO dispatch per shard.

    The coordinator (the engine's run loop) stays on the calling thread;
    only the closures handed to :meth:`submit` / :meth:`run` execute on
    workers.  ``close()`` drains and joins every worker — the executor
    cannot be used afterwards.
    """

    def __init__(self, n_shards: int, *, name: str = "repro-shard"):
        if n_shards < 1:
            raise ValueError(f"need >= 1 shard, got {n_shards}")
        self._queues: list[queue.SimpleQueue] = [
            queue.SimpleQueue() for _ in range(n_shards)
        ]
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker, args=(q,), name=f"{name}-{i}", daemon=True
            )
            for i, q in enumerate(self._queues)
        ]
        for thread in self._threads:
            thread.start()

    @property
    def n_shards(self) -> int:
        return len(self._queues)

    @property
    def closed(self) -> bool:
        return self._closed

    def _worker(self, tasks: queue.SimpleQueue) -> None:
        while True:
            item = tasks.get()
            if item is None:
                return
            fn, future = item
            try:
                future._finish(fn(), None)
            except BaseException as exc:  # noqa: BLE001 - re-raised by result()
                future._finish(None, exc)

    def submit(self, shard_idx: int, fn: Callable[[], Any]) -> _Future:
        """Enqueue ``fn`` on ``shard_idx``'s worker; returns its future.

        Unbounded: the run loop must never lose a dispatch mid-run.
        """
        if self._closed:
            raise ExecutorClosed("executor already closed")
        future = _Future()
        self._queues[shard_idx % self.n_shards].put((fn, future))
        return future

    def run(self, tasks: Sequence[tuple[int, Callable[[], Any]]]) -> list[Any]:
        """Dispatch ``(home_shard, fn)`` pairs and wait for all of them.

        Results come back in submission order.  The first failing task's
        exception is re-raised only after *every* task finished (workers
        never die with a task; the queue keeps draining) — the caller
        must never resume while tasks still run.
        """
        futures = [self.submit(shard_idx, fn) for shard_idx, fn in tasks]
        for future in futures:
            future._done.wait()
        return [future.result() for future in futures]

    def close(self) -> None:
        """Stop accepting work, drain the queues, join the workers."""
        if self._closed:
            return
        self._closed = True
        for tasks in self._queues:
            tasks.put(None)
        for thread in self._threads:
            thread.join()

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return f"ShardExecutor(n_shards={self.n_shards}, {state})"
