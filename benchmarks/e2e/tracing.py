"""Outside-in tracing: spans around the calls into each layer's public functions.

Nothing under ``src/`` knows it is being traced.  :class:`Tracer` replaces
each function in :data:`HOOKS` with a timing wrapper — on its class for
methods, and for module-level functions in *every* loaded ``repro`` module
that holds a reference (``from x import f`` copies the binding, so patching
only the defining module would silently miss the callers).  All originals
are restored by :meth:`Tracer.uninstall`.

A span is ``(name, start_ns, end_ns, parent, run)``: ``parent`` indexes the
enclosing span on the same thread (-1 for a root) and ``run`` is the ordinal
of the ``Client.run()`` call in progress, the identifier every span of one
scheduler run shares (worker-thread roots carry it too, which is how they
link back to the run that dispatched them).  Self time is a span's duration
minus its direct children's, so layer self times sum over threads to the
traced busy time without double counting.
"""

from __future__ import annotations

import importlib
import sys
import threading
from collections import Counter
from time import perf_counter_ns

#: (span name, module, attribute path).  The span name's prefix is the layer.
HOOKS = [
    ("client.run_script", "repro.client", "Session.run_script"),
    ("client.run", "repro.client", "Client.run"),
    ("sql.lex", "repro.sql.lexer", "tokenize"),
    ("sql.parse", "repro.sql.parser", "parse_transaction"),
    ("sql.compile.select", "repro.sql.compiler", "compile_select"),
    ("sql.compile.insert", "repro.sql.compiler", "compile_insert"),
    ("sql.compile.update", "repro.sql.compiler", "compile_update"),
    ("sql.compile.delete", "repro.sql.compiler", "compile_delete"),
    ("sql.compile.entangled", "repro.sql.compiler", "compile_entangled"),
    ("entangled.evaluate", "repro.entangled.evaluator", "evaluate_batch"),
    ("entangled.ground", "repro.entangled.grounding", "ground"),
    ("entangled.match", "repro.entangled.matching", "find_coordinating_set"),
    ("core.run", "repro.core.engine", "EntangledTransactionEngine.run_once"),
    ("core.interpret", "repro.core.interpreter", "run_until_block"),
    ("core.executor", "repro.core.executor", "ShardExecutor.run"),
    ("storage.engine.begin", "repro.storage.engine", "StorageEngine.begin"),
    ("storage.engine.insert", "repro.storage.engine", "StorageEngine.insert"),
    ("storage.engine.update", "repro.storage.engine", "StorageEngine.update"),
    ("storage.engine.delete", "repro.storage.engine", "StorageEngine.delete"),
    ("storage.engine.commit", "repro.storage.engine", "StorageEngine.commit"),
    ("storage.engine.abort", "repro.storage.engine", "StorageEngine.abort"),
    ("storage.exec.build_plan", "repro.storage.planner", "build_plan"),
    ("storage.exec.execute", "repro.storage.planner", "execute"),
    ("storage.exec.evaluate", "repro.storage.query", "evaluate"),
    ("storage.locks.acquire", "repro.storage.locks", "LockManager.acquire"),
    ("storage.locks.release_all", "repro.storage.locks", "LockManager.release_all"),
    ("storage.locks.release_shared", "repro.storage.locks", "LockManager.release_shared"),
    ("storage.ssi.record_read", "repro.storage.ssi", "SSITracker.record_read"),
    ("storage.ssi.record_write", "repro.storage.ssi", "SSITracker.record_write"),
    ("storage.ssi.on_commit", "repro.storage.ssi", "SSITracker.on_commit"),
    ("storage.ssi.group_doomed", "repro.storage.ssi", "SSITracker.group_doomed"),
    ("storage.wal.append", "repro.storage.wal", "WriteAheadLog.append"),
    ("storage.wal.flush", "repro.storage.wal", "WriteAheadLog.flush"),
    ("storage.vacuum.engine", "repro.storage.engine", "StorageEngine.vacuum"),
    ("storage.vacuum.sharded", "repro.storage.sharding", "ShardedStorageEngine.vacuum"),
    ("storage.stats.engine", "repro.storage.engine", "StorageEngine.chain_histograms"),
    ("storage.stats.sharded", "repro.storage.sharding",
     "ShardedStorageEngine.chain_histograms"),
    ("storage.sharding.begin", "repro.storage.sharding", "ShardedStorageEngine.begin"),
    ("storage.sharding.commit", "repro.storage.sharding", "ShardedStorageEngine.commit"),
    ("storage.sharding.abort", "repro.storage.sharding", "ShardedStorageEngine.abort"),
    ("storage.sharding.flush_commits", "repro.storage.sharding",
     "ShardedStorageEngine.flush_commits"),
    ("transport.call", "repro.transport.proxy", "ShardConnection.call"),
    ("transport.send", "repro.transport.frames", "FrameChannel.send"),
    ("transport.recv", "repro.transport.frames", "FrameChannel.recv"),
    ("replication.ship", "repro.replication.engine",
     "ReplicatedStorageEngine.flush_commits"),
    ("replication.apply.receive", "repro.replication.follower", "FollowerShard.receive"),
    ("replication.apply.drain", "repro.replication.follower", "FollowerShard.drain"),
]


def _lock_waited(_args, result) -> int:
    return 0 if result.name == "GRANTED" else 1


#: span name -> f(args, result) -> amount added to the span's tally: counts
#: that the call count alone cannot give.
TALLIES = {
    "storage.locks.acquire": _lock_waited,              # non-GRANTED outcomes
    "entangled.evaluate": lambda args, _r: len(args[0]),  # queries submitted
    "replication.apply.receive": lambda args, _r: len(args[1]),  # records shipped
}

#: tally of pickled frame bytes, both directions (see :class:`_CountingPickle`).
FRAME_BYTES = "transport.bytes"


class _ThreadState:
    """One thread's open-span stack, finished spans and tallies."""

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.spans: list = []
        self.tallies: Counter = Counter()


class _CountingPickle:
    """Stands in for the ``pickle`` module as ``repro.transport.frames``
    sees it, so frame sizes are counted where they are produced instead of
    being re-pickled by the tracer."""

    def __init__(self, real, tracer: "Tracer"):
        self._real = real
        self._tracer = tracer
        self.HIGHEST_PROTOCOL = real.HIGHEST_PROTOCOL

    def dumps(self, obj, protocol=None):
        payload = self._real.dumps(obj, protocol=protocol)
        self._tracer._state().tallies[FRAME_BYTES] += len(payload)
        return payload

    def loads(self, payload):
        self._tracer._state().tallies[FRAME_BYTES] += len(payload)
        return self._real.loads(payload)


class Tracer:
    def __init__(self) -> None:
        self.names = [name for name, _module, _path in HOOKS]
        self.run = 0
        self._tls = threading.local()
        self._threads: list[_ThreadState] = []
        self._register = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- install / uninstall -----------------------------------------------------

    def install(self) -> None:
        for name_id, (name, module_name, path) in enumerate(HOOKS):
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            if owner_path:  # a method: patch the class, subclasses inherit it
                owner = getattr(module, owner_path)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(name_id, name, original))
            else:           # a function: patch every repro module's binding
                original = getattr(module, attr)
                wrapper = self._wrap(name_id, name, original)
                for candidate in list(sys.modules.values()):
                    if (getattr(candidate, "__name__", "").startswith("repro")
                            and candidate.__dict__.get(attr) is original):
                        self._patch(candidate, attr, wrapper)
        frames = importlib.import_module("repro.transport.frames")
        self._patch(frames, "pickle", _CountingPickle(frames.pickle, self))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- the wrapper -------------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            state = self._tls.state = _ThreadState()
            with self._register:
                self._threads.append(state)
            return state

    def _wrap(self, name_id: int, name: str, fn):
        tracer = self
        tally = TALLIES.get(name)
        is_run = name == "client.run"

        def traced(*args, **kwargs):
            state = tracer._state()
            stack, spans = state.stack, state.spans
            if is_run:
                tracer.run += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name_id, start, end, parent, tracer.run)
            if tally is not None:
                state.tallies[name] += tally(args, result)
            return result

        return traced

    # -- results -----------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self nanoseconds (summed over threads) and
        tallies; plus the nanoseconds covered by root spans on the calling
        thread, which is what ``run.other_share`` is measured against."""
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        tallies: Counter = Counter()
        for state in self._threads:
            tallies.update(state.tallies)
            for name_id, start, end, parent, _run in self._finished(state):
                name = self.names[name_id]
                calls[name] += 1
                self_ns[name] += end - start
                if parent >= 0 and state.spans[parent] is not None:
                    self_ns[self.names[state.spans[parent][0]]] -= end - start
        covered = sum(end - start
                      for _n, start, end, parent, _r in self._finished(self._state())
                      if parent < 0)
        return {"calls": dict(calls), "self_ns": dict(self_ns),
                "tallies": dict(tallies), "covered_ns": covered}

    @staticmethod
    def _finished(state: _ThreadState):
        """A thread's spans, without those still open when tracing stopped
        (a receiver thread sits in ``FrameChannel.recv`` until shutdown)."""
        return (span for span in state.spans if span is not None)

    def dump(self) -> dict:
        """Every span, for ``--json-out``: columns are
        ``[name, thread, start_ns, end_ns, parent, run]``."""
        return {
            "names": self.names,
            "columns": ["name", "thread", "start_ns", "end_ns", "parent", "run"],
            "spans": [
                [name_id, thread, start, end, parent, run]
                for thread, state in enumerate(self._threads)
                for name_id, start, end, parent, run in self._finished(state)
            ],
        }


def layer_metrics(workload, tracer, window, reports, store_counts, speed):
    """``(metrics, errors)`` of one traced window: the per-layer metrics, and
    what the hook liveness self-check found.

    ``window`` is the driver's account of the window, ``reports`` its
    ``RunReport`` s, ``store_counts`` the (snapshot probes, follower reads)
    it made, and ``speed`` the host-speed ratio that scales its times.
    """
    summary = tracer.summary()
    calls, self_ns, tallies = summary["calls"], summary["self_ns"], summary["tallies"]
    n = len(window["committed"])

    def fired(prefix):
        return sum(c for name, c in calls.items() if name.startswith(prefix))

    def self_ms(prefix):
        spent = sum(ns for name, ns in self_ns.items() if name.startswith(prefix))
        return spent / 1e6 / n * speed

    errors = []
    for name in tracer.names:
        hit = calls.get(name, 0)
        if any(name.startswith(p) for p in workload.exercised):
            if not hit:
                errors.append(f"hook {name} is declared exercised but never fired")
        elif hit and not any(name.startswith(p) for p in workload.optional):
            errors.append(f"hook {name} is declared bypassed but fired {hit} times")

    queries = tallies.get("entangled.evaluate", 0)
    probes, follower_reads = store_counts
    metrics = {
        "client.submit.self_ms_per_txn": self_ms("client."),
        "sql.lex.self_ms_per_txn": self_ms("sql.lex"),
        "sql.parse.self_ms_per_txn": self_ms("sql.parse"),
        "sql.compile.self_ms_per_txn": self_ms("sql.compile."),
        "sql.compile.calls_per_txn": fired("sql.compile.") / n,
        "entangled.ground.self_ms_per_txn": self_ms("entangled.ground"),
        "entangled.match.self_ms_per_txn": self_ms("entangled.match"),
        "entangled.evaluate.calls_per_txn": fired("entangled.evaluate") / n,
        "entangled.answered_share":
            sum(r.answered_queries for r in reports) / queries if queries else 0.0,
        "core.run.self_ms_per_txn": self_ms("core.run"),
        "core.interpret.self_ms_per_txn": self_ms("core.interpret"),
        "core.runs_per_ktxn": 1000 * fired("core.run") / n,
        "core.attempts_per_commit": window["attempts"] / n,
        "core.executor.wait_ms_per_txn": self_ms("core.executor"),
        "storage.engine.self_ms_per_txn": self_ms("storage.engine."),
        "storage.engine.calls_per_txn": fired("storage.engine.") / n,
        "storage.exec.self_ms_per_txn": self_ms("storage.exec."),
        "storage.exec.calls_per_txn": fired("storage.exec.") / n,
        "storage.locks.self_ms_per_txn": self_ms("storage.locks."),
        "storage.locks.acquires_per_txn": fired("storage.locks.acquire") / n,
        "storage.locks.waits_per_txn": tallies.get("storage.locks.acquire", 0) / n,
        "storage.ssi.self_ms_per_txn": self_ms("storage.ssi."),
        "storage.ssi.aborts_per_commit": sum(r.ssi_aborts for r in reports) / n,
        "storage.wal.self_ms_per_txn": self_ms("storage.wal."),
        "storage.wal.records_per_txn": fired("storage.wal.append") / n,
        "storage.wal.flushes_per_txn": fired("storage.wal.flush") / n,
        "storage.vacuum.self_ms_per_txn": self_ms("storage.vacuum."),
        "storage.stats.self_ms_per_txn": self_ms("storage.stats."),
        "storage.sharding.self_ms_per_txn": self_ms("storage.sharding."),
        "storage.sharding.cross_shard_share":
            sum(r.cross_shard_commits for r in reports) / n,
        "transport.call.wait_ms_per_txn": self_ms("transport.call"),
        "transport.frames_per_txn":
            (fired("transport.send") + fired("transport.recv")) / n,
        "transport.bytes_per_txn": tallies.get(FRAME_BYTES, 0) / n,
        "replication.ship.self_ms_per_txn": self_ms("replication.ship"),
        "replication.apply.self_ms_per_txn": self_ms("replication.apply."),
        "replication.ship.records_per_txn":
            tallies.get("replication.apply.receive", 0) / n,
        "replication.follower_read_share": follower_reads / probes if probes else 0.0,
        "run.other_share": 1.0 - summary["covered_ns"] / 1e9 / window["wall"],
    }
    if metrics["run.other_share"] < 0:
        errors.append(f"run.other_share is negative: {metrics['run.other_share']}")
    return metrics, errors
