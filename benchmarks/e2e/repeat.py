"""One repeat of one workload, in a process of its own.

Set-up, a ~100-script unmeasured warm-up, the measured window (optionally
traced), the output checks, a crash and restart from the flushed WAL, and
the same checks again on the recovered client.  Prints one JSON object.
``run.py`` starts a fresh interpreter per repeat so that heap state, the
hash seed and the forked worker fleet never carry over between samples.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


#: ``Client.run()`` calls allowed per round before its unfinished scripts
#: count as failed (SSI and first-updater-wins retries need a few).
MAX_RUNS_PER_ROUND = 64


def drive(client, sessions, rounds) -> dict:
    """The closed loop: per round one script per client, then ``run()``
    until every handle of the round is terminal."""
    from repro.errors import ReproError

    committed, latencies, marks = [], [], []
    attempted = attempts = 0
    start = perf_counter()
    for scripts in rounds:
        pending = {}
        for session, (sql, tag) in zip(sessions, scripts):
            attempted += 1
            submitted = perf_counter()
            try:
                handle = session.run_script(sql)
            except ReproError:
                continue
            pending[handle.handle] = (submitted, tag, handle)
        for _ in range(MAX_RUNS_PER_ROUND):
            if not pending:
                break
            report = client.run()
            now = perf_counter()
            for number in report.committed:
                submitted, tag, handle = pending.pop(number)
                latencies.append(now - submitted)
                committed.append(tag)
                attempts += handle.attempts
            for number in report.aborted + report.timed_out:
                pending.pop(number)
        marks.append((perf_counter(), len(committed)))
    end = perf_counter()
    return {"wall": end - start, "start": start, "end": end, "marks": marks,
            "attempted": attempted, "committed": committed,
            "latencies": latencies, "attempts": attempts}


def cpu_seconds(store) -> float:
    """User+system CPU of this process and of live shard workers, which
    ``os.times()`` would only count once they have been reaped."""
    times = os.times()
    total = times.user + times.system + times.children_user + times.children_system
    tick = os.sysconf("SC_CLK_TCK")
    for pid in getattr(store, "worker_pids", list)():
        fields = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()
        total += (int(fields[11]) + int(fields[12])) / tick
    return total


def steady_ratio(window: dict) -> float:
    """Throughput of the last fifth of the rounds over that of the first."""
    marks = [(window["start"], 0)] + window["marks"]
    fifth = max(1, (len(marks) - 1) // 5)

    def rate(lo, hi):
        return (marks[hi][1] - marks[lo][1]) / (marks[hi][0] - marks[lo][0])

    return rate(len(marks) - 1 - fifth, len(marks) - 1) / rate(0, fifth)


def percentile(sorted_values: list, q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def read_counts(store) -> tuple[int, int]:
    """(snapshot probes on any server, probes served by followers)."""
    probes = getattr(store, "read_probe_counts", dict)()
    return sum(probes.values()), getattr(store, "follower_read_count", 0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans-out")
    args = parser.parse_args()
    host = HostSpeed()
    host.start()

    # Importing the system is part of what a user waits for before the first
    # script can be submitted, so it counts toward ``setup_s``; generating
    # the inputs is the benchmark's own work and does not.
    import_start = perf_counter()
    import repro
    from repro.core.recovery import recover_entangled
    from workloads import WORKLOADS
    import_s = perf_counter() - import_start
    workload = WORKLOADS[args.workload]
    inputs, warmup = workload.build(args.seed, args.count)

    setup_start = perf_counter()
    live = client = repro.connect(**workload.connect)
    try:
        inputs.install(client)
        sessions = [client.session(f"c{i}") for i in range(workload.clients)]
        setup_end = perf_counter()

        warm = drive(client, sessions, warmup)
        reports_before = len(client.run_reports)
        counts_before = read_counts(client.store)
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        cpu_before = cpu_seconds(client.store)
        try:
            window = drive(client, sessions, inputs.rounds)
        finally:
            if tracer:
                tracer.uninstall()
        cpu_s = cpu_seconds(client.store) - cpu_before
        reports = client.run_reports[reports_before:]
        counts = tuple(
            after - before
            for before, after in zip(counts_before, read_counts(client.store)))

        committed = warm["committed"] + window["committed"]
        errors = inputs.check(client, committed)
        if len(window["committed"]) != window["attempted"]:
            errors.append(f"only {len(window['committed'])} of "
                          f"{window['attempted']} scripts committed")
        replicated = bool(workload.connect.get("replicas"))
        if bool(sum(r.follower_reads for r in reports)) != replicated:
            errors.append("follower reads seen on the wrong topology")

        recover_start = perf_counter()
        crashed = client.store.crash()
        client.engine.close()
        live = None
        engine, _report = recover_entangled(
            crashed, dataclasses.replace(client.engine.config, persist_state=True))
        live = repro.Client(engine)
        recover_end = perf_counter()
        errors += [f"after recovery: {e}" for e in inputs.check(live, committed)]
    finally:
        if live is not None:
            live.close(checkpoint=False)
        host.stop()

    # Seconds on the reference host: measured seconds times how much faster
    # than the reference this host ran while they were being measured.
    speed = host.ratio(window["start"], window["end"])
    setup_speed = host.ratio(import_start, setup_end)
    recover_speed = host.ratio(recover_start, recover_end)
    n = len(window["committed"])
    latencies = sorted(window["latencies"])
    rss_kb = max(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result = {
        "attempted": window["attempted"],
        "failed": window["attempted"] - n,
        "end_to_end": {
            "setup_s": (import_s + setup_end - setup_start) * setup_speed,
            "txn_per_s": n / window["wall"] / speed,
            "latency_p50_ms": 1e3 * percentile(latencies, 0.50) * speed,
            "cpu_ms_per_txn": 1e3 * cpu_s / n * speed,
            "peak_rss_mb": rss_kb / 1024,
        },
        # Reported, not gated: too few rounds lie beyond p95 and recovery is
        # too short for either to repeat within a bound (see README).
        "run": {
            "run.latency_p95_ms": 1e3 * percentile(latencies, 0.95) * speed,
            "run.recover_s": (recover_end - recover_start) * recover_speed,
            "run.raw_txn_per_s": n / window["wall"],
            "run.host_speed_ratio": speed,
            "run.steady_ratio": steady_ratio(window),
            "run.failed_share": (window["attempted"] - n) / window["attempted"],
        },
    }
    if tracer:
        result["per_layer"], hook_errors = layer_metrics(
            workload, tracer, window, reports, counts, speed)
        errors += hook_errors
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps(tracer.dump()))
    result["errors"] = errors
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
