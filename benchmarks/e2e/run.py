"""Wall-clock end-to-end benchmark through ``repro.connect()``.

    python benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
        [--repeats R] [--trace 0|1] [--quick] [--json-out F]
    python benchmarks/e2e/run.py --compare A.json B.json

Each workload is measured in fresh subprocesses (``repeat.py``): ``R``
untraced repeats give the end-to-end metrics (median, min, max, n), then
traced repeats give the per-layer metrics.  ``--trace 0`` / ``--trace 1``
restrict a run to one half and end the output with the one-line JSON result
the benchmark driver reads.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostspeed import loop_seconds  # noqa: E402

ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: ``--seconds`` scales the fixed script counts; at this value a repeat runs
#: ``Workload.count`` scripts and the untraced windows of one invocation
#: add up to about this many seconds at the commit that froze the counts.
RUN_SECONDS = SPEC["run_seconds"]
REPEATS = 3
#: traced repeats per invocation (fewer under ``--repeats 1``): two, so that
#: exact counts can be checked against each other and the others show a spread.
TRACED = 2
QUICK_DIVISOR = 50

#: per-layer counts that must repeat bit-for-bit on the serial workloads.
EXACT = {
    "storage.locks.acquires_per_txn", "storage.wal.records_per_txn",
    "storage.wal.flushes_per_txn", "sql.compile.calls_per_txn",
    "core.runs_per_ktxn", "storage.ssi.aborts_per_commit",
}


def host_line() -> dict:
    """Where the numbers come from: printed with, and stored in, every result."""
    calib = 2_000_000 / loop_seconds(2_000_000)
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "run.host_calib_ops_per_s": calib}


def repeat(name: str, seed: int, count: int, trace: int, spans_out=None) -> dict:
    command = [sys.executable, str(HERE / "repeat.py"), "--workload", name,
               "--seed", str(seed), "--count", str(count), "--trace", str(trace)]
    if spans_out:
        command += ["--spans-out", str(spans_out)]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": "0"})
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def measure(workload, args, host) -> dict:
    """All the repeats of one workload; returns its section of the result."""
    count = max(1, round(workload.count * args.seconds / RUN_SECONDS))
    if args.quick:
        count = max(1, count // QUICK_DIVISOR)
    untraced = args.repeats if args.trace != 1 else 1
    traced = 0 if args.trace == 0 else min(TRACED, args.repeats)
    spans = [
        f"{args.json_out}.spans.{workload.name}.{i}.json" if args.json_out else None
        for i in range(traced)
    ]
    runs = [repeat(workload.name, args.seed, count, 0) for _ in range(untraced)]
    traces = [repeat(workload.name, args.seed, count, 1, path) for path in spans]
    out = {
        "count": runs[0]["attempted"],
        "attempted": sum(r["attempted"] for r in runs + traces),
        "failed": sum(r["failed"] for r in runs + traces),
        "errors": [e for r in runs + traces for e in r["errors"]],
        "end_to_end": {
            m["name"]: spread([r["end_to_end"][m["name"]] for r in runs])
            for m in SPEC["end_to_end"]
        },
    }
    if not traces:
        return out
    per_layer = out["per_layer"] = {}
    for metric in traces[0]["per_layer"]:
        values = [r["per_layer"][metric] for r in traces]
        exact = not workload.workers and metric in EXACT
        if exact and len(set(values)) > 1:
            out["errors"].append(f"{metric} is declared exact but read {values}")
        per_layer[metric] = {**spread(values), "exact": exact}
    for metric in runs[0]["run"]:
        per_layer[metric] = spread([r["run"][metric] for r in runs])
    per_layer["run.trace_overhead_ratio"] = spread([
        out["end_to_end"]["txn_per_s"]["median"] / r["end_to_end"]["txn_per_s"]
        for r in traces])
    per_layer["run.host_calib_ops_per_s"] = spread([host["run.host_calib_ops_per_s"]])
    if args.json_out:
        out["spans"] = spans
    return out


UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def show(name: str, section: dict) -> None:
    print(f"\n== {name}: {section['count']} scripts per repeat, "
          f"{section['attempted']} attempted, {section['failed']} failed")
    for kind in ("end_to_end", "per_layer"):
        for metric, s in section.get(kind, {}).items():
            exact = "  exact" if s.get("exact") else ""
            print(f"  {metric:42s} {s['median']:14.4f} {UNITS[metric]:6s} "
                  f"min {s['min']:.4f} max {s['max']:.4f} n={s['n']}{exact}")
    for error in section["errors"]:
        print(f"  CHECK FAILED: {error}")


def driver_line(section: dict, kind: str) -> str:
    """The one-line result of a ``--trace`` run, as the driver reads it."""
    return json.dumps({
        "correct": not section["errors"],
        "attempted": section["attempted"],
        "failed": section["failed"],
        "metrics": {
            name: {"value": s["median"], "unit": UNITS[name]}
            for name, s in section[kind].items()
        },
    })


def compare(path_a: str, path_b: str) -> int:
    """B against A: one row per workload x end-to-end metric; non-zero exit
    when any median worsened past its bound."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for side, path in ((a, path_a), (b, path_b)):
        if not side["comparable"]:
            print(f"{path} is stamped not comparable: {side['why_not']}")
            return 2
    if a["seconds"] != b["seconds"]:
        print("the two results ran different script counts (--seconds differs)")
        return 2
    worse = 0
    print(f"{'workload':18s} {'metric':16s} {'A':>12s} {'B':>12s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    for name in (n for n in a["workloads"] if n in b["workloads"]):
        for spec in SPEC["end_to_end"]:
            sa, sb = (side["workloads"][name]["end_to_end"][spec["name"]]
                      for side in (a, b))
            sign = 1 if spec["better"] == "lower" else -1
            change = sign * (sb["median"] - sa["median"]) / sa["median"]
            noise = max((s["max"] - s["min"]) / s["median"] for s in (sa, sb))
            # B's every run better than A's every run is resolved whatever the noise.
            separated = (sb["max"] < sa["min"]) if sign == 1 else (sb["min"] > sa["max"])
            if change > spec["bound"]:
                verdict, worse = "REGRESSION", worse + 1
            elif noise > spec["bound"] and not separated:
                verdict = "unresolved"
            else:
                verdict = "improved" if change < -spec["bound"] else "unchanged"
            print(f"{name:18s} {spec['name']:16s} {sa['median']:12.4f} "
                  f"{sb['median']:12.4f} {change:+9.1%} {spec['bound']:6.0%}  {verdict}")
    return 1 if worse else 0


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2011)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help=f"1/{QUICK_DIVISOR} of the counts, one repeat; "
                             "stamped not comparable")
    parser.add_argument("--json-out")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.quick:
        args.repeats = 1

    host = host_line()
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    chosen = [WORKLOADS[args.workload]] if args.workload else list(WORKLOADS.values())
    crowded = [w.name for w in chosen if w.workers > host["nproc"]]
    why_not = ("--quick" if args.quick else
               f"shard workers exceed nproc on {crowded}" if crowded else "")
    result = {"host": host, "seed": args.seed, "seconds": args.seconds,
              "comparable": not why_not, "why_not": why_not, "workloads": {}}
    for workload in chosen:
        section = result["workloads"][workload.name] = measure(workload, args, host)
        show(workload.name, section)
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(result, indent=1))
    print(f"\ncomparable: {result['comparable']} {why_not}")
    if args.workload and args.trace is not None:
        print(driver_line(section, "per_layer" if args.trace else "end_to_end"))
    return 1 if any(s["errors"] for s in result["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
