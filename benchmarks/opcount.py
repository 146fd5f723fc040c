"""Executed bytecodes per committed transaction on one serial workload.

    python benchmarks/opcount.py --workload W [--scripts N] [--seed S]

Builds workload ``W`` of ``benchmarks/e2e/workloads.py`` (imported as it
is), connects, installs it and drives the ~100-script warm-up untraced,
exactly as a benchmark repeat does (``repeat.drive``).  It then drives
``N`` more scripts with ``sys.settrace`` reporting every executed opcode
and prints the count divided by the scripts that committed.

The count is exact: it depends on the interpreter version, the seed and
the code, never on the host or its load, so two commits can be compared
where their wall-clock difference would sit inside the noise.  The
process re-executes itself under ``PYTHONHASHSEED=0`` (set iteration
order is part of the count).  Serial workloads only: opcodes run by
worker threads or processes would go uncounted.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

E2E = Path(__file__).resolve().parent / "e2e"


class OpcodeCounter:
    """A ``sys.settrace`` hook that counts opcode events in every frame
    entered while it is installed."""

    def __init__(self):
        self.count = 0

    def _global(self, frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self._local

    def _local(self, frame, event, arg):
        if event == "opcode":
            self.count += 1
        return self._local

    def run(self, fn, *args):
        sys.settrace(self._global)
        try:
            return fn(*args)
        finally:
            sys.settrace(None)


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scripts", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    sys.path[:0] = [str(E2E), str(E2E.parents[1] / "src")]
    import repro
    from repeat import drive
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if workload.workers or workload.connect.get("executor") != "serial":
        print(f"{args.workload} is not serial: worker opcodes would go uncounted")
        return 2
    inputs, warmup = workload.build(args.seed, args.scripts)
    client = repro.connect(**workload.connect)
    try:
        inputs.install(client)
        sessions = [client.session(f"c{i}") for i in range(workload.clients)]
        drive(client, sessions, warmup)
        counter = OpcodeCounter()
        window = counter.run(drive, client, sessions, inputs.rounds)
    finally:
        client.close(checkpoint=False)
    committed = len(window["committed"])
    print(f"{args.workload}: seed {args.seed}, {window['attempted']} scripts, "
          f"{committed} committed, {counter.count} bytecodes, "
          f"{counter.count / committed:.1f} per committed transaction")
    return 0


if __name__ == "__main__":
    sys.exit(main())
