"""Smoke test of the end-to-end benchmark: ``--quick`` over all six workloads,
traced run and output checks included, against the names in BENCHMARK.json."""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def run_quick(tmp_path, *extra):
    out = tmp_path / "quick.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--json-out", str(out), *extra],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text()), done.stdout


def test_quick_run_prints_every_declared_metric_and_exact_counts_repeat(tmp_path):
    result, stdout = run_quick(tmp_path)
    assert result["comparable"] is False
    assert set(result["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    declared = {kind: {m["name"] for m in SPEC[kind]}
                for kind in ("end_to_end", "per_layer")}
    for name, section in result["workloads"].items():
        assert not section["errors"], (name, section["errors"])
        assert section["failed"] == 0, name
        for kind, names in declared.items():
            assert set(section[kind]) == names, (name, kind)
            for metric in names:
                assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric)
                assert re.search(rf"^  {re.escape(metric)} ", stdout, re.M), metric
        assert section["per_layer"]["run.other_share"]["min"] >= 0, name
        spans = json.loads(Path(section["spans"][0]).read_text())
        assert spans["spans"] and spans["names"]

    # A second quick run of the SSI workload (the one whose counts depend on
    # which transaction aborts) must reproduce every exact count bit for bit.
    again, _ = run_quick(tmp_path, "--workload", "oncall_ssi", "--trace", "1")
    first = result["workloads"]["oncall_ssi"]["per_layer"]
    exact = [m for m, s in first.items() if s.get("exact")]
    assert len(exact) == 6
    for metric in exact:
        assert again["workloads"]["oncall_ssi"]["per_layer"][metric]["median"] \
            == first[metric]["median"], metric
