"""Self-test of the benchmark at tiny horizons.

    python3 -m pytest perfbench/tests

Every workload runs at a tiny horizon, plain and traced.  The result line must
carry exactly the metrics BENCHMARK.json declares, each with its unit, and
two invocations must agree on the output fingerprint and on every
simulated count.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
TINY = 20_000

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 7, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, *SPEC["command"][1:]),
           "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace), "--cycles", str(TINY)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result_of(proc) -> tuple[dict, str]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    match = re.search(r"fingerprint ([0-9a-f]{64})", proc.stdout)
    assert match, proc.stdout
    return result, match.group(1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, print_a = result_of(bench(workload, 0))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    _, print_b = result_of(bench(workload, 0))
    assert print_a == print_b


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_repeat(workload):
    result, print_a = result_of(bench(workload, 1))
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared
    again, print_b = result_of(bench(workload, 1))
    assert print_a == print_b
    counts = {n for n, unit in declared.items()
              if unit in ("count", "bool", "bytes", "cycles")
              or n.endswith(("utilization", "hit_ratio"))}
    assert {n: result["metrics"][n]["value"] for n in counts} == \
        {n: again["metrics"][n]["value"] for n in counts}


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
