"""socsim benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Inputs are generated from the
seed into .perfbench_work/, then the run-check-report pipeline
(pipeline.py) runs in fresh single-threaded subprocesses, one at a time,
until S seconds have passed (at least MIN_RUNS times).

Every run is checked: it must exit cleanly, every resource's conservation
block must say equal, and its output fingerprint and simulated counts must
equal those of the other runs of the same workload and seed.  A run that
fails any of these counts as failed.  Verdict failures are results of the
model, not run failures.  Each fingerprint is also compared with the one
recorded in fingerprints.json, and the match is reported.

--trace 0 prints the end-to-end metrics (medians over the runs).
--trace 1 makes untraced runs at the full and at half the horizon, then
one traced run at each, and prints the per-layer metrics.  The last line
of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import LAYERS  # noqa: E402
from workloads import HORIZONS, WORKLOADS, write_inputs  # noqa: E402

FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
WORK = os.path.join(ROOT, ".perfbench_work")
MIN_RUNS = 2
SCALE_PAIRS = 3
RUN_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "sim_cycles_per_s": "cycles/s",
    "check_s": "s", "report_s": "s", "peak_rss_mb": "MB",
}


class RunFailed(Exception):
    pass


def fingerprint(out_dir: str) -> str:
    """sha256 over report.json without its verdicts, every
    contention_*.csv and events.log."""
    digest = hashlib.sha256()
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        rep = json.load(fh)
    rep.pop("verdicts", None)
    digest.update(json.dumps(rep, indent=2).encode())
    names = sorted(n for n in os.listdir(out_dir)
                   if n.startswith("contention_") and n.endswith(".csv"))
    for name in names + ["events.log"]:
        digest.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def run_pipeline(config_path: str, out_dir: str,
                 trace_out: str | None = None) -> dict:
    """One pipeline run in a fresh process; returns its result with the
    parent-side wall time and the output fingerprint added."""
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [sys.executable, os.path.join(HERE, "pipeline.py"),
           config_path, out_dir]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RunFailed(f"pipeline exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    broken = sorted(n for n, ok in result["conservation"].items() if not ok)
    if broken:
        raise RunFailed(f"conservation broken on {', '.join(broken)}")
    result["wall_s"] = wall
    result["fingerprint"] = fingerprint(out_dir)
    return result


class Reference:
    """The first good run's fingerprint and counts; later runs of the same
    workload and seed must repeat them exactly."""

    def __init__(self) -> None:
        self.fingerprint: str | None = None
        self.counts: dict | None = None

    def check(self, result: dict) -> None:
        if self.fingerprint is None:
            self.fingerprint = result["fingerprint"]
            self.counts = dict(result["counts"])
            return
        if result["fingerprint"] != self.fingerprint:
            raise RunFailed(f"fingerprint {result['fingerprint']} differs "
                            f"from {self.fingerprint}")
        differ = sorted(k for k in self.counts.keys() & result["counts"]
                        if self.counts[k] != result["counts"][k])
        if differ:
            raise RunFailed(f"counts differ between runs: {differ}")


def end_to_end(result: dict) -> dict:
    return {
        "wall_s": result["wall_s"],
        "setup_s": result["setup_s"],
        "sim_cycles_per_s": result["horizon"] / result["run_s"],
        "check_s": result["check_s"],
        "report_s": result["build_s"] + result["write_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


RUN_ERRORS = (RunFailed, subprocess.TimeoutExpired, ValueError, KeyError)


class Runner:
    """Starts pipeline runs and counts the attempted and the failed."""

    def __init__(self, log) -> None:
        self.log = log
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, config_path: str, out_dir: str,
            ref: Reference, trace_out: str | None = None) -> dict:
        self.attempted += 1
        result = run_pipeline(config_path, out_dir, trace_out)
        ref.check(result)
        self.log(f"run {self.attempted} ({label}): wall "
                 f"{result['wall_s']:.3f} s, fingerprint "
                 f"{result['fingerprint'][:16]}")
        return result

    def fail(self, exc: Exception) -> None:
        self.failed += 1
        self.log(f"run {self.attempted}: FAILED: {exc}")


def timed_runs(runner: Runner, config_path: str, out_dir: str,
               seconds: float, ref: Reference) -> list[dict]:
    """Repeat untraced runs until ``seconds`` have passed."""
    good = []
    started = 0
    t0 = time.perf_counter()
    while started < MIN_RUNS or time.perf_counter() - t0 < seconds:
        started += 1
        try:
            good.append(runner.run("timed", config_path, out_dir, ref))
        except RUN_ERRORS as exc:
            runner.fail(exc)
    return good


def _ratio(full: float, half: float) -> float:
    # 0 when the layer did no work at either horizon
    return full / half if half > 0 else 0.0


def layer_metrics(full: dict, half: dict, plain: list[dict],
                  plain_half: list[dict]) -> dict:
    """Per-layer metrics: counts and layer times of the traced run
    ``full``, ratios against the traced half-horizon run ``half``, and
    host-time figures from the untraced runs ``plain`` and ``plain_half``."""
    layers = full["trace"]["layers"]
    half_layers = half["trace"]["layers"]
    out = dict(full["counts"])
    for layer in LAYERS.values():
        out[f"{layer}.calls"] = layers[layer]["calls"]
        out[f"{layer}.incl_s"] = layers[layer]["incl_s"]
        out[f"{layer}.self_s"] = layers[layer]["self_s"]
        out[f"scale.{layer}.self_s_ratio"] = _ratio(
            layers[layer]["self_s"], half_layers[layer]["self_s"])
    for key in ("monitor.stalled_overlap_s", "verify.starvation_s",
                "verify.deadline_s", "verify.priority_inversion_s",
                "verify.quota_s", "report.build_s", "report.write_s"):
        out[key] = full["trace"][key]

    def median(runs: list[dict], key: str) -> float:
        return statistics.median(r[key] for r in runs)

    run_s = median(plain, "run_s")
    out["kernel.ns_per_event"] = run_s * 1e9 / full["counts"]["kernel.events"]
    out["trace.overhead_s"] = full["wall_s"] - median(plain, "wall_s")
    out["scale.check_s_ratio"] = _ratio(median(plain, "check_s"),
                                        median(plain_half, "check_s"))
    out["scale.cycles_per_s_ratio"] = _ratio(
        full["horizon"] / run_s,
        half["horizon"] / median(plain_half, "run_s"))
    return out


def traced_pass(runner: Runner, config_path: str, half_path: str,
                work: str, ref: Reference) -> dict:
    """Untraced full- and half-horizon runs, interleaved so that drift in
    host speed hits both alike, then one traced run at each horizon.
    Tracing must leave the simulated output unchanged."""
    out_dir = os.path.join(work, "out")
    half_dir = os.path.join(work, "out_half")
    half_ref = Reference()
    plain, plain_half = [], []
    for _ in range(SCALE_PAIRS):
        plain.append(runner.run("full", config_path, out_dir, ref))
        plain_half.append(runner.run("half", half_path, half_dir, half_ref))
    full = runner.run("full, traced", config_path, out_dir, ref,
                      os.path.join(work, "spans.json"))
    half = runner.run("half, traced", half_path, half_dir, half_ref,
                      os.path.join(work, "spans_half.json"))
    return layer_metrics(full, half, plain, plain_half)


def load_recorded() -> dict:
    try:
        with open(FINGERPRINTS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="socsim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cycles", type=int,
                        help="override the workload's horizon (self-test)")
    parser.add_argument("--record", action="store_true",
                        help="store this run's fingerprint and counts in "
                             "fingerprints.json")
    args = parser.parse_args(argv)

    def log(msg: str) -> None:
        print(f"[{args.workload} seed {args.seed}] {msg}", flush=True)

    if not os.path.isfile(os.path.join(ROOT, "src", "socsim", "__init__.py")):
        print(f"no socsim sources under {os.path.join(ROOT, 'src')}; run "
              "from the root of a socsim checkout", file=sys.stderr)
        return 2

    cycles = args.cycles or HORIZONS[args.workload]
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    config_path = write_inputs(args.workload, args.seed, cycles,
                               os.path.join(work, "inputs"))
    ref = Reference()
    runner = Runner(log)

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        half_path = write_inputs(args.workload, args.seed, cycles // 2,
                                 os.path.join(work, "inputs_half"))
        try:
            layer = traced_pass(runner, config_path, half_path, work, ref)
        except RUN_ERRORS as exc:
            runner.fail(exc)
        else:
            for name, value in sorted(layer.items()):
                metrics[name] = (value, unit_of(name))
                log(f"{name:34s} {value:.6g} {unit_of(name)}")
            log(f"spans written to {os.path.relpath(work, ROOT)}/spans.json")
        metrics["failed_runs"] = (runner.failed, "count")
    else:
        good = timed_runs(runner, config_path, os.path.join(work, "out"),
                          args.seconds, ref)
        if good:
            samples = [end_to_end(r) for r in good]
            for name, unit in END_TO_END.items():
                q1, med, q3 = quartiles([s[name] for s in samples])
                metrics[name] = (med, unit)
                log(f"{name:18s} median {med:.6g} {unit}  "
                    f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples)})")
    log(f"failed_runs {runner.failed} of {runner.attempted} attempted")

    if ref.fingerprint is not None:
        recorded = load_recorded().get(args.workload, {}).get(str(args.seed))
        if args.cycles:
            state = "not compared (horizon overridden)"
        elif recorded is None:
            state = "none recorded for this seed"
        elif (recorded["fingerprint"] == ref.fingerprint
              and all(ref.counts.get(k) == v
                      for k, v in recorded["counts"].items())):
            state = "matches the recorded one"
        else:
            state = "DIFFERS from the recorded one"
        log(f"fingerprint {ref.fingerprint}: {state}")
        if args.record and not args.cycles:
            table = load_recorded()
            table.setdefault(args.workload, {})[str(args.seed)] = {
                "fingerprint": ref.fingerprint,
                "counts": dict(sorted(ref.counts.items()))}
            with open(FINGERPRINTS, "w", encoding="utf-8") as fh:
                json.dump(table, fh, indent=1, sort_keys=True)
                fh.write("\n")

    print(json.dumps({
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_ratio") or name.endswith("utilization"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_cycles"):
        return "cycles"
    if name.endswith(".pass"):
        return "bool"
    if name == "kernel.ns_per_event":
        return "ns"
    if name == "report.bytes":
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
