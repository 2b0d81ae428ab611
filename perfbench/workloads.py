"""The benchmark's workloads: config trees and traces made from a seed.

Each workload is a pure function of (seed, horizon).  The same seed gives
byte-identical inputs, and the trace of a shorter horizon is a prefix of
the trace of a longer one, so the horizon-scaling probe compares the same
traffic at two lengths.
"""

from __future__ import annotations

import json
import os
import random

# Simulated cycles per run.  mix6_quota is long enough that run_checks is
# at least a third of the wall time (the stalled_overlap scan grows with
# the square of the horizon); the other two are sized to run in about a
# second so a timed run holds many samples.
HORIZONS = {
    "mix6_quota": 4_000_000,
    "crowd_mem": 1_000_000,
    "l2_hot_replay": 1_000_000,
}

WORKLOADS = tuple(HORIZONS)


def _mix6_quota(seed: int, cycles: int) -> dict:
    # the ROADMAP's mix6 scenario, unchanged
    cores = [
        {"master": m, "outstanding": 4,
         "profile": {"pattern": "saturating", "kind_mix": 0.6,
                     "base": m * 0x100000, "footprint": 0x100000,
                     "size": 8}}
        for m in range(4)]
    accels = [
        {"master": m,
         "profile": {"pattern": "bursty", "period": 200, "burst_len": 8,
                     "size": 64, "base": 0x800000, "footprint": 0x10000}}
        for m in (4, 5)]
    return {
        "schema_version": 1,
        "sim": {"cycles": cycles, "seed": seed},
        "masters": {"cores": 4, "accelerators": 2},
        "qos": {"period": 10000, "guard_window": 100,
                "quotas": [
                    {"master": 1, "limit": 500, "mode": "hw_stall"},
                    {"master": 4, "limit": 800, "mode": "interrupt",
                     "handler_latency": 200}]},
        "workloads": cores + accels,
    }


def _crowd_mem(seed: int, cycles: int) -> dict:
    # the acceptance "crowd" fixture without its count cap
    return {
        "schema_version": 1,
        "sim": {"cycles": cycles, "seed": seed},
        "masters": {"cores": 6, "accelerators": 2},
        "l2": {"enabled": False},
        "qos": {"quotas": []},
        "workloads": [
            {"master": m, "outstanding": 2,
             "profile": {"pattern": "saturating", "kind_mix": 0.5,
                         "base": 0x40000 * m, "footprint": 16384,
                         "stride": 8, "size": 8}}
            for m in range(8)],
    }


L2_REPLAY_CORES = 4
L2_REPLAY_GAP = 24          # cycles between a core's records
L2_REPLAY_REGION = 8192     # one core's 2-way partition: 64 sets x 2 x 64 B


def l2_replay_trace(seed: int, cycles: int) -> str:
    """v1 trace: every L2_REPLAY_GAP cycles each core touches a random
    line of its own 8 KiB region, half of them writes."""
    rng = random.Random(seed)
    lines = ["# trace-format: v1"]
    for cycle in range(0, cycles, L2_REPLAY_GAP):
        for m in range(L2_REPLAY_CORES):
            addr = m * 0x100000 + rng.randrange(L2_REPLAY_REGION // 64) * 64
            kind = "W" if rng.random() < 0.5 else "R"
            lines.append(f"{cycle} {m} {kind} 0x{addr:08x} 8")
    return "\n".join(lines) + "\n"


def _l2_hot_replay(seed: int, cycles: int) -> dict:
    return {
        "schema_version": 1,
        "sim": {"cycles": cycles, "seed": seed},
        "masters": {"cores": L2_REPLAY_CORES, "accelerators": 0},
        "qos": {"quotas": []},
        "trace": "trace.txt",
    }


_TREES = {
    "mix6_quota": _mix6_quota,
    "crowd_mem": _crowd_mem,
    "l2_hot_replay": _l2_hot_replay,
}


def write_inputs(workload: str, seed: int, cycles: int, directory: str) -> str:
    """Write the workload's inputs into ``directory``; return the config
    path.  JSON is valid YAML, so the config loads through load_config."""
    os.makedirs(directory, exist_ok=True)
    tree = _TREES[workload](seed, cycles)
    if "trace" in tree:
        with open(os.path.join(directory, tree["trace"]), "w",
                  encoding="utf-8") as fh:
            fh.write(l2_replay_trace(seed, cycles))
    path = os.path.join(directory, "config.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tree, fh, indent=1)
        fh.write("\n")
    return path
