"""Run reports: one deterministic dict, rendered to JSON or CSV.

Nothing in a report depends on wall-clock time, filesystem layout or
iteration order of anything unordered, so two runs of the same config
and seed produce byte-identical files.
"""

from __future__ import annotations

import json
import os

REPORT_SCHEMA = "report-v1"
EVENTS_SCHEMA = "events-v1"


def _latency_stats(latencies: list[int]) -> dict:
    if not latencies:
        return {"count": 0, "total": 0, "mean": 0.0, "max": 0}
    total = sum(latencies)
    return {
        "count": len(latencies),
        "total": total,
        "mean": total / len(latencies),
        "max": max(latencies),
    }


def build_report(system, verdicts: dict | None = None) -> dict:
    cfg = system.cfg
    mon = system.monitor
    horizon = system.sim.now

    masters = []
    for m in system.masters:
        masters.append({
            "id": m.id,
            "kind": "core" if m.is_core else "accelerator",
            "issued": m.issued,
            "completed": m.completed,
            "latency": _latency_stats(m.latencies),
            "caused": mon.caused_total(m.id),
            "suffered": mon.suffered_total(m.id),
            "self_inflicted": mon.self_inflicted[m.id],
            "caused_per_period": list(mon.period_history[m.id]) + [mon.used[m.id]],
        })

    resources = {}
    conservation = {}
    bus = system.bus
    resources["bus"] = {
        "grants": len(bus.grants),
        "guard_grants": bus.arbiter.guard_grants,
        "busy_cycles": bus.busy_cycles,
        "utilization": bus.busy_cycles / horizon if horizon else 0.0,
        # a bus slot is the core that owns its requests
        "grants_per_master": _per_owner(bus.grants, cfg.cores),
        "matrix": _snapshot(bus.matrix),
    }
    for port in system.ports:
        resources[port.resource] = {
            "grants": len(port.grants),
            "guard_grants": port.arbiter.guard_grants,
            "busy_cycles": port.busy_cycles,
            "utilization": port.busy_cycles / horizon if horizon else 0.0,
            "grants_per_owner": _per_owner(port.grants, cfg.n_masters),
            "matrix": _snapshot(port.matrix),
        }
    per_initiator = {}
    for rec in system.memctrl.records:
        key = str(rec.slot)     # the initiator
        slot = per_initiator.setdefault(key, {"read": 0, "write": 0})
        slot[rec.kind] += 1
    resources["mem"] = {
        "services": len(system.memctrl.records),
        "busy_cycles": system.memctrl.busy_cycles,
        "utilization": system.memctrl.busy_cycles / horizon if horizon else 0.0,
        "refusals": system.memctrl.refusals,
        "services_per_initiator": per_initiator,
        "matrix": _snapshot(system.memctrl.matrix),
    }
    # report-v1 keeps this block, but it is not a proof: no log of the
    # charges is kept, so both totals are the matrix's.  The proof that
    # can fail is tests/test_conservation.py, a wait ledger rebuilt from
    # the resources' records alone
    for name, matrix in mon.matrices.items():
        total = matrix.total()
        conservation[name] = {
            "matrix_total": total, "logged_total": total, "equal": True}

    l2 = None
    if cfg.l2.enabled:
        c = system.l2
        l2 = {
            "hits": {str(k): v for k, v in sorted(c.hits.items())},
            "misses": {str(k): v for k, v in sorted(c.misses.items())},
            "bypasses": c.bypasses,
            "evictions": c.evictions,
            "writebacks": c.writebacks,
            "cross_partition_evictions": c.cross_partition_evictions,
            "cross_partition_pairs": {
                f"{a}->{b}": n
                for (a, b), n in sorted(c.cross_partition_pairs.items())},
            # report-v1 keeps the field; no config path repartitions
            "repartitions": 0,
        }

    quotas = []
    for master in sorted(mon.quotas):
        state = mon.quotas[master]
        quotas.append({
            "master": master,
            "limit": state.config.limit,
            "mode": state.config.mode,
            "crossings": state.crossings,
            "used_now": mon.used[master],
        })

    report = {
        "schema": REPORT_SCHEMA,
        "cycles": horizon,
        "seed": cfg.seed,
        "masters": masters,
        "resources": resources,
        "conservation": conservation,
        "l2": l2,
        "quotas": quotas,
        "events_logged": len(system.events),
        "kernel": {
            "scheduled": system.sim.scheduled,
            "processed": system.sim.processed,
            "pending_at_end": system.sim.pending(),
        },
    }
    if verdicts is not None:
        report["verdicts"] = verdicts
    return report


def _snapshot(matrix) -> list[list[int]]:
    # a report is a record of the run's end, not a live view of the matrix
    return [row[:] for row in matrix.counts]


def _per_owner(grants, n: int) -> list[int]:
    counts = [0] * n
    for g in grants:
        counts[g.owner] += 1
    return counts


# -- writers -------------------------------------------------------------

def render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def render_matrix_csv(resource: str, matrix: list[list[int]]) -> str:
    n = len(matrix)
    header = "causer\\sufferer," + ",".join(f"m{j}" for j in range(n))
    lines = [header]
    for i, row in enumerate(matrix):
        lines.append(f"m{i}," + ",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def _flatten(value, prefix: str, out: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            out.append((prefix, ";".join(str(v) for v in value)))
        else:
            for i, v in enumerate(value):
                _flatten(v, f"{prefix}[{i}]", out)
    else:
        out.append((prefix, str(value)))


def render_report_csv(report: dict) -> str:
    # the matrices have their own files; everything else flattens
    slim = {k: v for k, v in report.items()}
    slim["resources"] = {
        name: {k: v for k, v in res.items() if k != "matrix"}
        for name, res in report["resources"].items()}
    rows: list[tuple[str, str]] = []
    _flatten(slim, "", rows)
    return "key,value\n" + "\n".join(f"{k},{v}" for k, v in rows) + "\n"


def render_events(events: list[dict]) -> str:
    lines = [f"# {EVENTS_SCHEMA}"]
    for ev in events:
        rest = " ".join(f"{k}={v}" for k, v in ev.items()
                        if k not in ("t", "kind"))
        line = f"{ev['t']} {ev['kind']}"
        lines.append(f"{line} {rest}" if rest else line)
    return "\n".join(lines) + "\n"


def write_outputs(system, report: dict, out_dir: str, fmt: str = "json",
                  log_events: bool = False) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def emit(name: str, text: str) -> None:
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        written.append(path)

    if fmt == "json":
        emit("report.json", render_json(report))
    else:
        emit("report.csv", render_report_csv(report))
    for name, res in report["resources"].items():
        emit(f"contention_{name}.csv", render_matrix_csv(name, res["matrix"]))
    if log_events:
        emit("events.log", render_events(system.events))
    return written
