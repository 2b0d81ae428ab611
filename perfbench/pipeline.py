"""One socsim run in a fresh process: the library path of
``socsim run --check --log-events``.

    python3 perfbench/pipeline.py CONFIG OUT_DIR [--trace-out SPANS.json]

load_config -> build -> System.run -> run_checks -> build_report ->
write_outputs, each timed from outside.  The last line of stdout is one
JSON object with the timings, peak RSS, the conservation verdict of every
resource and the run's deterministic counts, read from public state.
With ``--trace-out`` the layer wrappers of tracer.py are installed first
and their totals are added to the result and written to SPANS.json.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from socsim import config, report, system as system_mod, verify  # noqa: E402

# verdict name -> the socsim.verify function that computes it
CHECKS = {"starvation": "check_starvation", "deadline": "check_deadlines",
          "priority_inversion": "check_priority_inversion",
          "quota": "check_quota"}


def _mean_wait(pairs) -> float:
    waits = [granted - requested for requested, granted in pairs]
    return sum(waits) / len(waits) if waits else 0.0


def read_counts(system, verdicts: dict, written: list[str]) -> dict:
    """Counts of simulated work, all from public state.  A change that
    leaves the simulated behaviour alone leaves every one of them equal."""
    cfg = system.cfg
    sim = system.sim
    horizon = sim.now
    bus = system.bus
    mem_port = next(p for p in system.ports if p.name == cfg.memory_port)
    mc = system.memctrl
    mon = system.monitor
    l2 = system.l2
    hits = sum(l2.hits.values()) if l2 else 0
    misses = sum(l2.misses.values()) if l2 else 0
    port_grants = sum(len(p.grants) for p in system.ports)
    port_guards = sum(p.arbiter.guard_grants for p in system.ports)
    counts = {
        "config.trace_records": len(cfg.trace_records),
        "workload.requests": sum(m.issued for m in system.masters),
        "kernel.events": sim.processed,
        "kernel.scheduled": sim.scheduled,
        "arbiter.grants": len(bus.grants) + port_grants,
        "arbiter.guard_grants": bus.arbiter.guard_grants + port_guards,
        "bus.grants": len(bus.grants),
        "bus.utilization": bus.busy_cycles / horizon,
        "bus.wait_mean_cycles": _mean_wait(
            (g.t_request, g.t_granted) for g in bus.grants),
        "l2.hits": hits,
        "l2.misses": misses,
        "l2.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "l2.writebacks": l2.writebacks if l2 else 0,
        "noc.mem.grants": len(mem_port.grants),
        "noc.mem.utilization": mem_port.busy_cycles / horizon,
        "noc.mem.wait_mean_cycles": _mean_wait(
            (g.t_request, g.t_granted) for g in mem_port.grants),
        "noc.guard_grants": port_guards,
        "mem.services": len(mc.records),
        "mem.utilization": mc.busy_cycles / horizon,
        "mem.queue_wait_mean_cycles": _mean_wait(
            (r.t_enqueued, r.t_started) for r in mc.records),
        "mem.refusals": mc.refusals,
        "monitor.attributions": len(mon.attributions),
        "monitor.stall_spans": sum(
            1 for ev in system.events if ev["kind"] == "stall_asserted"),
        "monitor.crossings": sum(q.crossings for q in mon.quotas.values()),
        "report.bytes": sum(os.path.getsize(p) for p in written),
        "system.retained_objects": (
            len(system.completed_txns)
            + sum(len(m.active) for m in system.masters)
            + len(bus.grants) + port_grants + len(mc.records)
            + len(mon.attributions) + len(mon.self_inflicted_events)
            + len(system.events)),
    }
    for name in CHECKS:
        counts[f"verify.{name}.pass"] = int(verdicts[name]["pass"])
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("out_dir")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)

    cfg = config.load_config(args.config)
    system = system_mod.build(cfg)
    t_built = time.perf_counter()
    system.run()
    t_ran = time.perf_counter()
    verdicts = verify.run_checks(system)
    t_checked = time.perf_counter()
    rep = report.build_report(system, verdicts)
    t_reported = time.perf_counter()
    written = report.write_outputs(system, rep, args.out_dir,
                                   log_events=True)
    t_written = time.perf_counter()

    result = {
        "horizon": system.sim.now,
        "setup_s": t_built - T_START,
        "run_s": t_ran - t_built,
        "check_s": t_checked - t_ran,
        "build_s": t_reported - t_checked,
        "write_s": t_written - t_reported,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "conservation": {name: entry["equal"]
                         for name, entry in rep["conservation"].items()},
        "counts": read_counts(system, verdicts, written),
    }
    if tracer is not None:
        result["counts"]["monitor.stalled_overlap_calls"] = tracer.calls(
            "ContentionMonitor.stalled_overlap")
        result["trace"] = {
            "layers": tracer.layers,
            "monitor.stalled_overlap_s": tracer.incl_s(
                "ContentionMonitor.stalled_overlap"),
            **{f"verify.{name}_s": tracer.incl_s(f"verify.{func}")
               for name, func in CHECKS.items()},
            "report.build_s": tracer.incl_s("report.build_report"),
            "report.write_s": tracer.incl_s("report.write_outputs"),
        }
        tracer.dump(args.trace_out)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
