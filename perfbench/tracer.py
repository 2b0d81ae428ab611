"""Timing wrappers installed around socsim's layer boundaries.

Everything here patches the library from outside; nothing under ``src/``
knows it is being traced.  Each wrapped call is a span.  Per span name
and per layer the tracer keeps calls, inclusive seconds and self seconds
(inclusive minus the spans nested inside it).  A layer's inclusive time
counts only its outermost spans, so a layer that re-enters itself (the
bus poking itself after a completion) is not counted twice.

Every event the kernel dispatches is wrapped at ``Simulator.schedule``
and charged to the layer of the module that defines the handler.
"""

from __future__ import annotations

import json
import time
from functools import partial

# module -> layer name used in the benchmark's metrics
LAYERS = {
    "socsim.config": "config",
    "socsim.workload": "workload",
    "socsim.kernel": "kernel",
    "socsim.arbiter": "arbiter",
    "socsim.bus": "bus",
    "socsim.cache": "l2",
    "socsim.noc": "noc",
    "socsim.memctrl": "mem",
    "socsim.monitor": "monitor",
    "socsim.verify": "verify",
    "socsim.report": "report",
    "socsim.system": "system",
}

# Raw spans kept for the spans file.  A 4 M-cycle run has millions of
# spans, so only the first ones are kept; the aggregates cover them all.
SPAN_CAP = 20000

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        # open spans: [span_id, t0, seconds of nested spans]
        self._stack: list[list] = []
        self._depth = dict.fromkeys(LAYERS.values(), 0)
        self.layers = {layer: {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
                       for layer in LAYERS.values()}
        self.names: dict[str, dict] = {}
        self.spans: list[tuple] = []
        self._handlers: dict[tuple[str, str], tuple[str, dict]] = {}
        self._next_id = 0

    def _stats(self, layer: str, name: str) -> dict:
        stats = self.names.get(name)
        if stats is None:
            stats = self.names[name] = {"name": name, "layer": layer,
                                        "calls": 0, "incl_s": 0.0,
                                        "self_s": 0.0}
        return stats

    def _timed(self, layer: str, name_stats: dict, fn, args, kwargs):
        stack = self._stack
        depth = self._depth
        span_id = self._next_id
        self._next_id += 1
        outermost = depth[layer] == 0
        depth[layer] += 1
        frame = [span_id, _clock(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _clock()
            stack.pop()
            depth[layer] -= 1
            incl = t1 - frame[1]
            own = incl - frame[2]
            if stack:
                stack[-1][2] += incl
            name_stats["calls"] += 1
            name_stats["incl_s"] += incl
            name_stats["self_s"] += own
            layer_stats = self.layers[layer]
            layer_stats["calls"] += 1
            layer_stats["self_s"] += own
            if outermost:
                layer_stats["incl_s"] += incl
            if len(self.spans) < SPAN_CAP:
                parent = stack[-1][0] if stack else None
                self.spans.append((span_id, parent, name_stats["name"],
                                   frame[1], t1))

    def wrap(self, layer: str, name: str, fn):
        name_stats = self._stats(layer, name)
        timed = self._timed

        def traced(*args, **kwargs):
            return timed(layer, name_stats, fn, args, kwargs)

        return traced

    def handler(self, action):
        """Wrap a scheduled kernel event, named after its handler."""
        key = (getattr(action, "__module__", ""),
               getattr(action, "__qualname__", type(action).__name__))
        found = self._handlers.get(key)
        if found is None:
            layer = LAYERS.get(key[0], "system")
            found = self._handlers[key] = (
                layer, self._stats(layer, f"event:{key[1]}"))
        return partial(self._timed, found[0], found[1], action, (), {})

    def calls(self, name: str) -> int:
        return self.names.get(name, {}).get("calls", 0)

    def incl_s(self, name: str) -> float:
        return self.names.get(name, {}).get("incl_s", 0.0)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": self.layers, "names": self.names,
                       "span_cap": SPAN_CAP,
                       "spans": [{"id": s[0], "parent": s[1], "name": s[2],
                                  "start": s[3], "end": s[4]}
                                 for s in self.spans]},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")


def install(tracer: Tracer) -> None:
    """Patch socsim's layer boundaries to report to ``tracer``.

    Call before ``build``, so components pick up the patched methods.
    """
    from socsim import (arbiter, bus, cache, config, kernel, memctrl,
                        monitor, noc, report, system, verify, workload)

    # the event wrapper is made outside the schedule span, so the
    # kernel's self time holds only the queue push
    sched = tracer.wrap("kernel", "Simulator.schedule",
                        kernel.Simulator.schedule)

    def schedule(sim, time_, rank, action):
        return sched(sim, time_, rank, tracer.handler(action))

    kernel.Simulator.schedule = schedule

    entry_points = [
        (kernel.Simulator, "run", "kernel"),
        (config, "load_config", "config"),
        (config, "parse_config", "config"),
        # the trace scanners as the config parser calls them
        (config, "lint_trace", "workload"),
        (config, "parse_trace", "workload"),
        (workload.TraceStream, "__init__", "workload"),
        (workload.TraceStream, "get", "workload"),
        (workload.SyntheticStream, "get", "workload"),
        (system.System, "__init__", "system"),
        (system.System, "run", "system"),
        (system.System, "_slave_done", "system"),
        (system.Master, "try_issue", "system"),
        (system.Master, "complete", "system"),
        (arbiter.Arbiter, "grant", "arbiter"),
        (monitor.ContentionMonitor, "attribute", "monitor"),
        (monitor.ContentionMonitor, "attribute_self", "monitor"),
        (monitor.ContentionMonitor, "stalled_overlap", "monitor"),
        (bus.SharedBus, "issue", "bus"),
        (bus.SharedBus, "poke", "bus"),
        (cache.L2Cache, "accept", "l2"),
        (cache.L2Cache, "fill_returned", "l2"),
        (noc.Crossbar, "inject", "noc"),
        (noc.CrossbarPort, "arrival", "noc"),
        (noc.CrossbarPort, "poke", "noc"),
        (noc.CrossbarPort, "retry", "noc"),
        (memctrl.MemoryController, "try_accept", "mem"),
        (memctrl.MemoryController, "poke", "mem"),
        (memctrl.MemoryController, "blame_blocked", "mem"),
        (verify, "run_checks", "verify"),
        (verify, "check_starvation", "verify"),
        (verify, "check_deadlines", "verify"),
        (verify, "check_priority_inversion", "verify"),
        (verify, "check_quota", "verify"),
        (report, "build_report", "report"),
        (report, "write_outputs", "report"),
    ]
    for owner, attr, layer in entry_points:
        name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        setattr(owner, attr, tracer.wrap(layer, name, getattr(owner, attr)))
