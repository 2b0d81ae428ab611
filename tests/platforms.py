"""Random whole platforms: a shared, derandomized ``hypothesis`` strategy
and the helpers that run what it draws.

``platforms()`` draws a valid platform as ``(tree, trace)``: a config
tree and the text of its trace file, or None when no master replays one.
It draws 1-4 cores and 0-2 accelerators, every bus and crossbar policy,
fixed-priority ranks, the L2 on or off, memory FIFO depth 1, 2 or 8, an
optional second port with an occupancy override, up to two quotas in
either mode, up to two masters that replay a short generated trace
instead of a synthetic profile, and a deadline for some masters.
Horizons are a few thousand cycles, so a platform runs in milliseconds.

``platform_outputs`` runs a platform and returns every file a ``socsim
run --check --log-events`` writes, by name; comparing it between two
versions of the code proves them byte-identical on the drawn platforms.
``check_platform`` asserts the invariants of one platform, among them
that recording the completed transactions (``record_completions``)
changes no output byte and that the latency counters agree with them, and
``check_random_platforms`` runs it on as many drawn platforms as asked.
"""

import os
import tempfile

from hypothesis import given, seed, settings, strategies as st

from socsim.arbiter import POLICIES
from socsim.config import SCHEMA_VERSION, parse_config
from socsim.report import build_report, write_outputs
from socsim.system import build
from socsim.verify import EVIDENCE_CAP, run_checks

from completion_log import record_completions
from test_conservation import run_with_ledger

# every example is drawn the same way on every run and host
SETTINGS = dict(deadline=None, derandomize=True, database=None)

TRACE_FILE = "platform.trace"
MEM = (0x0, 0x100000)           # the memory port: base, size
DEV = (0x100000, 0x10000)       # the optional second port
# one master in ten, on average, has neither a trace nor a profile
_ACTIVE = st.sampled_from([True] * 9 + [False])


def _region(draw, port, span):
    """A base address, 64-aligned, with ``span`` bytes after it inside
    ``port``."""
    base, size = port
    return base + 64 * draw(st.integers(0, (size - span) // 64))


def _profile(draw, port):
    footprint = draw(st.sampled_from([256, 1024, 0x4000]))
    size = draw(st.sampled_from([8, 64]))
    profile = {
        "pattern": draw(st.sampled_from(["saturating", "periodic", "bursty"])),
        "kind_mix": draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
        "base": _region(draw, port, footprint + size),
        "footprint": footprint,
        "stride": draw(st.sampled_from([8, 64])),
        "size": size,
        "period": draw(st.integers(1, 200)),
        "burst_len": draw(st.integers(1, 6)),
        "phase": draw(st.integers(0, 100)),
    }
    count = draw(st.none() | st.integers(0, 60))
    if count is not None:
        profile["count"] = count
    return profile


def _trace_records(draw, master, port):
    """``(cycle, master, letter, addr, size)`` of one master's records,
    in cycle order."""
    records, cycle = [], 0
    for _ in range(draw(st.integers(1, 30))):
        cycle += draw(st.integers(0, 120))
        size = draw(st.sampled_from([8, 64]))
        records.append((cycle, master, draw(st.sampled_from("RW")),
                        _region(draw, port, size), size))
    return records


@st.composite
def platforms(draw):
    cores = draw(st.integers(1, 4))
    accelerators = draw(st.integers(0, 2))
    n = cores + accelerators
    bus_policy = draw(st.sampled_from(POLICIES))
    bus = {"policy": bus_policy}
    if bus_policy == "fixed_priority":
        ranks = draw(st.permutations(range(cores)))
        bus["priority"] = dict(enumerate(ranks))
    tree = {
        "schema_version": SCHEMA_VERSION,
        "sim": {"cycles": draw(st.integers(1000, 5000)),
                "seed": draw(st.integers(0, 1000))},
        "masters": {"cores": cores, "accelerators": accelerators},
        "bus": bus,
        "l2": {"enabled": draw(st.booleans()),
               "sets": draw(st.sampled_from([4, 64])),
               "ways": draw(st.sampled_from([4, 8]))},
        "noc": {"policy": draw(st.sampled_from(POLICIES))},
        "memory": {"fifo_capacity": draw(st.sampled_from([1, 2, 8]))},
        "qos": {"period": draw(st.sampled_from([300, 1000, 2500])),
                "guard_window": draw(st.sampled_from([20, 60, 150]))},
    }
    ports = [MEM]
    if draw(st.booleans()):
        ports.append(DEV)
        tree["noc"]["ports"] = [
            {"name": "mem", "base": MEM[0], "size": MEM[1]},
            {"name": "dev", "base": DEV[0], "size": DEV[1],
             "width": draw(st.sampled_from([4, 8])),
             "occupancy": draw(st.fixed_dictionaries({}, optional={
                 "read": st.integers(1, 8), "write": st.integers(1, 8)})),
             "device_read_latency": draw(st.integers(0, 20)),
             "device_write_latency": draw(st.integers(0, 20))}]

    quotas = []
    for master in draw(st.lists(st.integers(0, n - 1), max_size=2,
                                unique=True)):
        quota = {"master": master, "limit": draw(st.integers(0, 400)),
                 "mode": draw(st.sampled_from(["hw_stall", "interrupt"]))}
        if quota["mode"] == "interrupt":
            quota["action"] = draw(st.sampled_from(
                ["throttle_source", "log_only"]))
            quota["handler_latency"] = draw(st.integers(0, 100))
        quotas.append(quota)
    tree["qos"]["quotas"] = quotas

    replaying = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
    workloads, records = [], []
    for master in range(n):
        port = draw(st.sampled_from(ports))
        if master in replaying:
            records += _trace_records(draw, master, port)
        elif draw(_ACTIVE):
            workloads.append({"master": master,
                              "outstanding": draw(st.integers(1, 4)),
                              "profile": _profile(draw, port)})
    tree["workloads"] = workloads
    # deadlines about as long as an uncontended round trip to memory, so
    # that some are missed and some latencies land exactly on one
    tree["verify"] = {"deadlines": {
        master: draw(st.integers(5, 120))
        for master in draw(st.lists(st.integers(0, n - 1), max_size=n,
                                    unique=True))}}
    if not records:
        return tree, None
    tree["trace"] = TRACE_FILE
    # one file for every replaying master, merged in cycle order
    records.sort(key=lambda r: r[0])
    lines = ["# trace-format: v1"] + [
        f"{cycle} {master} {letter} 0x{addr:08x} {size}"
        for cycle, master, letter, addr, size in records]
    return tree, "\n".join(lines) + "\n"


# -- running a drawn platform ----------------------------------------------

def build_platform(tree, trace, directory: str):
    """The platform's ``System``, its trace file written to
    ``directory``."""
    if trace is not None:
        with open(os.path.join(directory, TRACE_FILE), "w") as fh:
            fh.write(trace)
    return build(parse_config(tree, base_dir=directory))


def outputs_of(system, directory: str) -> dict[str, bytes]:
    """Check and report a system that has run; every file written, by
    name."""
    report = build_report(system, run_checks(system))
    written = write_outputs(system, report, directory, log_events=True)
    out = {}
    for path in written:
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = fh.read()
    return dict(sorted(out.items()))


def platform_outputs(tree, trace, directory: str) -> dict[str, bytes]:
    """Run a platform: ``report.json``, every ``contention_*.csv`` and
    ``events.log``, by file name.  ``directory`` holds the trace and the
    output files."""
    system = build_platform(tree, trace, directory)
    system.run()
    return outputs_of(system, os.path.join(directory, "out"))


def latency_counters(system) -> list[tuple]:
    """Per master: ``(completed, latency_total, latency_max,
    deadline_misses)``, as the run counted them."""
    return [(m.completed, m.latency_total, m.latency_max, m.deadline_misses)
            for m in system.masters]


def latency_counters_from_log(system, completed) -> list[tuple]:
    """``latency_counters`` recomputed from the transactions ``system``
    completed."""
    counters = []
    for m in system.masters:
        latencies = [t.t_done - t.t_issued for t in completed
                     if t.owner == m.id]
        deadline = system.cfg.deadlines.get(m.id)
        misses = [] if deadline is None else [
            latency for latency in latencies if latency > deadline]
        counters.append((len(latencies), sum(latencies),
                         max(latencies, default=0), misses[:EVIDENCE_CAP]))
    return counters


def check_platform(tree, trace, directory: str):
    """Run a platform twice, the second time recording its completed
    transactions, and return the first run's ``System``.

    Raises AssertionError unless the first run's ledger balances, every
    memory service carries its owner's id, the two runs write the same
    bytes, and the first run's latency counters and deadline evidence
    are those recomputed from the second run's transactions.  Any other
    exception escapes as it is: a valid tree must raise nothing."""
    system = build_platform(tree, trace, directory)
    _, wrong = run_with_ledger(system)
    assert wrong == [], "; ".join(wrong[:10])
    assert all(r.slot == r.owner for r in system.memctrl.records)
    first = outputs_of(system, os.path.join(directory, "first"))
    recorded = build_platform(tree, trace, directory)
    completed = record_completions(recorded)
    recorded.run()
    assert outputs_of(recorded, os.path.join(directory, "out")) == first
    counted = latency_counters(system)
    recomputed = latency_counters_from_log(recorded, completed)
    assert counted == recomputed, f"latency counters {counted} != {recomputed}"
    return system


def check_random_platforms(max_examples: int, at_seed: int) -> None:
    """``check_platform`` on ``max_examples`` platforms drawn from
    ``at_seed``; raises on the first that breaks an invariant."""
    @seed(at_seed)
    @settings(max_examples=max_examples, **SETTINGS)
    @given(platforms())
    def check(platform):
        with tempfile.TemporaryDirectory() as directory:
            check_platform(*platform, directory)

    check()
