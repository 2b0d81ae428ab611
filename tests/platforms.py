"""Random whole platforms: a shared, derandomized ``hypothesis`` strategy
and the helpers that run what it draws.

``platforms()`` draws a valid platform as ``(tree, trace)``: a config
tree and the text of its trace file, or None when no master replays one.
It draws 1-4 cores and 0-2 accelerators, every bus and crossbar policy,
fixed-priority ranks, a bus occupancy override, the L2 on or off with
explicit partitions (shared ways included) or cacheable ranges, memory
FIFO depth 1, 2 or 8, crossbar and memory latencies, an optional second
port with an occupancy override, up to two quotas in either mode, a
monitored subset, up to two masters that replay a short generated trace
instead of a synthetic profile, a deadline for some masters and a
starvation window.  Horizons are a few thousand cycles, so a platform
runs in milliseconds.  Importing this module holds hypothesis's pool of
constants from local modules empty, so what is drawn does not depend on
the literals in ``src/``.
``bus_bound_platforms()`` draws the narrower platforms on which the
shared bus is the bottleneck, and ``inversion_control`` counts on how
many of them the priority inversion check catches the honest arbiter
and ``WorstRankedArbiter``.

``invalid_platforms()`` corrupts a drawn platform in 1-3 places, and
``problems_digest`` hashes what the config parser says of as many of
them as asked: each problem list, or the parsed ``Config``.

``platform_outputs`` runs a platform and returns every file a ``socsim
run --check --log-events`` writes, by name; comparing it between two
versions of the code proves them byte-identical on the drawn platforms.
``check_platform`` asserts the invariants of one platform, among them
that recording the completed transactions (``record_completions``)
changes no output byte and that the latency counters agree with them, and
``check_random_platforms`` runs it on as many drawn platforms as asked.
``outputs_digest`` hashes the outputs of as many drawn platforms as
asked into one sha256.  Run as a script it prints that digest, or with
``problems`` the ``problems_digest``, so that two source trees can be
compared.
"""

import copy
import hashlib
import os
import sys
import tempfile

from hypothesis import given, seed, settings, strategies as st
from hypothesis.internal.conjecture import providers
from hypothesis.internal.constants_ast import Constants

from socsim.arbiter import POLICIES
from socsim.config import SCHEMA_VERSION, parse_config
from socsim.errors import ConfigError
from socsim.report import build_report, write_outputs
from socsim.system import build
from socsim.verify import EVIDENCE_CAP, check_priority_inversion, run_checks

# every example is drawn the same way on every run and host
SETTINGS = dict(deadline=None, derandomize=True, database=None)


def _hold_local_constants_empty() -> None:
    """Draw no constant from the source: hypothesis mixes the literals it
    finds in local modules into what it draws, so adding or deleting one
    in ``src/`` would change the drawn examples, and every digest, with
    no change in behaviour.  Holds for the whole process, from import."""
    if not hasattr(providers, "_get_local_constants") \
            or not hasattr(providers, "CONSTANTS_CACHE"):
        raise ImportError(
            "hypothesis no longer has providers._get_local_constants or "
            "CONSTANTS_CACHE; the drawn platforms would depend on the "
            "literals in src/")
    empty = Constants()
    providers._get_local_constants = lambda: empty
    # choices already filtered from the local constants, if any were drawn
    providers.CONSTANTS_CACHE.cache.clear()


_hold_local_constants_empty()

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


def _bus_occupancy():
    """A bus occupancy override: read and write cycles, and per-size
    tables for either kind, each part optional."""
    table = st.dictionaries(st.sampled_from([8, 64]), st.integers(1, 8),
                            min_size=1)
    return st.fixed_dictionaries({}, optional={
        "read": st.integers(1, 8), "write": st.integers(1, 8),
        "sizes": st.fixed_dictionaries({}, optional={
            "read": table, "write": table})})


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
    bus.update(draw(st.fixed_dictionaries({}, optional={
        "occupancy": _bus_occupancy()})))
    ways = draw(st.sampled_from([4, 8]))
    l2 = {"enabled": draw(st.booleans()),
          "sets": draw(st.sampled_from([4, 64])), "ways": ways}
    if draw(st.booleans()):
        # every core gets one or two ways of its own choosing, so
        # partitions may share ways and evict each other's lines
        l2["partitions"] = {core: draw(st.lists(
            st.integers(0, ways - 1), min_size=1, max_size=2,
            unique=True)) for core in range(cores)}
    if draw(st.booleans()):
        # only what lies in these ranges is cached; the rest bypasses
        l2["cacheable"] = [
            {"base": base, "size": size} for base, size in draw(st.lists(
                st.sampled_from([(0x0, 0x1000), (0x0, 0x80000),
                                 (0x40000, 0x40000), (0x80000, 0x80000)]),
                min_size=1, max_size=2, unique=True))]
    tree = {
        "schema_version": SCHEMA_VERSION,
        "sim": {"cycles": draw(st.integers(1000, 5000)),
                "seed": draw(st.integers(0, 1000))},
        "masters": {"cores": cores, "accelerators": accelerators},
        "bus": bus,
        "l2": l2,
        "noc": {"policy": draw(st.sampled_from(POLICIES)),
                **draw(st.fixed_dictionaries({}, optional={
                    "routing_latency": st.integers(0, 4),
                    "response_latency": st.integers(0, 4)}))},
        "memory": {"fifo_capacity": draw(st.sampled_from([1, 2, 8])),
                   **draw(st.fixed_dictionaries({}, optional={
                       "read_latency": st.integers(1, 60),
                       "write_latency": st.integers(1, 60)}))},
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
    if draw(st.booleans()):
        # the resources whose charges meter the quotas, some or none
        names = ["bus", "noc.mem", "mem"]
        if DEV in ports:
            names.append("noc.dev")
        tree["qos"]["monitored"] = draw(st.lists(st.sampled_from(names),
                                                 unique=True))

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
    tree["verify"].update(draw(st.fixed_dictionaries({}, optional={
        "starvation_window": st.integers(20, 2000)})))
    if not records:
        return tree, None
    tree["trace"] = TRACE_FILE
    # one file for every replaying master, merged in cycle order
    records.sort(key=lambda r: r[0])
    lines = ["# trace-format: v1"] + [
        f"{cycle} {master} {letter} 0x{addr:08x} {size}"
        for cycle, master, letter, addr, size in records]
    return tree, "\n".join(lines) + "\n"


# values of a type the schema never wants where they land, or rarely
_WRONG_TYPE = st.sampled_from(
    [None, True, 1.5, "junk", "", [], [1], {}, {"junk": 1}])
# see invalid_platforms for the bounds
_JUNK_INT = st.integers(-2, 64)


def _paths(node, path=()):
    """The path of every value below ``node``, parents first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


@st.composite
def invalid_platforms(draw):
    """A drawn platform with 1-3 corruptions, as ``(tree, trace)``: a
    value anywhere in the tree replaced by one of a wrong type or by a
    small junk integer, or an unknown key added to a mapping.  Most such
    trees are invalid; some still parse, and then must run.

    Junk integers stay within [-2, 64] because the size of some values
    is the size of what the code allocates: ``l2.ways`` makes the parser
    allocate the default partition lists, and ``l2.sets`` x ``l2.ways``
    and the masters x masters matrices make the build allocate in
    proportion, so two corruptions of 4096 would already build 16 M
    cache lines."""
    tree, trace = draw(platforms())
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["wrong type", "junk integer",
                                     "unknown key"]))
        if kind == "unknown key":
            mappings = [()] + [path for path in _paths(tree)
                               if isinstance(_at(tree, path), dict)]
            _at(tree, draw(st.sampled_from(mappings)))["junk"] = \
                draw(_JUNK_INT)
        else:
            path = draw(st.sampled_from(list(_paths(tree))))
            # a copy, so that no corruption lands in a shared value
            _at(tree, path[:-1])[path[-1]] = copy.deepcopy(draw(
                _WRONG_TYPE if kind == "wrong type" else _JUNK_INT))
    return tree, trace


@st.composite
def bus_bound_platforms(draw):
    """A platform whose shared bus is its bottleneck, drawn as ``(tree,
    None)``: 2-4 cores, no accelerator and no quota, a fixed-priority bus
    with drawn ranks, the L2 off, a wide memory port and memory that
    answers in 1 or 2 cycles, as in acceptance criterion 11.  At least
    two cores saturate with two or more transactions outstanding, so a
    better-ranked core always has a request waiting while a worse one
    is granted."""
    cores = draw(st.integers(2, 4))
    ranks = draw(st.permutations(range(cores)))
    saturating = draw(st.lists(st.integers(0, cores - 1), min_size=2,
                               unique=True))
    workloads = []
    for master in range(cores):
        profile = _profile(draw, MEM)
        outstanding = draw(st.integers(1, 4))
        if master in saturating:
            profile["pattern"] = "saturating"
            profile.pop("count", None)
            outstanding = max(outstanding, 2)
        if master in saturating or draw(_ACTIVE):
            workloads.append({"master": master, "outstanding": outstanding,
                              "profile": profile})
    return {
        "schema_version": SCHEMA_VERSION,
        "sim": {"cycles": draw(st.integers(1000, 5000)),
                "seed": draw(st.integers(0, 1000))},
        "masters": {"cores": cores, "accelerators": 0},
        "bus": {"policy": "fixed_priority", "priority": dict(enumerate(ranks))},
        "l2": {"enabled": False},
        "noc": {"policy": draw(st.sampled_from(POLICIES)),
                "ports": [{"name": "mem", "base": MEM[0], "size": MEM[1],
                           "width": 64}]},
        "memory": {"read_latency": draw(st.integers(1, 2)),
                   "write_latency": draw(st.integers(1, 2))},
        "qos": {"quotas": []},
        "workloads": workloads,
    }, None


class WorstRankedArbiter:
    """A broken bus arbiter for the priority inversion check's negative
    control: it always grants the worst-ranked requester under ``ranks``
    (slot -> rank, a slot's own number by default), never through a
    guard, and sees no stall."""

    last_was_guard = False

    def __init__(self, ranks: dict[int, int]):
        self.order = lambda slot: (ranks.get(slot, slot), slot)

    def grant(self, requesters, now):
        return max(requesters, key=self.order) if requesters else None

    def is_stalled(self, slot):
        return False


# -- running a drawn platform ----------------------------------------------

def platform_config(tree, trace, directory: str):
    """The platform's ``Config``, its trace file written to
    ``directory``."""
    if trace is not None:
        with open(os.path.join(directory, TRACE_FILE), "w") as fh:
            fh.write(trace)
    return parse_config(tree, base_dir=directory)


def build_platform(tree, trace, directory: str):
    """The platform's ``System``, its trace file written to
    ``directory``."""
    return build(platform_config(tree, trace, directory))


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
    # imported here, so that ``outputs_digest`` needs socsim alone and
    # can run against the sources of an earlier commit
    from completion_log import record_completions
    from test_conservation import run_with_ledger

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


def outputs_digest(n: int, at_seed: int) -> str:
    """One sha256 over ``platform_outputs`` of ``n`` platforms drawn from
    ``at_seed``, each file by name; two source trees that give the same
    digest write the same bytes on every drawn platform."""
    digest = hashlib.sha256()

    @seed(at_seed)
    @settings(max_examples=n, **SETTINGS)
    @given(platforms())
    def run(platform):
        with tempfile.TemporaryDirectory() as directory:
            for name, data in platform_outputs(*platform, directory).items():
                digest.update(name.encode() + b"\0")
                digest.update(data)

    run()
    return digest.hexdigest()


def problems_digest(n: int, at_seed: int) -> str:
    """One sha256 over ``n`` trees drawn by ``invalid_platforms`` from
    ``at_seed``: each tree's problem list, or ``repr`` of its ``Config``
    when it parses; two source trees that give the same digest say the
    same of every drawn tree."""
    digest = hashlib.sha256()

    @seed(at_seed)
    @settings(max_examples=n, **SETTINGS)
    @given(invalid_platforms())
    def run(platform):
        with tempfile.TemporaryDirectory() as directory:
            try:
                said = [repr(platform_config(*platform, directory))]
            except ConfigError as exc:
                said = exc.problems
            # the temporary directory is in the trace's "cannot read"
            for line in said:
                digest.update(line.replace(directory, "<dir>").encode())
                digest.update(b"\n")
            digest.update(b"\0")

    run()
    return digest.hexdigest()


def inversion_control(max_examples: int, at_seed: int) -> list[int]:
    """``[drawn, caught honest, caught sabotaged]`` over ``max_examples``
    platforms drawn by ``bus_bound_platforms`` from ``at_seed``: how many
    were drawn, and on how many the priority inversion check fails under
    the bus's own arbiter and under ``WorstRankedArbiter``."""
    counts = [0, 0, 0]

    @seed(at_seed)
    @settings(max_examples=max_examples, **SETTINGS)
    @given(bus_bound_platforms())
    def run(platform):
        tree, _ = platform
        counts[0] += 1
        for caught_at, sabotaged in ((1, False), (2, True)):
            system = build(parse_config(tree))
            if sabotaged:
                system.bus.arbiter = WorstRankedArbiter(
                    system.bus.arbiter.ranks)
            system.run()
            counts[caught_at] += not check_priority_inversion(system)["pass"]

    run()
    return counts


if __name__ == "__main__":
    # python tests/platforms.py N SEED [problems], with the socsim to
    # digest on PYTHONPATH: prints the digest of the outputs of N
    # platforms drawn from SEED, or with ``problems`` of what the config
    # parser says of N invalid ones
    digest = problems_digest if sys.argv[3:] == ["problems"] else outputs_digest
    print(digest(int(sys.argv[1]), int(sys.argv[2])))
