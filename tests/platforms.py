"""Random whole platforms, drawn by plain functions from a
``random.Random``, and the helpers that run what they draw.

Example ``index`` of seed ``at_seed`` is ``drawn(draw, at_seed, index)``:
``draw`` called with the index and a ``random.Random(f"{at_seed}:
{index}")`` of its own, so each example is independent and can be
replayed alone.  The draws use only ``random()``, ``randint``,
``randrange``, ``choice`` and ``sample``, which give the same numbers on
every supported Python, and read nothing from the ``socsim`` under test
but the policy names and the schema version, so the digests below depend
on the code under test alone.  ``draw_invalid`` also reads the table of
integer bounds, ``socsim.config.INT_KEYS``, from the ``src/`` beside
this file, whichever ``socsim`` is on the path.

``draw_platform`` draws a valid ``(tree, trace)``: a config tree and
the text of its trace file, or None when no master replays one.  The
index stratifies what every run must cover: the core count 1-4
(``index % 4``), the L2 mode (``index // 4 % 4``, ``L2_MODES``) and the
quotas (``index // 16 % 4``: none, one ``hw_stall``, one ``interrupt``,
or two of drawn modes), so 64 indices hold each combination once.  All
else is drawn freely, over horizons of a few thousand cycles.
``draw_bus_bound`` draws platforms whose shared bus is the bottleneck,
for ``inversion_control``; ``draw_invalid`` corrupts a drawn platform,
for ``problems_digest``.

``check_platform`` asserts the invariants of one platform, and
``check_random_platforms`` those of many, counting their ``features``; a
platform that breaks one raises ``PlatformFailed``, which names its seed
and index and shows its tree.  ``outputs_digest`` hashes the outputs of
many platforms.  Run as a script, ``python3 tests/platforms.py N SEED``
prints that digest, and with ``problems`` the ``problems_digest``, so
that two source trees can be compared.
"""

import copy
import functools
import hashlib
import importlib.util
import os
import random
import sys
import tempfile
from collections import Counter

from socsim.arbiter import POLICIES
from socsim.config import SCHEMA_VERSION, parse_config
from socsim.errors import ConfigError
from socsim.report import build_report, write_outputs
from socsim.system import build
from socsim.verify import EVIDENCE_CAP, check_priority_inversion, run_checks

TRACE_FILE = "platform.trace"
MEM = (0x0, 0x100000)           # the memory port: base, size
DEV = (0x100000, 0x10000)       # the optional second port
# the L2 off; on with the default partitions, which are disjoint; on with
# explicit partitions; or on with cacheable ranges and explicit partitions
# on a coin
L2_MODES = ("off", "default", "partitions", "cacheable")
QUOTA_MODES = ("hw_stall", "interrupt")


def drawn(draw, at_seed: int, index: int):
    """Example ``index`` of ``at_seed``: ``draw(rng, index)`` with a
    generator of its own."""
    return draw(random.Random(f"{at_seed}:{index}"), index)


class PlatformFailed(AssertionError):
    """A drawn platform broke an invariant; ``drawn(draw_platform,
    at_seed, index)`` draws it again."""

    def __init__(self, at_seed: int, index: int, platform, cause):
        tree, trace = platform
        super().__init__(
            f"drawn(draw_platform, {at_seed}, {index}) failed: "
            f"{cause!r}\ntree: {tree!r}\ntrace: {trace!r}")
        self.platform = platform


def _coin(rng) -> bool:
    return rng.random() < 0.5


def _some(rng, **values) -> dict:
    """Each of ``values`` kept on a coin."""
    return {key: value for key, value in values.items() if _coin(rng)}


def _distinct(rng, n: int, most: int) -> list[int]:
    """0 to ``most`` distinct numbers in ``range(n)``."""
    return rng.sample(range(n), rng.randint(0, min(most, n)))


def _region(rng, port, span):
    """A base address, 64-aligned, with ``span`` bytes after it inside
    ``port``."""
    base, size = port
    return base + 64 * rng.randint(0, (size - span) // 64)


def _profile(rng, port):
    footprint = rng.choice([256, 1024, 0x4000])
    size = rng.choice([8, 64])
    profile = {
        "pattern": rng.choice(["saturating", "periodic", "bursty"]),
        "kind_mix": rng.choice([0.0, 0.3, 0.5, 1.0]),
        "base": _region(rng, port, footprint + size),
        "footprint": footprint,
        "stride": rng.choice([8, 64]),
        "size": size,
        "period": rng.randint(1, 200),
        "burst_len": rng.randint(1, 6),
        "phase": rng.randint(0, 100),
    }
    return {**profile, **_some(rng, count=rng.randint(0, 60))}


def _trace_records(rng, master, port):
    """``(cycle, master, letter, addr, size)`` of one master's records,
    in cycle order."""
    records, cycle = [], 0
    for _ in range(rng.randint(1, 30)):
        cycle += rng.randint(0, 120)
        size = rng.choice([8, 64])
        records.append((cycle, master, rng.choice("RW"),
                        _region(rng, port, size), size))
    return records


def _size_table(rng):
    return {size: rng.randint(1, 8)
            for size in rng.sample([8, 64], rng.randint(1, 2))}


def draw_platform(rng, index: int):
    """A valid platform, ``(tree, trace)``, whose core count, L2 mode and
    quota modes ``index`` fixes."""
    cores = 1 + index % 4
    l2_mode = L2_MODES[index // 4 % 4]
    quota_modes = [(), ("hw_stall",), ("interrupt",),
                   (rng.choice(QUOTA_MODES), rng.choice(QUOTA_MODES))
                   ][index // 16 % 4]
    accelerators = rng.randint(0, 2)
    n = cores + accelerators
    bus_policy = rng.choice(POLICIES)
    bus = {"policy": bus_policy}
    if bus_policy == "fixed_priority":
        bus["priority"] = dict(enumerate(rng.sample(range(cores), cores)))
    bus.update(_some(rng, occupancy=_some(
        rng, read=rng.randint(1, 8), write=rng.randint(1, 8),
        sizes=_some(rng, read=_size_table(rng), write=_size_table(rng)))))
    ways = rng.choice([4, 8])
    l2 = {"enabled": l2_mode != "off", "sets": rng.choice([4, 64]),
          "ways": ways}
    if l2_mode == "partitions" or l2_mode == "cacheable" and _coin(rng):
        # one or two ways per core, one of them shared with the core
        # before it, so that cores evict each other's lines (the default
        # partitions are disjoint)
        partitions = [rng.sample(range(ways), rng.randint(1, 2))]
        for _ in range(1, cores):
            own, other = [rng.choice(partitions[-1])], rng.randrange(ways)
            if other not in own and _coin(rng):
                own.append(other)
            partitions.append(own)
        l2["partitions"] = dict(enumerate(partitions))
    if l2_mode == "cacheable":
        # only what lies in these ranges is cached; the rest bypasses
        l2["cacheable"] = [
            {"base": base, "size": size} for base, size in rng.sample(
                [(0x0, 0x1000), (0x0, 0x80000), (0x40000, 0x40000),
                 (0x80000, 0x80000)], rng.randint(1, 2))]
    tree = {
        "schema_version": SCHEMA_VERSION,
        "sim": {"cycles": rng.randint(1000, 5000),
                "seed": rng.randint(0, 1000)},
        "masters": {"cores": cores, "accelerators": accelerators},
        "bus": bus,
        "l2": l2,
        "noc": {"policy": rng.choice(POLICIES),
                **_some(rng, routing_latency=rng.randint(0, 4),
                        response_latency=rng.randint(0, 4))},
        "memory": {"fifo_capacity": rng.choice([1, 2, 8]),
                   **_some(rng, read_latency=rng.randint(1, 60),
                           write_latency=rng.randint(1, 60))},
        "qos": {"period": rng.choice([300, 1000, 2500]),
                "guard_window": rng.choice([20, 60, 150])},
    }
    ports = [MEM]
    if _coin(rng):
        ports.append(DEV)
        tree["noc"]["ports"] = [
            {"name": "mem", "base": MEM[0], "size": MEM[1]},
            {"name": "dev", "base": DEV[0], "size": DEV[1],
             "width": rng.choice([4, 8]),
             "occupancy": _some(rng, read=rng.randint(1, 8),
                                write=rng.randint(1, 8)),
             "device_read_latency": rng.randint(0, 20),
             "device_write_latency": rng.randint(0, 20)}]

    quotas = []
    for master, mode in zip(rng.sample(range(n), min(len(quota_modes), n)),
                            quota_modes):
        quota = {"master": master, "limit": rng.randint(0, 400),
                 "mode": mode}
        if mode == "interrupt":
            quota["action"] = rng.choice(["throttle_source", "log_only"])
            quota["handler_latency"] = rng.randint(0, 100)
        quotas.append(quota)
    tree["qos"]["quotas"] = quotas
    if _coin(rng):
        # the resources whose charges meter the quotas, some or none
        names = ["bus", "noc.mem", "mem"] + (["noc.dev"] if DEV in ports
                                             else [])
        tree["qos"]["monitored"] = rng.sample(names,
                                              rng.randint(0, len(names)))

    replaying = _distinct(rng, n, 2)
    workloads, records = [], []
    for master in range(n):
        port = rng.choice(ports)
        if master in replaying:
            records += _trace_records(rng, master, port)
        # one master in ten, on average, has neither a trace nor a profile
        elif rng.random() < 0.9:
            workloads.append({"master": master,
                              "outstanding": rng.randint(1, 4),
                              "profile": _profile(rng, port)})
    tree["workloads"] = workloads
    # deadlines about as long as an uncontended round trip to memory, so
    # that some are missed and some latencies land exactly on one
    tree["verify"] = {"deadlines": {master: rng.randint(5, 120)
                                    for master in _distinct(rng, n, n)},
                      **_some(rng, starvation_window=rng.randint(20, 2000))}
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
_WRONG_TYPE = [None, True, 1.5, "junk", "", [], [1], {}, {"junk": 1}]


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


@functools.cache
def _config_beside():
    """``socsim.config`` of the ``src/`` beside this file, loaded as a
    package of another name, so that what ``draw_invalid`` draws is the
    same whichever ``socsim`` is under test."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src", "socsim")
    spec = importlib.util.spec_from_file_location(
        "_socsim_beside", os.path.join(src, "__init__.py"),
        submodule_search_locations=[src])
    sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules[spec.name].config


def rows_in(tree, int_keys):
    """``(path, (attr, minimum, maximum))`` for each value in ``tree``
    at the place of a row of ``int_keys``, in the rows' order."""
    for (section, key), row in int_keys.items():
        paths = [()]
        for part in section.split(".") + [key]:
            name = part.removesuffix("[]")
            paths = [path + (name,) for path in paths
                     if isinstance(_at(tree, path), dict)
                     and name in _at(tree, path)]
            if part != name:
                paths = [path + (i,) for path in paths
                         if isinstance(_at(tree, path), list)
                         for i in range(len(_at(tree, path)))]
        for path in paths:
            yield path, row


def draw_invalid(rng, index: int):
    """A platform of ``draw_platform`` with 1-3 corruptions, as ``(tree,
    trace)``: a value anywhere in the tree replaced by one of a wrong
    type or by a small junk integer, an unknown key added to a mapping,
    or a value at the place of a row of ``INT_KEYS`` set just past its
    bounds.  Most such trees are invalid; some still parse, and then must
    run.

    Junk integers stay within [-2, 64] because the size of some values
    is the size of what the code allocates: ``masters.cores`` and
    ``masters.accelerators`` make the build allocate masters x masters
    matrices, which no row bounds above.  A bound corruption writes a
    row's minimum - 1 or, on a row whose maximum is ``FIELD_MAX``,
    ``FIELD_MAX + 1``: before the ``l2.sets`` and ``l2.ways`` rows had a
    maximum, a huge value of theirs made the parser or the build
    allocate in proportion, and the digests run against earlier
    commits too."""
    config = _config_beside()
    tree, trace = draw_platform(rng, index)
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["wrong type", "junk integer", "unknown key",
                           "bound"])
        if kind == "unknown key":
            mappings = [()] + [path for path in _paths(tree)
                               if isinstance(_at(tree, path), dict)]
            _at(tree, rng.choice(mappings))["junk"] = rng.randint(-2, 64)
        elif kind == "bound":
            rows = list(rows_in(tree, config.INT_KEYS))
            if not rows:
                continue
            path, (_, minimum, maximum) = rng.choice(rows)
            past_maximum = maximum == config.FIELD_MAX and _coin(rng)
            _at(tree, path[:-1])[path[-1]] = (
                config.FIELD_MAX + 1 if past_maximum else minimum - 1)
        else:
            path = rng.choice(list(_paths(tree)))
            # a copy, so that no corruption lands in a shared value
            _at(tree, path[:-1])[path[-1]] = (
                copy.deepcopy(rng.choice(_WRONG_TYPE))
                if kind == "wrong type" else rng.randint(-2, 64))
    return tree, trace


def draw_bus_bound(rng, index: int):
    """A platform whose shared bus is its bottleneck, drawn as ``(tree,
    None)``: 2-4 cores (``2 + index % 3``), no accelerator and no quota,
    a fixed-priority bus with drawn ranks, the L2 off, a wide memory
    port and memory that answers in 1 or 2 cycles, as in acceptance
    criterion 11.  At least two cores saturate with two or more
    transactions outstanding, so a better-ranked core always has a
    request waiting while a worse one is granted."""
    cores = 2 + index % 3
    ranks = rng.sample(range(cores), cores)
    saturating = rng.sample(range(cores), rng.randint(2, cores))
    workloads = []
    for master in range(cores):
        profile = _profile(rng, MEM)
        outstanding = rng.randint(1, 4)
        if master in saturating:
            profile["pattern"] = "saturating"
            profile.pop("count", None)
            outstanding = max(outstanding, 2)
        if master in saturating or rng.random() < 0.9:
            workloads.append({"master": master, "outstanding": outstanding,
                              "profile": profile})
    return {
        "schema_version": SCHEMA_VERSION,
        "sim": {"cycles": rng.randint(1000, 5000),
                "seed": rng.randint(0, 1000)},
        "masters": {"cores": cores, "accelerators": 0},
        "bus": {"policy": "fixed_priority", "priority": dict(enumerate(ranks))},
        "l2": {"enabled": False},
        "noc": {"policy": rng.choice(POLICIES),
                "ports": [{"name": "mem", "base": MEM[0], "size": MEM[1],
                           "width": 64}]},
        "memory": {"read_latency": rng.randint(1, 2),
                   "write_latency": rng.randint(1, 2)},
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

    Raises AssertionError unless the first run's ledger balances, its
    matrices are those its per-cycle census counts, its grant logs'
    registers are those recomputed from the logs, every
    memory service carries its owner's id, the two runs write the same
    bytes, and the first run's latency counters and deadline evidence
    are those recomputed from the second run's transactions.  Any other
    exception escapes as it is: a valid tree must raise nothing."""
    # imported here, so that ``outputs_digest`` needs socsim alone and
    # can run against the sources of an earlier commit
    from completion_log import record_completions
    from test_conservation import census, mismatches, run_with_ledger
    from test_registers import register_mismatches

    system = build_platform(tree, trace, directory)
    (_, blame, _), wrong = run_with_ledger(system)
    assert wrong == [], "ledger: " + "; ".join(wrong[:10])
    wrong = mismatches(system.monitor, *census(system, blame))
    assert wrong == [], "census: " + "; ".join(wrong[:10])
    wrong = register_mismatches(system)
    assert wrong == [], "registers: " + "; ".join(wrong)
    wrong = [f"service {i}: slot {r.slot}, owner {r.owner}"
             for i, r in enumerate(system.memctrl.records)
             if r.slot != r.owner]
    assert wrong == [], "ids: " + "; ".join(wrong[:10])
    first = outputs_of(system, os.path.join(directory, "first"))
    recorded = build_platform(tree, trace, directory)
    completed = record_completions(recorded)
    recorded.run()
    assert outputs_of(recorded, os.path.join(directory, "out")) == first
    counted = latency_counters(system)
    recomputed = latency_counters_from_log(recorded, completed)
    assert counted == recomputed, f"latency counters {counted} != {recomputed}"
    return system


# what the drawn platforms must reach, each at least 5 times in the first
# 120 draws of a seed
WANTED = [
    *(("cores", n) for n in range(1, 5)),
    *(("accelerators", n) for n in range(3)),
    *((where, policy) for where in ("bus", "noc")
      for policy in ("round_robin", "fixed_priority", "quota_aware")),
    ("ranks", True), ("l2", True), ("l2", False),
    ("fifo", 1), ("fifo", 2), ("fifo", 8), ("override", True),
    ("quota", "hw_stall"), ("quota", "interrupt"), ("quotas", 2),
    ("replaying", 1), ("replaying", 2), ("stalled", True),
    ("guard grant", True), ("refused", True), ("writeback", True),
    ("self-inflicted", True), ("deadline missed", True),
    ("bus occupancy", True), ("bus size table hit", True),
    ("partitions", True), ("cross-partition eviction", True),
    ("cacheable", True), ("bypass", True), ("monitored", True),
    ("starvation window", True), ("noc latencies", True),
    ("memory latencies", True)]


def features(tree, trace, system):
    """The ``WANTED`` keys a drawn platform has, and its run reached."""
    yield "cores", tree["masters"]["cores"]
    yield "accelerators", tree["masters"]["accelerators"]
    yield "bus", tree["bus"]["policy"]
    yield "noc", tree["noc"]["policy"]
    yield "ranks", "priority" in tree["bus"]
    yield "l2", tree["l2"]["enabled"]
    yield "fifo", tree["memory"]["fifo_capacity"]
    ports = tree["noc"].get("ports", [])
    yield "override", any(port.get("occupancy") for port in ports)
    quotas = tree["qos"]["quotas"]
    yield "quotas", len(quotas)
    for quota in quotas:
        yield "quota", quota["mode"]
    if trace is not None:
        yield "replaying", len({line.split()[1]
                                for line in trace.splitlines()[1:]})
    yield "stalled", any(ev["kind"] == "stall_asserted" for ev in system.events)
    yield "guard grant", any(res.arbiter.guard_grants
                             for res in (system.bus, *system.ports))
    yield "refused", system.memctrl.refusals > 0
    yield "writeback", system.l2.writebacks > 0
    yield "self-inflicted", any(system.monitor.self_inflicted)
    yield "deadline missed", any(m.deadline_misses for m in system.masters)
    occupancy = tree["bus"].get("occupancy", {})
    yield "bus occupancy", bool(occupancy)
    # the (kind, size) pairs the bus granted, memoised as they showed
    yield "bus size table hit", any(
        size in occupancy.get("sizes", {}).get(kind, {})
        for kind, by_size in system.bus._occupancy_of.items()
        for size in by_size)
    yield "partitions", "partitions" in tree["l2"]
    yield "cross-partition eviction", system.l2.cross_partition_evictions > 0
    yield "cacheable", "cacheable" in tree["l2"]
    yield "bypass", tree["l2"]["enabled"] and system.l2.bypasses > 0
    yield "monitored", "monitored" in tree["qos"]
    yield "starvation window", "starvation_window" in tree["verify"]
    yield "noc latencies", "routing_latency" in tree["noc"]
    yield "memory latencies", "read_latency" in tree["memory"]


def check_random_platforms(max_examples: int, at_seed: int) -> Counter:
    """``check_platform`` on the first ``max_examples`` platforms of
    ``at_seed``; how often each of their ``features`` came.  Raises
    ``PlatformFailed`` on the first that breaks an invariant."""
    seen = Counter()
    for index in range(max_examples):
        platform = drawn(draw_platform, at_seed, index)
        try:
            with tempfile.TemporaryDirectory() as directory:
                system = check_platform(*platform, directory)
        except Exception as exc:
            raise PlatformFailed(at_seed, index, platform, exc) from exc
        seen.update(features(*platform, system))
    return seen


def outputs_digest(n: int, at_seed: int) -> str:
    """One sha256 over ``platform_outputs`` of the first ``n`` platforms
    of ``at_seed``, each file by name; two source trees that give the
    same digest write the same bytes on every drawn platform."""
    digest = hashlib.sha256()
    for index in range(n):
        with tempfile.TemporaryDirectory() as directory:
            outputs = platform_outputs(*drawn(draw_platform, at_seed, index),
                                       directory)
        for name, data in outputs.items():
            digest.update(name.encode() + b"\0")
            digest.update(data)
    return digest.hexdigest()


def problems_digest(n: int, at_seed: int) -> str:
    """One sha256 over the first ``n`` trees of ``draw_invalid`` at
    ``at_seed``: each tree's problem list, or ``repr`` of its ``Config``
    when it parses; two source trees that give the same digest say the
    same of every drawn tree."""
    digest = hashlib.sha256()
    for index in range(n):
        with tempfile.TemporaryDirectory() as directory:
            try:
                said = [repr(platform_config(
                    *drawn(draw_invalid, at_seed, index), directory))]
            except ConfigError as exc:
                said = exc.problems
            # the temporary directory is in the trace's "cannot read"
            for line in said:
                digest.update(line.replace(directory, "<dir>").encode())
                digest.update(b"\n")
        digest.update(b"\0")
    return digest.hexdigest()


def inversion_control(max_examples: int, at_seed: int) -> list[int]:
    """``[drawn, caught honest, caught sabotaged]`` over the first
    ``max_examples`` platforms of ``draw_bus_bound`` at ``at_seed``: how
    many were drawn, and on how many the priority inversion check fails
    under the bus's own arbiter and under ``WorstRankedArbiter``."""
    counts = [max_examples, 0, 0]
    for index in range(max_examples):
        tree, _ = drawn(draw_bus_bound, at_seed, index)
        for caught_at, sabotaged in ((1, False), (2, True)):
            system = build(parse_config(tree))
            if sabotaged:
                system.bus.arbiter = WorstRankedArbiter(
                    system.bus.arbiter.ranks)
            system.run()
            counts[caught_at] += not check_priority_inversion(system)["pass"]
    return counts


if __name__ == "__main__":
    # python tests/platforms.py N SEED [problems], with the socsim to
    # digest on PYTHONPATH: prints the digest of the outputs of the first
    # N platforms of SEED, or with ``problems`` of what the config parser
    # says of the first N invalid ones
    digest = problems_digest if sys.argv[3:] == ["problems"] else outputs_digest
    print(digest(int(sys.argv[1]), int(sys.argv[2])))
