"""Configuration schema: YAML in, validated dataclasses out.

Validation collects every problem it can find and reports them all at
once with their locations, instead of bailing at the first one.

A value that a grant record holds, or that sets one (the horizon, every
bus, port and memory occupancy, a request size), is refused above
``FIELD_MAX``, the largest its packed field holds.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice

import yaml

from .arbiter import POLICIES, ROUND_ROBIN
from .errors import ConfigError, quote, shown_path
from .monitor import ACTIONS, MODES, QuotaConfig
from .resource import FIELD_MAX
from .workload import (SyntheticProfile, TraceColumns, TraceRecord,
                       parse_trace)
# unused here, but perfbench/tracer.py wraps both trace scanners where the
# config parser looks them up
from .workload import lint_trace  # noqa: F401

SCHEMA_VERSION = 1


@dataclass
class PortSpec:
    name: str
    base: int
    size: int
    width: int = 8
    occupancy: dict[str, int] | None = None     # overrides ceil(size/width)
    device_read_latency: int = 10               # non-memory ports only
    device_write_latency: int = 10


@dataclass
class WorkloadSpec:
    master: int
    profile: SyntheticProfile
    outstanding: int = 1


@dataclass
class L2Spec:
    enabled: bool = True
    sets: int = 64
    ways: int = 8
    line_size: int = 64
    hit_latency: int = 2
    partitions: dict[int, list[int]] = field(default_factory=dict)
    cacheable: list[tuple[int, int]] | None = None   # None: the memory port range


@dataclass
class Config:
    cycles: int = 10000
    seed: int = 1
    cores: int = 4
    accelerators: int = 0
    id_bits: int = 4
    bus_policy: str = ROUND_ROBIN
    bus_ranks: dict[int, int] = field(default_factory=dict)
    bus_read: int = 5
    bus_write: int = 3
    bus_sizes: dict[str, dict[int, int]] = field(default_factory=dict)
    l2: L2Spec = field(default_factory=L2Spec)
    noc_policy: str = ROUND_ROBIN
    routing_latency: int = 1
    response_latency: int = 1
    ports: list[PortSpec] = field(default_factory=list)
    memory_port: str = "mem"
    mem_read_latency: int = 40
    mem_write_latency: int = 30
    fifo_capacity: int = 8
    period: int = 10000
    guard_window: int = 100
    monitored: list[str] | None = None          # None: every resource
    quotas: list[QuotaConfig] = field(default_factory=list)
    workloads: list[WorkloadSpec] = field(default_factory=list)
    # the trace's records in file order: a workload.PackedTrace once a
    # trace is loaded
    trace_records: Sequence[TraceRecord] = field(default_factory=list)
    # the trace's records of each master, in file order
    trace_by_master: dict[int, TraceColumns] = field(default_factory=dict)
    starvation_window: int | None = None        # None: 10x max occupancy
    deadlines: dict[int, int] = field(default_factory=dict)

    @property
    def n_masters(self) -> int:
        return self.cores + self.accelerators

    def resource_names(self) -> list[str]:
        return ["bus"] + [f"noc.{p.name}" for p in self.ports] + ["mem"]


class _Check:
    """Accumulates problems while pulling typed values out of the tree."""

    def __init__(self):
        self.problems: list[str] = []
        # the masters each kind of per-master entry has claimed
        self.claimed: dict[str, set[int]] = {}

    def fail(self, where: str, msg: str) -> None:
        self.problems.append(f"{where}: {msg}")

    def section(self, node: dict, key: str, where: str,
                allowed: set[str] | None = None) -> dict:
        """``node[key]``, a mapping, or {} when absent or not a mapping;
        with ``allowed``, any other key in it is reported."""
        sub = node.get(key)
        if sub is None:
            return {}
        if not isinstance(sub, dict):
            self.fail(f"{where}.{key}", f"expected a mapping, got {type(sub).__name__}")
            return {}
        if allowed is not None:
            self.no_extras(sub, f"{where}.{key}", allowed)
        return sub

    def num(self, node: dict, key: str, where: str, default=None,
            minimum=None, required=False, maximum=None):
        if key not in node:
            if required:
                self.fail(f"{where}.{key}", "is required")
            return default
        raw = node[key]
        val = _as_int(raw)
        if val is None:
            self.fail(f"{where}.{key}", f"expected an integer, got {quote(raw)}")
            return default
        if minimum is not None and val < minimum:
            self.fail(f"{where}.{key}", f"must be >= {minimum}, got {quote(val)}")
            return default
        if maximum is not None and val > maximum:
            self.fail(f"{where}.{key}", f"must be <= {maximum}, got {quote(val)}")
            return default
        return val

    def choice(self, node: dict, key: str, where: str, options, default):
        val = node.get(key, default)
        if val not in options:
            self.fail(f"{where}.{key}",
                      f"unknown value {quote(val)}, expected one of {', '.join(options)}")
            return default
        return val

    def no_extras(self, node: dict, where: str, allowed: set[str]) -> None:
        for key in node:
            if key not in allowed:
                self.fail(f"{where}.{key}", "unknown key")

    def int_map(self, node: dict, key: str, where: str, expected: str,
                low: float = float("-inf"), high: float = float("inf"),
                keys: range | None = None,
                outside: str = "") -> dict[int, int] | None:
        """``node[key]``, a mapping of integers to integers, or None when
        it is not a mapping.  An entry that is not two integers, or whose
        value is below ``low`` (and, without ``keys``, whose key is), is a
        bad entry, and so is one whose value is above ``high``; a key
        outside ``keys`` is a master that is ``outside``."""
        table = node.get(key, {})
        where = f"{where}.{key}"
        if not isinstance(table, dict):
            self.fail(where, f"expected {expected}")
            return None
        out = {}
        for k, v in table.items():
            i, n = _as_int(k), _as_int(v)
            if i is None or n is None or n < low or keys is None and i < low:
                self.fail(where, f"bad entry {quote(k)}: {quote(v)}")
            elif n > high:
                self.fail(where, f"bad entry {quote(k)}: must be <= {high}, "
                                 f"got {quote(n)}")
            elif keys is not None and i not in keys:
                self.fail(where, f"master {quote(i)} {outside}")
            else:
                out[i] = n
        return out

    def entries(self, raw, where: str, allowed: set[str],
                listed: str = "a list", each: str = "a mapping"):
        """``(where[i], entry)`` for each entry of the list ``raw`` that is
        a mapping, its unknown keys reported; any other entry, or a
        ``raw`` that is not a list, is reported and skipped."""
        if not isinstance(raw, list):
            self.fail(where, f"expected {listed}")
            return
        for i, entry in enumerate(raw):
            at = f"{where}[{i}]"
            if not isinstance(entry, dict):
                self.fail(at, f"expected {each}")
                continue
            self.no_extras(entry, at, allowed)
            yield at, entry

    def new_master(self, master: int | None, where: str, n_masters: int,
                   kind: str) -> bool:
        """Whether ``master`` exists and has no ``kind`` entry yet, which
        it then has; None, a master already reported, is not."""
        if master is None:
            return False
        if master >= n_masters:
            self.fail(f"{where}.master",
                      f"master {quote(master)} does not exist")
            return False
        claimed = self.claimed.setdefault(kind, set())
        if master in claimed:
            self.fail(f"{where}.master",
                      f"duplicate {kind} for master {quote(master)}")
            return False
        claimed.add(master)
        return True


def _as_int(raw):
    if isinstance(raw, bool):
        return None
    if isinstance(raw, int):
        return raw
    if isinstance(raw, str):
        try:
            return int(raw, 0)
        except ValueError:
            return None
    return None


def parse_config(tree: dict, base_dir: str = ".", source: str = "<config>") -> Config:
    if not isinstance(tree, dict):
        raise ConfigError([f"{source}: top level must be a mapping"])
    c = _Check()
    cfg = Config()

    c.no_extras(tree, source, {
        "schema_version", "sim", "masters", "bus", "l2", "noc", "memory",
        "qos", "workloads", "trace", "verify"})

    version = c.num(tree, "schema_version", source, required=True)
    if version is not None and version != SCHEMA_VERSION:
        c.fail(f"{source}.schema_version",
               f"unsupported version {quote(version)}, "
               f"this build reads {SCHEMA_VERSION}")

    sim = c.section(tree, "sim", source, {"cycles", "seed"})
    cfg.cycles = c.num(sim, "cycles", f"{source}.sim", cfg.cycles, minimum=1,
                       maximum=FIELD_MAX)
    cfg.seed = c.num(sim, "seed", f"{source}.sim", cfg.seed, minimum=0)

    masters = c.section(tree, "masters", source,
                        {"cores", "accelerators", "id_bits"})
    cfg.cores = c.num(masters, "cores", f"{source}.masters", cfg.cores, minimum=1)
    cfg.accelerators = c.num(masters, "accelerators", f"{source}.masters",
                             cfg.accelerators, minimum=0)
    cfg.id_bits = c.num(masters, "id_bits", f"{source}.masters",
                        cfg.id_bits, minimum=1)
    if (cfg.n_masters - 1).bit_length() > cfg.id_bits:
        c.fail(f"{source}.masters.id_bits",
               f"{quote(cfg.n_masters)} masters do not fit in "
               f"{cfg.id_bits} id bits")

    _parse_bus(c, tree, cfg, source)
    _parse_l2(c, tree, cfg, source)
    _parse_noc(c, tree, cfg, source)
    _parse_memory(c, tree, cfg, source)
    _parse_qos(c, tree, cfg, source)
    _parse_workloads(c, tree, cfg, source)
    _parse_verify(c, tree, cfg, source)
    _parse_trace(c, tree, cfg, base_dir, source)

    if cfg.l2.cacheable is None:
        mem = next((p for p in cfg.ports if p.name == cfg.memory_port), None)
        cfg.l2.cacheable = [(mem.base, mem.size)] if mem else []

    if c.problems:
        raise ConfigError(c.problems)
    return cfg


def _parse_bus(c: _Check, tree: dict, cfg: Config, source: str) -> None:
    bus = c.section(tree, "bus", source, {"policy", "priority", "occupancy"})
    where = f"{source}.bus"
    cfg.bus_policy = c.choice(bus, "policy", where, POLICIES, cfg.bus_policy)
    cfg.bus_ranks = c.int_map(
        bus, "priority", where, "a mapping of master to rank",
        keys=range(cfg.cores), outside="is not a core") or {}
    occ = c.section(bus, "occupancy", where, {"read", "write", "sizes"})
    where = f"{where}.occupancy"
    cfg.bus_read = c.num(occ, "read", where, cfg.bus_read, minimum=1,
                         maximum=FIELD_MAX)
    cfg.bus_write = c.num(occ, "write", where, cfg.bus_write, minimum=1,
                          maximum=FIELD_MAX)
    sizes = c.section(occ, "sizes", where)
    for kind in sizes:
        if kind not in ("read", "write"):
            c.fail(f"{where}.sizes.{kind}", "unknown kind")
            continue
        table = c.int_map(sizes, kind, f"{where}.sizes", "a mapping", low=1,
                          high=FIELD_MAX)
        if table is not None:
            cfg.bus_sizes[kind] = table


def _parse_l2(c: _Check, tree: dict, cfg: Config, source: str) -> None:
    l2 = c.section(tree, "l2", source, {"enabled", "sets", "ways", "line_size",
                                        "hit_latency", "partitions", "cacheable"})
    where = f"{source}.l2"
    enabled = l2.get("enabled", cfg.l2.enabled)
    if not isinstance(enabled, bool):
        c.fail(f"{where}.enabled", f"expected true or false, got {quote(enabled)}")
        enabled = True
    cfg.l2.enabled = enabled
    cfg.l2.sets = c.num(l2, "sets", where, cfg.l2.sets, minimum=1)
    cfg.l2.ways = c.num(l2, "ways", where, cfg.l2.ways, minimum=1)
    # every fill and writeback is a line, so its port occupancy is at
    # most the line size
    cfg.l2.line_size = c.num(l2, "line_size", where, cfg.l2.line_size,
                             minimum=1, maximum=FIELD_MAX)
    cfg.l2.hit_latency = c.num(l2, "hit_latency", where, cfg.l2.hit_latency,
                               minimum=0)
    parts = l2.get("partitions")
    if parts is not None:
        if not isinstance(parts, dict):
            c.fail(f"{where}.partitions", "expected a mapping of owner to way list")
        else:
            for k, ways in parts.items():
                owner = _as_int(k)
                if owner is None or not 0 <= owner < cfg.cores:
                    c.fail(f"{where}.partitions", f"owner {quote(k)} is not a core")
                    continue
                if (not isinstance(ways, list) or not ways
                        or any(_as_int(w) is None for w in ways)):
                    c.fail(f"{where}.partitions.{owner}",
                           "expected a non-empty list of way indices")
                    continue
                way_idx = [_as_int(w) for w in ways]
                bad = [w for w in way_idx if not 0 <= w < cfg.l2.ways]
                if bad:
                    c.fail(f"{where}.partitions.{owner}",
                           f"way indices out of range: {quote(bad)}")
                    continue
                cfg.l2.partitions[owner] = way_idx
    if cfg.l2.enabled:
        if parts is None:
            # default: split the ways evenly across the cores
            share = max(1, cfg.l2.ways // cfg.cores)
            for core in range(cfg.cores):
                lo = core * share
                if lo >= cfg.l2.ways:
                    c.fail(f"{where}.partitions",
                           f"{cfg.l2.ways} ways cannot cover "
                           f"{quote(cfg.cores)} cores; "
                           "assign partitions explicitly")
                    break
                hi = cfg.l2.ways if core == cfg.cores - 1 else lo + share
                cfg.l2.partitions[core] = list(range(lo, hi))
        else:
            # the first 64 cores without ways by number, then how many
            # more there are: a tree may declare any number of cores
            missing = (core for core in range(cfg.cores)
                       if core not in cfg.l2.partitions)
            for core in islice(missing, 64):
                c.fail(f"{where}.partitions", f"core {core} has no ways")
            more = cfg.cores - len(cfg.l2.partitions) - 64
            if more > 0:
                c.fail(f"{where}.partitions",
                       f"{quote(more)} more cores have no ways")
    ranges = l2.get("cacheable")
    if ranges is None:
        return
    cfg.l2.cacheable = []
    for at, entry in c.entries(ranges, f"{where}.cacheable", {"base", "size"},
                               "a list of {base, size} entries",
                               "a mapping with base and size"):
        base = c.num(entry, "base", at, required=True, minimum=0)
        size = c.num(entry, "size", at, required=True, minimum=1)
        if base is not None and size is not None:
            cfg.l2.cacheable.append((base, size))


def _parse_noc(c: _Check, tree: dict, cfg: Config, source: str) -> None:
    noc = c.section(tree, "noc", source, {"policy", "routing_latency",
                                          "response_latency", "ports"})
    where = f"{source}.noc"
    cfg.noc_policy = c.choice(noc, "policy", where, POLICIES, cfg.noc_policy)
    cfg.routing_latency = c.num(noc, "routing_latency", where,
                                cfg.routing_latency, minimum=0)
    cfg.response_latency = c.num(noc, "response_latency", where,
                                 cfg.response_latency, minimum=0)
    ports = noc.get("ports")
    if ports is None:
        cfg.ports = [PortSpec("mem", 0x0000_0000, 0x1000_0000)]
        return
    seen = set()
    # an empty list is refused as a non-list is
    for pw, entry in c.entries(ports or None, f"{where}.ports", {
            "name", "base", "size", "width", "occupancy",
            "device_read_latency", "device_write_latency"}, "a non-empty list"):
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            c.fail(f"{pw}.name", "expected a non-empty string")
            continue
        if name in seen:
            c.fail(f"{pw}.name", f"duplicate port name {quote(name)}")
            continue
        seen.add(name)
        base = c.num(entry, "base", pw, required=True, minimum=0)
        size = c.num(entry, "size", pw, required=True, minimum=1)
        width = c.num(entry, "width", pw, PortSpec.width, minimum=1)
        spec = PortSpec(name, base or 0, size or 1, width)
        occ = entry.get("occupancy")
        if occ is not None:
            if not isinstance(occ, dict) or any(
                    k not in ("read", "write") or _as_int(v) is None or _as_int(v) < 1
                    for k, v in occ.items()):
                c.fail(f"{pw}.occupancy",
                       "expected read/write to positive cycle counts")
            elif any(_as_int(v) > FIELD_MAX for v in occ.values()):
                c.fail(f"{pw}.occupancy",
                       f"cycle counts must be <= {FIELD_MAX}, got "
                       f"{quote(occ)}")
            else:
                spec.occupancy = {k: _as_int(v) for k, v in occ.items()}
        spec.device_read_latency = c.num(entry, "device_read_latency", pw,
                                         spec.device_read_latency, minimum=0)
        spec.device_write_latency = c.num(entry, "device_write_latency", pw,
                                          spec.device_write_latency, minimum=0)
        cfg.ports.append(spec)
    for a in range(len(cfg.ports)):
        for b in range(a + 1, len(cfg.ports)):
            pa, pb = cfg.ports[a], cfg.ports[b]
            if pa.base < pb.base + pb.size and pb.base < pa.base + pa.size:
                c.fail(f"{where}.ports",
                       f"ports {quote(pa.name)} and {quote(pb.name)} overlap")


def _parse_memory(c: _Check, tree: dict, cfg: Config, source: str) -> None:
    mem = c.section(tree, "memory", source, {"port", "read_latency",
                                             "write_latency", "fifo_capacity"})
    where = f"{source}.memory"
    port = mem.get("port", cfg.memory_port)
    if not isinstance(port, str):
        c.fail(f"{where}.port", f"expected a port name, got {quote(port)}")
    else:
        cfg.memory_port = port
    if cfg.ports and cfg.memory_port not in {p.name for p in cfg.ports}:
        c.fail(f"{where}.port", f"no crossbar port named {quote(cfg.memory_port)}")
    cfg.mem_read_latency = c.num(mem, "read_latency", where,
                                 cfg.mem_read_latency, minimum=1,
                                 maximum=FIELD_MAX)
    cfg.mem_write_latency = c.num(mem, "write_latency", where,
                                  cfg.mem_write_latency, minimum=1,
                                  maximum=FIELD_MAX)
    cfg.fifo_capacity = c.num(mem, "fifo_capacity", where,
                              cfg.fifo_capacity, minimum=1)


def _parse_qos(c: _Check, tree: dict, cfg: Config, source: str) -> None:
    qos = c.section(tree, "qos", source, {"period", "guard_window",
                                          "monitored", "quotas"})
    where = f"{source}.qos"
    cfg.period = c.num(qos, "period", where, cfg.period, minimum=1)
    cfg.guard_window = c.num(qos, "guard_window", where,
                             cfg.guard_window, minimum=1)
    monitored = qos.get("monitored")
    if monitored is not None:
        valid = set(cfg.resource_names())
        if not isinstance(monitored, list):
            c.fail(f"{where}.monitored", "expected a list of resource names")
        else:
            bad = [m for m in monitored
                   if not isinstance(m, str) or m not in valid]
            if bad:
                c.fail(f"{where}.monitored",
                       f"unknown resources {quote(bad)}, valid: {sorted(valid)}")
            else:
                cfg.monitored = list(monitored)
    for qw, entry in c.entries(qos.get("quotas", []), f"{where}.quotas", {
            "master", "limit", "mode", "action", "handler_latency"}):
        master = c.num(entry, "master", qw, required=True, minimum=0)
        limit = c.num(entry, "limit", qw, required=True, minimum=0)
        mode = c.choice(entry, "mode", qw, MODES, QuotaConfig.mode)
        action = c.choice(entry, "action", qw, ACTIONS, QuotaConfig.action)
        latency = c.num(entry, "handler_latency", qw,
                        QuotaConfig.handler_latency, minimum=0)
        if limit is None or not c.new_master(master, qw, cfg.n_masters,
                                             "quota"):
            continue
        cfg.quotas.append(QuotaConfig(master, limit, mode, action, latency))


def _parse_workloads(c: _Check, tree: dict, cfg: Config, source: str) -> None:
    for lw, entry in c.entries(tree.get("workloads", []), f"{source}.workloads",
                               {"master", "profile", "outstanding"}):
        master = c.num(entry, "master", lw, required=True, minimum=0)
        outstanding = c.num(entry, "outstanding", lw, WorkloadSpec.outstanding,
                            minimum=1)
        profile_node = entry.get("profile")
        if not c.new_master(master, lw, cfg.n_masters, "workload"):
            continue
        pw = f"{lw}.profile"
        if not isinstance(profile_node, dict):
            c.fail(pw, "expected a mapping")
            continue
        c.no_extras(profile_node, pw,
                    {"pattern", "kind_mix", "base", "footprint", "stride",
                     "size", "count", "period", "burst_len", "phase"})
        kwargs = {}
        for key in ("base", "footprint", "stride", "size", "period",
                    "burst_len", "phase"):
            val = c.num(profile_node, key, pw)
            if val is not None:
                kwargs[key] = val
        if "pattern" in profile_node:
            kwargs["pattern"] = profile_node["pattern"]
        if "kind_mix" in profile_node:
            mix = profile_node["kind_mix"]
            if not isinstance(mix, (int, float)) or isinstance(mix, bool):
                c.fail(f"{pw}.kind_mix", f"expected a number, got {quote(mix)}")
            else:
                try:
                    kwargs["kind_mix"] = float(mix)
                except OverflowError:
                    c.fail(f"{pw}.kind_mix",
                           f"must be in [0, 1], got {quote(mix)}")
        if profile_node.get("count") is not None:
            count = c.num(profile_node, "count", pw)
            if count is not None:
                kwargs["count"] = count
        profile = SyntheticProfile(**kwargs)
        c.problems += profile.validate(pw)
        cfg.workloads.append(WorkloadSpec(master, profile, outstanding))


def _parse_verify(c: _Check, tree: dict, cfg: Config, source: str) -> None:
    ver = c.section(tree, "verify", source, {"starvation_window", "deadlines"})
    where = f"{source}.verify"
    if ver.get("starvation_window") is not None:
        cfg.starvation_window = c.num(ver, "starvation_window", where, minimum=1)
    cfg.deadlines = c.int_map(
        ver, "deadlines", where, "a mapping of master to cycles", low=1,
        keys=range(cfg.n_masters), outside="does not exist") or {}


def _parse_trace(c: _Check, tree: dict, cfg: Config, base_dir: str,
                 source: str) -> None:
    path = tree.get("trace")
    if path is None:
        return
    if not isinstance(path, str):
        c.fail(f"{source}.trace", f"expected a file path, got {quote(path)}")
        return
    full = path if os.path.isabs(path) else os.path.join(base_dir, path)
    try:
        with open(full, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # a NUL in the path, or bad UTF-8
        c.fail(f"{source}.trace", f"cannot read {shown_path(full)}: {exc}")
        return
    # one scan: parse_trace raises with every bad line of the file
    try:
        trace = cfg.trace_records = parse_trace(text, source=shown_path(path))
    except ConfigError as exc:
        c.problems.extend(exc.problems)
        return
    # each master is checked at its first record, in file order, which
    # names the first offending record
    profiled = {spec.master for spec in cfg.workloads}
    for master in trace.by_master:
        if master >= cfg.n_masters:
            c.fail(f"{source}.trace",
                   f"trace references master {master}, "
                   f"platform has {cfg.n_masters}")
            return
        if master in profiled:
            c.fail(f"{source}.trace",
                   f"trace has records for master {master}, "
                   f"which {source}.workloads also profiles")
    cfg.trace_by_master = trace.by_master


def load_config(path: str) -> Config:
    shown = shown_path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tree = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read {shown}: {exc}"]) from exc
    except Exception as exc:  # PyYAML raises more than YAMLError
        raise ConfigError([f"{shown}: not valid YAML: {exc}"]) from exc
    if tree is None:
        raise ConfigError([f"{shown}: file is empty"])
    return parse_config(tree, base_dir=os.path.dirname(path) or ".",
                        source=shown_path(os.path.basename(path)))
