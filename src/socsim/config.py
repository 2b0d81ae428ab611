"""Configuration schema: YAML in, validated dataclasses out.

Validation collects every problem it can find and reports them all at
once with their locations, instead of bailing at the first one.

Each integer key's bounds are its row of ``INT_KEYS``.  A value that a
grant record holds, or that sets one (the horizon, every bus, port and
memory occupancy, a request size), is refused above ``FIELD_MAX``, the
largest its packed field holds once its log has widened: it is the
maximum of the rows of those keys.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import islice
from types import SimpleNamespace

import yaml

from .arbiter import POLICIES, ROUND_ROBIN
from .errors import ConfigError, quote, shown_path
from .monitor import ACTIONS, MODES, QuotaConfig
from .resource import FIELD_MAX
from .workload import PATTERNS, PackedTrace, SyntheticProfile, parse_trace
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
    # the trace's records in file order, and each master's
    trace_records: PackedTrace = field(default_factory=PackedTrace)
    starvation_window: int | None = None        # None: 10x max occupancy
    deadlines: dict[int, int] = field(default_factory=dict)

    @property
    def n_masters(self) -> int:
        return self.cores + self.accelerators

    def resource_names(self) -> list[str]:
        return ["bus"] + [f"noc.{p.name}" for p in self.ports] + ["mem"]


# each integer key the parser bounds, by the mapping it sits in ("[]": each
# entry of the list), in the order a mapping's problems come: the attribute
# it sets, whose default is the key's, its minimum and its maximum (None:
# none).  A key that defaults to None takes null as absent.
INT_KEYS = {
    ("sim", "cycles"): ("cycles", 1, FIELD_MAX),
    ("sim", "seed"): ("seed", 0, None),
    ("masters", "cores"): ("cores", 1, None),
    ("masters", "accelerators"): ("accelerators", 0, None),
    ("masters", "id_bits"): ("id_bits", 1, None),
    ("bus.occupancy", "read"): ("bus_read", 1, FIELD_MAX),
    ("bus.occupancy", "write"): ("bus_write", 1, FIELD_MAX),
    # the largest geometry validates and builds within 1 GB
    ("l2", "sets"): ("sets", 1, 2 ** 24),
    ("l2", "ways"): ("ways", 1, 2 ** 16),
    # every fill and writeback is a line, so its port occupancy is at
    # most the line size
    ("l2", "line_size"): ("line_size", 1, FIELD_MAX),
    ("l2", "hit_latency"): ("hit_latency", 0, None),
    ("l2.cacheable[]", "base"): ("base", 0, None),
    ("l2.cacheable[]", "size"): ("size", 1, None),
    ("noc", "routing_latency"): ("routing_latency", 0, None),
    ("noc", "response_latency"): ("response_latency", 0, None),
    ("noc.ports[]", "base"): ("base", 0, None),
    ("noc.ports[]", "size"): ("size", 1, None),
    ("noc.ports[]", "width"): ("width", 1, None),
    ("noc.ports[]", "device_read_latency"): ("device_read_latency", 0, None),
    ("noc.ports[]", "device_write_latency"): ("device_write_latency", 0, None),
    ("memory", "read_latency"): ("mem_read_latency", 1, FIELD_MAX),
    ("memory", "write_latency"): ("mem_write_latency", 1, FIELD_MAX),
    ("memory", "fifo_capacity"): ("fifo_capacity", 1, None),
    ("qos", "period"): ("period", 1, None),
    ("qos", "guard_window"): ("guard_window", 1, None),
    ("qos.quotas[]", "master"): ("master", 0, None),
    ("qos.quotas[]", "limit"): ("limit", 0, None),
    ("qos.quotas[]", "handler_latency"): ("handler_latency", 0, None),
    ("workloads[]", "master"): ("master", 0, None),
    ("workloads[]", "outstanding"): ("outstanding", 1, None),
    ("workloads[].profile", "base"): ("base", 0, None),
    ("workloads[].profile", "footprint"): ("footprint", 1, None),
    ("workloads[].profile", "stride"): ("stride", 1, None),
    ("workloads[].profile", "size"): ("size", 1, FIELD_MAX),
    ("workloads[].profile", "count"): ("count", 0, None),
    ("workloads[].profile", "period"): ("period", 1, None),
    ("workloads[].profile", "burst_len"): ("burst_len", 1, None),
    ("workloads[].profile", "phase"): ("phase", 0, None),
    ("verify", "starvation_window"): ("starvation_window", 1, None),
}


def out_of_bounds(val: int, minimum: int, maximum: int | None) -> str | None:
    """What is wrong with ``val`` for a key of these bounds, if anything."""
    if val < minimum:
        return f"must be >= {minimum}, got {quote(val)}"
    if maximum is not None and val > maximum:
        return f"must be <= {maximum}, got {quote(val)}"
    return None


class _Check:
    """Accumulates problems while pulling typed values out of the tree of
    ``source``."""

    def __init__(self, source: str):
        self.source = source
        self.problems: list[str] = []
        # the masters each kind of per-master entry has claimed
        self.claimed: dict[str, set[int]] = {}

    def fail(self, where: str, msg: str) -> None:
        self.problems.append(f"{where}: {msg}")

    def section(self, node: dict, path: str, allowed=frozenset(),
                into=None) -> tuple[dict, str]:
        """The mapping at ``path``, whose last key is a key of ``node``
        ({} when absent or not a mapping), and its location.  Unless
        ``allowed`` is None, a key in it that is neither ``allowed`` nor
        a row of ``INT_KEYS`` is reported; with ``into``, its rows are
        read into it."""
        where = f"{self.source}.{path}"
        sub = node.get(path.rpartition(".")[2])
        if sub is None:
            return {}, where
        if not isinstance(sub, dict):
            self.fail(where, f"expected a mapping, got {type(sub).__name__}")
            return {}, where
        if allowed is not None:
            self.no_extras(sub, where, allowed, path)
        if into is not None:
            self.ints(sub, where, path, into)
        return sub, where

    def ints(self, node: dict, where: str, section: str, into, *keys) -> None:
        """Read each row of ``INT_KEYS`` in ``section`` (only ``keys``,
        when given) from ``node`` into its attribute of ``into``, whose
        value is the default; a key whose attribute has no default in
        ``into``'s class is required."""
        for (at, key), (attr, minimum, maximum) in INT_KEYS.items():
            if at == section and (not keys or key in keys):
                setattr(into, attr, self.num(
                    node, key, where, getattr(into, attr),
                    not hasattr(type(into), attr), minimum, maximum))

    def num(self, node: dict, key: str, where: str, default=None,
            required=False, minimum=None, maximum=None):
        if key not in node or (node[key] is None and default is None
                               and not required):
            if required:
                self.fail(f"{where}.{key}", "is required")
            return default
        raw = node[key]
        val = _as_int(raw)
        if val is None:
            self.fail(f"{where}.{key}", f"expected an integer, got {quote(raw)}")
            return default
        wrong = minimum is not None and out_of_bounds(val, minimum, maximum)
        if wrong:
            self.fail(f"{where}.{key}", wrong)
            return default
        return val

    def choice(self, node: dict, key: str, where: str, options, default):
        val = node.get(key, default)
        if val not in options:
            self.fail(f"{where}.{key}",
                      f"unknown value {quote(val)}, expected one of {', '.join(options)}")
            return default
        return val

    def no_extras(self, node: dict, where: str, allowed: set[str],
                  section: str | None = None) -> None:
        for key in node:
            if key not in allowed and (section, key) not in INT_KEYS:
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

    def entries(self, raw, path: str, allowed: set[str],
                listed: str = "a list", each: str = "a mapping"):
        """``(where[i], entry)`` for each entry of the list ``raw`` at
        ``path`` that is a mapping, a key in it that is neither
        ``allowed`` nor a row of ``INT_KEYS`` reported; any other entry,
        or a ``raw`` that is not a list, is reported and skipped."""
        where = f"{self.source}.{path}"
        if not isinstance(raw, list):
            self.fail(where, f"expected {listed}")
            return
        for i, entry in enumerate(raw):
            at = f"{where}[{i}]"
            if not isinstance(entry, dict):
                self.fail(at, f"expected {each}")
                continue
            self.no_extras(entry, at, allowed, f"{path}[]")
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
    c = _Check(source)
    cfg = Config()

    c.no_extras(tree, source, {
        "schema_version", "sim", "masters", "bus", "l2", "noc", "memory",
        "qos", "workloads", "trace", "verify"})

    version = c.num(tree, "schema_version", source, required=True)
    if version is not None and version != SCHEMA_VERSION:
        c.fail(f"{source}.schema_version",
               f"unsupported version {quote(version)}, "
               f"this build reads {SCHEMA_VERSION}")

    c.section(tree, "sim", into=cfg)
    c.section(tree, "masters", into=cfg)
    if (cfg.n_masters - 1).bit_length() > cfg.id_bits:
        c.fail(f"{source}.masters.id_bits",
               f"{quote(cfg.n_masters)} masters do not fit in "
               f"{cfg.id_bits} id bits")

    _parse_bus(c, tree, cfg)
    _parse_l2(c, tree, cfg)
    _parse_noc(c, tree, cfg)
    _parse_memory(c, tree, cfg)
    _parse_qos(c, tree, cfg)
    _parse_workloads(c, tree, cfg)
    _parse_verify(c, tree, cfg)
    _parse_trace(c, tree, cfg, base_dir)

    if cfg.l2.cacheable is None:
        mem = next((p for p in cfg.ports if p.name == cfg.memory_port), None)
        cfg.l2.cacheable = [(mem.base, mem.size)] if mem else []

    if c.problems:
        raise ConfigError(c.problems)
    return cfg


def _parse_bus(c: _Check, tree: dict, cfg: Config) -> None:
    bus, where = c.section(tree, "bus", {"policy", "priority", "occupancy"})
    cfg.bus_policy = c.choice(bus, "policy", where, POLICIES, cfg.bus_policy)
    cfg.bus_ranks = c.int_map(
        bus, "priority", where, "a mapping of master to rank",
        keys=range(cfg.cores), outside="is not a core") or {}
    occ, where = c.section(bus, "bus.occupancy", {"sizes"}, cfg)
    sizes, _ = c.section(occ, "bus.occupancy.sizes", None)
    for kind in sizes:
        if kind not in ("read", "write"):
            c.fail(f"{where}.sizes.{kind}", "unknown kind")
            continue
        table = c.int_map(sizes, kind, f"{where}.sizes", "a mapping", low=1,
                          high=FIELD_MAX)
        if table is not None:
            cfg.bus_sizes[kind] = table


def _parse_l2(c: _Check, tree: dict, cfg: Config) -> None:
    l2, where = c.section(tree, "l2", {"enabled", "partitions", "cacheable"})
    enabled = l2.get("enabled", cfg.l2.enabled)
    if not isinstance(enabled, bool):
        c.fail(f"{where}.enabled", f"expected true or false, got {quote(enabled)}")
        enabled = True
    cfg.l2.enabled = enabled
    c.ints(l2, where, "l2", cfg.l2)
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
    for at, entry in c.entries(ranges, "l2.cacheable", set(),
                               "a list of {base, size} entries",
                               "a mapping with base and size"):
        span = SimpleNamespace(base=None, size=None)
        c.ints(entry, at, "l2.cacheable[]", span)
        if span.base is not None and span.size is not None:
            cfg.l2.cacheable.append((span.base, span.size))


def _parse_noc(c: _Check, tree: dict, cfg: Config) -> None:
    noc, where = c.section(tree, "noc", {"policy", "ports"})
    cfg.noc_policy = c.choice(noc, "policy", where, POLICIES, cfg.noc_policy)
    c.ints(noc, where, "noc", cfg)
    ports = noc.get("ports")
    if ports is None:
        cfg.ports = [PortSpec("mem", 0x0000_0000, 0x1000_0000)]
        return
    seen = set()
    # an empty list is refused as a non-list is
    for pw, entry in c.entries(ports or None, "noc.ports",
                               {"name", "occupancy"}, "a non-empty list"):
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            c.fail(f"{pw}.name", "expected a non-empty string")
            continue
        if name in seen:
            c.fail(f"{pw}.name", f"duplicate port name {quote(name)}")
            continue
        seen.add(name)
        # a base or a size that is missing or out of bounds stays 0 or 1
        spec = PortSpec(name, 0, 1)
        c.ints(entry, pw, "noc.ports[]", spec, "base", "size", "width")
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
        c.ints(entry, pw, "noc.ports[]", spec, "device_read_latency",
               "device_write_latency")
        cfg.ports.append(spec)
    for a in range(len(cfg.ports)):
        for b in range(a + 1, len(cfg.ports)):
            pa, pb = cfg.ports[a], cfg.ports[b]
            if pa.base < pb.base + pb.size and pb.base < pa.base + pa.size:
                c.fail(f"{where}.ports",
                       f"ports {quote(pa.name)} and {quote(pb.name)} overlap")


def _parse_memory(c: _Check, tree: dict, cfg: Config) -> None:
    mem, where = c.section(tree, "memory", {"port"})
    port = mem.get("port", cfg.memory_port)
    if not isinstance(port, str):
        c.fail(f"{where}.port", f"expected a port name, got {quote(port)}")
    else:
        cfg.memory_port = port
    if cfg.ports and cfg.memory_port not in {p.name for p in cfg.ports}:
        c.fail(f"{where}.port", f"no crossbar port named {quote(cfg.memory_port)}")
    c.ints(mem, where, "memory", cfg)


def _parse_qos(c: _Check, tree: dict, cfg: Config) -> None:
    qos, where = c.section(tree, "qos", {"monitored", "quotas"}, cfg)
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
    for qw, entry in c.entries(qos.get("quotas", []), "qos.quotas",
                               {"mode", "action"}):
        quota = QuotaConfig(None, None)     # None: not read
        c.ints(entry, qw, "qos.quotas[]", quota, "master", "limit")
        quota.mode = c.choice(entry, "mode", qw, MODES, quota.mode)
        quota.action = c.choice(entry, "action", qw, ACTIONS, quota.action)
        c.ints(entry, qw, "qos.quotas[]", quota, "handler_latency")
        if quota.limit is None or not c.new_master(quota.master, qw,
                                                   cfg.n_masters, "quota"):
            continue
        cfg.quotas.append(quota)


def _parse_workloads(c: _Check, tree: dict, cfg: Config) -> None:
    for lw, entry in c.entries(tree.get("workloads", []), "workloads",
                               {"profile"}):
        load = WorkloadSpec(None, SyntheticProfile())   # None: not read
        c.ints(entry, lw, "workloads[]", load)
        node = entry.get("profile")
        if not c.new_master(load.master, lw, cfg.n_masters, "workload"):
            continue
        pw = f"{lw}.profile"
        profile = load.profile
        if not isinstance(node, dict):
            c.fail(pw, "expected a mapping")
            continue
        c.no_extras(node, pw, {"pattern", "kind_mix"}, "workloads[].profile")
        profile.pattern = c.choice(node, "pattern", pw, PATTERNS,
                                   profile.pattern)
        mix = node.get("kind_mix", profile.kind_mix)
        if not isinstance(mix, (int, float)) or isinstance(mix, bool):
            c.fail(f"{pw}.kind_mix", f"expected a number, got {quote(mix)}")
        elif not 0.0 <= mix <= 1.0:
            try:
                shown = float(mix)
            except OverflowError:   # an int too large for a float
                shown = quote(mix)
            c.fail(f"{pw}.kind_mix", f"must be in [0, 1], got {shown}")
        else:
            profile.kind_mix = float(mix)
        c.ints(node, pw, "workloads[].profile", profile)
        cfg.workloads.append(load)


def _parse_verify(c: _Check, tree: dict, cfg: Config) -> None:
    ver, where = c.section(tree, "verify", {"deadlines"}, cfg)
    cfg.deadlines = c.int_map(
        ver, "deadlines", where, "a mapping of master to cycles", low=1,
        keys=range(cfg.n_masters), outside="does not exist") or {}


def _parse_trace(c: _Check, tree: dict, cfg: Config, base_dir: str) -> None:
    path = tree.get("trace")
    if path is None:
        return
    if not isinstance(path, str):
        c.fail(f"{c.source}.trace", f"expected a file path, got {quote(path)}")
        return
    full = path if os.path.isabs(path) else os.path.join(base_dir, path)
    try:
        with open(full, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # a NUL in the path, or bad UTF-8
        c.fail(f"{c.source}.trace", f"cannot read {shown_path(full)}: {exc}")
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
            c.fail(f"{c.source}.trace",
                   f"trace references master {master}, "
                   f"platform has {cfg.n_masters}")
            return
        if master in profiled:
            c.fail(f"{c.source}.trace",
                   f"trace has records for master {master}, "
                   f"which {c.source}.workloads also profiles")


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
