"""Configuration parsing: defaults, validation, multi-error collection."""

import copy
import os
import re

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from socsim.cli import main
from socsim.config import (INT_KEYS, Config, L2Spec, load_config,
                           parse_config, PortSpec, SCHEMA_VERSION)
from socsim.errors import ConfigError, quote
from socsim.resource import FIELD_MAX
from socsim.system import build
from socsim.verify import run_checks
from socsim.workload import SyntheticProfile, lint_trace

from platforms import rows_in
from test_console import GB, run_python


def parse(tree, **kw):
    tree.setdefault("schema_version", SCHEMA_VERSION)
    return parse_config(tree, **kw)


def problems_of(tree, **kw):
    with pytest.raises(ConfigError) as err:
        parse(tree, **kw)
    return err.value.problems


def test_minimal_config_uses_defaults():
    cfg = parse({})
    assert cfg.cycles == 10000 and cfg.seed == 1
    assert cfg.cores == 4 and cfg.accelerators == 0
    assert cfg.bus_read == 5 and cfg.bus_write == 3
    assert [p.name for p in cfg.ports] == ["mem"]
    assert cfg.resource_names() == ["bus", "noc.mem", "mem"]
    # eight ways split evenly over four cores
    assert cfg.l2.partitions == {0: [0, 1], 1: [2, 3], 2: [4, 5], 3: [6, 7]}
    # cacheable defaults to the memory port's range
    assert cfg.l2.cacheable == [(0x0, 0x1000_0000)]
    assert cfg.monitored is None


def test_schema_version_is_required_and_checked():
    with pytest.raises(ConfigError) as err:
        parse_config({"sim": {}})
    assert any("schema_version" in p and "required" in p
               for p in err.value.problems)
    with pytest.raises(ConfigError) as err:
        parse_config({"schema_version": 99})
    assert any("unsupported version 99" in p for p in err.value.problems)


def test_every_problem_is_collected_with_location():
    probs = problems_of({
        "sim": {"cycles": 0},
        "masters": {"cores": 0},
        "bus": {"policy": "bogus"},
        "qos": {"quotas": [{"master": 0}]},
        "junk": 1,
    })
    text = "\n".join(probs)
    assert "sim.cycles" in text
    assert "masters.cores" in text
    assert "bus.policy" in text
    assert "quotas[0].limit" in text
    assert "junk" in text and "unknown key" in text
    assert len(probs) >= 5


def test_integers_accept_hex_strings_and_reject_bools():
    cfg = parse({"noc": {"ports": [
        {"name": "mem", "base": "0x1000", "size": "0x100"}]}})
    assert cfg.ports[0].base == 0x1000 and cfg.ports[0].size == 0x100
    probs = problems_of({"sim": {"cycles": True}})
    assert any("sim.cycles" in p and "integer" in p for p in probs)


def test_id_bits_must_cover_masters():
    probs = problems_of({"masters": {"cores": 10, "accelerators": 7,
                                     "id_bits": 4}})
    assert any("17 masters do not fit in 4 id bits" in p for p in probs)
    cfg = parse({"masters": {"cores": 10, "accelerators": 6, "id_bits": 4},
                 "l2": {"enabled": False}})
    assert cfg.n_masters == 16


def test_id_bits_check_takes_constant_memory():
    # 1 << 10**12 would need 125 GB; the child caps its address space, so
    # a check that builds the number fails here instead of exhausting
    # the host
    child = """
from socsim.config import parse_config
cfg = parse_config({"schema_version": 1, "masters": {"id_bits": 10**12}})
print(cfg.id_bits == 10**12)
"""
    done = run_python("-c", child, cap=GB)
    assert (done.returncode, done.stdout) == (0, b"True\n"), done.stderr


def test_partition_validation():
    probs = problems_of({"l2": {"partitions": {9: [0]}}})
    assert any("not a core" in p for p in probs)
    probs = problems_of({"l2": {"ways": 4, "partitions": {0: [5]}}})
    assert any("out of range" in p for p in probs)
    probs = problems_of({"masters": {"cores": 2},
                         "l2": {"partitions": {0: [0]}}})
    assert any("core 1 has no ways" in p for p in probs)
    # the first 64 cores without ways are listed, the rest counted
    probs = problems_of({"masters": {"cores": 66, "id_bits": 7},
                         "l2": {"partitions": {0: [0]}}})
    assert probs[-2:] == ["<config>.l2.partitions: core 64 has no ways",
                          "<config>.l2.partitions: 1 more cores have no ways"]
    probs = problems_of({"l2": {"partitions": {0: []}}})
    assert any("non-empty list" in p for p in probs)


def test_default_partition_needs_enough_ways():
    probs = problems_of({"masters": {"cores": 4}, "l2": {"ways": 2}})
    assert any("cannot cover" in p for p in probs)
    # with the cache off nobody needs ways
    cfg = parse({"masters": {"cores": 4}, "l2": {"enabled": False, "ways": 2}})
    assert not cfg.l2.enabled


def test_port_overlap_and_duplicates_detected():
    probs = problems_of({"noc": {"ports": [
        {"name": "a", "base": 0, "size": 0x2000},
        {"name": "b", "base": 0x1000, "size": 0x1000},
    ]}, "memory": {"port": "a"}})
    assert any("overlap" in p for p in probs)
    probs = problems_of({"noc": {"ports": [
        {"name": "a", "base": 0, "size": 0x1000},
        {"name": "a", "base": 0x1000, "size": 0x1000},
    ]}, "memory": {"port": "a"}})
    assert any("duplicate port name" in p for p in probs)


def test_memory_port_must_name_a_real_port():
    probs = problems_of({"memory": {"port": "dram"}})
    assert any("no crossbar port named 'dram'" in p for p in probs)


def test_monitored_must_name_real_resources():
    cfg = parse({"qos": {"monitored": ["bus", "mem"]}})
    assert cfg.monitored == ["bus", "mem"]
    probs = problems_of({"qos": {"monitored": ["bus", "noc.gpu"]}})
    assert any("unknown resources" in p and "noc.gpu" in p for p in probs)


def test_non_string_monitored_entry_is_a_config_problem():
    for entry in (["mem"], {"name": "mem"}, 3):
        probs = problems_of({"qos": {"monitored": ["bus", entry]}})
        assert any(p.startswith("<config>.qos.monitored: ") for p in probs)


def test_quota_parsing_and_validation():
    cfg = parse({"qos": {"quotas": [
        {"master": 1, "limit": 500, "mode": "interrupt",
         "action": "log_only", "handler_latency": 50}]}})
    q = cfg.quotas[0]
    assert (q.master, q.limit, q.mode, q.action, q.handler_latency) == \
        (1, 500, "interrupt", "log_only", 50)
    probs = problems_of({"qos": {"quotas": [
        {"master": 0, "limit": 1}, {"master": 0, "limit": 2}]}})
    assert any("duplicate quota" in p for p in probs)
    probs = problems_of({"qos": {"quotas": [{"master": 99, "limit": 1}]}})
    assert any("master 99 does not exist" in p for p in probs)
    probs = problems_of({"qos": {"quotas": [
        {"master": 0, "limit": 1, "mode": "nuke"}]}})
    assert any("unknown value 'nuke'" in p for p in probs)


def test_workload_parsing_and_validation():
    cfg = parse({"workloads": [
        {"master": 0, "outstanding": 2,
         "profile": {"pattern": "periodic", "period": 50, "base": "0x100",
                     "footprint": 4096, "kind_mix": 0.5}}]})
    w = cfg.workloads[0]
    assert w.master == 0 and w.outstanding == 2
    assert w.profile.pattern == "periodic" and w.profile.base == 0x100
    probs = problems_of({"workloads": [
        {"master": 0, "profile": {"pattern": "warp"}}]})
    assert any("unknown value 'warp'" in p for p in probs)
    probs = problems_of({"workloads": [
        {"master": 0, "profile": {"kind_mix": 2.0}}]})
    assert any("kind_mix" in p for p in probs)
    # an integer too large for a float is out of range like any other
    huge = int("f" * 400, 16)
    probs = problems_of({"workloads": [
        {"master": 0, "profile": {"kind_mix": huge}}]})
    assert probs == [f"<config>.workloads[0].profile.kind_mix: "
                     f"must be in [0, 1], got {quote(huge)}"]
    assert problems_of({"workloads": [
        {"master": 0, "profile": {"kind_mix": 2}}]}) == [
        "<config>.workloads[0].profile.kind_mix: must be in [0, 1], got 2.0"]
    probs = problems_of({"workloads": [
        {"master": 0, "profile": {}}, {"master": 0, "profile": {}}]})
    assert any("duplicate workload" in p for p in probs)
    probs = problems_of({"workloads": [{"master": 42, "profile": {}}]})
    assert any("master 42 does not exist" in p for p in probs)


def test_a_profile_reports_each_bad_field_at_its_location():
    assert problems_of({"workloads": [{"master": 0, "profile": {
        "pattern": "nope", "kind_mix": 1.5, "stride": 0}}]}) == [
        "<config>.workloads[0].profile.pattern: unknown value 'nope', "
        "expected one of saturating, periodic, bursty",
        "<config>.workloads[0].profile.kind_mix: must be in [0, 1], got 1.5",
        "<config>.workloads[0].profile.stride: must be >= 1, got 0"]


def test_bus_occupancy_size_tables():
    cfg = parse({"bus": {"occupancy": {
        "read": 4, "write": 2,
        "sizes": {"read": {8: 4, "0x40": 15}}}}})
    assert cfg.bus_read == 4 and cfg.bus_write == 2
    assert cfg.bus_sizes == {"read": {8: 4, 0x40: 15}}
    probs = problems_of({"bus": {"occupancy": {"sizes": {"erase": {8: 1}}}}})
    assert any("unknown kind" in p for p in probs)
    probs = problems_of({"bus": {"occupancy": {"sizes": {"read": {8: 0}}}}})
    assert any("bad entry" in p for p in probs)


def test_priority_ranks_only_for_cores():
    cfg = parse({"bus": {"policy": "fixed_priority", "priority": {0: 2, 1: 1}}})
    assert cfg.bus_ranks == {0: 2, 1: 1}
    probs = problems_of({"masters": {"cores": 2},
                         "bus": {"priority": {5: 1}}})
    assert any("master 5 is not a core" in p for p in probs)


def test_verify_section():
    cfg = parse({"verify": {"starvation_window": 500,
                            "deadlines": {0: 800, "1": 900}}})
    assert cfg.starvation_window == 500
    assert cfg.deadlines == {0: 800, 1: 900}
    probs = problems_of({"verify": {"deadlines": {0: 0}}})
    assert any("bad entry" in p for p in probs)
    probs = problems_of({"verify": {"deadlines": {9: 100}}})
    assert any("master 9 does not exist" in p for p in probs)


def test_negative_deadline_master_is_reported():
    # a negative key would otherwise index the masters from the end:
    # check_deadlines judged the last master and named it master -1
    probs = problems_of({"masters": {"cores": 2},
                         "verify": {"deadlines": {-1: 30, "-2": 40}}})
    assert probs == ["<config>.verify.deadlines: master -1 does not exist",
                     "<config>.verify.deadlines: master -2 does not exist"]


def test_trace_file_loading(tmp_path):
    trace = tmp_path / "t.trace"
    trace.write_text("# trace-format: v1\n0 0 R 0x0 8\n5 1 W 0x40 8\n")
    cfg = parse({"masters": {"cores": 2}, "l2": {"enabled": False},
                 "trace": "t.trace"}, base_dir=str(tmp_path))
    assert [(r.cycle, r.master) for r in cfg.trace_records] == [(0, 0), (5, 1)]

    trace.write_text("# trace-format: v1\n0 5 R 0x0 8\n")
    probs = problems_of({"masters": {"cores": 2}, "l2": {"enabled": False},
                         "trace": "t.trace"}, base_dir=str(tmp_path))
    assert any("references master 5" in p for p in probs)

    trace.write_text("# trace-format: v1\n9 0 R 0x0 8\n5 0 R 0x0 8\n")
    probs = problems_of({"masters": {"cores": 2}, "l2": {"enabled": False},
                         "trace": "t.trace"}, base_dir=str(tmp_path))
    assert probs          # lint problems surface through config validation

    probs = problems_of({"trace": "missing.trace"}, base_dir=str(tmp_path))
    assert any("cannot read" in p for p in probs)


def test_master_with_both_a_trace_and_a_profile_is_refused(tmp_path):
    # master 1 replays the trace and is profiled too; master 0 only replays
    (tmp_path / "t.trace").write_text(
        "# trace-format: v1\n0 0 R 0x0 8\n5 1 W 0x40 8\n9 1 R 0x80 8\n")
    probs = problems_of({
        "masters": {"cores": 2}, "trace": "t.trace",
        "workloads": [{"master": 1, "profile": {"pattern": "saturating"}}]},
        base_dir=str(tmp_path))
    assert probs == ["<config>.trace: trace has records for master 1, "
                     "which <config>.workloads also profiles"]


def test_trace_is_scanned_once(tmp_path, monkeypatch):
    from socsim import workload
    scans = []
    real_scan = workload._scan_trace

    def counting_scan(text, source):
        scans.append(source)
        return real_scan(text, source)

    monkeypatch.setattr(workload, "_scan_trace", counting_scan)
    trace = tmp_path / "t.trace"
    trace.write_text("# trace-format: v1\n0 0 R 0x0 8\n5 1 W 0x40 8\n")
    tree = {"masters": {"cores": 2}, "l2": {"enabled": False},
            "trace": "t.trace"}
    cfg = parse(dict(tree), base_dir=str(tmp_path))
    assert len(cfg.trace_records) == 2
    assert scans == ["t.trace"]

    # a bad trace still reports every bad line, from that same single scan
    scans.clear()
    trace.write_text("# trace-format: v1\n"
                     "9 0 R 0x0 8\n"
                     "garbage\n"
                     "5 0 R 0x0 8\n"
                     "9 1 W 0x40 0\n")
    probs = problems_of(dict(tree), base_dir=str(tmp_path))
    assert scans == ["t.trace"]
    assert [p.split(":")[1] for p in probs] == ["3", "4", "5"]


def test_load_config_reports_yaml_problems(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("sim: [unclosed\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(bad))
    assert any("not valid YAML" in p for p in err.value.problems)

    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(ConfigError) as err:
        load_config(str(empty))
    assert any("file is empty" in p for p in err.value.problems)

    with pytest.raises(ConfigError) as err:
        load_config(str(tmp_path / "nope.yaml"))
    assert any("cannot read" in p for p in err.value.problems)


# PyYAML raises more than YAMLError on a document it cannot load
@pytest.mark.parametrize("document", [
    "schema_version: 1\nsim: {cycles: 2020-13-45}\n",
    "schema_version: 1\nsim: {cycles: !!int 0b2}\n",
    "schema_version: 1\nsim: {cycles: !!float abc}\n",
    "schema_version: 1\nsim: {cycles: 2001-12-14 21:59:43.10 -25:00}\n",
    "schema_version: 1\nsim: {cycles: !!timestamp nope}\n",
    "[" * 1000 + "\n",
], ids=["month-13", "binary-2", "float-abc", "offset-25h",
        "timestamp-nope", "1000-deep"])
def test_load_config_reports_any_document_it_cannot_load(tmp_path, document):
    path = tmp_path / "bad.yaml"
    path.write_text(document)
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    [problem] = err.value.problems
    assert problem.startswith(f"{path}: not valid YAML: ")


def _port(**occupancy):
    return {"noc": {"ports": [{"name": "mem", "base": 0, "size": 4096,
                               "occupancy": occupancy}]}}


# each value a grant record holds, or that sets one, as a tree with that
# value; the location a value beyond the packed field is reported at
PACKED_VALUES = {
    "sim.cycles": lambda v: {"sim": {"cycles": v}},
    "bus.occupancy.read": lambda v: {"bus": {"occupancy": {"read": v}}},
    "bus.occupancy.write": lambda v: {"bus": {"occupancy": {"write": v}}},
    "bus.occupancy.sizes.read": lambda v: {
        "bus": {"occupancy": {"sizes": {"read": {8: v}}}}},
    "noc.ports[0].occupancy": lambda v: _port(read=1, write=v),
    "memory.read_latency": lambda v: {"memory": {"read_latency": v}},
    "memory.write_latency": lambda v: {"memory": {"write_latency": v}},
    "l2.line_size": lambda v: {"l2": {"line_size": v}},
}


@pytest.mark.parametrize("where", PACKED_VALUES)
def test_a_value_beyond_its_packed_field_is_a_problem_at_its_location(where):
    tree_of = PACKED_VALUES[where]
    parse(tree_of(FIELD_MAX))
    problems = problems_of(tree_of(FIELD_MAX + 1))
    assert [p.split(": ", 1)[0] for p in problems] == [f"<config>.{where}"]
    assert str(FIELD_MAX) in problems[0]


def test_a_trace_size_beyond_its_packed_field_is_a_problem_on_its_line(
        tmp_path):
    trace = f"0 0 R 0x0 {FIELD_MAX}\n1 0 R 0x0 {FIELD_MAX + 1}\n"
    (tmp_path / "t.trace").write_text(trace)
    assert lint_trace(trace, "t.trace") == [
        f"t.trace:2: size must be <= {FIELD_MAX}, got {FIELD_MAX + 1}"]
    problems = problems_of({"trace": "t.trace"}, base_dir=str(tmp_path))
    assert problems == lint_trace(trace, "t.trace")


def test_the_largest_request_a_trace_holds_runs(tmp_path):
    # L2 off, so the request crosses the port in ceil(size / width)
    # cycles, an occupancy its grant record must hold
    (tmp_path / "t.trace").write_text(f"0 0 R 0x0 {FIELD_MAX}\n")
    system = build(parse({"sim": {"cycles": 100}, "masters": {"cores": 1},
                          "l2": {"enabled": False}, "trace": "t.trace"},
                         base_dir=str(tmp_path)))
    system.run()
    [grant] = system.ports[0].grants
    assert grant.occupancy == -(-FIELD_MAX // 8)
    assert grant.t_completed == -1


def test_the_largest_line_an_l2_holds_runs():
    # a miss fills a line of FIELD_MAX bytes over a one-byte port: the
    # longest occupancy a grant record holds
    system = build(parse({
        "sim": {"cycles": 100}, "masters": {"cores": 1},
        "l2": {"line_size": FIELD_MAX},
        "noc": {"ports": [{"name": "mem", "base": 0, "size": 2 ** 32,
                           "width": 1}]},
        "workloads": [{"master": 0, "profile": {
            "pattern": "periodic", "count": 1, "period": 10}}]}))
    system.run()
    [fill] = system.ports[0].grants
    assert fill.occupancy == FIELD_MAX
    assert fill.t_completed == -1
    assert run_checks(system)["starvation"]["pass"]


def test_load_config_reports_an_undecodable_file(tmp_path):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"schema_version: 1\nsim: {cycles: \xff}\n")
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert err.value.problems == [
        f"cannot read {path}: 'utf-8' codec can't decode byte 0xff in "
        "position 32: invalid start byte"]


def test_undecodable_trace_is_reported_at_the_trace_key(tmp_path):
    (tmp_path / "t.trace").write_bytes(b"# trace-format: v1\n0 0 R \xff 8\n")
    probs = problems_of({"masters": {"cores": 1}, "trace": "t.trace"},
                        base_dir=str(tmp_path))
    assert probs == [
        f"<config>.trace: cannot read {tmp_path / 't.trace'}: 'utf-8' codec "
        "can't decode byte 0xff in position 25: invalid start byte"]


def test_trace_path_with_a_nul_is_reported_at_the_trace_key(tmp_path):
    probs = problems_of({"masters": {"cores": 1}, "trace": "a\0b"},
                        base_dir=str(tmp_path))
    # the path shows escaped, so no NUL reaches stderr
    full = os.path.join(str(tmp_path), "a\0b")
    assert probs == [f"<config>.trace: cannot read {full!r}: "
                     "embedded null byte"]
    assert "a\\x00b'" in probs[0]


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "ok.yaml"
    path.write_text(
        "schema_version: 1\n"
        "sim: {cycles: 500, seed: 7}\n"
        "masters: {cores: 2, accelerators: 1, id_bits: 4}\n"
        "l2: {enabled: false}\n"
        "workloads:\n"
        "  - {master: 0, profile: {pattern: saturating}}\n")
    cfg = load_config(str(path))
    assert cfg.cycles == 500 and cfg.seed == 7 and cfg.n_masters == 3


# ---------------------------------------------------------------------------
# every problem injected into a valid tree is reported where it was put
# ---------------------------------------------------------------------------

FULL_TREE = {
    "schema_version": SCHEMA_VERSION,
    "sim": {"cycles": 5000, "seed": 3},
    "masters": {"cores": 2, "accelerators": 2, "id_bits": 3},
    "bus": {"policy": "fixed_priority", "priority": {0: 1, 1: 0},
            "occupancy": {"read": 5, "write": 3, "sizes": {"read": {64: 9}}}},
    "l2": {"enabled": True, "sets": 16, "ways": 4, "line_size": 64,
           "hit_latency": 2, "partitions": {0: [0, 1], 1: [2, 3]},
           "cacheable": [{"base": 0, "size": 0x100000}]},
    "noc": {"policy": "quota_aware", "routing_latency": 1,
            "response_latency": 1, "ports": [
                {"name": "mem", "base": 0, "size": 0x1000000, "width": 8},
                {"name": "dev", "base": 0x1000000, "size": 0x1000,
                 "width": 4, "occupancy": {"read": 3},
                 "device_read_latency": 12, "device_write_latency": 5}]},
    "memory": {"port": "mem", "read_latency": 40, "write_latency": 30,
               "fifo_capacity": 4},
    "qos": {"period": 4000, "guard_window": 80, "monitored": ["bus", "mem"],
            "quotas": [{"master": 1, "limit": 300, "mode": "hw_stall",
                        "action": "throttle_source", "handler_latency": 50}]},
    "workloads": [
        {"master": 0, "outstanding": 2, "profile": {
            "pattern": "saturating", "kind_mix": 0.5, "base": 0,
            "footprint": 4096, "stride": 64, "size": 8, "count": 100}},
        {"master": 2, "profile": {
            "pattern": "bursty", "period": 200, "burst_len": 4, "phase": 10,
            "base": 0x200000, "footprint": 8192, "stride": 64, "size": 64}},
    ],
    "trace": "full.trace",
    "verify": {"starvation_window": 2000, "deadlines": {0: 500}},
}

# integer leaves and their minimums (None: no minimum): the place of each
# row of INT_KEYS in the tree, and the one key the table leaves to others
_INTS = {path: minimum for path, (_, minimum, _) in rows_in(FULL_TREE, INT_KEYS)}
_INTS[("schema_version",)] = None
# mappings whose keys are a fixed set
_SECTIONS = [
    (), ("sim",), ("masters",), ("bus",), ("bus", "occupancy"),
    ("bus", "occupancy", "sizes"), ("l2",), ("l2", "cacheable", 0), ("noc",),
    ("noc", "ports", 0), ("memory",), ("qos",), ("qos", "quotas", 0),
    ("workloads", 0), ("workloads", 1, "profile"), ("verify",)]
# values that must be mappings
_MAPPINGS = [path for path in _SECTIONS if path] + [
    ("bus", "priority"), ("l2", "partitions"), ("verify", "deadlines")]
_CHOICES = [("bus", "policy"), ("noc", "policy"), ("memory", "port"),
            ("qos", "quotas", 0, "mode"), ("qos", "quotas", 0, "action"),
            ("workloads", 0, "profile", "pattern")]
_LISTS = [("noc", "ports"), ("qos", "quotas"), ("qos", "monitored"),
          ("l2", "cacheable"), ("workloads",)]

_junk = st.one_of(st.integers(), st.text(), st.lists(st.integers(), max_size=2),
                  st.dictionaries(st.text(max_size=3), st.integers(),
                                  max_size=2))
_not_int = st.one_of(st.booleans(), st.floats(allow_nan=False),
                     st.sampled_from(["ten", "0x", "1.5", ""]),
                     st.lists(st.integers(), max_size=2))


def _injection(kind):
    """(path, value): setting ``value`` at ``path`` must be reported at
    ``path``."""
    if kind == "non-integer":
        return st.tuples(st.sampled_from(sorted(_INTS, key=str)), _not_int)
    if kind == "below minimum":
        paths = sorted((p for p, lo in _INTS.items() if lo is not None),
                       key=str)
        return st.tuples(st.sampled_from(paths), st.integers(1, 10**6)).map(
            lambda pk: (pk[0], _INTS[pk[0]] - pk[1]))
    if kind == "unknown key":
        key = st.text("abcdefghij_", min_size=1).map(lambda k: "x" + k)
        return st.tuples(st.sampled_from(_SECTIONS), key, st.integers()).map(
            lambda pkv: (pkv[0] + (pkv[1],), pkv[2]))
    if kind == "unknown choice":
        return st.tuples(st.sampled_from(_CHOICES),
                         st.one_of(st.text().map(lambda t: "x" + t),
                                   st.lists(st.text(), max_size=2)))
    if kind == "non-mapping":
        return st.tuples(st.sampled_from(_MAPPINGS),
                         _junk.filter(lambda v: not isinstance(v, dict)))
    if kind == "non-list":
        return st.tuples(st.sampled_from(_LISTS),
                         _junk.filter(lambda v: not isinstance(v, list)))
    assert kind == "non-string monitored entry"
    names = FULL_TREE["qos"]["monitored"]
    entry = st.one_of(st.integers(), st.lists(st.text(), max_size=2),
                      st.dictionaries(st.text(max_size=3), st.text(),
                                      max_size=2))
    return st.tuples(st.integers(0, len(names)), entry).map(lambda ie: (
        ("qos", "monitored"), names[:ie[0]] + [ie[1]] + names[ie[0]:]))


_KINDS = ["non-integer", "below minimum", "unknown key", "unknown choice",
          "non-mapping", "non-list", "non-string monitored entry"]


def _where(path):
    return "<config>" + "".join(
        f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)


@pytest.fixture(scope="module")
def full_tree_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("full")
    (directory / "full.trace").write_text(
        "# trace-format: v1\n0 1 R 0x00001000 8\n4 3 W 0x00300000 64\n")
    return str(directory)


def test_full_tree_parses(full_tree_dir):
    cfg = parse_config(copy.deepcopy(FULL_TREE), base_dir=full_tree_dir)
    assert len(cfg.trace_records) == 2 and len(cfg.workloads) == 2


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_every_injected_problem_is_reported(full_tree_dir, data):
    kind = data.draw(st.sampled_from(_KINDS))
    path, value = data.draw(_injection(kind))
    tree = copy.deepcopy(FULL_TREE)
    node = tree
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ConfigError) as err:
        parse_config(tree, base_dir=full_tree_dir)
    where = _where(path)
    assert any(p.startswith(f"{where}: ") for p in err.value.problems), \
        (kind, where, err.value.problems)


# ---------------------------------------------------------------------------
# README's configuration block parses and shows the defaults
# ---------------------------------------------------------------------------

def _readme_configuration():
    """README's Configuration section: its prose, and the tree of its
    YAML block."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Configuration"):]
    prose, block = re.search(r"(.*?)```yaml\n(.*?)```", section, re.S).groups()
    # the trace names a file the README does not ship
    return prose, yaml.safe_load(re.sub(r"^trace:.*\n", "", block, flags=re.M))


def test_readme_config_block_shows_the_defaults():
    _, tree = _readme_configuration()
    cfg = parse_config(copy.deepcopy(tree))
    default, l2 = Config(), L2Spec()
    for (section, key), (attr, _, _) in INT_KEYS.items():
        if "[]" in section:
            continue
        # every integer key of a section is shown, at its default
        assert list(rows_in(tree, {(section, key): None})), key
        of, shown = (l2, cfg.l2) if section == "l2" else (default, cfg)
        assert getattr(shown, attr) == getattr(of, attr), (section, key)
    # an entry of a list shows each key that has a default at it
    entries = {"noc.ports[]": cfg.ports, "qos.quotas[]": cfg.quotas,
               "workloads[]": cfg.workloads}
    for (section, key), (attr, _, _) in INT_KEYS.items():
        for entry in entries.get(section, []):
            if hasattr(type(entry), attr):
                assert getattr(entry, attr) == getattr(type(entry), attr)
    for attr in ("bus_policy", "noc_policy", "memory_port"):
        assert getattr(cfg, attr) == getattr(default, attr)
    assert cfg.l2.enabled == l2.enabled
    [load] = cfg.workloads
    assert load.profile == SyntheticProfile()


def test_readme_names_the_keys_held_to_field_max():
    prose, _ = _readme_configuration()
    [sentence] = [s for s in re.split(r"\.\s+", prose) if "2^63 − 1" in s]
    named = set(re.findall(r"`(\w+(?:\[\]|\.\w+)+)`", sentence))
    assert named == {f"{section}.{key}"
                     for (section, key), row in INT_KEYS.items()
                     if row[2] == FIELD_MAX}


# ---------------------------------------------------------------------------
# each row of INT_KEYS: its bounds hold, and the value past each is refused
# ---------------------------------------------------------------------------

# what an entry of a list needs beside its integer keys
_ENTRY = {"l2.cacheable": {}, "noc.ports": {"name": "mem"},
          "qos.quotas": {}, "workloads": {"profile": {}}}
# rows whose maximum is built only in a child under an address-space cap
L2_GEOMETRY = [("l2", "sets"), ("l2", "ways")]
# the rows that ``socsim run`` overrides, and their flags
OVERRIDDEN = {("sim", "seed"): "--seed", ("sim", "cycles"): "--cycles"}


def _tree_with(section, key, value):
    """The smallest tree that has ``value`` at the row ``(section, key)``:
    one core, and in each list on the way to the row, one entry whose
    integer keys are at their minimum."""
    tree = {"schema_version": SCHEMA_VERSION, "masters": {"cores": 1}}
    node, path = tree, []
    for part in section.split("."):
        path.append(part)
        name = part.removesuffix("[]")
        if part == name:
            node = node.setdefault(name, {})
            continue
        here = ".".join(path)
        entry = {k: low for (at, k), (_, low, _) in INT_KEYS.items()
                 if at == here}
        node[name] = [dict(copy.deepcopy(_ENTRY[here[:-2]]), **entry)]
        node = node[name][0]
    node[key] = value
    return tree


@pytest.mark.parametrize("section, key", INT_KEYS,
                         ids=[f"{section}.{key}" for section, key in INT_KEYS])
def test_an_integer_key_takes_its_bounds_and_refuses_past_them(
        tmp_path, capsys, section, key):
    _, minimum, maximum = INT_KEYS[section, key]
    parse(_tree_with(section, key, minimum))
    if maximum is not None and (section, key) not in L2_GEOMETRY:
        parse(_tree_with(section, key, maximum))
    past = [(minimum - 1, f"must be >= {minimum}, got {minimum - 1}")]
    if maximum is not None:
        past.append((maximum + 1,
                     f"must be <= {maximum}, got {quote(maximum + 1)}"))
    where = f"<config>.{section.replace('[]', '[0]')}.{key}"
    for value, wrong in past:
        assert problems_of(_tree_with(section, key, value)) == [
            f"{where}: {wrong}"]
    flag = OVERRIDDEN.get((section, key))
    if flag is None:
        return
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("schema_version: 1\nmasters: {cores: 1}\n")
    for value, wrong in past:
        assert main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / "out"), flag, str(value)]) == 2
        assert capsys.readouterr().err == f"{flag}: {wrong}\n"
        assert not (tmp_path / "out").exists()


# the rows whose default is None, and what a parsed config holds at each
NULL_IS_DEFAULT = {
    ("verify", "starvation_window"): lambda cfg: cfg.starvation_window,
    ("workloads[].profile", "count"): lambda cfg: cfg.workloads[0].profile.count,
}


def test_null_is_the_default_exactly_where_the_default_is_none():
    assert Config().starvation_window is None
    assert SyntheticProfile().count is None
    for section, key in INT_KEYS:
        tree = _tree_with(section, key, None)
        held = NULL_IS_DEFAULT.get((section, key))
        if held is not None:
            assert held(parse(tree)) is None, (section, key)
            continue
        where = f"<config>.{section.replace('[]', '[0]')}.{key}"
        assert problems_of(tree) == [
            f"{where}: expected an integer, got None"], (section, key)


def test_the_largest_l2_geometry_validates_and_builds_in_1_gb():
    # the child caps its address space, so a bound too large to allocate
    # fails here instead of exhausting the host
    child = """
from socsim.config import INT_KEYS, parse_config
from socsim.system import build
for key in ("sets", "ways"):
    maximum = INT_KEYS["l2", key][2]
    system = build(parse_config({"schema_version": 1, "masters": {"cores": 1},
                                 "l2": {key: maximum}}))
    print(key, getattr(system.l2, key) == maximum)
"""
    done = run_python("-c", child, cap=GB)
    assert (done.returncode, done.stdout) == (0, b"sets True\nways True\n"), \
        done.stderr[-500:]
