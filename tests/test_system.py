"""Whole-platform integration: hand-computed end-to-end latencies,
id integrity, determinism, and runtime failure modes."""

import pytest

from socsim.config import parse_config, SCHEMA_VERSION
from socsim.errors import ConfigError, SimulationError
from socsim.report import build_report, render_json
from socsim.system import build

from charge_log import record_charges
from completion_log import record_completions


def make_system(tree, base_dir="."):
    tree.setdefault("schema_version", SCHEMA_VERSION)
    return build(parse_config(tree, base_dir=base_dir))


def run_system(tree, base_dir="."):
    system = make_system(tree, base_dir=base_dir)
    system.run()
    return system


def run_recorded(tree, base_dir="."):
    """Run ``tree``: the system and the transactions it completed, in
    completion order."""
    system = make_system(tree, base_dir=base_dir)
    completed = record_completions(system)
    system.run()
    return system, completed


def latencies(completed, master):
    """End-to-end latencies of ``master``'s completed transactions, in
    completion order."""
    return [t.t_done - t.t_issued for t in completed if t.owner == master]


def one_shot(master, **profile):
    profile.setdefault("pattern", "periodic")
    profile.setdefault("count", 1)
    profile.setdefault("size", 8)
    return {"master": master, "profile": profile}


def test_core_read_latency_without_cache():
    # bus 5 + routing 1 + transfer 1 + memory 40 + response 1 = 48
    sys, done = run_recorded({
        "sim": {"cycles": 200},
        "masters": {"cores": 1},
        "l2": {"enabled": False},
        "workloads": [one_shot(0, base=0x1000, footprint=64, stride=8)],
    })
    assert latencies(done, 0) == [48]
    txn = done[0]
    assert [(resource, granted, done)
            for resource, _requested, granted, done in sys.timeline(txn)] == [
        ("bus", 0, 5), ("noc.mem", 6, 7), ("mem", 7, 47)]


def test_cache_miss_then_hit_latencies():
    # miss: bus 5 + lookup 2 + routing 1 + 8 fill beats + memory 40
    #       + response 1 = 57.  hit: bus 5 + lookup 2 = 7.
    sys, done = run_recorded({
        "sim": {"cycles": 500},
        "masters": {"cores": 1},
        "l2": {"sets": 16, "ways": 2, "partitions": {0: [0, 1]}},
        "workloads": [{"master": 0, "profile": {
            "pattern": "periodic", "count": 2, "period": 200,
            "base": 0x2000, "footprint": 8, "stride": 8, "size": 8}}],
    })
    assert latencies(done, 0) == [57, 7]
    m = sys.masters[0]
    assert (m.completed, m.latency_total, m.latency_max) == (2, 64, 57)
    assert sys.l2.misses == {0: 1} and sys.l2.hits == {0: 1}


def test_accelerator_read_latency():
    # routing 1 + transfer 1 + memory 40 + response 1 = 43
    sys, done = run_recorded({
        "sim": {"cycles": 200},
        "masters": {"cores": 1, "accelerators": 1},
        "l2": {"enabled": False},
        "workloads": [one_shot(1, base=0x3000, footprint=64, stride=8)],
    })
    assert latencies(done, 1) == [43]
    assert latencies(done, 0) == []


def test_secondary_port_uses_device_latency():
    # bus 5 + routing 1 + transfer 1 + device 10 + response 1 = 18
    sys, done = run_recorded({
        "sim": {"cycles": 200},
        "masters": {"cores": 1},
        "l2": {"enabled": False},
        "noc": {"ports": [
            {"name": "mem", "base": 0x0, "size": 0x1000_0000},
            {"name": "io", "base": 0x2000_0000, "size": 0x1000,
             "device_read_latency": 10, "device_write_latency": 10},
        ]},
        "workloads": [one_shot(0, base=0x2000_0000, footprint=64, stride=8)],
    })
    assert latencies(done, 0) == [18]
    assert sys.slaves[0].served == 1


def test_id_integrity_everywhere():
    sys, done = run_recorded({
        "sim": {"cycles": 4000, "seed": 9},
        "masters": {"cores": 2, "accelerators": 2},
        "l2": {"ways": 4, "partitions": {0: [0, 1], 1: [2, 3]}},
        "workloads": [
            {"master": m, "profile": {
                "pattern": "saturating", "count": 30, "base": 0x0,
                "footprint": 4096, "stride": 64, "size": 8, "kind_mix": 0.7}}
            for m in range(4)],
    })
    assert done
    assert all(t.id_value == t.owner for t in done)
    assert all(r.initiator == r.owner for r in sys.memctrl.records)


def test_event_bookkeeping_is_conserved():
    sys = run_system({
        "sim": {"cycles": 2000},
        "masters": {"cores": 2},
        "l2": {"enabled": False},
        "workloads": [one_shot(m, count=5, period=100, base=0x100,
                               footprint=256, stride=8) for m in range(2)],
    })
    assert sys.sim.processed == sys.sim.scheduled - sys.sim.pending()
    total_issued = sum(m.issued for m in sys.masters)
    total_done = sum(m.completed for m in sys.masters)
    assert total_issued == total_done == 10


def test_core_issue_is_gated_on_bus_register():
    sys = run_system({
        "sim": {"cycles": 3000},
        "masters": {"cores": 1},
        "l2": {"enabled": False},
        "workloads": [{"master": 0, "outstanding": 4, "profile": {
            "pattern": "saturating", "count": 10, "base": 0x0,
            "footprint": 512, "stride": 8, "size": 8}}],
    })
    # one bus register per core: issues serialize without tripping the
    # one-pending-per-master invariant, and everything completes
    assert sys.masters[0].completed == 10
    assert len(sys.masters[0].active) == 0


def test_unmapped_address_fails_at_runtime():
    sys = make_system({
        "sim": {"cycles": 200},
        "masters": {"cores": 1},
        "l2": {"enabled": False},
        "workloads": [one_shot(0, base=0x7000_0000, footprint=64, stride=8)],
    })
    with pytest.raises(SimulationError):
        sys.run()


def test_trace_and_profile_conflict_is_rejected(tmp_path):
    # by the parser, before a platform is built
    (tmp_path / "t.trace").write_text("# trace-format: v1\n0 0 R 0x0 8\n")
    with pytest.raises(ConfigError, match="^<config>.trace: .* master 0,"):
        make_system({
            "masters": {"cores": 1},
            "l2": {"enabled": False},
            "trace": "t.trace",
            "workloads": [one_shot(0)],
        }, base_dir=str(tmp_path))


def test_trace_driven_run(tmp_path):
    (tmp_path / "t.trace").write_text(
        "# trace-format: v1\n"
        "0 0 R 0x0 8\n"
        "0 1 R 0x100 8\n"
        "100 0 W 0x40 8\n")
    sys = run_system({
        "sim": {"cycles": 500},
        "masters": {"cores": 2},
        "l2": {"enabled": False},
        "trace": "t.trace",
    }, base_dir=str(tmp_path))
    assert sys.masters[0].completed == 2
    assert sys.masters[1].completed == 1
    # second requester waited for the first's bus occupancy
    assert sys.bus.matrix.counts[0][1] == 5


def test_trace_replay_window_is_each_masters_record_count(tmp_path):
    (tmp_path / "t.trace").write_text(
        "# trace-format: v1\n"
        "0 0 R 0x0 8\n"
        "0 2 R 0x100 8\n"
        "3 0 W 0x40 8\n"
        "7 0 R 0x80 8\n")
    sys = make_system({
        "masters": {"cores": 3},
        "l2": {"enabled": False},
        "trace": "t.trace",
    }, base_dir=str(tmp_path))
    assert [m.outstanding for m in sys.masters] == [3, 1, 1]
    assert sys.masters[1].stream is None
    # the stream serves master 0's records of the parsed trace
    assert sys.masters[0].stream.get(2) == list(sys.cfg.trace_records)[3]
    assert sys.masters[0].stream.get(3) is None


DETERMINISM_TREE = {
    "sim": {"cycles": 6000, "seed": 1234},
    "masters": {"cores": 2, "accelerators": 1},
    "l2": {"ways": 4, "partitions": {0: [0, 1], 1: [2, 3]}},
    "qos": {"period": 1000, "quotas": [{"master": 2, "limit": 300}]},
    "workloads": [
        {"master": 0, "profile": {
            "pattern": "saturating", "count": 40, "base": 0x0,
            "footprint": 2048, "stride": 64, "size": 8, "kind_mix": 0.6}},
        {"master": 1, "profile": {
            "pattern": "bursty", "count": 40, "base": 0x10000,
            "footprint": 2048, "stride": 64, "size": 8, "period": 50,
            "burst_len": 4}},
        {"master": 2, "profile": {
            "pattern": "saturating", "count": 60, "base": 0x20000,
            "footprint": 4096, "stride": 64, "size": 64}},
    ],
}


def test_quota_crossing_partway_through_a_release():
    # three cores and an accelerator read memory flat out; only the
    # memory controller is metered.  Core 0's first service ends at 82
    # with the other three initiators queued, 40 cycles each: the second
    # charge crosses the 50-cycle quota, the third still lands on core 0
    sys = make_system({
        "sim": {"cycles": 300, "seed": 5},
        "masters": {"cores": 3, "accelerators": 1},
        "l2": {"enabled": False},
        "qos": {"period": 100_000, "monitored": ["mem"],
                "quotas": [{"master": 0, "limit": 50, "mode": "hw_stall"}]},
        "workloads": [
            {"master": m, "outstanding": 2,
             "profile": {"pattern": "saturating", "kind_mix": 1.0,
                         "base": 0x10000 * m, "footprint": 4096,
                         "stride": 8, "size": 8}}
            for m in range(4)],
    })
    attributions, _ = record_charges(sys.monitor)
    sys.run()
    assert [a for a in attributions if a[0] == 82] == [
        (82, "mem", 0, 1, 40), (82, "mem", 0, 2, 40), (82, "mem", 0, 3, 40)]
    [stall] = [e for e in sys.events if e["kind"] == "stall_asserted"]
    assert (stall["t"], stall["master"], stall["used"]) == (82, 0, 80)
    assert sys.monitor.quotas[0].crossings == 1


def test_quota_aware_bus_and_ports_pass_over_a_crossed_master():
    # two cores and an accelerator, saturating; core 0 and the
    # accelerator alternate between the memory port and a device port.
    # Core 1 and the accelerator have log_only quotas, so nothing stalls
    # them: only the quota_aware arbiters hold them back once crossed
    period, horizon = 2000, 8000

    def saturating(master, base, stride):
        return {"master": master, "outstanding": 2, "profile": {
            "pattern": "saturating", "base": base, "footprint": 0x1000,
            "stride": stride, "size": 8}}

    log_only = {"limit": 100, "mode": "interrupt", "action": "log_only"}
    sys = run_system({
        "sim": {"cycles": horizon},
        "masters": {"cores": 2, "accelerators": 1},
        "bus": {"policy": "quota_aware"},
        "l2": {"enabled": False},
        "noc": {"policy": "quota_aware", "ports": [
            {"name": "mem", "base": 0x0, "size": 0x100000},
            {"name": "dev", "base": 0x100000, "size": 0x10000}]},
        "qos": {"period": period, "guard_window": 100, "quotas": [
            {"master": 1, **log_only}, {"master": 2, **log_only}]},
        "workloads": [saturating(0, 0xFF800, 64), saturating(1, 0x1000, 64),
                      saturating(2, 0xFF800, 0x800)],
    })
    assert not any(e["kind"].startswith("stall") for e in sys.events)
    # (resource, its slot the master's stall line gates, the master)
    gates = [(sys.bus, 1, 1)] + [(port, 1, 2) for port in sys.ports]
    for resource, slot, master in gates:
        crossings = [e["t"] for e in sys.events
                     if e["kind"] == "interrupt_raised"
                     and e["master"] == master]
        # once in every period, so every period has a crossed stretch
        assert [t // period for t in crossings] == [0, 1, 2, 3]
        served = [g for g in resource.grants if g.slot == slot]
        for t_cross in crossings:
            rollover = (t_cross // period + 1) * period
            crossed = [g for g in served if t_cross < g.t_granted < rollover]
            # passed over: it keeps requesting, and only guard grants
            # serve it
            assert crossed, (resource.resource, t_cross)
            assert all(g.guard for g in crossed), (resource.resource, t_cross)
            if rollover < horizon:
                # served again, without the guard, once the quota rolls over
                after = [g for g in served if g.t_granted >= rollover]
                assert not after[0].guard, (resource.resource, rollover)


def test_quota_aware_bus_anchors_a_stalled_core_when_the_stall_begins():
    # core 0 has an hw_stall quota and a request every 70 cycles, so its
    # next request reaches the quota_aware bus some cycles after each
    # crossing stalls it; core 1 saturates, so the bus arbitrates every
    # few cycles.  The guard deadline is anchored at the stall, not when
    # the arbiter first sees the stalled request
    period, guard, horizon = 3000, 100, 6000
    system = make_system({
        "sim": {"cycles": horizon},
        "masters": {"cores": 2},
        "bus": {"policy": "quota_aware"},
        "l2": {"enabled": False},
        "qos": {"period": period, "guard_window": guard, "quotas": [
            {"master": 0, "limit": 30, "mode": "hw_stall"}]},
        "workloads": [
            {"master": 0, "profile": {
                "pattern": "periodic", "period": 70, "base": 0x1000,
                "footprint": 0x1000, "stride": 64, "size": 8}},
            {"master": 1, "outstanding": 2, "profile": {
                "pattern": "saturating", "base": 0x8000,
                "footprint": 0x1000, "stride": 64, "size": 8}}],
    })
    arbiter, sim = system.bus.arbiter, system.sim
    # at the end of every cycle: is slot 0 blocked, and is it anchored
    samples = []
    rank = sim.register("probe")

    def probe():
        samples.append((arbiter._blocked(0), 0 in arbiter._guard_next))
        sim.schedule(sim.now + 1, rank, probe)

    sim.schedule(0, rank, probe)
    system.run()
    stalls = [e["t"] for e in system.events
              if e["kind"] == "stall_asserted" and e["master"] == 0]
    assert len(stalls) == horizon // period
    for t_stall in stalls:
        rollover = (t_stall // period + 1) * period
        # the request after the crossing comes later than the stall
        t_next = min(g.t_request for g in system.bus.grants
                     if g.slot == 0 and g.t_request > t_stall)
        assert t_next > t_stall
        first_guard = min(g.t_granted for g in system.bus.grants
                          if g.slot == 0 and g.guard
                          and g.t_granted > t_stall)
        assert first_guard == min(g.t_granted for g in system.bus.grants
                                  if g.t_granted >= t_stall + guard)
        assert all(samples[t] == (True, True)
                   for t in range(t_stall, rollover))
        if rollover < horizon:
            assert samples[rollover] == (False, False)


def test_same_seed_is_byte_identical():
    import copy
    outs = []
    for _ in range(2):
        sys = run_system(copy.deepcopy(DETERMINISM_TREE))
        outs.append(render_json(build_report(sys)).encode())
    assert outs[0] == outs[1]


def test_different_seed_diverges():
    import copy
    tree = copy.deepcopy(DETERMINISM_TREE)
    a = render_json(build_report(run_system(tree)))
    tree2 = copy.deepcopy(DETERMINISM_TREE)
    tree2["sim"]["seed"] = 99
    b = render_json(build_report(run_system(tree2)))
    assert a != b
