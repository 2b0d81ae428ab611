"""Golden output hashes: the sha256 of every file a ``socsim run --check
--log-events`` writes (``report.json``, every ``contention_*.csv`` and
``events.log``) for small platforms chosen to reach the paths the
benchmark workloads skip.

A refactor must leave every hash unchanged.  The hashes are re-pinned
only by a change that declares, and explains, a change of simulated
behaviour.  Each case also asserts that its run really reaches the path
it was chosen for, so a config that drifts away from its path fails
loudly instead of pinning something else.
"""

import hashlib

import pytest

from socsim.config import SCHEMA_VERSION, parse_config
from socsim.report import build_report, write_outputs
from socsim.system import build
from socsim.verify import run_checks


def _core(m, outstanding=2, **profile):
    base = {"pattern": "saturating", "kind_mix": 0.6, "base": m * 0x10000,
            "footprint": 0x4000, "stride": 64, "size": 8}
    base.update(profile)
    return {"master": m, "outstanding": outstanding, "profile": base}


def _accel(m, **profile):
    base = {"pattern": "bursty", "period": 150, "burst_len": 6, "size": 64,
            "base": 0x800000, "footprint": 0x8000, "stride": 64}
    base.update(profile)
    return {"master": m, "profile": base}


# fixed_priority bus with programmed ranks, L2 on
PRIORITY = {
    "sim": {"cycles": 20000, "seed": 7},
    "masters": {"cores": 3},
    "bus": {"policy": "fixed_priority", "priority": {0: 2, 1: 0, 2: 1}},
    "qos": {"period": 5000, "guard_window": 60,
            "quotas": [{"master": 1, "limit": 300, "mode": "hw_stall"}]},
    "workloads": [_core(m) for m in range(3)],
}

# quota_aware crossbar arbitration of an interrupt-throttled accelerator
QUOTA_NOC = {
    "sim": {"cycles": 20000, "seed": 11},
    "masters": {"cores": 2, "accelerators": 2},
    "noc": {"policy": "quota_aware"},
    "qos": {"period": 4000, "guard_window": 80,
            "quotas": [{"master": 2, "limit": 200, "mode": "interrupt",
                        "action": "throttle_source", "handler_latency": 50},
                       {"master": 3, "limit": 150, "mode": "hw_stall"}]},
    "workloads": [_core(0), _core(1), _accel(2), _accel(3, phase=40)],
}

# a non-memory port behind a FixedSlave with an occupancy override, and a
# two-deep memory FIFO that pushes back on the crossbar
SLAVE_BACKPRESSURE = {
    "sim": {"cycles": 15000, "seed": 3},
    "masters": {"cores": 3, "accelerators": 2},
    "noc": {"ports": [
        {"name": "mem", "base": "0x0", "size": "0x1000000"},
        {"name": "dev", "base": "0x1000000", "size": "0x10000", "width": 4,
         "occupancy": {"read": 3, "write": 6},
         "device_read_latency": 12, "device_write_latency": 5}]},
    "memory": {"fifo_capacity": 2},
    "workloads": [_core(m, outstanding=4, footprint=0x40000)
                  for m in range(3)]
    + [_accel(3, base=0x1000000, footprint=0x1000, size=16, kind_mix=0.5),
       _accel(4, period=90, burst_len=8)],
}

# L2 off, a core under a hardware-stall quota, an accelerator alongside
L2_OFF_STALL = {
    "sim": {"cycles": 20000, "seed": 5},
    "masters": {"cores": 4, "accelerators": 1},
    "l2": {"enabled": False},
    "qos": {"period": 3000, "guard_window": 50,
            "quotas": [{"master": 2, "limit": 250, "mode": "hw_stall"}]},
    "workloads": [_core(m) for m in range(4)] + [_accel(4)],
}

# a trace replay of cores and an accelerator, L2 on
REPLAY = {
    "sim": {"cycles": 12000, "seed": 2},
    "masters": {"cores": 3, "accelerators": 1},
    "qos": {"quotas": [{"master": 0, "limit": 400, "mode": "interrupt",
                        "action": "log_only"}]},
    "trace": "golden.trace",
}


def _replay_trace() -> str:
    lines = ["# trace-format: v1"]
    for i in range(600):
        cycle = i * 17
        master = i % 4
        kind = "W" if i % 3 == 0 else "R"
        addr = master * 0x10000 + ((i * 7919) % 96) * 64
        if master == 3:
            addr += 0x800000
        lines.append(f"{cycle} {master} {kind} 0x{addr:08x} "
                     f"{64 if master == 3 else 8}")
    return "\n".join(lines) + "\n"


def _reached_priority(system):
    assert system.bus.arbiter.policy == "fixed_priority"
    assert system.bus.arbiter.guard_grants > 0


def _reached_quota_noc(system):
    kinds = {e["kind"] for e in system.events}
    assert "throttle_applied" in kinds
    assert system.ports[0].arbiter.policy == "quota_aware"
    assert system.ports[0].arbiter.guard_grants > 0


def _reached_slave_backpressure(system):
    assert system.slaves[0].served > 0
    assert any(g.occupancy == 6 for g in system.ports[1].grants)
    assert system.memctrl.refusals > 0


def _reached_l2_off_stall(system):
    assert any(g.owner < system.cfg.cores for g in system.ports[0].grants)
    kinds = {e["kind"] for e in system.events}
    assert "stall_asserted" in kinds
    assert system.bus.arbiter.guard_grants > 0


def _reached_replay(system):
    assert len(system.cfg.trace_records) == 600
    assert system.masters[3].issued > 0


CASES = {
    "priority": (PRIORITY, _reached_priority, {
        "contention_bus.csv":
            "19920a46b940e5dd1e3e050a00f6486deb65efe1f02959879a2bb1192159a284",
        "contention_mem.csv":
            "cfd1a1e713b0ac1540563bee4c80d0f7341c940fc36d7fa783de2d57b996c13d",
        "contention_noc.mem.csv":
            "0f4a7763cb37f1a44ff36777088b6df6612894daa39d058756336e8b3b7aa403",
        "events.log":
            "771b21c42c7ba97bc2f90a247ddd8303a60e9569b7c014428e27fd7167b235c2",
        "report.json":
            "68de1d2c74bd15a4045c1a1bd8e599348129ccb98a9cc981ffeefb277b0af823",
    }),
    "quota_noc": (QUOTA_NOC, _reached_quota_noc, {
        "contention_bus.csv":
            "c41d8a05b6a190e770d2be2b12c6aaef57fcaf2582b48f5e3cbdd77950d1847d",
        "contention_mem.csv":
            "de79cb978d9e37dadfc97866c5a60beae4366e8d82a642ae3792eaa84f1a0877",
        "contention_noc.mem.csv":
            "422adc784358e5863c45f08dcb949d1879f67559530eb81bb8faa85750c8eef8",
        "events.log":
            "6cc3aae2e0345bf823322ec1b55abd466ae3ec442c68a5431339f116198a8e5e",
        "report.json":
            "2ea20df0c162780c96c42f1dd4b27f1c7cc2bfb69ae53974d99479e5253accaf",
    }),
    "slave_backpressure": (SLAVE_BACKPRESSURE, _reached_slave_backpressure, {
        "contention_bus.csv":
            "4f31d03a33d170c71064564f48aabaa713945ad90064afd7f857d7b6e8d10bcd",
        "contention_mem.csv":
            "a625775b00e090941d6781195d4c7bbdcf0cf5c381804226ab8bc8ac91a53210",
        "contention_noc.dev.csv":
            "6d93a8aa5780204b0dfd5b0eaf5f524cc333bc899d59aceadfa80f0db6f89048",
        "contention_noc.mem.csv":
            "c64ca55aafe88a5884f8ec2f796d34de4161b8983120395420a9a2013fc7e3dc",
        "events.log":
            "462e9651558ee9b337797c92e85ea4dd77fb8b13ba24bd3d2e336bc21c15c31e",
        "report.json":
            "44acf88ae33527650fe128c57deae45b64c91ed18e1c66805e8a57ad92f4c569",
    }),
    "l2_off_stall": (L2_OFF_STALL, _reached_l2_off_stall, {
        "contention_bus.csv":
            "54704c23db4fa778f2eb1962f43409428bd27f6d0c9960eea413bcf8e751ffa6",
        "contention_mem.csv":
            "1537ddad6896509454c7e88eba01c1d07e837eff5ae0abbfd46b006b62380e43",
        "contention_noc.mem.csv":
            "b1d458f86040377cc580f928d4efffcf01fc8989ee626c07f1bbb94b1f3474fd",
        "events.log":
            "8dd419b769fe1d1b599f4266ae0d6720af2543f1a9aa693334a91926cb6faa6b",
        "report.json":
            "2a738ec9953574b8e6085f878172f202d135547b418870f3764db752c62c00a8",
    }),
    "replay": (REPLAY, _reached_replay, {
        "contention_bus.csv":
            "df08d3e6ad2da514b5fb31a069e1bcfde3ad95a1310325034373ea1b2bcf3207",
        "contention_mem.csv":
            "b69f628da50e7649283725f7cd635095ec81cdb8fd74cad0c2be16392ab4d6d5",
        "contention_noc.mem.csv":
            "f7d4ef479aa45a6ca82267d40341545ea78f8e364f4430456d15e021107edf2c",
        "events.log":
            "76c4e86c85ac82cf8f391cec4ecfc2e680a19c405f5a4dbbfde11a71d4d3019c",
        "report.json":
            "1efb80570190934c46a314784f2c75ebb72f379e3ebef12c6f787ca6f7c887a9",
    }),
}


def run_case(tree, tmp_path) -> tuple[object, dict[str, str]]:
    tree = dict(tree, schema_version=SCHEMA_VERSION)
    if "trace" in tree:
        (tmp_path / tree["trace"]).write_text(_replay_trace())
    system = build(parse_config(tree, base_dir=str(tmp_path)))
    system.run()
    report = build_report(system, run_checks(system))
    out = tmp_path / "out"
    written = write_outputs(system, report, str(out), log_events=True)
    hashes = {}
    for path in written:
        with open(path, "rb") as fh:
            hashes[path.rsplit("/", 1)[-1]] = hashlib.sha256(
                fh.read()).hexdigest()
    return system, dict(sorted(hashes.items()))


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_hashes(name, tmp_path):
    tree, reached, expected = CASES[name]
    system, hashes = run_case(tree, tmp_path)
    reached(system)
    assert hashes == expected
