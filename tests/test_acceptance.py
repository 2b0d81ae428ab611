"""End-to-end acceptance scenarios for the QoS chain.

Each test exercises one system-level guarantee against an expectation
worked out independently of the simulator: a hand-derived cycle
schedule, a counting argument, or a separate isolation run used as the
oracle.  Every test prints one ``[criterion NN] <name>: PASS`` (or
``FAIL``) line.
"""

import filecmp
import os
import statistics
from contextlib import contextmanager

import pytest
import yaml

from socsim.cli import main as cli_main
from socsim.config import parse_config
from socsim.report import build_report
from socsim.system import System
from socsim.transaction import READ, WRITE
from socsim.verify import check_priority_inversion, check_quota

from test_conservation import (ledger, mismatches, record_blame,
                               run_with_ledger, sabotage_settle)


def run_tree(tree, base_dir="."):
    cfg = parse_config(tree, base_dir=base_dir)
    system = System(cfg)
    system.run()
    return system


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    print(f"[criterion {num:02d}] {name}: PASS")


# ---------------------------------------------------------------------------
# criteria 1 + 2 share one heavily mixed run: 6 cores + 2 accelerators,
# exactly 10,000 transactions, L2 off so every one reaches the memory
# controller
# ---------------------------------------------------------------------------

def _crowd_tree(cycles=400_000):
    return {
        "schema_version": 1,
        "sim": {"cycles": cycles, "seed": 3},
        "masters": {"cores": 6, "accelerators": 2},
        "l2": {"enabled": False},
        "qos": {"quotas": []},
        "workloads": [
            {"master": m, "outstanding": 2,
             "profile": {"pattern": "saturating", "kind_mix": 0.5,
                         "base": hex(0x40000 * m), "footprint": 16384,
                         "stride": 8, "size": 8,
                         "count": 1400 if m < 6 else 800}}
            for m in range(8)
        ],
    }


@pytest.fixture(scope="module")
def crowd_run():
    """The crowd run and the blame calls of its memory controller."""
    system = System(parse_config(_crowd_tree()))
    blame_calls = record_blame(system)
    system.run()
    return system, blame_calls


@pytest.fixture(scope="module")
def crowd(crowd_run):
    return crowd_run[0]


def test_criterion_01_id_integrity(crowd):
    with criterion(1, "ids intact at the memory controller"):
        issued = sum(m.issued for m in crowd.masters)
        assert issued == 10_000
        assert len(crowd.completed_txns) == 10_000

        records = crowd.memctrl.records
        assert len(records) == 10_000
        # zero tolerance: every request observed at the controller still
        # carries the id of the master that created it
        assert all(r.initiator == r.owner for r in records)
        assert all(t.id_value == t.owner for t in crowd.completed_txns)


def test_criterion_02_conservation(crowd_run, monkeypatch):
    system, blame_calls = crowd_run
    with criterion(2, "the wait ledger balances; sabotage is caught"):
        # every matrix, rebuilt from the resources' records alone
        books = ledger(system, blame_calls)
        assert mismatches(system.monitor, *books) == []
        matrices, blame, _ = books
        assert set(matrices) == {"bus", "noc.mem", "mem"}
        # the run was contended, so this was not vacuous
        assert sum(map(sum, matrices["bus"])) > 0
        assert sum(map(sum, matrices["mem"])) > 0
        # report-v1's conservation block states the same totals
        report = build_report(system)
        blamed = sum(map(sum, blame))
        for name, entry in report["conservation"].items():
            total = sum(map(sum, matrices[name]))
            total += blamed if name == "mem" else 0
            assert entry["matrix_total"] == entry["logged_total"] == total

        # negative control: a settle that drops a waiting key
        sabotage_settle(monkeypatch, "drop-a-key")
        _, wrong = run_with_ledger(System(parse_config(_crowd_tree(20_000))))
        assert wrong


# ---------------------------------------------------------------------------
# criterion 3: round-robin fairness
# ---------------------------------------------------------------------------

def test_criterion_03_round_robin_fairness():
    tree = {
        "schema_version": 1,
        "sim": {"cycles": 100_000, "seed": 5},
        "masters": {"cores": 4, "accelerators": 0},
        "l2": {"enabled": False},
        "qos": {"quotas": []},
        "workloads": [
            {"master": m, "outstanding": 1,
             "profile": {"pattern": "saturating", "kind_mix": 1.0,
                         "base": hex(0x10000 * m), "footprint": 4096,
                         "stride": 8, "size": 8}}
            for m in range(4)
        ],
    }
    system = run_tree(tree)
    with criterion(3, "round-robin grants and services within one"):
        grants = system.bus.grants
        assert len(grants) >= 2_500
        assert not any(g.guard for g in grants)
        counts = [0, 0, 0, 0]
        for g in grants:
            counts[g.slot] += 1
            # holds at every prefix, hence over any rotation window
            assert max(counts) - min(counts) <= 1
        assert max(counts) - min(counts) <= 1

        services = [0, 0, 0, 0]
        for r in system.memctrl.records:
            services[r.initiator] += 1
            assert max(services) - min(services) <= 1
        assert max(services) - min(services) <= 1


# ---------------------------------------------------------------------------
# criterion 4: occupancy, not transaction count, is what is metered
# ---------------------------------------------------------------------------

def test_criterion_04_occupancy_not_transactions():
    tree = {
        "schema_version": 1,
        "sim": {"cycles": 21_000, "seed": 2},
        "masters": {"cores": 2, "accelerators": 0},
        "l2": {"enabled": False},
        "bus": {"occupancy": {"read": 5, "sizes": {"read": {8: 5, 64: 15}}}},
        "qos": {"quotas": []},
        "workloads": [
            {"master": 0, "outstanding": 1,
             "profile": {"pattern": "periodic", "period": 100, "count": 200,
                         "kind_mix": 1.0, "base": "0x0", "footprint": 4096,
                         "stride": 8, "size": 8}},
            {"master": 1, "outstanding": 1,
             "profile": {"pattern": "periodic", "period": 100, "count": 200,
                         "kind_mix": 1.0, "base": "0x100000",
                         "footprint": 4096, "stride": 64, "size": 64}},
        ],
    }
    system = run_tree(tree)
    with criterion(4, "1:3 utilization at 1:1 transaction counts"):
        busy = [0, 0]
        count = [0, 0]
        for g in system.bus.grants:
            busy[g.slot] += g.occupancy
            count[g.slot] += 1
        assert count[0] == 200 and count[1] == 200
        ratio = busy[1] / busy[0]
        assert abs(ratio - 3.0) <= 0.03        # 1:3 within 1%


# ---------------------------------------------------------------------------
# criteria 5 + 6 share one quota run plus its isolation oracle.
# Master 0 (victim) reads from memory; master 1 (offender) hammers a
# separate fast io port with bus-heavy writes, so all cross-master
# contention happens at the shared bus.  Quota: 500 caused cycles per
# 10,000-cycle period, hardware stall, 100-cycle anti-starvation guard.
# ---------------------------------------------------------------------------

QUOTA_PERIOD = 10_000
QUOTA_LIMIT = 500
GUARD = 100

QUOTA_TREE = {
    "schema_version": 1,
    "sim": {"cycles": 30_000, "seed": 11},
    "masters": {"cores": 2, "accelerators": 0},
    "l2": {"enabled": False},
    "bus": {"occupancy": {"read": 5, "write": 15}},
    "noc": {"ports": [
        {"name": "mem", "base": "0x0", "size": "0x10000000", "width": 8},
        {"name": "io", "base": "0x20000000", "size": "0x1000000",
         "width": 8, "device_read_latency": 4, "device_write_latency": 4},
    ]},
    "memory": {"port": "mem", "read_latency": 40, "write_latency": 30},
    "qos": {"period": QUOTA_PERIOD, "guard_window": GUARD,
            "quotas": [{"master": 1, "limit": QUOTA_LIMIT,
                        "mode": "hw_stall"}]},
    "workloads": [
        {"master": 0, "outstanding": 4,
         "profile": {"pattern": "saturating", "kind_mix": 1.0,
                     "base": "0x0", "footprint": 4096, "stride": 8,
                     "size": 8}},
        {"master": 1, "outstanding": 4,
         "profile": {"pattern": "saturating", "kind_mix": 0.0,
                     "base": "0x20000000", "footprint": 4096, "stride": 8,
                     "size": 8}},
    ],
}


@pytest.fixture(scope="module")
def quota_pair():
    attacked = run_tree(QUOTA_TREE)
    iso_tree = dict(QUOTA_TREE)
    iso_tree["workloads"] = [QUOTA_TREE["workloads"][0]]
    isolated = run_tree(iso_tree)
    return attacked, isolated


def _stall_times(system, master):
    return [(e["t"], e["period"]) for e in system.events
            if e["kind"] == "stall_asserted" and e["master"] == master]


def test_criterion_05_quota_stall_and_victim_recovery(quota_pair):
    attacked, isolated = quota_pair
    with criterion(5, "hw_stall quota holds, victim recovers"):
        stalls = _stall_times(attacked, 1)
        assert [p for _, p in stalls] == [0, 1, 2]   # one stall per period
        assert attacked.monitor.quotas[1].crossings == 3

        # the adherence check proves the per-period bound
        # Q + occ_max + (period/G) * occ_max = 500 + 40 + 100*40
        verdict = check_quota(attacked)
        assert verdict["pass"] is True
        assert verdict["bounds"] == {1: 4540}
        history = attacked.monitor.period_history[1]
        assert len(history) == 3
        assert all(caused <= 4540 for caused in history)
        assert history[0] > QUOTA_LIMIT              # the quota did trip

        # victim mean latency in the stalled remainder of period 0,
        # skipping 300 cycles so the offender's in-flight residue drains
        t_stall = stalls[0][0]
        assert t_stall < QUOTA_PERIOD // 2
        victim = [t for t in attacked.completed_txns if t.owner == 0]
        remainder = [t.t_done - t.t_issued for t in victim
                     if t.t_issued >= t_stall + 300
                     and t.t_done <= QUOTA_PERIOD]
        assert len(remainder) >= 50

        iso = [t.t_done - t.t_issued for t in isolated.completed_txns
               if t.t_issued >= 1_000 and t.t_done <= QUOTA_PERIOD]
        iso_mean = statistics.mean(iso)
        rem_mean = statistics.mean(remainder)
        assert abs(rem_mean - iso_mean) <= 0.05 * iso_mean


def test_criterion_06_guard_windows_never_starve(quota_pair):
    attacked, _ = quota_pair
    with criterion(6, "stalled offender progresses every guard window"):
        offender_done = sorted(t.t_done for t in attacked.completed_txns
                               if t.owner == 1)
        assert any(g.guard and g.slot == 1 for g in attacked.bus.grants)
        violated = []
        for t_stall, period in _stall_times(attacked, 1):
            period_end = (period + 1) * QUOTA_PERIOD   # stall released here
            k = 0
            while t_stall + (k + 1) * GUARD <= period_end:
                lo = t_stall + k * GUARD
                hi = t_stall + (k + 1) * GUARD
                if not any(lo <= t < hi for t in offender_done):
                    violated.append((period, k))
                k += 1
            assert k >= 50      # the stall left a long remainder
        assert violated == []


# ---------------------------------------------------------------------------
# criterion 7: interrupt quotas fire once per period, throttle lands
# exactly handler_latency cycles later
# ---------------------------------------------------------------------------

def test_criterion_07_interrupt_throttle_timing():
    handler_latency = 200
    tree = {
        "schema_version": 1,
        "sim": {"cycles": 30_000, "seed": 9},
        "masters": {"cores": 2, "accelerators": 0},
        "l2": {"enabled": False},
        "memory": {"read_latency": 40, "write_latency": 40},
        "qos": {"period": 10_000, "guard_window": 100,
                "quotas": [
                    {"master": 0, "limit": 100, "mode": "interrupt",
                     "handler_latency": handler_latency},
                    {"master": 1, "limit": 100, "mode": "interrupt",
                     "handler_latency": handler_latency},
                ]},
        "workloads": [
            {"master": 0, "outstanding": 4,
             "profile": {"pattern": "saturating", "kind_mix": 1.0,
                         "base": "0x0", "footprint": 4096, "stride": 8,
                         "size": 8}},
            {"master": 1, "outstanding": 4,
             "profile": {"pattern": "saturating", "kind_mix": 0.0,
                         "base": "0x100000", "footprint": 4096, "stride": 8,
                         "size": 8}},
        ],
    }
    system = run_tree(tree)
    with criterion(7, "one interrupt per period, exact throttle delay"):
        raised = [e for e in system.events if e["kind"] == "interrupt_raised"]
        applied = [e for e in system.events if e["kind"] == "throttle_applied"]
        dropped = [e for e in system.events if e["kind"] == "throttle_dropped"]
        assert dropped == []

        for master in (0, 1):
            for period in (0, 1, 2):
                hits = [e for e in raised
                        if e["master"] == master and e["period"] == period]
                assert len(hits) == 1, (master, period)
                assert hits[0]["used"] > 100
                acts = [e for e in applied
                        if e["master"] == master and e["period"] == period]
                assert len(acts) == 1, (master, period)
                assert acts[0]["t"] == hits[0]["t"] + handler_latency

        # the throttle actually gates the offender at the bus
        stall_ts = {(e["master"], e["t"]) for e in system.events
                    if e["kind"] == "stall_asserted"}
        for e in applied:
            assert (e["master"], e["t"]) in stall_ts


# ---------------------------------------------------------------------------
# criterion 8: five-transaction trace against a hand-derived schedule
# ---------------------------------------------------------------------------

HAND_TRACE = """\
# trace-format: v1
0 0 R 0x00000000 8
0 1 R 0x00000100 8
3 0 W 0x00000040 8
5 1 R 0x00000200 8
9 0 R 0x00000080 8
"""


def test_criterion_08_hand_schedule(tmp_path):
    (tmp_path / "hand.trace").write_text(HAND_TRACE)
    tree = {
        "schema_version": 1,
        "sim": {"cycles": 300, "seed": 0},
        "masters": {"cores": 2, "accelerators": 0},
        "l2": {"enabled": False},
        "qos": {"quotas": []},
        "trace": "hand.trace",
    }
    system = run_tree(tree, base_dir=str(tmp_path))
    with criterion(8, "grants and services match the hand schedule"):
        grants = system.bus.grants
        assert [(g.slot, g.t_granted, g.t_completed) for g in grants] == [
            (0, 0, 5), (1, 5, 10), (0, 10, 13), (1, 13, 18), (0, 18, 23)]
        assert [g.kind for g in grants] == [READ, READ, WRITE, READ, READ]
        assert [g.occupancy for g in grants] == [5, 5, 3, 5, 5]
        # the read recorded at cycle 9 could only enter the bus register
        # once the write was granted at 10
        assert [g.t_request for g in grants] == [0, 0, 3, 5, 10]

        records = system.memctrl.records
        assert [(r.initiator, r.kind, r.t_started, r.t_done)
                for r in records] == [
            (0, READ, 7, 47), (1, READ, 47, 87), (0, WRITE, 87, 117),
            (1, READ, 117, 157), (0, READ, 157, 197)]

        lat = {0: [], 1: []}
        for t in sorted(system.completed_txns, key=lambda t: t.t_done):
            assert t.id_value == t.owner
            assert [resource for resource, *_ in system.timeline(t)] == [
                "bus", "noc.mem", "mem"]
            lat[t.owner].append(t.t_done - t.t_issued)
        assert lat[0] == [48, 115, 188]
        assert lat[1] == [88, 153]

        mats = system.monitor.matrices
        assert mats["bus"].counts == [[0, 8], [10, 0]]
        assert mats["mem"].counts == [[0, 65], [80, 0]]
        assert mats["noc.mem"].counts == [[0, 0], [0, 0]]


# ---------------------------------------------------------------------------
# criterion 9: bit-identical outputs for identical config + seed
# ---------------------------------------------------------------------------

def test_criterion_09_bit_identical_outputs(tmp_path):
    tree = {
        "schema_version": 1,
        "sim": {"cycles": 15_000, "seed": 1234},
        "masters": {"cores": 2, "accelerators": 1},
        "l2": {"enabled": True, "sets": 32, "ways": 4, "line_size": 64,
               "partitions": {0: [0, 1], 1: [2, 3]}},
        "qos": {"period": 5_000, "guard_window": 100,
                "quotas": [
                    {"master": 1, "limit": 400, "mode": "interrupt",
                     "handler_latency": 150},
                    {"master": 2, "limit": 300, "mode": "hw_stall"},
                ]},
        "workloads": [
            {"master": 0, "outstanding": 2,
             "profile": {"pattern": "bursty", "period": 200, "burst_len": 6,
                         "kind_mix": 0.7, "base": "0x0", "footprint": 8192,
                         "stride": 64, "size": 8}},
            {"master": 1, "outstanding": 2,
             "profile": {"pattern": "saturating", "kind_mix": 0.5,
                         "base": "0x100000", "footprint": 8192, "stride": 8,
                         "size": 8}},
            {"master": 2, "outstanding": 4,
             "profile": {"pattern": "saturating", "kind_mix": 0.0,
                         "base": "0x200000", "footprint": 16384,
                         "stride": 64, "size": 64}},
        ],
    }
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(tree))

    out = [tmp_path / "run1", tmp_path / "run2"]
    for d in out:
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(d),
                       "--log-events"])
        assert rc == 0

    with criterion(9, "same config and seed give identical bytes"):
        names = sorted(os.listdir(out[0]))
        assert names == sorted(os.listdir(out[1]))
        assert "report.json" in names
        assert "events.log" in names
        assert sum(n.startswith("contention_") for n in names) == 3
        for name in names:
            a, b = out[0] / name, out[1] / name
            assert filecmp.cmp(a, b, shallow=False), name
            assert a.read_bytes() == b.read_bytes(), name


# ---------------------------------------------------------------------------
# criterion 10: way partitioning isolates eviction traffic
# ---------------------------------------------------------------------------

def _partition_tree(partitions):
    return {
        "schema_version": 1,
        "sim": {"cycles": 64_000, "seed": 17},
        "masters": {"cores": 4, "accelerators": 0},
        "bus": {"occupancy": {"read": 1, "write": 1}},
        "l2": {"enabled": True, "sets": 16, "ways": 4, "line_size": 64,
               "hit_latency": 2, "partitions": partitions},
        "noc": {"ports": [{"name": "mem", "base": "0x0",
                           "size": "0x10000000", "width": 64}]},
        "memory": {"read_latency": 4, "write_latency": 4,
                   "fifo_capacity": 16},
        "qos": {"quotas": []},
        "workloads": [
            # two cores whose 16-line footprint exactly fits one way
            {"master": 0, "outstanding": 4,
             "profile": {"pattern": "saturating", "kind_mix": 1.0,
                         "base": "0x0", "footprint": 1024, "stride": 64,
                         "size": 8}},
            {"master": 1, "outstanding": 4,
             "profile": {"pattern": "saturating", "kind_mix": 1.0,
                         "base": "0x100000", "footprint": 1024, "stride": 64,
                         "size": 8}},
            # two thrashers with desynchronized set walks and rates
            {"master": 2, "outstanding": 2,
             "profile": {"pattern": "periodic", "period": 40,
                         "kind_mix": 1.0, "base": "0x200000",
                         "footprint": 4096, "stride": 192, "size": 8}},
            {"master": 3, "outstanding": 4,
             "profile": {"pattern": "saturating", "kind_mix": 1.0,
                         "base": "0x300000", "footprint": 4096, "stride": 320,
                         "size": 8}},
        ],
    }


def test_criterion_10_partition_isolation():
    partitioned = run_tree(_partition_tree({m: [m] for m in range(4)}))
    shared = run_tree(_partition_tree({m: [0, 1, 2, 3] for m in range(4)}))
    with criterion(10, "one way each: zero cross-partition evictions"):
        c = partitioned.l2
        total = sum(c.hits.values()) + sum(c.misses.values())
        assert total >= 50_000
        assert c.evictions > 10_000                  # real pressure
        assert c.cross_partition_evictions == 0
        assert dict(c.cross_partition_pairs) == {}
        # the well-behaved cores never miss again after their 16 cold
        # misses, no matter how hard the thrashers work
        assert c.misses[0] == 16
        assert c.misses[1] == 16

        # negative control: same workload, partitioning disabled
        c2 = shared.l2
        assert c2.cross_partition_evictions > 1_000
        assert len(c2.cross_partition_pairs) >= 1


# ---------------------------------------------------------------------------
# criterion 11: the priority-inversion detector
# ---------------------------------------------------------------------------

class WorstFirstArbiter:
    """Deliberately broken drop-in that always grants the worst-ranked
    requester, starving the high-priority master."""

    def __init__(self):
        self.last_was_guard = False

    def grant(self, requesters, now):
        self.last_was_guard = False
        req = list(requesters)
        return max(req) if req else None

    def is_stalled(self, slot):
        return False

    def next_guard_deadline(self, requesters, now):
        return None


def _priority_tree():
    # memory is near-instant and the port wide, so the shared bus is the
    # bottleneck and the saturating low-priority core occupies it
    # back-to-back -- the regime where priority actually matters
    return {
        "schema_version": 1,
        "sim": {"cycles": 10_000, "seed": 8},
        "masters": {"cores": 2, "accelerators": 0},
        "l2": {"enabled": False},
        "bus": {"policy": "fixed_priority"},
        "noc": {"ports": [{"name": "mem", "base": "0x0",
                           "size": "0x10000000", "width": 64}]},
        "memory": {"read_latency": 2, "write_latency": 2},
        "qos": {"quotas": []},
        "workloads": [
            # period coprime to the 5-cycle occupancy, so arrivals land
            # at varying offsets inside the low-priority core's grants
            {"master": 0, "outstanding": 1,
             "profile": {"pattern": "periodic", "period": 53,
                         "kind_mix": 1.0, "base": "0x0", "footprint": 4096,
                         "stride": 8, "size": 8}},
            {"master": 1, "outstanding": 4,
             "profile": {"pattern": "saturating", "kind_mix": 1.0,
                         "base": "0x100000", "footprint": 4096, "stride": 8,
                         "size": 8}},
        ],
    }


def test_criterion_11_priority_inversion_detector():
    honest = run_tree(_priority_tree())
    with criterion(11, "fixed priority bounds waits; sabotage is caught"):
        verdict = check_priority_inversion(honest)
        assert verdict["applicable"] is True
        assert verdict["pass"] is True
        assert verdict["violations"] == []
        high = [g for g in honest.bus.grants if g.slot == 0]
        assert len(high) >= 180
        # the bus was genuinely contended when the high-priority core
        # arrived, yet it was never blocked longer than one occupancy
        assert any(g.t_granted > g.t_request for g in high)
        assert all(g.t_granted - g.t_request <= 5 for g in high)

        # negative control: swap in a broken arbiter before running
        cfg = parse_config(_priority_tree())
        sabotaged = System(cfg)
        sabotaged.bus.arbiter = WorstFirstArbiter()
        sabotaged.run()
        bad = check_priority_inversion(sabotaged)
        assert bad["applicable"] is True
        assert bad["pass"] is False
        assert bad["violations"]
        first = bad["violations"][0]
        assert first["granted"] == 1
        assert first["passed_over"] == 0
        assert first["waited"] > 5
