"""End-of-run verdicts: clean runs pass, crafted violations are caught
with concrete evidence, exclusions behave as documented."""

from types import SimpleNamespace

from socsim.arbiter import FIXED_PRIORITY
from socsim.config import parse_config, SCHEMA_VERSION
from socsim.resource import GrantRecord
from socsim.system import build
from socsim.transaction import READ, Transaction
from socsim.verify import (EVIDENCE_CAP, check_deadlines,
                           check_priority_inversion, check_quota,
                           check_starvation, run_checks)

from test_bus import Rig, saturate


def run_tree(tree):
    tree.setdefault("schema_version", SCHEMA_VERSION)
    system = build(parse_config(tree))
    system.run()
    return system


def small_run(**overrides):
    tree = {
        "sim": {"cycles": 3000, "seed": 5},
        "masters": {"cores": 2},
        "l2": {"enabled": False},
        "workloads": [
            {"master": m, "profile": {
                "pattern": "periodic", "count": 8, "period": 120,
                "base": 0x1000 * m, "footprint": 256, "stride": 8,
                "size": 8}}
            for m in range(2)],
    }
    tree.update(overrides)
    return run_tree(tree)


def fake_grant(slot=1, owner=1, t_request=0, t_granted=5000, guard=False):
    return GrantRecord(slot, owner, READ, 5, t_request, t_granted, guard,
                       t_completed=t_granted + 5)


def test_clean_run_passes_everything():
    sys = small_run()
    verdicts = run_checks(sys)
    assert verdicts["pass"]
    for name in ("starvation", "deadline", "priority_inversion", "quota"):
        assert verdicts[name]["pass"], name


def test_starvation_windows_default_to_ten_occupancies():
    sys = small_run()
    verdict = check_starvation(sys)
    assert verdict["windows"] == {"bus": 50, "noc.mem": 10, "mem": 400}
    sys2 = small_run(verify={"starvation_window": 777})
    assert set(check_starvation(sys2)["windows"].values()) == {777}


def test_starvation_flags_blown_grant_wait():
    sys = small_run()
    sys.bus.grants.append(fake_grant(t_request=0, t_granted=2000))
    verdict = check_starvation(sys)
    assert not verdict["pass"]
    v = verdict["violations"][0]
    assert v == {"resource": "bus", "master": 1, "t_request": 0,
                 "waited": 2000, "granted": True}


def test_starvation_deducts_own_stall_time():
    sys = small_run()
    sys.bus.grants.append(fake_grant(owner=1, t_request=0, t_granted=2000))
    # all but 30 of those cycles were the waiter's own quota stall
    sys.monitor._stall_spans[1] = [[0, 1970]]
    assert check_starvation(sys)["pass"]


def port_grant(port, entity, owner, t_request, t_granted):
    return GrantRecord(entity, owner, READ, 1, t_request, t_granted, False,
                       t_completed=t_granted + 1)


def test_starvation_counts_stall_time_the_stall_does_not_gate():
    # a core's stall line gates only its bus slot; its L2 fill waiting at
    # noc.mem rides entity 0, so the stall excuses none of that wait
    sys = small_run()
    port = sys.ports[0]
    sys.monitor._stall_spans[1] = [[0, None]]
    port.grants.append(port_grant(port, 0, 1, t_request=0, t_granted=200))
    port.queues[0].append((Transaction(997, 1, READ, 0x0, 8, 0), 2000))
    verdict = check_starvation(sys)
    assert verdict["violations"] == [
        {"resource": "noc.mem", "master": 1, "t_request": 0,
         "waited": 200, "granted": True},
        {"resource": "noc.mem", "master": 1, "t_request": 2000,
         "waited": 1000, "granted": False}]


def test_starvation_excuses_stalled_accelerator_injection():
    sys = small_run(masters={"cores": 2, "accelerators": 1})
    port = sys.ports[0]
    assert port.gated == {1}
    sys.monitor._stall_spans[2] = [[0, 1990], [2000, None]]
    port.grants.append(port_grant(port, 1, 2, t_request=0, t_granted=2000))
    port.queues[1].append((Transaction(997, 2, READ, 0x0, 8, 0), 1000))
    assert check_starvation(sys)["pass"]
    # the same waits are flagged once the stall no longer covers them
    sys.monitor._stall_spans[2] = [[0, 100]]
    assert len(check_starvation(sys)["violations"]) == 2


def test_starvation_counts_unserved_at_horizon():
    sys = small_run()
    txn = Transaction(998, 0, READ, 0x0, 8, 0)
    sys.bus.queues[0].append((txn, 0))
    verdict = check_starvation(sys)
    assert not verdict["pass"]
    assert verdict["violations"][0]["granted"] is False
    sys.bus.queues[0].clear()


def one_read(deadline):
    # uncontended single read takes 48 cycles end to end
    return run_tree({
        "sim": {"cycles": 200},
        "masters": {"cores": 1},
        "l2": {"enabled": False},
        "verify": {"deadlines": {0: deadline}},
        "workloads": [{"master": 0, "profile": {
            "pattern": "periodic", "count": 1, "base": 0x100,
            "footprint": 64, "stride": 8, "size": 8}}],
    })


def test_deadline_check_covers_completed_and_inflight():
    sys = one_read(40)
    assert sys.masters[0].deadline_misses == [48]
    verdict = check_deadlines(sys)
    assert not verdict["pass"]
    assert verdict["checked"] == [0]
    assert verdict["violations"][0] == {
        "master": 0, "latency": 48, "deadline": 40, "completed": True}

    # within a deadline of 1000, until an in-flight transaction has
    # already blown it
    sys = one_read(1000)
    assert sys.masters[0].deadline_misses == []
    assert check_deadlines(sys)["pass"]
    old = Transaction(999, 0, READ, 0x0, 8, t_issued=-2000)
    sys.masters[0].active[999] = old
    verdict = check_deadlines(sys)
    assert not verdict["pass"]
    assert verdict["violations"][0]["completed"] is False
    del sys.masters[0].active[999]
    assert check_deadlines(sys)["pass"]


def test_deadline_evidence_is_capped_in_master_order():
    # every read of both cores misses an impossible 10-cycle deadline
    sys = small_run(verify={"deadlines": {1: 10, 0: 10}},
                    workloads=[{"master": m, "profile": {
                        "pattern": "periodic", "count": 30, "period": 60,
                        "base": 0x1000 * m, "footprint": 256, "stride": 8,
                        "size": 8}} for m in range(2)])
    assert [m.completed for m in sys.masters] == [30, 30]
    assert [len(m.deadline_misses) for m in sys.masters] == [
        EVIDENCE_CAP, EVIDENCE_CAP]
    verdict = check_deadlines(sys)
    assert verdict["checked"] == [0, 1]
    assert [(v["master"], v["latency"]) for v in verdict["violations"]] == [
        (0, lat) for lat in sys.masters[0].deadline_misses]


def test_priority_inversion_not_applicable_to_round_robin():
    sys = small_run()
    verdict = check_priority_inversion(sys)
    assert verdict["pass"] and verdict["applicable"] is False


class WorstFirst:
    """A sabotaged bus arbiter: it grants the highest requesting slot,
    the worst-ranked under the default ranks.  ``guard`` makes every
    grant a guard grant; ``stalled`` names the slots it reports
    stalled."""

    def __init__(self, guard=False, stalled=()):
        self.guard = guard
        self.stalled = set(stalled)
        self.last_was_guard = False

    def grant(self, requesters, now):
        self.last_was_guard = self.guard
        return max(requesters)

    def is_stalled(self, slot):
        return slot in self.stalled

    def next_guard_deadline(self, requesters, now):
        return None


def judged_bus(issues, arbiter, ranks=None, n=2, horizon=100):
    """A fixed-priority bus of ``n`` cores, reads holding it 5 cycles,
    with ``arbiter`` swapped in after it was built and driven by
    ``issues``, one ``(t, core)`` per request; the bus after the run."""
    rig = Rig(n, policy=FIXED_PRIORITY, ranks=ranks)
    rig.bus.arbiter = arbiter
    for t, core in issues:
        rig.issue_at(t, core)
    rig.sim.run(horizon)
    return rig.bus


def verdict_of(bus):
    return check_priority_inversion(SimpleNamespace(
        cfg=SimpleNamespace(bus_policy="fixed_priority"), bus=bus))


# core 1 holds the bus over [0, 5) and [5, 10) and is granted again at
# 10, when core 0, ranked better and queued since 1, has waited 9 cycles
PASSED_OVER = [(0, 1), (1, 0), (2, 1), (6, 1)]


def test_priority_inversion_detects_crafted_inversion():
    sys = small_run(bus={"policy": "fixed_priority"})
    assert check_priority_inversion(sys)["pass"]
    bus = judged_bus(PASSED_OVER, WorstFirst())
    assert [g.slot for g in bus.grants] == [1, 1, 1, 0]
    assert bus.inversions == [{
        "t": 10, "granted": 1, "granted_rank": 1,
        "passed_over": 0, "passed_over_rank": 0, "waited": 9}]
    verdict = verdict_of(bus)
    assert not verdict["pass"]
    assert verdict["violations"] == bus.inversions


def test_priority_inversion_excuses_guard_and_stalled():
    # the guard flag and the stall mask are the swapped-in arbiter's
    assert judged_bus(PASSED_OVER, WorstFirst(guard=True)).inversions == []
    assert judged_bus(PASSED_OVER, WorstFirst(stalled={0})).inversions == []
    assert judged_bus(PASSED_OVER, WorstFirst(stalled={1})).inversions != []


def test_priority_inversion_tolerates_a_wait_of_one_occupancy():
    # core 0 arrives at 5 and is passed over at 10: one occupancy
    bus = judged_bus([(0, 1), (2, 1), (5, 0), (6, 1)], WorstFirst())
    assert [g.slot for g in bus.grants] == [1, 1, 1, 0]
    assert bus.inversions == []
    # a cycle earlier, it has waited one cycle more
    bus = judged_bus([(0, 1), (2, 1), (4, 0), (6, 1)], WorstFirst())
    assert [v["waited"] for v in bus.inversions] == [6]


def test_priority_inversion_ranks_are_those_the_bus_was_built_with():
    # ranked first, core 1 is passed over by nobody
    bus = judged_bus(PASSED_OVER, WorstFirst(), ranks={0: 1, 1: 0})
    assert [g.slot for g in bus.grants] == [1, 1, 1, 0]
    assert bus.inversions == []
    # three cores, ranked 2 > 0 > 1: only core 1's grants invert, and
    # only over core 0's head
    bus = judged_bus([(0, 1), (1, 0), (2, 1), (6, 1)], WorstFirst(),
                     ranks={0: 1, 1: 2, 2: 0}, n=3)
    assert [(v["granted_rank"], v["passed_over"], v["passed_over_rank"])
            for v in bus.inversions] == [(2, 0, 1)]


def test_priority_inversion_evidence_stops_at_the_cap():
    # core 3 refills its register at every grant, so worst-first never
    # serves cores 0-2, queued since 1, and every grant from 10 on passes
    # over all three: the cap falls inside one grant's evidence
    rig = Rig(4, policy=FIXED_PRIORITY)
    rig.bus.arbiter = WorstFirst()
    saturate(rig, {3}, until=300)
    for core in range(3):
        rig.issue_at(1, core)
    rig.sim.run(300)
    assert len(rig.bus.grants) > EVIDENCE_CAP
    assert EVIDENCE_CAP % 3
    assert [(v["t"], v["passed_over"], v["waited"])
            for v in rig.bus.inversions] == [
        (t, core, t - 1) for t in range(10, 300, 5)
        for core in range(3)][:EVIDENCE_CAP]
    verdict = verdict_of(rig.bus)
    assert not verdict["pass"]
    assert len(verdict["violations"]) == EVIDENCE_CAP


def test_quota_bound_formula_and_violation():
    sys = small_run(qos={"period": 1000, "guard_window": 100,
                         "quotas": [{"master": 0, "limit": 200}]})
    verdict = check_quota(sys)
    assert verdict["applicable"]
    # bound = limit + max_occ + ceil(period/guard) * max_occ, max_occ is
    # the memory service latency here
    assert verdict["max_occupancy"] == 40
    assert verdict["bounds"][0] == 200 + 40 + 10 * 40
    assert verdict["pass"]
    sys.monitor.period_history[0][0] = 100_000
    bad = check_quota(sys)
    assert not bad["pass"]
    assert bad["violations"][0]["period"] == 0


def test_quota_not_applicable_without_quotas():
    sys = small_run()
    verdict = check_quota(sys)
    assert verdict["pass"] and verdict["applicable"] is False
