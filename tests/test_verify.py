"""End-of-run verdicts: clean runs pass, crafted violations are caught
with concrete evidence, exclusions behave as documented."""

from socsim.config import parse_config, SCHEMA_VERSION
from socsim.resource import GrantRecord
from socsim.system import build
from socsim.transaction import READ, Transaction
from socsim.verify import (check_deadlines, check_priority_inversion,
                           check_quota, check_starvation, run_checks)


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


def fake_grant(slot=1, owner=1, t_request=0, t_granted=5000, guard=False,
               waiters=()):
    return GrantRecord(slot, owner, READ, 5, t_request, t_granted, guard,
                       waiters=list(waiters), t_completed=t_granted + 5)


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


def test_deadline_check_covers_completed_and_inflight():
    # uncontended single read takes 48 cycles end to end
    sys = run_tree({
        "sim": {"cycles": 200},
        "masters": {"cores": 1},
        "l2": {"enabled": False},
        "verify": {"deadlines": {0: 40}},
        "workloads": [{"master": 0, "profile": {
            "pattern": "periodic", "count": 1, "base": 0x100,
            "footprint": 64, "stride": 8, "size": 8}}],
    })
    verdict = check_deadlines(sys)
    assert not verdict["pass"]
    assert verdict["violations"][0] == {
        "master": 0, "latency": 48, "deadline": 40, "completed": True}

    # an in-flight transaction that has already blown its bound
    sys.cfg.deadlines[0] = 1000
    old = Transaction(999, 0, READ, 0x0, 8, t_issued=-2000)
    sys.masters[0].active[999] = old
    verdict = check_deadlines(sys)
    assert not verdict["pass"]
    assert verdict["violations"][0]["completed"] is False
    del sys.masters[0].active[999]
    assert check_deadlines(sys)["pass"]


def test_priority_inversion_not_applicable_to_round_robin():
    sys = small_run()
    verdict = check_priority_inversion(sys)
    assert verdict["pass"] and verdict["applicable"] is False


def test_priority_inversion_detects_crafted_inversion():
    sys = small_run(bus={"policy": "fixed_priority"})
    assert check_priority_inversion(sys)["pass"]
    # slot 1 granted while better-ranked slot 0 waited 5000 cycles
    bad = fake_grant(slot=1, waiters=[(0, 0, 0, False)])
    verdict = check_priority_inversion(sys, grants=[bad])
    assert not verdict["pass"]
    v = verdict["violations"][0]
    assert (v["granted"], v["passed_over"], v["waited"]) == (1, 0, 5000)


def test_priority_inversion_excuses_guard_and_stalled():
    sys = small_run(bus={"policy": "fixed_priority"})
    guard = fake_grant(slot=1, guard=True, waiters=[(0, 0, 0, False)])
    assert check_priority_inversion(sys, grants=[guard])["pass"]
    stalled = fake_grant(slot=1, waiters=[(0, 0, 0, True)])
    assert check_priority_inversion(sys, grants=[stalled])["pass"]
    # waiting within one occupancy is tolerated
    brief = fake_grant(slot=1, t_request=4998, waiters=[(0, 0, 4997, False)])
    assert check_priority_inversion(sys, grants=[brief],
                                    max_occupancy=5)["pass"]


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
