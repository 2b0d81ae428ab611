import pytest

from socsim.arbiter import Arbiter, FIXED_PRIORITY, QUOTA_AWARE, ROUND_ROBIN
from socsim.errors import SimulationError
from socsim.monitor import QuotaConfig, QuotaState


def test_unknown_policy_rejected():
    with pytest.raises(SimulationError):
        Arbiter([0, 1], policy="lottery")


def test_round_robin_full_set_cycles():
    arb = Arbiter([0, 1, 2, 3])
    grants = [arb.grant({0, 1, 2, 3}, now=t) for t in range(8)]
    assert grants == [0, 1, 2, 3, 0, 1, 2, 3]


def test_round_robin_starts_strictly_after_last_granted():
    arb = Arbiter([0, 1, 2, 3])
    assert arb.grant({1, 3}, 0) == 1
    assert arb.grant({1, 3}, 1) == 3
    assert arb.grant({1, 3}, 2) == 1
    # after granting 1 the scan order is 2, 3, 0, 1
    assert arb.grant({0, 1}, 3) == 0
    assert arb.grant({0, 1}, 4) == 1


def test_single_requester_is_always_granted():
    arb = Arbiter([0, 1])
    for t in range(3):
        assert arb.grant({1}, t) == 1


def test_fixed_priority_best_rank_wins():
    arb = Arbiter([0, 1, 2], policy=FIXED_PRIORITY, ranks={0: 2, 1: 0, 2: 1})
    assert arb.grant({0, 1, 2}, 0) == 1
    assert arb.grant({0, 2}, 1) == 2
    assert arb.grant({0}, 2) == 0


def test_fixed_priority_defaults_to_slot_order_and_ties_break_low():
    arb = Arbiter([0, 1, 2], policy=FIXED_PRIORITY)
    assert arb.grant({1, 2}, 0) == 1
    arb2 = Arbiter([0, 1, 2], policy=FIXED_PRIORITY, ranks={1: 5, 2: 5})
    assert arb2.grant({1, 2}, 0) == 1


def stall(arb, slot, on, now):
    """Raise or drop the stall line of ``slot``'s master, as the monitor
    does: in its ``QuotaState`` first, then at the arbiter."""
    state = arb.quota_of.setdefault(slot, QuotaState(QuotaConfig(slot, 0)))
    state.stalled = on
    arb.set_stall(slot, on, now)


def test_stalled_slot_is_skipped():
    arb = Arbiter([0, 1], guard_window=100)
    stall(arb, 0, True, now=0)
    assert arb.grant({0, 1}, 1) == 1
    assert arb.grant({0, 1}, 2) == 1


def test_all_stalled_yields_none_until_guard():
    arb = Arbiter([0], guard_window=100)
    stall(arb, 0, True, now=10)
    assert arb.grant({0}, 50) is None
    assert arb.grant({0}, 109) is None
    assert arb.grant({0}, 110) == 0
    assert arb.last_was_guard


def test_guard_deadlines_are_anchored_not_sliding():
    # a grant delivered late inside window k must not push window k+1
    arb = Arbiter([0], guard_window=100)
    stall(arb, 0, True, now=0)
    grant_times = []
    t = 0
    while t < 5000:
        if arb.grant({0}, t) is not None:
            grant_times.append(t)
            t += 7      # occupancy delays the next free instant
        else:
            t += 1
    # exactly one grant inside every [100k, 100(k+1)) window
    windows = [gt // 100 for gt in grant_times]
    assert windows == sorted(set(windows))
    assert windows == list(range(1, windows[-1] + 1))
    # and the first few land right at anchor + jitter
    assert grant_times[:3] == [100, 200, 300]


def test_missed_guard_windows_are_not_banked():
    arb = Arbiter([0], guard_window=100)
    stall(arb, 0, True, now=0)
    # no request shows up until 1000; one grant then, not ten
    assert arb.grant({0}, 1000) == 0
    assert arb.grant({0}, 1001) is None
    assert arb.wake_at == 1100


def test_guard_expired_slot_preempts_rotation():
    arb = Arbiter([0, 1], guard_window=100)
    stall(arb, 1, True, now=0)
    assert arb.grant({0, 1}, 99) == 0
    assert arb.grant({0, 1}, 100) == 1      # deadline hit, 0 must wait
    assert arb.last_was_guard
    assert arb.grant({0, 1}, 101) == 0


def test_stall_release_restores_normal_service():
    arb = Arbiter([0, 1], guard_window=100)
    stall(arb, 0, True, now=0)
    stall(arb, 0, False, now=20)
    assert arb.grant({0}, 21) == 0
    assert not arb.last_was_guard
    # guard state was dropped with the release
    assert arb._guard_next == {}


def test_reasserting_stall_keeps_the_original_anchor():
    arb = Arbiter([0], guard_window=100)
    stall(arb, 0, True, now=0)
    stall(arb, 0, True, now=50)
    assert arb.grant({0}, 100) == 0


def test_none_grant_wakes_at_the_earliest_deadline():
    arb = Arbiter([0, 1], guard_window=100)
    assert arb.grant(set(), 0) is None
    assert arb.wake_at is None
    stall(arb, 0, True, now=0)
    stall(arb, 1, True, now=30)
    assert arb.grant({0, 1}, 40) is None
    assert arb.wake_at == 100
    assert arb.grant({1}, 40) is None
    assert arb.wake_at == 130
    stall(arb, 0, False, now=50)
    # an eligible requester is granted, so no alarm is needed
    assert arb.grant({0, 1}, 60) == 0


def crossed_quota(arb, slot):
    """Hand ``arb`` a crossed quota for ``slot``, as the monitor would."""
    arb.quota_of[slot] = QuotaState(QuotaConfig(slot, 0), crossed=True)
    return arb.quota_of[slot]


def test_quota_aware_skips_exhausted_slots():
    arb = Arbiter([0, 1, 2], policy=QUOTA_AWARE, guard_window=100)
    spent = crossed_quota(arb, 1)
    assert arb.grant({0, 1, 2}, 0) == 0
    assert arb.grant({0, 1, 2}, 1) == 2
    assert arb.grant({0, 1, 2}, 2) == 0
    spent.crossed = False
    assert arb.grant({1}, 3) == 1


def test_quota_aware_exhausted_slot_gets_guard_service():
    arb = Arbiter([0, 1], policy=QUOTA_AWARE, guard_window=50)
    crossed_quota(arb, 0)
    # lazy anchor on first sight at t=10, so the deadline is 60
    assert arb.grant({0, 1}, 10) == 1
    assert arb.grant({0}, 59) is None
    assert arb.wake_at == 60
    assert arb.grant({0}, 60) == 0
    assert arb.last_was_guard


def test_quota_aware_replenish_clears_guard_state():
    arb = Arbiter([0, 1], policy=QUOTA_AWARE, guard_window=50)
    spent = crossed_quota(arb, 0)
    arb.grant({0, 1}, 0)
    spent.crossed = False
    assert arb.grant({0}, 1) == 0
    assert not arb.last_was_guard


def test_guard_among_multiple_expired_takes_earliest_deadline():
    arb = Arbiter([0, 1, 2], guard_window=100)
    stall(arb, 1, True, now=0)       # deadline 100
    stall(arb, 2, True, now=40)      # deadline 140
    assert arb.grant({1, 2}, 150) == 1  # 100 beats 140
    assert arb.grant({1, 2}, 250) == 2  # 1 moved to 200, 2 owed since 140
    assert arb.grant({1, 2}, 251) == 1  # 2 moved to 340, 1 owed since 200
    assert arb.grant({1, 2}, 252) is None
