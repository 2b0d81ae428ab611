"""Contention monitor: matrices, quota metering, enforcement timing."""

import pytest
from hypothesis import given, settings, strategies as st

from socsim.errors import SimulationError
from socsim.kernel import Simulator
from socsim.monitor import (ACTION_LOG_ONLY, ContentionMonitor,
                            MODE_INTERRUPT, QuotaConfig)

from charge_log import record_charges


class FakeStallable:
    """Stands in for a bus or port at a stall point."""

    def __init__(self):
        self.arbiter = self
        self.calls = []
        self.pokes = []

    def set_stall(self, slot, flag, now):
        self.calls.append((slot, flag, now))

    def poke(self, now):
        self.pokes.append(now)


def make(n=3, period=100, quotas=(), stall_points=(), monitored=None):
    sim = Simulator()
    sim.register("driver")
    mon = ContentionMonitor(sim, n, period=period, monitored=monitored)
    mon.add_resource("bus")
    for q in quotas:
        mon.add_quota(q)
    for master, resource, slot in stall_points:
        mon.add_stall_point(master, resource, slot)
    return sim, mon, mon.events


def drive(sim, mon, feed):
    """feed: list of (t, causer, sufferer, cycles) applied to 'bus'."""
    for t, c, s, cyc in feed:
        sim.schedule(t, 0, lambda t=t, c=c, s=s, cyc=cyc:
                     mon.attribute(t, "bus", c, s, cyc))


def test_charge_rejects_a_self_pair_and_skips_a_negative_amount():
    sim, mon, _ = make()
    with pytest.raises(SimulationError, match="self-contention"):
        mon.charge(0, "bus", 1, [(1, 5, 0)])
    mon.charge(0, "bus", 0, [(1, 5, 0), (2, -1, 0)])
    mat = mon.matrices["bus"]
    assert mat.caused_by(0) == 5 and mat.suffered_by(1) == 5
    assert mat.suffered_by(2) == 0 and len(mon.attributions) == 1


def test_duplicate_resource_rejected():
    sim, mon, _ = make()
    with pytest.raises(SimulationError):
        mon.add_resource("bus")


def test_zero_and_negative_attributions_are_noops():
    sim, mon, _ = make()
    attributions, _ = record_charges(mon)
    mon.attribute(0, "bus", 0, 1, 0)
    mon.attribute(0, "bus", 0, 1, -3)
    assert attributions == [] and mon.matrices["bus"].total() == 0
    assert len(mon.attributions) == 0


def test_stream_and_matrix_stay_reconciled():
    sim, mon, _ = make()
    attributions, _ = record_charges(mon)
    drive(sim, mon, [(1, 0, 1, 4), (2, 1, 2, 6), (3, 0, 2, 5)])
    sim.run(10)
    assert sum(a[4] for a in attributions if a[1] == "bus") == 15
    assert mon.matrices["bus"].total() == 15
    assert mon.caused_total(0) == 9 and mon.suffered_total(2) == 11


def test_unmonitored_resource_never_meters_quota():
    sim, mon, _ = make(quotas=[QuotaConfig(master=0, limit=5)],
                       monitored=["bus"])
    mon.add_resource("side")
    sim.schedule(1, 0, lambda: mon.attribute(1, "side", 0, 1, 50))
    sim.run(10)
    assert mon.matrices["side"].total() == 50
    assert mon.used[0] == 0
    assert mon.quotas[0].crossings == 0


def test_quota_crossing_fires_once_per_period():
    point = FakeStallable()
    sim, mon, events = make(quotas=[QuotaConfig(master=0, limit=10)],
                            stall_points=[(0, point, 0)])
    mon.start()
    drive(sim, mon, [(5, 0, 1, 6), (7, 0, 2, 6), (9, 0, 1, 50)])
    sim.run(90)
    state = mon.quotas[0]
    assert state.crossings == 1
    assert state.stalled and mon.used[0] == 62
    # the stall line went up inside the crossing attribution, at t=7
    assert point.calls == [(0, True, 7)]
    kinds = [(e["t"], e["kind"]) for e in events]
    assert kinds == [(7, "stall_asserted")]


def test_stall_released_at_rollover_and_can_recross():
    point = FakeStallable()
    sim, mon, events = make(period=100,
                            quotas=[QuotaConfig(master=0, limit=10)],
                            stall_points=[(0, point, 0)])
    mon.start()
    drive(sim, mon, [(5, 0, 1, 20), (150, 0, 1, 30)])
    sim.run(250)
    assert point.calls == [(0, True, 5), (0, False, 100), (0, True, 150),
                           (0, False, 200)]
    assert mon.quotas[0].crossings == 2
    assert mon._stall_spans[0] == [[5, 100], [150, 200]]
    kinds = [(e["t"], e["kind"]) for e in events]
    assert kinds == [(5, "stall_asserted"), (100, "stall_released"),
                     (100, "period_rollover"), (150, "stall_asserted"),
                     (200, "stall_released"), (200, "period_rollover")]


def test_rollover_resets_budget_and_keeps_history():
    sim, mon, _ = make(period=100, quotas=[QuotaConfig(master=1, limit=10**9)])
    mon.start()
    drive(sim, mon, [(5, 1, 0, 7), (120, 1, 0, 3), (130, 0, 1, 9)])
    sim.run(300)        # rollovers at 100, 200 and (inclusive) 300
    assert mon.period_history[1] == [7, 3, 0]
    assert mon.period_history[0] == [0, 9, 0]
    assert mon.used == [0, 0, 0]
    assert mon.period_index == 3


def test_interrupt_throttles_after_handler_latency():
    point = FakeStallable()
    sim, mon, events = make(
        period=1000,
        quotas=[QuotaConfig(master=0, limit=10, mode=MODE_INTERRUPT,
                            handler_latency=40)],
        stall_points=[(0, point, 0)])
    mon.start()
    drive(sim, mon, [(5, 0, 1, 20)])
    sim.run(1200)
    kinds = [(e["t"], e["kind"]) for e in events
             if e["kind"] != "period_rollover"]
    assert kinds == [(5, "interrupt_raised"), (45, "throttle_applied"),
                     (45, "stall_asserted"), (1000, "stall_released")]
    assert point.calls[0] == (0, True, 45)


def test_stale_throttle_is_dropped_after_rollover():
    point = FakeStallable()
    sim, mon, events = make(
        period=100,
        quotas=[QuotaConfig(master=0, limit=10, mode=MODE_INTERRUPT,
                            handler_latency=200)],
        stall_points=[(0, point, 0)])
    mon.start()
    drive(sim, mon, [(50, 0, 1, 20)])
    sim.run(400)
    kinds = [(e["t"], e["kind"]) for e in events
             if e["kind"] != "period_rollover"]
    assert kinds == [(50, "interrupt_raised"), (250, "throttle_dropped")]
    assert point.calls == []
    assert not mon.quotas[0].stalled


def test_interrupt_log_only_never_stalls():
    sim, mon, events = make(
        period=1000,
        quotas=[QuotaConfig(master=0, limit=10, mode=MODE_INTERRUPT,
                            action=ACTION_LOG_ONLY, handler_latency=40)])
    mon.start()
    drive(sim, mon, [(5, 0, 1, 20)])
    sim.run(500)
    kinds = [e["kind"] for e in events if e["kind"] != "period_rollover"]
    assert kinds == ["interrupt_raised"]
    assert not mon.quotas[0].stalled


def test_stalled_overlap_clips_spans():
    sim, mon, _ = make(quotas=[QuotaConfig(master=2, limit=10**9)])
    mon._stall_spans[2] = [[10, 20], [30, None]]
    assert mon.stalled_overlap(2, 0, 5) == 0
    assert mon.stalled_overlap(2, 0, 15) == 5
    assert mon.stalled_overlap(2, 12, 18) == 6
    assert mon.stalled_overlap(2, 15, 35) == 10      # 5 + [30,35)
    assert mon.stalled_overlap(2, 40, 50) == 10      # open span
    assert mon.stalled_overlap(0, 0, 100) == 0       # no spans at all


@st.composite
def stall_spans_and_query(draw):
    """Disjoint, time-ordered spans, possibly touching or zero-length,
    the last possibly still open, and a query anywhere around them."""
    spans, t = [], draw(st.integers(0, 10))
    for gap, length in draw(st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=8)):
        t += gap
        spans.append([t, t + length])
        t += length
    if spans and draw(st.booleans()):
        spans[-1][1] = None
    start = draw(st.integers(-5, t + 15))
    end = draw(st.integers(start, t + 20))
    return spans, start, end


@settings(max_examples=400, deadline=None, derandomize=True)
@given(stall_spans_and_query())
def test_stalled_overlap_matches_per_cycle_count(case):
    spans, start, end = case
    sim, mon, _ = make(quotas=[QuotaConfig(master=2, limit=10**9)])
    mon._stall_spans[2] = spans
    brute = sum(1 for t in range(start, end)
                if any(on <= t and (off is None or t < off)
                       for on, off in spans))
    assert mon.stalled_overlap(2, start, end) == brute


def test_self_inflicted_ledger():
    sim, mon, _ = make()
    _, self_inflicted = record_charges(mon)
    mon.attribute_self(7, "bus", 1, 4)
    mon.attribute_self(9, "bus", 1, 2)
    mon.attribute_self(9, "bus", 1, 0)       # no-op
    assert mon.self_inflicted[1] == 6
    assert self_inflicted == [(7, "bus", 1, 4), (9, "bus", 1, 2)]
    assert len(mon.self_inflicted_events) == 2


RESOURCES = ("bus", "noc.mem", "mem")


@st.composite
def log_operations(draw):
    """Random ``charge``, ``attribute`` and ``attribute_self`` calls over
    three resources and four masters, in time order."""
    ops = []
    now = 0
    amounts = st.integers(-2, 9)
    for _ in range(draw(st.integers(0, 20))):
        now += draw(st.integers(0, 3))
        resource = draw(st.sampled_from(RESOURCES))
        causer = draw(st.integers(0, 3))
        others = [s for s in range(4) if s != causer]
        op = draw(st.sampled_from(("charge", "attribute", "attribute_self")))
        if op == "charge":
            sufferers = draw(st.lists(st.booleans(), min_size=3, max_size=3))
            args = (causer, [(s, draw(amounts), draw(amounts))
                             for s, on in zip(others, sufferers) if on])
        elif op == "attribute":
            args = (causer, draw(st.sampled_from(others)), draw(amounts))
        else:
            args = (causer, draw(amounts))
        ops.append((op, now, resource, args))
    return ops


@settings(max_examples=120, deadline=None, derandomize=True)
@given(log_operations())
def test_record_counts_match_the_positive_entries(ops):
    # the reference keeps each log as a plain list of tuples
    sim, mon, _ = make(n=4)
    for name in RESOURCES[1:]:
        mon.add_resource(name)
    recorded = record_charges(mon)
    attributions, self_inflicted = [], []
    for op, now, resource, args in ops:
        if op == "charge":
            causer, charges = args
            mon.charge(now, resource, causer, charges)
            for sufferer, cycles, own in charges:
                if cycles > 0:
                    attributions.append(
                        (now, resource, causer, sufferer, cycles))
                if own > 0:
                    self_inflicted.append((now, resource, sufferer, own))
        elif op == "attribute":
            causer, sufferer, cycles = args
            mon.attribute(now, resource, causer, sufferer, cycles)
            if cycles > 0:
                attributions.append((now, resource, causer, sufferer, cycles))
        else:
            master, cycles = args
            mon.attribute_self(now, resource, master, cycles)
            if cycles > 0:
                self_inflicted.append((now, resource, master, cycles))
    assert recorded == (attributions, self_inflicted)
    assert len(mon.attributions) == len(attributions)
    assert len(mon.self_inflicted_events) == len(self_inflicted)
    for name in RESOURCES:
        assert mon.matrices[name].total() == sum(
            cycles for _t, res, _c, _s, cycles in attributions
            if res == name)
