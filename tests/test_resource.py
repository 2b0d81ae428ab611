"""The settlement rule every arbitrated resource and the memory
controller share, one case per clause."""

import pytest

from socsim.kernel import Simulator
from socsim.monitor import ContentionMonitor
from socsim.resource import settle

# an occupancy held by key 0 from cycle 10 to cycle 20; key 2 is under
# its own stall from cycle 12 on
T_GRANTED, NOW = 10, 20


@pytest.mark.parametrize("waiting, charged, self_inflicted", [
    pytest.param([(2, 5, True)], [(0, 2, 2)], [(2, 8)],
                 id="gated-stalled-waiter-is-self-inflicted"),
    pytest.param([(2, 5, False)], [(0, 2, 10)], [],
                 id="ungated-stalled-waiter-is-charged-in-full"),
    pytest.param([(0, 5, False), (1, 5, False)], [(0, 1, 10)], [],
                 id="same-owner-waiter-is-skipped"),
    pytest.param([(1, 12, False), (1, 5, False)], [(0, 1, 10)], [],
                 id="one-key-counts-once-at-its-longest-overlap"),
    pytest.param([(1, 14, False)], [(0, 1, 6)], [],
                 id="mid-occupancy-arrival-gets-a-partial-overlap"),
])
def test_settle(waiting, charged, self_inflicted):
    monitor = ContentionMonitor(Simulator(), 3, period=10**9)
    monitor.add_resource("r")
    monitor._stall_spans[2] = [[12, None]]
    settle(monitor, "r", 0, T_GRANTED, NOW, waiting)
    assert monitor.attributions == [(NOW, "r", c, s, n) for c, s, n in charged]
    assert monitor.self_inflicted_events == [
        (NOW, "r", m, n) for m, n in self_inflicted]
