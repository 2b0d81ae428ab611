"""The settlement rule every arbitrated resource and the memory
controller share, ``ContentionMonitor.settle``, one case per clause."""

import pytest

from socsim.arbiter import Arbiter
from socsim.errors import SimulationError
from socsim.kernel import Simulator
from socsim.monitor import ContentionMonitor
from socsim.noc import CrossbarPort, FixedSlave
from socsim.transaction import READ, Transaction

from charge_log import record_charges

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
    pytest.param([(1, 14, False)], [(0, 1, 6)], [],
                 id="mid-occupancy-arrival-gets-a-partial-overlap"),
])
def test_settle(waiting, charged, self_inflicted):
    monitor = ContentionMonitor(Simulator(), 3, period=10**9)
    monitor.add_resource("r")
    monitor._stall_spans[2] = [[12, None]]
    recorded = record_charges(monitor)
    monitor.settle(NOW, "r", 0, T_GRANTED, waiting)
    assert recorded == (
        [(NOW, "r", c, s, n) for c, s, n in charged],
        [(NOW, "r", m, n) for m, n in self_inflicted])


@pytest.mark.parametrize("waiting", [
    pytest.param([(1, 5, False), (1, 12, False)], id="repeated-key"),
    # key 2 is gated and stalled, and would be charged and inflict
    # cycles on itself before key 1 shows the order broken
    pytest.param([(2, 5, True), (1, 5, False)], id="descending-key"),
])
def test_settle_rejects_a_key_out_of_order(waiting):
    # one entry per key, ascending, is the caller's part: _finish keeps
    # each owner's earliest entry and sorts them
    monitor = ContentionMonitor(Simulator(), 3, period=10**9)
    monitor.add_resource("r")
    monitor._stall_spans[2] = [[12, None]]
    recorded = record_charges(monitor)
    with pytest.raises(SimulationError, match="^r: waiter 1 settled after"):
        monitor.settle(NOW, "r", 0, T_GRANTED, waiting)
    assert recorded == ([], [])
    assert monitor.matrices["r"].total() == 0


def test_port_release_behind_a_deep_queue_charges_each_owner_once():
    # accelerator entity 1 (master 3) holds the port over [0, 10) while
    # entity 0 queues entries of three other owners, each owner several
    # times; master 4 arrives in the release cycle itself
    sim = Simulator()
    feeder = sim.register("feeder")
    monitor = ContentionMonitor(sim, 5, period=10**9)
    attributions, self_inflicted = record_charges(monitor)
    port = CrossbarPort(sim, monitor, "mem", 0x0, 0x1000, 8, [0, 1], {1: 3},
                        Arbiter([0, 1]), occupancy_override={READ: 10})
    port.target = FixedSlave(sim, "mem", 1, 1, lambda txn, t: None)
    arrivals = [(0, 1, 3), (1, 0, 0), (2, 0, 1), (3, 0, 0), (4, 0, 2),
                (5, 0, 1), (6, 0, 0), (7, 0, 2), (8, 0, 1), (9, 0, 0),
                (9, 0, 2), (10, 0, 4), (10, 0, 1)]
    for uid, (t, entity, owner) in enumerate(arrivals):
        txn = Transaction(uid, owner, READ, 0x100, 8, t, id_value=owner)
        sim.schedule(t, feeder,
                     lambda txn=txn, e=entity, t=t: port.arrival(txn, e, t))
    sim.run(10)
    assert len(port.queues[0]) == 11     # the head was granted at 10
    # earliest entries: owner 0 at 1, owner 1 at 2, owner 2 at 4
    assert attributions == [
        (10, "noc.mem", 3, 0, 9), (10, "noc.mem", 3, 1, 8),
        (10, "noc.mem", 3, 2, 6)]
    assert self_inflicted == []
