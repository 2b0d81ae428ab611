"""Crossbar: routing, per-port occupancy, entity rotation, waiter
attribution, the accel self-stall split, and backpressure blame when the
memory controller refuses a delivery."""

import pytest

from socsim.arbiter import Arbiter, ROUND_ROBIN
from socsim.errors import SimulationError
from socsim.kernel import Simulator
from socsim.memctrl import MemoryController
from socsim.monitor import ContentionMonitor, QuotaConfig
from socsim.noc import Crossbar, CrossbarPort, FixedSlave, transfer_cycles
from socsim.transaction import READ, WRITE, Transaction

from charge_log import record_charges


class NocRig:
    """One crossbar port in front of a fixed-latency slave."""

    def __init__(self, n_entities=3, width=8, guard=100,
                 occupancy_override=None, slave_latency=4):
        self.sim = Simulator()
        self.feeder = self.sim.register("feeder")
        self.monitor = ContentionMonitor(self.sim, 4, period=10**9)
        self.xbar = Crossbar(self.sim)
        entities = list(range(n_entities))
        arb = Arbiter(entities, policy=ROUND_ROBIN, guard_window=guard)
        self.port = CrossbarPort(
            self.sim, self.monitor, "mem", 0x0, 0x1000_0000, width,
            entities, {e: e for e in entities if e != 0}, arb,
            occupancy_override=occupancy_override)
        self.done = []
        self.slave = FixedSlave(self.sim, "mem", slave_latency, slave_latency,
                                lambda txn, t: self.done.append((txn, t)))
        self.port.target = self.slave
        self.xbar.add_port(self.port)
        self.txns = []
        self._uid = 0

    def inject_at(self, t, entity, owner, kind=READ, size=8, addr=0x100):
        def fire():
            txn = Transaction(self._uid, owner, kind, addr, size,
                              self.sim.now, id_value=owner)
            self.txns.append(txn)
            self.xbar.inject(txn, entity, self.sim.now)
        self._uid += 1
        self.sim.schedule(t, self.feeder, fire)


def test_transfer_cycles_math():
    assert transfer_cycles(8, 8) == 1
    assert transfer_cycles(9, 8) == 2
    assert transfer_cycles(64, 8) == 8
    assert transfer_cycles(64, 16) == 4
    assert transfer_cycles(1, 8) == 1
    assert transfer_cycles(0, 8) == 1          # floor of one cycle


def test_unmapped_address_raises():
    rig = NocRig()
    with pytest.raises(SimulationError):
        rig.xbar.route(0x5000_0000)
    rig.inject_at(0, entity=0, owner=0, addr=0x5000_0000)
    with pytest.raises(SimulationError):
        rig.sim.run(10)


def test_timing_routing_then_transfer_then_slave():
    rig = NocRig(width=8, slave_latency=4)
    rig.inject_at(5, entity=0, owner=0, size=64)
    rig.sim.run(50)
    [grant] = rig.port.grants
    assert grant.uid == rig.txns[0].uid
    # one cycle of routing, eight transfer cycles, four in the slave
    assert (grant.t_request, grant.t_granted, grant.t_completed) == (6, 6, 14)
    assert rig.done == [(rig.txns[0], 18)]


def test_occupancy_override_beats_width():
    rig = NocRig(occupancy_override={READ: 7})
    rig.inject_at(0, entity=0, owner=0, size=8)
    rig.sim.run(50)
    [grant] = rig.port.grants
    assert grant.t_completed - grant.t_granted == 7


def test_entity_rotation_splits_evenly():
    rig = NocRig(n_entities=3)
    for entity in range(3):
        for _ in range(3):
            rig.inject_at(0, entity, owner=entity)
    rig.sim.run(100)
    assert [g.slot for g in rig.port.grants] == [0, 1, 2] * 3
    assert all(g.t_completed - g.t_granted == 1 for g in rig.port.grants)


def test_id_value_is_transparent():
    rig = NocRig()
    rig.inject_at(0, entity=1, owner=3)
    rig.sim.run(50)
    txn = rig.done[0][0]
    assert txn.id_value == 3 and txn.owner == 3


def test_waiter_attribution_uses_longest_overlap():
    rig = NocRig()
    attributions, _ = record_charges(rig.monitor)
    rig.inject_at(0, entity=0, owner=0, size=64)    # occupies [1, 9)
    rig.inject_at(0, entity=1, owner=1)             # waits from 1
    rig.inject_at(2, entity=1, owner=1)             # same owner, waits from 3
    rig.sim.run(100)
    # two queued transactions of one owner count once, by the longest wait
    assert rig.port.matrix.counts[0][1] == 8
    assert rig.port.matrix.counts[1][0] == 0
    assert sum(a[4] for a in attributions if a[1] == "noc.mem") == 8


def test_cores_queued_out_of_order_are_charged_once_each_ascending():
    rig = NocRig()
    attributions, _ = record_charges(rig.monitor)
    rig.inject_at(0, entity=1, owner=3, size=64)    # occupies [1, 9)
    rig.inject_at(1, entity=0, owner=2)             # waits from 2
    rig.inject_at(2, entity=0, owner=0)             # waits from 3
    rig.inject_at(3, entity=0, owner=2)             # core 2 again, from 4
    rig.sim.run(100)
    # entity 0 holds core 2 ahead of core 0: one charge per core, by its
    # longest wait, in ascending core order
    assert [a for a in attributions if a[0] == 9] == [
        (9, "noc.mem", 3, 0, 6), (9, "noc.mem", 3, 2, 7)]


def test_accel_self_stall_is_split_out():
    rig = NocRig()
    rig.monitor.add_quota(QuotaConfig(master=1, limit=10**9))
    rig.inject_at(0, entity=0, owner=0, size=64)    # occupies [1, 9)
    rig.inject_at(0, entity=1, owner=1)             # accel waits from 1
    rig.sim.schedule(3, rig.feeder,
                     lambda: rig.monitor._set_stall(3, 1, True))
    rig.sim.run(200)
    # of the 8 waited cycles, [3, 9) fell under the accel's own stall
    assert rig.port.matrix.counts[0][1] == 2
    assert rig.monitor.self_inflicted[1] == 6
    # the stalled entity is only served again through the guard
    guard = [g for g in rig.port.grants if g.guard]
    assert len(guard) == 1
    assert (guard[0].slot, guard[0].t_granted) == (1, 103)


def test_bridge_side_waiter_is_never_split():
    rig = NocRig()
    rig.monitor.add_quota(QuotaConfig(master=0, limit=10**9))
    rig.inject_at(0, entity=1, owner=1, size=64)    # occupies [1, 9)
    rig.inject_at(0, entity=0, owner=0)             # cache-side waiter
    rig.sim.schedule(3, rig.feeder,
                     lambda: rig.monitor._set_stall(3, 0, True))
    rig.sim.run(200)
    # a core's stall gates its bus injection, not the crossbar, so the
    # whole wait stays on the occupant
    assert rig.port.matrix.counts[1][0] == 8
    assert rig.monitor.self_inflicted[0] == 0


def test_backpressure_blames_fifo_occupants():
    # Frozen hand schedule.  Controller: read 40, write 30, capacity 1.
    #   t=0  B1 (entity 1) injected; port [1,2); served [2,42)
    #   t=3  A1 injected; port [4,5); queued in (A, read) at 5
    #   t=6  B2 injected; port [7,8); queued in (B, read) at 8
    #   t=9  A2 injected; port grants at 10, delivery refused at 11,
    #        port held until A1 is popped at 42
    # Blame for the 31 held cycles: snapshot {A:1, B:1}, 15 each,
    # remainder to oldest (A); A's 16 are a self-pair and vanish, B's 15
    # land on A.  Services then attribute 37 (A1 under B1) and 40 (B2
    # under A1); A2 under A1 and under B2's tail are self/overlapping as
    # derived below.
    sim = Simulator()
    feeder = sim.register("feeder")
    monitor = ContentionMonitor(sim, 2, period=10**9)
    xbar = Crossbar(sim)
    arb = Arbiter([0, 1], policy=ROUND_ROBIN, guard_window=10**6)
    port = CrossbarPort(sim, monitor, "mem", 0x0, 0x1000_0000, 8,
                        [0, 1], {1: 1}, arb)
    done = []
    mc = MemoryController(sim, monitor, [0, 1], read_latency=40,
                          write_latency=30, fifo_capacity=1,
                          on_done=lambda txn, t: done.append((txn, t)))
    port.target = mc
    xbar.add_port(port)
    txns = []

    def inject_at(t, entity, owner):
        def fire():
            txn = Transaction(len(txns), owner, READ, 0x100, 8, sim.now,
                              id_value=owner)
            txns.append(txn)
            xbar.inject(txn, entity, sim.now)
        sim.schedule(t, feeder, fire)

    inject_at(0, 1, 1)      # B1
    inject_at(3, 0, 0)      # A1
    inject_at(6, 1, 1)      # B2
    inject_at(9, 0, 0)      # A2
    sim.run(300)

    assert mc.refusals == 1
    # service order and timing
    assert [(r.initiator, r.kind, r.t_started, r.t_done)
            for r in mc.records] == [
        (1, READ, 2, 42), (0, READ, 42, 82),
        (1, READ, 82, 122), (0, READ, 122, 162)]
    # A2's port grant shows the held interval, its service the late start
    a2 = txns[3].uid
    [a2_port] = [g for g in port.grants if g.uid == a2]
    [a2_mem] = [r for r in mc.records if r.uid == a2]
    assert (a2_port.t_granted, a2_port.t_completed) == (10, 42)
    assert (a2_mem.t_enqueued, a2_mem.t_started) == (42, 122)
    # controller matrix: 37 + 15(blame) + 40 on A, 40 on B
    assert mc.matrix.counts[1][0] == 92
    assert mc.matrix.counts[0][1] == 40
    # the port itself never had two entities overlapping: no port blame
    assert port.matrix.total() == 0
    # held cycles count as port busy time
    assert port.busy_cycles == 1 + 1 + 1 + 32
    assert [t for _, t in done] == [42, 82, 122, 162]
