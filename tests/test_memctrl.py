"""Memory controller: id-keyed FIFOs, round-robin over initiators with
read/write alternation, capacity pushback, and per-service attribution."""

import pytest

from socsim.errors import SimulationError
from socsim.kernel import Simulator
from socsim.memctrl import MemoryController
from socsim.monitor import ContentionMonitor
from socsim.transaction import READ, WRITE, Transaction

from charge_log import record_charges


class McRig:
    def __init__(self, initiators=(0, 1), read=40, write=30, capacity=8):
        self.sim = Simulator()
        self.feeder = self.sim.register("feeder")
        self.monitor = ContentionMonitor(self.sim, 4, period=10**9)
        self.done = []
        self.mc = MemoryController(
            self.sim, self.monitor, list(initiators), read_latency=read,
            write_latency=write, fifo_capacity=capacity,
            on_done=lambda txn, t: self.done.append((txn, t)))
        self.txns = []
        self.accepted = []

    def offer_at(self, t, owner, kind=READ, id_value=None, size=8):
        def fire():
            txn = Transaction(len(self.txns), owner, kind, 0x100, size,
                              self.sim.now,
                              id_value=owner if id_value is None else id_value)
            self.txns.append(txn)
            self.accepted.append(self.mc.try_accept(txn, self.sim.now))
        self.sim.schedule(t, self.feeder, fire)


def test_rotation_and_alternation_oracle():
    # preload A: R1, R2, W1 and B: R1 at t=0 (read 40, write 30)
    rig = McRig()
    rig.offer_at(0, 0, READ)       # A.R1 -> served immediately
    rig.offer_at(0, 0, READ)       # A.R2
    rig.offer_at(0, 0, WRITE)      # A.W1
    rig.offer_at(0, 1, READ)       # B.R1
    rig.sim.run(400)
    # A.R1 [0,40); rotation to B: B.R1 [40,80); back to A, which now
    # prefers writes: A.W1 [80,110); then A.R2 [110,150)
    assert [(r.initiator, r.kind, r.t_started, r.t_done)
            for r in rig.mc.records] == [
        (0, READ, 0, 40), (1, READ, 40, 80),
        (0, WRITE, 80, 110), (0, READ, 110, 150)]
    # during A.R1, B.R1 waited 40; during B.R1, A's best waiter waited 40;
    # A's entries waiting under A's own services are self-pairs and vanish
    assert rig.mc.matrix.counts[0][1] == 40
    assert rig.mc.matrix.counts[1][0] == 40
    assert rig.mc.matrix.total() == 80
    assert [t for _, t in rig.done] == [40, 80, 110, 150]


def test_requests_are_filed_by_id_not_owner():
    rig = McRig()
    rig.offer_at(0, owner=0, id_value=1)
    rig.sim.run(100)
    rec = rig.mc.records[0]
    assert rec.initiator == 1 and rec.owner == 0


def test_unknown_id_raises():
    rig = McRig(initiators=(0, 1))
    rig.offer_at(0, owner=0, id_value=9)
    with pytest.raises(SimulationError):
        rig.sim.run(100)


def test_missing_id_raises_instead_of_filing_under_the_owner():
    # a request whose id was never stamped names no initiator; filing it
    # under its owner would hide broken id propagation
    rig = McRig(initiators=(0, 1))
    txn = Transaction(0, 1, READ, 0x100, 8, 0)
    assert txn.id_value is None
    with pytest.raises(SimulationError, match="unknown initiator id None"):
        rig.mc.try_accept(txn, 0)
    assert len(rig.mc.records) == 0 and rig.mc.pending_entries() == []


def test_capacity_refusal_and_pop_frees_slot():
    rig = McRig(capacity=1)
    rig.offer_at(0, 1, READ)       # B served [0,40), its slot popped at 0
    rig.offer_at(1, 0, READ)       # queued in (A, read)
    rig.offer_at(2, 0, READ)       # refused: (A, read) full
    rig.offer_at(50, 0, READ)      # A's first popped at 40: accepted
    rig.sim.run(400)
    assert rig.accepted == [True, True, False, True]
    assert rig.mc.refusals == 1


def test_per_initiator_read_write_alternation():
    rig = McRig(initiators=(0,))
    for kind in (READ, READ, WRITE, WRITE):
        rig.offer_at(0, 0, kind)
    rig.sim.run(400)
    assert [r.kind for r in rig.mc.records] == [READ, WRITE, READ, WRITE]
    assert [r.t_started for r in rig.mc.records] == [0, 40, 70, 110]


def test_alternation_falls_back_when_one_kind_is_empty():
    rig = McRig(initiators=(0,))
    for kind in (READ, READ, READ):
        rig.offer_at(0, 0, kind)
    rig.sim.run(400)
    assert [r.kind for r in rig.mc.records] == [READ, READ, READ]


def test_block_snapshot_counts_and_oldest():
    rig = McRig()
    rig.offer_at(0, 1, READ)       # served at 0, slot freed
    rig.offer_at(2, 0, READ)       # queued at 2
    rig.offer_at(4, 0, WRITE)      # queued at 4
    rig.offer_at(6, 1, WRITE)      # queued at 6
    rig.sim.run(10)
    counts, oldest = rig.mc.block_snapshot()
    assert counts == {0: 2, 1: 1}
    assert oldest == 0
    assert rig.mc.pending_entries() == [
        (0, READ, 2), (0, WRITE, 4), (1, WRITE, 6)]
    _txn, _t_granted, index = rig.mc.current
    record = rig.mc.records[index]
    assert (record.initiator, record.kind, record.t_started) == (1, READ, 0)


def test_attribution_counts_one_interval_per_initiator():
    # two queued entries of the same initiator only count the longest
    rig = McRig()
    rig.offer_at(0, 0, READ)       # served [0,40)
    rig.offer_at(5, 1, READ)       # waits 35
    rig.offer_at(10, 1, WRITE)     # waits 30, same initiator
    rig.sim.run(45)
    assert rig.mc.matrix.counts[0][1] == 35


def test_completion_charges_from_the_older_fifo_head():
    # initiator 0 queues a write, then reads, so its write head is older
    rig = McRig(initiators=(0, 1, 2))
    attributions, _ = record_charges(rig.monitor)
    rig.offer_at(0, 1, READ)       # 1 served [0,40)
    rig.offer_at(2, 1, READ)
    rig.offer_at(3, 0, WRITE)      # 0's write head
    rig.offer_at(7, 0, READ)       # 0's read head, served [40,80)
    rig.offer_at(45, 0, READ)
    rig.offer_at(90, 0, READ)      # 1.R2 started at 80, before these two
    rig.offer_at(95, 0, WRITE)
    rig.offer_at(120, 2, READ)     # enqueued in the completion cycle
    rig.sim.run(120)
    # 2's entry sat in its FIFO when 1.R2 completed, then was served
    assert [(r.initiator, r.t_enqueued, r.t_started)
            for r in rig.mc.records] == [
        (1, 0, 0), (0, 7, 40), (1, 2, 80), (2, 120, 120)]
    assert rig.mc.pending_entries() == [
        (0, READ, 45), (0, READ, 90), (0, WRITE, 3), (0, WRITE, 95)]
    # now - max(older head t_enq, t_start) for every completion
    assert [a[1:] + (a[0],) for a in attributions] == [
        ("mem", 1, 0, 40 - max(3, 0), 40),
        ("mem", 0, 1, 80 - max(2, 40), 80),
        ("mem", 1, 0, 120 - max(3, 80), 120)]
    assert rig.mc.matrix.suffered_by(2) == 0


def test_busy_cycles_accumulate_service_time():
    rig = McRig()
    rig.offer_at(0, 0, READ)
    rig.offer_at(0, 1, WRITE)
    rig.sim.run(400)
    assert rig.mc.busy_cycles == 70
