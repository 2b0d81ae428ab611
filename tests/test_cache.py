"""Second-level cache: partitioned lookup, LRU, write-back, bypass.

The heavyweight check here is a replay oracle: an independent dict-based
model of a way-partitioned write-back cache is fed the same access
sequence and must agree with the real implementation on every counter,
every emitted writeback address, and the final state of every line.
"""

import itertools
import random
from collections import Counter

import pytest

from socsim.cache import L2Cache
from socsim.config import SCHEMA_VERSION, parse_config
from socsim.errors import SimulationError
from socsim.kernel import Simulator
from socsim.report import build_report
from socsim.system import build
from socsim.transaction import (ORIGIN_FILL, ORIGIN_WRITEBACK, READ, WRITE,
                                Transaction)


class FakeCrossbar:
    """Records injections and bounces fills back after a fixed delay."""

    def __init__(self, sim, fill_delay=3):
        self.sim = sim
        self.rank = sim.register("fake-xbar")
        self.fill_delay = fill_delay
        self.cache = None
        self.injected = []

    def inject(self, txn, entity, now):
        self.injected.append((txn, entity, now))
        if txn.origin == ORIGIN_FILL and self.cache is not None:
            self.sim.schedule(
                now + self.fill_delay, self.rank,
                lambda: self.cache.fill_returned(txn, self.sim.now))


def make_rig(sets, ways, line_size, partitions, cacheable=None,
             hit_latency=2):
    sim = Simulator()
    xbar = FakeCrossbar(sim)
    responses = []
    if cacheable is None:
        cacheable = [(0, 1 << 30)]
    cache = L2Cache(sim, xbar, sets, ways, line_size, hit_latency,
                    partitions, cacheable, itertools.count(10_000),
                    lambda txn, now: responses.append((txn, now)))
    xbar.cache = cache
    return sim, xbar, cache, responses


def feed(sim, cache, accesses, spacing=10):
    """Schedule one accept per access, far enough apart not to overlap."""
    uid = itertools.count()
    txns = []
    for i, (owner, kind, addr) in enumerate(accesses):
        txn = Transaction(next(uid), owner, kind, addr, 8, i * spacing)
        txns.append(txn)
        sim.schedule(i * spacing, 0,
                     lambda txn=txn: cache.accept(txn, sim.now))
    return txns


# -- reference model ------------------------------------------------------

class RefCache:
    """Independent model: dict keyed by (set, way), global LRU tick."""

    def __init__(self, sets, ways, line_size, partitions):
        self.sets = sets
        self.line_size = line_size
        self.partitions = partitions
        self.state = {}          # (set, way) -> {tag, owner, dirty, tick}
        self.tick = 0
        self.hits = Counter()
        self.misses = Counter()
        self.evictions = 0
        self.writebacks = 0
        self.cross = 0
        self.pairs = Counter()

    def access(self, owner, kind, addr):
        """Returns the writeback address this access caused, or None."""
        line = addr // self.line_size
        s, tag = line % self.sets, line // self.sets
        self.tick += 1
        ways = self.partitions[owner]
        for w in ways:
            ent = self.state.get((s, w))
            if ent is not None and ent["tag"] == tag:
                ent["tick"] = self.tick
                if kind == WRITE:
                    ent["dirty"] = True
                self.hits[owner] += 1
                return None
        self.misses[owner] += 1
        victim = next((w for w in ways if (s, w) not in self.state), None)
        wb_addr = None
        if victim is None:
            victim = min(ways, key=lambda w: self.state[(s, w)]["tick"])
            old = self.state[(s, victim)]
            self.evictions += 1
            if old["owner"] != owner:
                self.cross += 1
                self.pairs[(owner, old["owner"])] += 1
            if old["dirty"]:
                self.writebacks += 1
                wb_addr = (old["tag"] * self.sets + s) * self.line_size
        self.state[(s, victim)] = {"tag": tag, "owner": owner,
                                   "dirty": kind == WRITE, "tick": self.tick}
        return wb_addr


# -- disabled cache level -------------------------------------------------

def test_disabled_l2_stamps_id_and_forwards():
    # a disabled cache level caches nothing: every core access leaves the
    # bus for crossbar entity 0 with its owner id stamped
    system = build(parse_config({
        "schema_version": SCHEMA_VERSION,
        "sim": {"cycles": 2000},
        "masters": {"cores": 2},
        "l2": {"enabled": False},
        "workloads": [
            {"master": m, "profile": {"pattern": "periodic", "count": 5,
                                      "period": 50, "base": 0x1000 * m}}
            for m in range(2)]}))
    injected = []
    inject = system.crossbar.inject

    def spy(txn, entity, now):
        injected.append((txn.owner, txn.id_value, entity))
        inject(txn, entity, now)

    system.crossbar.inject = spy
    system.run()
    assert sorted(injected) == [(m, m, 0) for m in (0, 1) for _ in range(5)]
    assert system.l2.bypasses == 10
    assert system.l2.hits == {} and system.l2.misses == {}
    assert [m.completed for m in system.masters] == [5, 5]
    assert build_report(system)["l2"] is None
    # nothing is ever looked up, so no line is allocated
    assert system.l2.lines == []


# -- basic behaviour ------------------------------------------------------

def test_miss_then_hit_with_latencies():
    sim, xbar, cache, responses = make_rig(4, 2, 64, {0: [0, 1]})
    feed(sim, cache, [(0, READ, 0x0), (0, READ, 0x8)], spacing=20)
    sim.run(100)
    # first access misses: lookup at t=2, fill bounced back at t=5
    assert cache.misses == {0: 1}
    assert cache.hits == {0: 1}
    assert [t for _, t in responses] == [5, 22]
    fills = [x for x in xbar.injected if x[0].origin == ORIGIN_FILL]
    assert len(fills) == 1
    fill = fills[0][0]
    assert (fill.kind, fill.addr, fill.size) == (READ, 0x0, 64)
    assert fill.id_value == 0


def test_id_stamped_on_cacheable_and_bypass():
    sim, xbar, cache, responses = make_rig(
        4, 2, 64, {1: [0, 1]}, cacheable=[(0, 0x1000)])
    feed(sim, cache, [(1, READ, 0x2000), (1, READ, 0x0)])
    sim.run(100)
    assert cache.bypasses == 1
    bypassed = xbar.injected[0][0]
    assert bypassed.addr == 0x2000 and bypassed.id_value == 1
    # bypass goes straight to the crossbar, no hit/miss accounting
    assert cache.hits == {} and cache.misses == {1: 1}


def test_write_allocate_then_writeback_on_eviction():
    sim, xbar, cache, responses = make_rig(1, 1, 32, {0: [0]})
    feed(sim, cache, [(0, WRITE, 0x0), (0, READ, 0x20)])
    sim.run(200)
    assert cache.writebacks == 1 and cache.evictions == 1
    wbs = [x[0] for x in xbar.injected if x[0].origin == ORIGIN_WRITEBACK]
    assert len(wbs) == 1
    wb = wbs[0]
    assert (wb.kind, wb.addr, wb.size) == (WRITE, 0x0, 32)
    assert wb.owner == 0 and wb.id_value == 0
    # fill for the new line is injected before the writeback of the old
    kinds = [x[0].origin for x in xbar.injected]
    assert kinds.index(ORIGIN_FILL, 1) < kinds.index(ORIGIN_WRITEBACK)


def test_clean_eviction_emits_no_writeback():
    sim, xbar, cache, responses = make_rig(1, 1, 32, {0: [0]})
    feed(sim, cache, [(0, READ, 0x0), (0, READ, 0x20)])
    sim.run(200)
    assert cache.evictions == 1 and cache.writebacks == 0
    assert all(x[0].origin != ORIGIN_WRITEBACK for x in xbar.injected)


def test_lru_within_partition():
    sim, xbar, cache, responses = make_rig(1, 2, 64, {0: [0, 1]})
    # A, B fill the ways; touching A makes B the LRU victim for C
    feed(sim, cache, [(0, READ, 0x0), (0, READ, 0x40),
                      (0, READ, 0x0), (0, READ, 0x80)])
    sim.run(300)
    assert cache.evictions == 1
    tags = {ln.tag for ln in cache.lines[0] if ln.valid}
    assert tags == {0, 2}          # A kept, B evicted, C installed


def test_partition_isolation():
    sim, xbar, cache, responses = make_rig(4, 2, 32, {0: [0], 1: [1]})
    accesses = [(0, READ, 0x0)]
    # owner 1 hammers twenty conflicting lines in owner 0's set
    accesses += [(1, READ, (4 * k) * 32) for k in range(1, 21)]
    accesses += [(0, READ, 0x0)]
    feed(sim, cache, accesses)
    sim.run(5000)
    assert cache.hits.get(0, 0) == 1          # survived the pressure
    assert cache.cross_partition_evictions == 0
    assert cache.cross_partition_pairs == {}


def test_shared_ways_count_cross_partition_evictions():
    sim, xbar, cache, responses = make_rig(2, 1, 32, {0: [0], 1: [0]})
    feed(sim, cache, [(0, READ, 0x0), (1, READ, 0x40)])   # same set, way
    sim.run(200)
    assert cache.evictions == 1
    assert cache.cross_partition_evictions == 1
    assert cache.cross_partition_pairs == {(1, 0): 1}


def test_owner_without_ways_raises():
    sim, xbar, cache, responses = make_rig(4, 2, 64, {0: [0, 1]})
    feed(sim, cache, [(5, READ, 0x0)])
    with pytest.raises(SimulationError):
        sim.run(100)


# -- replay oracle --------------------------------------------------------

@pytest.mark.parametrize("partitions", [
    {0: [0, 1], 1: [2, 3]},            # disjoint
    {0: [0, 1], 1: [1, 2, 3]},         # overlapping way 1
])
def test_reference_replay(partitions):
    sets, ways, line_size = 8, 4, 64
    rng = random.Random(42)
    accesses = []
    for _ in range(2000):
        owner = rng.choice(list(partitions))
        kind = WRITE if rng.random() < 0.4 else READ
        addr = rng.randrange(0, 8192, 8)      # 128 lines >> 32-line capacity
        accesses.append((owner, kind, addr))

    sim, xbar, cache, responses = make_rig(sets, ways, line_size, partitions)
    feed(sim, cache, accesses, spacing=10)
    sim.run(len(accesses) * 10 + 100)

    ref = RefCache(sets, ways, line_size, partitions)
    expected_wbs = []
    for owner, kind, addr in accesses:
        wb = ref.access(owner, kind, addr)
        if wb is not None:
            expected_wbs.append(wb)

    assert cache.hits == ref.hits
    assert cache.misses == ref.misses
    assert cache.evictions == ref.evictions
    assert cache.writebacks == ref.writebacks
    assert cache.cross_partition_evictions == ref.cross
    assert cache.cross_partition_pairs == ref.pairs
    got_wbs = [x[0].addr for x in xbar.injected
               if x[0].origin == ORIGIN_WRITEBACK]
    assert got_wbs == expected_wbs
    # final state of every line agrees
    for s in range(sets):
        for w in range(ways):
            ent = ref.state.get((s, w))
            line = cache.lines[s][w]
            if ent is None:
                assert not line.valid
            else:
                assert line.valid
                assert (line.tag, line.owner, line.dirty) == \
                    (ent["tag"], ent["owner"], ent["dirty"])
    # every access eventually got a response
    assert len(responses) == len(accesses)
