from socsim.arbiter import Arbiter, FIXED_PRIORITY, ROUND_ROBIN
from socsim.bus import SharedBus
from socsim.kernel import Simulator
from socsim.monitor import ContentionMonitor, QuotaConfig
from socsim.transaction import READ, WRITE, Transaction

from charge_log import record_charges


class Sink:
    def __init__(self):
        self.delivered = []

    def accept(self, txn, now):
        self.delivered.append((txn, now))


class HandCore:
    """A core as the bus sees it: the test issues for it, and each grant
    of its request register calls ``refill(now)`` if one is set."""

    def __init__(self):
        self.refill = None

    def retry(self, now):
        if self.refill is not None:
            self.refill(now)


class Rig:
    """Bus plus hand-driven masters, no platform around it."""

    def __init__(self, n_masters, read=5, write=3, guard=100,
                 policy=ROUND_ROBIN, ranks=None):
        self.sim = Simulator()
        self.master_ranks = [self.sim.register(f"m{i}") for i in range(n_masters)]
        self.monitor = ContentionMonitor(self.sim, n_masters, period=10**9)
        arb = Arbiter(list(range(n_masters)), policy=policy,
                      guard_window=guard, ranks=ranks)
        self.bus = SharedBus(self.sim, self.monitor, list(range(n_masters)),
                             arb, read, write)
        self.sink = Sink()
        self.bus.downstream = self.sink
        self.bus.cores = [HandCore() for _ in range(n_masters)]
        self.txns = []
        self._uid = 0

    def issue_at(self, t, owner, kind=READ, size=8):
        def fire():
            txn = Transaction(self._uid, owner, kind, 0x100 * owner, size,
                              self.sim.now)
            self._uid += 1
            self.txns.append(txn)
            self.bus.issue(txn, owner, self.sim.now)
        self._uid += 0
        self.sim.schedule(t, self.master_ranks[owner], fire)


def test_request_to_idle_bus_is_granted_same_cycle():
    rig = Rig(2)
    rig.issue_at(3, owner=0)
    rig.sim.run(20)
    [grant] = rig.bus.grants
    assert grant.uid == rig.txns[0].uid
    assert (grant.t_request, grant.t_granted, grant.t_completed) == (3, 3, 8)


def test_occupancy_is_never_aborted():
    rig = Rig(3)
    for t, owner, kind in [(0, 0, READ), (0, 1, WRITE), (2, 2, READ)]:
        rig.issue_at(t, owner, kind)
    rig.sim.run(100)
    table = {READ: 5, WRITE: 3}
    assert sorted(g.uid for g in rig.bus.grants) == [t.uid for t in rig.txns]
    for grant in rig.bus.grants:
        assert grant.t_completed - grant.t_granted == table[grant.kind]


def test_attribution_by_hand():
    # all three request at 0; grants at 0, 5, 10 with occupancy 5
    rig = Rig(3)
    attributions, _ = record_charges(rig.monitor)
    for owner in range(3):
        rig.issue_at(0, owner)
    rig.sim.run(100)
    counts = rig.bus.matrix.counts
    assert counts[0][1] == 5 and counts[0][2] == 5
    assert counts[1][2] == 5 and counts[1][0] == 0
    assert rig.bus.matrix.caused_by(2) == 0
    assert sum(a[4] for a in attributions if a[1] == "bus") == 15


def test_late_requester_is_charged_only_its_overlap():
    rig = Rig(2)
    rig.issue_at(0, 0)
    rig.issue_at(3, 1)      # occupancy runs [0, 5); overlap is 2
    rig.sim.run(50)
    assert rig.bus.matrix.counts[0][1] == 2


def test_round_robin_fairness_when_all_masters_saturate():
    rig = Rig(4)
    horizon = 2003

    def reissue(txn, now):
        owner = txn.owner
        if now < horizon - 20:
            rig.issue_at(now, owner)

    rig.sink.accept = lambda txn, now: reissue(txn, now)
    for owner in range(4):
        rig.issue_at(0, owner)
    rig.sim.run(horizon)
    per_master = [0, 0, 0, 0]
    for g in rig.bus.grants:
        per_master[g.slot] += 1
    assert max(per_master) - min(per_master) <= 1


def test_census_replay_matches_matrix():
    """Independent cross-check: recompute every pair's suffered cycles
    from the bus's grant records and the requests still queued at the
    horizon alone, and compare with the matrix the monitor accumulated
    event by event."""
    rig = Rig(3)
    horizon = 1500

    def reissue(txn, now):
        kind = WRITE if (txn.uid % 3 == txn.owner) else READ
        if now < horizon - 30:
            rig.issue_at(now, txn.owner, kind)

    rig.sink.accept = lambda txn, now: reissue(txn, now)
    for owner in range(3):
        rig.issue_at(0, owner, READ if owner else WRITE)
    rig.sim.run(horizon)

    expected = [[0] * 3 for _ in range(3)]
    # (owner, start, end) of every wait: granted ones end at their grant,
    # the ones still queued at the horizon
    waits = [(g.owner, g.t_request, g.t_granted) for g in rig.bus.grants]
    waits += [(txn.owner, t_request, horizon)
              for queue in rig.bus.queues.values()
              for txn, t_request in queue]
    assert len(waits) == len(rig.txns)
    for occ in rig.bus.grants:
        if occ.t_completed < 0:
            continue
        for w_owner, w_start, w_end in waits:
            if w_owner == occ.owner:
                continue
            lo = max(occ.t_granted, w_start)
            hi = min(occ.t_completed, w_end)
            if hi > lo:
                expected[occ.owner][w_owner] += hi - lo
    assert expected == rig.bus.matrix.counts


def test_stalled_waiter_charges_itself():
    rig = Rig(2)
    # any caused cycle crosses a zero quota and stalls master 1
    rig.monitor.add_quota(QuotaConfig(master=1, limit=0, mode="hw_stall"))
    rig.issue_at(0, 1)      # holds [0, 5), master 0 waits 4 of those
    rig.issue_at(1, 0)
    rig.issue_at(5, 1)      # issued exactly when the stall lands
    rig.sim.run(60)
    counts = rig.bus.matrix.counts
    assert counts[1][0] == 4            # the crossing attribution
    assert rig.monitor.quotas[1].stalled
    # master 0 held [5, 10); master 1 waited it out under its own stall
    assert counts[0][1] == 0
    assert rig.monitor.self_inflicted[1] == 5


def test_idle_bus_wakes_for_the_guard_grant():
    rig = Rig(2, guard=100)
    rig.monitor.add_quota(QuotaConfig(master=1, limit=0, mode="hw_stall"))
    rig.issue_at(0, 1)
    rig.issue_at(1, 0)
    rig.issue_at(5, 1)      # sits stalled from t=5
    rig.sim.run(300)
    # nothing else requests after 10; only the guard can serve master 1
    guard_grants = [g for g in rig.bus.grants if g.guard]
    assert len(guard_grants) == 1
    assert guard_grants[0].slot == 1
    assert guard_grants[0].t_granted == 105
    [late] = [g for g in rig.bus.grants if g.uid == rig.txns[2].uid]
    assert late.t_completed == 110


def saturate(rig, owners, until):
    """Each of ``owners`` refills its request register as it is granted,
    up to ``until``."""
    for owner in owners:
        def refill(now, owner=owner):
            if now < until:
                rig.issue_at(now, owner)
        rig.bus.cores[owner].refill = refill
        rig.issue_at(0, owner)


def test_fixed_priority_bus_serves_in_rank_order_without_inversion():
    # core 0 saturates the bus under fixed priority and starves the
    # others: that is the programmed priority, not an inversion
    rig = Rig(3, policy=FIXED_PRIORITY)
    saturate(rig, {0, 1, 2}, until=100)
    rig.sim.run(200)
    slots = [g.slot for g in rig.bus.grants]
    assert slots[:20] == [0] * 20 and slots[-2:] == [1, 2]
    assert rig.bus.inversions == []


def test_round_robin_bus_judges_nothing():
    # round robin passes over better-ranked heads for longer than an
    # occupancy, and only a bus built under fixed priority judges that
    rig = Rig(3)
    saturate(rig, {0, 1, 2}, until=100)
    rig.sim.run(200)
    grants = rig.bus.grants
    assert [g.slot for g in grants[:6]] == [0, 1, 2] * 2
    # core 2 was granted at 10 over core 0, queued since 0
    assert (grants[2].t_granted, grants[3].slot, grants[3].t_request) \
        == (10, 0, 0)
    assert rig.bus.inversions == []
