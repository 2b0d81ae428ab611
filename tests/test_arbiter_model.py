"""Differential tests of the per-grant hot path against reference models.

``ReferenceArbiter`` keeps the set-building ``grant``,
``next_guard_deadline`` and ``_sync_guards`` the arbiter had before it
picked by precomputed slot positions and skipped the guard work when no
deadline is held; ``reference_settle`` charges each waiting key from its
entries one by one.  Random operation sequences must leave both sides in
the same state at every step.  ``ArbitratedResource._finish``, which
scans each queue only up to its owner cap and the release cycle, must
charge what ``reference_settle`` charges over every queued entry.
``ReferenceMonitor`` keeps ``attribute`` and ``attribute_self`` as they
were before ``ContentionMonitor.charge`` settled a whole release in one
call; a batch of charges must leave the monitor as the same entries
attributed one by one would.
"""

import pytest
from hypothesis import given, settings, strategies as st

from socsim import resource
from socsim.arbiter import (Arbiter, FIXED_PRIORITY, POLICIES, QUOTA_AWARE,
                            rotation)
from socsim.kernel import Simulator
from socsim.errors import SimulationError
from socsim.monitor import MODES, ContentionMonitor, QuotaConfig
from socsim.resource import ArbitratedResource, GrantRecord, settle
from socsim.transaction import READ, Transaction

from charge_log import record_charges


class ReferenceArbiter(Arbiter):
    """The stall mask and the state of ``Arbiter``, with its selection
    done the way it was before the hot-path rewrite, verbatim."""

    def _sync_guards(self, requesters: set[int], now: int) -> None:
        # lazily anchor quota-blocked requesters, drop state for slots
        # that are no longer blocked (e.g. quota replenished); set_stall
        # anchors and drops stalls itself, so only quota_aware has work
        if self.policy != QUOTA_AWARE:
            return
        for slot in self.slots:
            if self._blocked(slot):
                if slot in requesters and slot not in self._guard_next:
                    self._guard_next[slot] = now + self.guard_window
            else:
                self._guard_next.pop(slot, None)

    def grant(self, requesters, now):
        req = set(requesters)
        self.last_was_guard = False
        if not req:
            return None
        self._sync_guards(req, now)

        # guard escape first: a blocked requester whose deadline passed
        # preempts normal rotation, otherwise its minimum service would
        # depend on where the rotation pointer happens to sit
        expired = [s for s in req if s in self._guard_next
                   and self._guard_next[s] <= now]
        if expired:
            order = rotation(self.slots, self.last_granted)
            slot = min(expired, key=lambda s: (self._guard_next[s], order.index(s)))
            # advance past every deadline at or before now, never banking
            # missed windows into a burst
            g = self.guard_window
            nxt = self._guard_next[slot]
            self._guard_next[slot] = nxt + g * (((now - nxt) // g) + 1)
            self.guard_grants += 1
            self.last_granted = slot
            self.last_was_guard = True
            return slot

        eligible = {s for s in req if not self._blocked(s)}
        if not eligible:
            return None
        if self.policy == FIXED_PRIORITY:
            slot = min(eligible, key=lambda s: (self.ranks.get(s, s), s))
        else:
            slot = next(s for s in rotation(self.slots, self.last_granted)
                        if s in eligible)
        self.last_granted = slot
        return slot

    def next_guard_deadline(self, requesters, now):
        req = set(requesters)
        if not req:
            return None
        self._sync_guards(req, now)
        if any(not self._blocked(s) for s in req):
            return None
        deadlines = [self._guard_next[s] for s in req if s in self._guard_next]
        if not deadlines:
            return None
        return max(min(deadlines), now)


def _state(arb):
    return (arb.last_granted, arb.last_was_guard, arb.guard_grants,
            dict(arb._guard_next), set(arb._stalled))


@st.composite
def arbiter_runs(draw):
    slots = draw(st.permutations(range(draw(st.integers(1, 6)))))
    policy = draw(st.sampled_from(POLICIES))
    ranks = draw(st.dictionaries(st.sampled_from(slots),
                                 st.integers(0, 3)))
    guard = draw(st.integers(1, 40))
    # requesters as a bit mask over the slots; a stall or a flip
    # affects one slot
    requesters = st.integers(0, 2 ** len(slots) - 1).map(
        lambda mask: [s for i, s in enumerate(slots) if mask >> i & 1])
    passed_as = st.sampled_from(["set", "list", "reversed list"])
    slot = st.sampled_from(slots)
    op = st.one_of(
        st.tuples(st.just("grant"), requesters, passed_as),
        st.tuples(st.just("stall"), slot, st.booleans()),
        st.tuples(st.just("deadline"), requesters, passed_as),
        st.tuples(st.just("exhaust"), slot, st.just(None)))
    # many steps share a cycle, so deadlines tie
    dt = st.one_of(st.just(0), st.integers(1, 30))
    steps = draw(st.lists(st.tuples(dt, op), min_size=20, max_size=80))
    return slots, policy, ranks, guard, steps


@settings(max_examples=200, deadline=None, derandomize=True)
@given(arbiter_runs())
def test_arbiter_matches_reference(run):
    slots, policy, ranks, guard, steps = run
    exhausted = set()

    def is_exhausted(slot):
        return slot in exhausted

    arbs = [cls(slots, policy=policy, guard_window=guard, ranks=ranks,
                is_exhausted=is_exhausted)
            for cls in (Arbiter, ReferenceArbiter)]
    now = 0
    for dt, (kind, arg, flag) in steps:
        now += dt
        if kind == "exhaust":
            exhausted ^= {arg}
            continue
        if kind == "stall":
            results = [a.set_stall(arg, flag, now) for a in arbs]
        else:
            req = {"set": set(arg), "list": arg,
                   "reversed list": arg[::-1]}[flag]
            call = "grant" if kind == "grant" else "next_guard_deadline"
            results = [getattr(a, call)(req, now) for a in arbs]
        assert results[0] == results[1], (kind, arg, now)
        assert _state(arbs[0]) == _state(arbs[1]), (kind, arg, now)


def reference_settle(monitor, resource, occupant, t_granted, now, waiting):
    """Per key, the entry with the longest overlap (the first on a tie)
    is charged, less its stalled cycles if gated; keys in order."""
    best = {}
    for key, t_request, gated in waiting:
        overlap = now - max(t_request, t_granted)
        if key != occupant and (key not in best or overlap > best[key][0]):
            best[key] = (overlap, gated)
    for key in sorted(best):
        overlap, gated = best[key]
        if overlap <= 0:
            continue
        own = (monitor.stalled_overlap(key, now - overlap, now)
               if gated else 0)
        monitor.attribute(now, resource, occupant, key, overlap - own)
        monitor.attribute_self(now, resource, key, own)


N_KEYS = 5


def stall_spans(draw, n_keys, now):
    """Stall spans over [0, now] for some of the keys: disjoint, in time
    order, the last one possibly still open."""
    spans = {}
    for key in draw(st.sets(st.integers(0, n_keys - 1))):
        points = sorted(draw(st.sets(st.integers(0, now), min_size=1,
                                     max_size=6)))
        if len(points) % 2:
            points.append(None)     # the last span is still open
        spans[key] = [[points[i], points[i + 1]]
                      for i in range(0, len(points), 2)]
    return spans


class ReferenceMonitor(ContentionMonitor):
    """The monitor with ``attribute`` and ``attribute_self`` as they were
    before ``charge`` took over, verbatim, over logs kept as plain lists
    of tuples."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.attributions = []
        self.self_inflicted_events = []

    def attribute(self, now: int, resource: str, causer: int, sufferer: int,
                  cycles: int) -> None:
        if cycles <= 0:
            return
        # the row is charged directly: cycles is positive here, so only
        # a self-pair is wrong
        if causer == sufferer:
            raise SimulationError(
                f"self-contention is not a pair: master {causer}")
        self.matrices[resource].counts[causer][sufferer] += cycles
        self.attributions.append((now, resource, causer, sufferer, cycles))
        if resource in self.monitored:
            self.used[causer] += cycles
            state = self.quotas.get(causer)
            if state is not None:
                if not state.crossed and self.used[causer] > state.config.limit:
                    self._crossed(now, state)

    def attribute_self(self, now: int, resource: str, master: int,
                       cycles: int) -> None:
        """Waiting the master brought on itself by being quota-stalled."""
        if cycles <= 0:
            return
        self.self_inflicted[master] += cycles
        self.self_inflicted_events.append((now, resource, master, cycles))


def monitor_with(n_keys, spans, cls=ContentionMonitor, quota=None,
                 monitored=True, resource="r"):
    """A monitor with the given stall spans, over ``resource`` unless it
    is None, with an optional ``(master, mode, limit)`` quota; its
    charges are kept as ``.recorded``, the ``record_charges`` lists (a
    ``ReferenceMonitor``'s own logs)."""
    monitor = cls(Simulator(), n_keys, period=10**9)
    monitor._stall_spans.update(
        (key, [list(span) for span in s]) for key, s in spans.items())
    if resource is not None:
        monitor.add_resource(resource, monitored=monitored)
    if quota is not None:
        master, mode, limit = quota
        monitor.add_quota(QuotaConfig(master, limit, mode,
                                      handler_latency=7))
    monitor.recorded = (
        (monitor.attributions, monitor.self_inflicted_events)
        if cls is ReferenceMonitor else record_charges(monitor))
    return monitor


def monitor_state(monitor):
    """Everything a charge can change, the scheduled throttles included."""
    attributions, self_inflicted = monitor.recorded
    return (attributions, len(monitor.attributions), monitor.self_inflicted,
            self_inflicted, len(monitor.self_inflicted_events),
            {name: mat.counts for name, mat in monitor.matrices.items()},
            monitor.used,
            {m: (q.crossed, q.stalled, q.crossings)
             for m, q in monitor.quotas.items()},
            monitor._stall_spans, monitor.events, monitor.sim.scheduled)


def count_stalled_overlap(monitor):
    """Record the key of every ``stalled_overlap`` call on ``monitor``."""
    keys = []
    real = monitor.stalled_overlap

    def counted(key, start, end):
        keys.append(key)
        return real(key, start, end)

    monitor.stalled_overlap = counted
    return keys


@st.composite
def settle_cases(draw, in_order=True):
    """A release whose waiting keys are distinct and ascending, or, with
    ``in_order`` False, whose ascending keys end in a repeated or lower
    one."""
    t_granted = draw(st.integers(0, 50))
    now = t_granted + draw(st.integers(0, 30))
    occupant = draw(st.integers(0, N_KEYS - 1))
    keys = sorted(draw(st.sets(st.integers(0, N_KEYS - 1),
                               min_size=0 if in_order else 1)))
    if not in_order:
        keys.append(draw(st.integers(0, keys[-1])))
    # t_request may fall before the grant or inside the occupancy
    waiting = [(k, draw(st.integers(0, now)), draw(st.booleans()))
               for k in keys]
    # a quota on the occupant, low enough to cross partway through
    quota = draw(st.one_of(st.none(), st.tuples(
        st.just(occupant), st.sampled_from(MODES), st.integers(0, 60))))
    return (occupant, t_granted, now, waiting, stall_spans(draw, N_KEYS, now),
            quota, draw(st.booleans()))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(settle_cases())
def test_settle_matches_per_entry_reference(case):
    occupant, t_granted, now, waiting, spans, quota, monitored = case
    new = monitor_with(N_KEYS, spans, quota=quota, monitored=monitored)
    ref = monitor_with(N_KEYS, spans, ReferenceMonitor, quota, monitored)
    asked = count_stalled_overlap(new)
    settle(new, "r", occupant, t_granted, now, waiting)
    reference_settle(ref, "r", occupant, t_granted, now, waiting)
    assert monitor_state(new) == monitor_state(ref)
    assert len(asked) == len(set(asked))    # once per key at most


@settings(max_examples=100, deadline=None, derandomize=True)
@given(settle_cases(in_order=False))
def test_settle_rejects_a_key_out_of_order_and_charges_nothing(case):
    occupant, t_granted, now, waiting, spans, quota, monitored = case
    new = monitor_with(N_KEYS, spans, quota=quota, monitored=monitored)
    untouched = monitor_with(N_KEYS, spans, ReferenceMonitor, quota,
                             monitored)
    with pytest.raises(SimulationError, match=r"^r: waiter \d+ settled after"):
        settle(new, "r", occupant, t_granted, now, waiting)
    assert monitor_state(new) == monitor_state(untouched)


@st.composite
def charge_cases(draw):
    """Releases in a row, each ``(causer, charges)`` with the sufferers
    ascending; an entry may charge nothing, or self cycles only."""
    cycles = st.one_of(st.just(0), st.integers(1, 30))
    own = st.one_of(st.just(0), st.integers(1, 10))
    releases = []
    for _ in range(draw(st.integers(1, 4))):
        causer = draw(st.integers(0, N_KEYS - 1))
        sufferers = draw(st.sets(st.integers(0, N_KEYS - 1)))
        # now and then a self pair, which must fail alike on both sides
        if draw(st.integers(0, 9)):
            sufferers.discard(causer)
        releases.append((causer, [(s, draw(cycles), draw(own))
                                  for s in sorted(sufferers)]))
    # a quota on one of the causers, low enough to cross partway through
    quota = draw(st.one_of(st.none(), st.tuples(
        st.sampled_from([causer for causer, _ in releases]),
        st.sampled_from(MODES), st.integers(0, 60))))
    return releases, quota, draw(st.booleans())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(charge_cases())
def test_charge_matches_attributing_each_entry(case):
    releases, quota, monitored = case
    new = monitor_with(N_KEYS, {}, quota=quota, monitored=monitored)
    ref = monitor_with(N_KEYS, {}, ReferenceMonitor, quota, monitored)
    for now, (causer, charges) in enumerate(releases):
        errors = []
        try:
            new.charge(now, "r", causer, charges)
        except SimulationError as exc:
            errors.append(str(exc))
        try:
            for sufferer, cycles, own in charges:
                ref.attribute(now, "r", causer, sufferer, cycles)
                ref.attribute_self(now, "r", sufferer, own)
        except SimulationError as exc:
            errors.append(str(exc))
        assert len(errors) in (0, 2) and len(set(errors)) <= 1
        assert monitor_state(new) == monitor_state(ref)
        if errors:
            break


# -- releasing an occupancy: the scan list and the owner caps ---------------

@st.composite
def finish_cases(draw):
    cores = draw(st.integers(1, 4))
    accelerators = draw(st.integers(0, 2))
    n = cores + accelerators
    t_granted = draw(st.integers(0, 40))
    now = t_granted + draw(st.integers(0, 20))
    occupant = draw(st.integers(0, n - 1))
    # requests before the grant, inside the occupancy and in the release
    # cycle itself, each queue in time order
    t_request = st.one_of(
        st.integers(0, now),
        st.sampled_from(sorted({0, max(t_granted - 1, 0), t_granted,
                                max(now - 1, 0), now})))

    def queue(owner, max_size):
        return draw(st.lists(st.tuples(owner, t_request),
                             max_size=max_size).map(
            lambda q: sorted(q, key=lambda entry: entry[1])))

    # entity 0: a deep queue of the cores' traffic; entity 1 + a: its
    # accelerator's own, gated by the accelerator's stall line
    queues = [queue(st.integers(0, cores - 1), 16)]
    queues += [queue(st.just(cores + a), 4) for a in range(accelerators)]
    return cores, occupant, t_granted, now, queues, stall_spans(draw, n, now)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(finish_cases())
def test_finish_matches_per_entry_settlement(case):
    cores, occupant, t_granted, now, queues, spans = case
    n = cores + len(queues) - 1
    entities = list(range(len(queues)))
    gated = entities[1:]
    owners = {0: cores, **dict.fromkeys(gated, 1)}

    monitor = monitor_with(n, spans, resource=None)
    res = ArbitratedResource(Simulator(), monitor, "r", entities, gated,
                             arbiter=None, owners=owners)
    uid = 0
    for entity, entries in zip(entities, queues):
        for owner, t in entries:
            res.queues[entity].append(
                (Transaction(uid, owner, READ, 0, 8, t), t))
            uid += 1
    txn = Transaction(uid, occupant, READ, 0, 8, t_granted)
    res.current = (txn, GrantRecord(0, occupant, READ, now - t_granted,
                                    t_granted, t_granted, False, uid=uid))
    handed = []

    def spy(*args):
        handed.append(list(args[-1]))
        real_settle(*args)

    real_settle = resource.settle
    resource.settle = spy
    try:
        assert res._finish(now) is txn
    finally:
        resource.settle = real_settle
    assert res.current is None

    # the per-entry rule over every queued entry
    ref = monitor_with(n, spans, ReferenceMonitor)
    reference_settle(ref, "r", occupant, t_granted, now, [
        (owner, t, entity in gated)
        for entity, entries in zip(entities, queues)
        for owner, t in entries])
    assert monitor.recorded == ref.recorded
    assert monitor.matrices["r"].counts == ref.matrices["r"].counts

    # and the work bound: settle sees only each other owner's first entry
    # in a queue, requested before the release cycle, in ascending owner
    # order
    candidates = []
    for entity, entries in zip(entities, queues):
        firsts = {}
        for owner, t in entries:
            firsts.setdefault(owner, t)
        candidates += [(owner, t, entity in gated)
                       for owner, t in firsts.items()
                       if owner != occupant and t < now]
    assert handed == ([sorted(candidates)] if candidates else [])
