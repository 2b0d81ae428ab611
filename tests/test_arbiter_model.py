"""Differential tests of the per-grant hot path against reference models.

``ReferenceArbiter`` keeps the set-building ``grant``,
``next_guard_deadline`` and ``_sync_guards`` the arbiter had before it
picked by precomputed slot positions and skipped the guard work when no
deadline is held; ``reference_settle`` charges each waiting key from its
entries one by one.  Random operation sequences must leave both sides in
the same state at every step.  ``ArbitratedResource._finish``, which
scans each queue only up to its owner cap and the release cycle, must
charge what ``reference_settle`` charges over every queued entry.
"""

from hypothesis import given, settings, strategies as st

from socsim import resource
from socsim.arbiter import (Arbiter, FIXED_PRIORITY, POLICIES, QUOTA_AWARE,
                            rotation)
from socsim.kernel import Simulator
from socsim.monitor import ContentionMonitor
from socsim.resource import ArbitratedResource, GrantRecord, settle
from socsim.transaction import READ, Transaction


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


def monitor_with(n_keys, spans):
    monitor = ContentionMonitor(Simulator(), n_keys, period=10**9)
    monitor._stall_spans.update(
        (key, [list(span) for span in s]) for key, s in spans.items())
    return monitor


@st.composite
def settle_cases(draw):
    t_granted = draw(st.integers(0, 50))
    now = t_granted + draw(st.integers(0, 30))
    occupant = draw(st.integers(0, N_KEYS - 1))
    # t_request may fall before the grant or inside the occupancy
    waiting = draw(st.lists(st.tuples(
        st.integers(0, N_KEYS - 1), st.integers(0, now), st.booleans()),
        max_size=12))
    return occupant, t_granted, now, waiting, stall_spans(draw, N_KEYS, now)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(settle_cases())
def test_settle_matches_per_entry_reference(case):
    occupant, t_granted, now, waiting, spans = case
    monitors = []
    for rule in (settle, reference_settle):
        monitor = monitor_with(N_KEYS, spans)
        monitor.add_resource("r")
        rule(monitor, "r", occupant, t_granted, now, waiting)
        monitors.append(monitor)
    new, ref = monitors
    assert new.attributions == ref.attributions
    assert new.self_inflicted_events == ref.self_inflicted_events
    assert new.matrices["r"].counts == ref.matrices["r"].counts


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

    monitor = monitor_with(n, spans)
    res = ArbitratedResource(Simulator(), monitor, "r", entities, gated,
                             arbiter=None, owners=owners)
    uid = 0
    for entity, entries in zip(entities, queues):
        for owner, t in entries:
            res.queues[entity].append(
                (Transaction(uid, owner, READ, 0, 8, t), t))
            uid += 1
    txn = Transaction(uid, occupant, READ, 0, 8, t_granted)
    res.current = (txn, GrantRecord("r", 0, occupant, READ, 8,
                                    now - t_granted, t_granted, t_granted,
                                    False, uid=uid))
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
    ref = monitor_with(n, spans)
    ref.add_resource("r")
    reference_settle(ref, "r", occupant, t_granted, now, [
        (owner, t, entity in gated)
        for entity, entries in zip(entities, queues)
        for owner, t in entries])
    assert monitor.attributions == ref.attributions
    assert monitor.self_inflicted_events == ref.self_inflicted_events
    assert monitor.matrices["r"].counts == ref.matrices["r"].counts

    # and the work bound: settle sees only each other owner's first entry
    # in a queue, requested before the release cycle
    candidates = []
    for entity, entries in zip(entities, queues):
        firsts = {}
        for owner, t in entries:
            firsts.setdefault(owner, t)
        candidates += [(owner, t, entity in gated)
                       for owner, t in firsts.items()
                       if owner != occupant and t < now]
    assert handed == ([candidates] if candidates else [])
