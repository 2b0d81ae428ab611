"""Conservation of contention cycles, proved by a wait ledger that can fail.

``ContentionMonitor.charge`` writes the matrices, and nothing else keeps
a copy of what it was charged.  The ledger here rebuilds every matrix,
and every master's self-inflicted total, from what the resources record
alone: the grant records, the requests still queued at the horizon, the
stall spans in the event log, and the back-pressure blame calls of the
memory controller.  It never reads the monitor while building.

The rule, per resource.  A key is the owner on the bus and the crossbar
ports, and the id carried at the memory controller.  For each completed
occupancy ``[G, T)`` held by key ``c``, every other key ``k`` with an
entry waiting at ``T`` (requested before ``T`` and granted at ``T`` or
later, or never) is owed ``T - max(G, k's earliest such request)``,
charged to ``c``.  Where that entry's slot is gated by ``k``'s stall
line, the part of the wait spent inside ``k``'s stall spans is
self-inflicted instead.  Back-pressure blame is its own column: the
cycles a refused delivery was held, split over the FIFO occupants at the
refusal, into the memory controller's matrix.

Negative controls sabotage ``settle`` three ways; the ledger must catch
each on every benchmark shape.  Three more sabotage the memory
controller's census, which settles most services without ``settle``:
each must fail a tier-1 test, named beside it in ``CENSUS_SABOTAGES``.

``census`` counts the same matrices another way, cycle by cycle from the
same records, and must agree with the monitor on the goldens (and, in
``platforms.check_platform``, on every drawn platform).
"""

import bisect
import heapq

import pytest

from socsim import memctrl, resource
from socsim.config import load_config
from socsim.memctrl import MemoryController
from socsim.system import build

from test_kernel import BENCHMARK, _benchmark_system, _golden_system
from test_golden import CASES as GOLDEN_CASES

NEVER = float("inf")


def record_blame(system):
    """Wrap the memory controller's ``blame_blocked`` and return the list
    of ``(now, sufferer, t_block, snapshot)`` it fills, one per call."""
    calls = []
    mc = system.memctrl
    blame = mc.blame_blocked

    def recording_blame(now, blocked_txn, t_block, snapshot):
        sufferer = (blocked_txn.id_value if blocked_txn.id_value is not None
                    else blocked_txn.owner)
        calls.append((now, sufferer, t_block, snapshot))
        blame(now, blocked_txn, t_block, snapshot)

    mc.blame_blocked = recording_blame
    return calls


def stall_spans(events):
    """master -> time-ordered ``[on, off]`` spans of its stall line, from
    the ``stall_asserted``/``stall_released`` events; ``off`` is None for
    a span still open at the horizon."""
    spans = {}
    for ev in events:
        if ev["kind"] == "stall_asserted":
            spans.setdefault(ev["master"], []).append([ev["t"], None])
        elif ev["kind"] == "stall_released":
            spans[ev["master"]][-1][1] = ev["t"]
    return spans


def stalled_within(spans, start, end):
    """Cycles of ``[start, end)`` inside the spans."""
    total = 0
    for on, off in spans[max(bisect.bisect_right(spans, [start]) - 1, 0):]:
        if on >= end:
            break
        lo, hi = max(on, start), end if off is None else min(off, end)
        total += max(hi - lo, 0)
    return total


def wait_matrix(n, occupancies, waits, spans, self_inflicted):
    """The matrix the rule gives for one resource.

    ``occupancies``: ``(G, T, key)`` of each completed occupancy, in
    time order.  ``waits``: ``(t_request, t_granted, key, gated)`` of
    every entry, ``t_granted`` NEVER if still queued.  Self-inflicted
    cycles are added to ``self_inflicted``.
    """
    matrix = [[0] * n for _ in range(n)]
    waits = sorted(waits, key=lambda w: w[0])
    # key -> heap of (t_request, order, t_granted, gated) of its entries
    # requested so far; an entry granted before T waits at no later T
    queued: dict[int, list] = {}
    i = 0
    for g, t, occupant in occupancies:
        while i < len(waits) and waits[i][0] < t:
            t_request, t_granted, key, gated = waits[i]
            heapq.heappush(queued.setdefault(key, []),
                           (t_request, i, t_granted, gated))
            i += 1
        for key, heap in queued.items():
            while heap and heap[0][2] < t:
                heapq.heappop(heap)
            if key == occupant or not heap:
                continue
            t_request, _order, _t_granted, gated = heap[0]
            start = max(g, t_request)
            own = (stalled_within(spans[key], start, t)
                   if gated and key in spans else 0)
            matrix[occupant][key] += t - start - own
            self_inflicted[key] += own
    return matrix


def blame_matrix(n, calls):
    """Back-pressure blame: each held span split over the FIFO occupants
    at the refusal by their entry counts, integer shares, the remainder
    to the initiator of the oldest entry, self-blame discarded."""
    matrix = [[0] * n for _ in range(n)]
    for now, sufferer, t_block, (counts, oldest) in calls:
        span, total = now - t_block, sum(counts.values())
        if span <= 0 or total == 0:
            continue
        shares = {i: span * c // total for i, c in counts.items()}
        shares[oldest] += span - sum(shares.values())
        for initiator, cycles in shares.items():
            if initiator != sufferer:
                matrix[initiator][sufferer] += cycles
    return matrix


def resource_records(system):
    """Per resource, ``(name, occupancies, waits)`` as ``wait_matrix``
    takes them, read from its grant records and the requests it still
    queues."""
    for res in (system.bus, *system.ports):
        waits = [(g.t_request, g.t_granted, g.owner, g.slot in res.gated)
                 for g in res.grants]
        waits += [(t_request, NEVER, txn.owner, entity in res.gated)
                  for entity, queue in res.queues.items()
                  for txn, t_request in queue]
        occupancies = [(g.t_granted, g.t_completed, g.owner)
                       for g in res.grants if g.t_completed >= 0]
        yield res.resource, occupancies, waits
    mc = system.memctrl
    waits = [(r.t_request, r.t_granted, r.slot, False) for r in mc.records]
    waits += [(t_enq, NEVER, initiator, False)
              for initiator, _kind, t_enq in mc.pending_entries()]
    occupancies = [(r.t_granted, r.t_completed, r.slot)
                   for r in mc.records if r.t_completed >= 0]
    yield mc.resource, occupancies, waits


def ledger(system, blame_calls):
    """``(matrices, blame, self_inflicted)`` as the records say they must
    be: each resource's wait matrix by name, the back-pressure column,
    and every master's self-inflicted cycles."""
    n = system.cfg.n_masters
    spans = stall_spans(system.events)
    self_inflicted = [0] * n
    matrices = {name: wait_matrix(n, occupancies, waits, spans,
                                  self_inflicted)
                for name, occupancies, waits in resource_records(system)}
    return matrices, blame_matrix(n, blame_calls), self_inflicted


def census(system, blame):
    """``(matrices, blame, self_inflicted)`` counted cycle by cycle, the
    ledger's ``blame`` column taken as it is: in each cycle of each
    completed occupancy, every other key with an entry waiting in that
    cycle suffers it, unless one of its entries waiting then sits in a
    slot its stall line gates and the line is up, when the key inflicts
    the cycle on itself.  Unlike the ledger, it takes no wait from an
    earliest request: it marks each entry's waiting cycles from the
    records, up to the horizon, and counts them."""
    n, horizon = system.cfg.n_masters, system.sim.now
    stalled = {}
    for master, spans in stall_spans(system.events).items():
        cycles = stalled[master] = bytearray(horizon)
        for on, off in spans:
            off = horizon if off is None else off
            cycles[on:off] = b"\1" * (off - on)
    self_inflicted = [0] * n
    matrices = {}
    for name, occupancies, waits in resource_records(system):
        # key -> one byte a cycle: 1 where it waits; and 1 where it waits
        # gated while its line is up
        waiting, own = {}, {}
        for t_request, t_granted, key, gated in waits:
            end = min(t_granted, horizon)
            if end <= t_request:
                continue
            row = waiting.setdefault(key, bytearray(horizon))
            row[t_request:end] = b"\1" * (end - t_request)
            if gated and key in stalled:
                own.setdefault(key, bytearray(horizon))[t_request:end] = \
                    stalled[key][t_request:end]
        matrix = matrices[name] = [[0] * n for _ in range(n)]
        for g, t, occupant in occupancies:
            for key, row in waiting.items():
                if key != occupant:
                    mine = own[key].count(1, g, t) if key in own else 0
                    matrix[occupant][key] += row.count(1, g, t) - mine
                    self_inflicted[key] += mine
    return matrices, blame, self_inflicted


def mismatches(monitor, matrices, blame, self_inflicted) -> list[str]:
    """Where the monitor disagrees with a ledger, one line per matrix cell
    and per master; empty if conservation holds.  The blame column adds
    to the memory controller's matrix."""
    assert set(matrices) == set(monitor.matrices)
    out = []
    for name, expected in matrices.items():
        counts = monitor.matrices[name].counts
        for c, row in enumerate(expected):
            for s, cycles in enumerate(row):
                if name == "mem":
                    cycles += blame[c][s]
                if counts[c][s] != cycles:
                    out.append(f"{name}[{c}][{s}]: monitor {counts[c][s]}, "
                               f"ledger {cycles}")
    out += [f"self_inflicted[{m}]: monitor {got}, ledger {cycles}"
            for m, (got, cycles) in enumerate(
                zip(monitor.self_inflicted, self_inflicted)) if got != cycles]
    return out


def run_with_ledger(system):
    """Run ``system`` with its blame calls recorded; return the ledger
    and where the monitor disagrees with it."""
    calls = record_blame(system)
    system.run()
    books = ledger(system, calls)
    return books, mismatches(system.monitor, *books)


def check_benchmark_shape(name: str, seed: int, cycles: int,
                          directory: str) -> None:
    """Run a benchmark workload's shape; raise AssertionError, naming the
    first disagreements, unless the ledger balances."""
    system = build(load_config(
        BENCHMARK.write_inputs(name, seed, cycles, directory)))
    _, wrong = run_with_ledger(system)
    if wrong:
        raise AssertionError(f"{name}: " + "; ".join(wrong[:10]))


# -- the proof -------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_ledger_balances_on_golden(name, tmp_path):
    (matrices, _, _), wrong = run_with_ledger(_golden_system(name, tmp_path))
    assert wrong == []
    assert sum(sum(map(sum, m)) for m in matrices.values()) > 0


@pytest.mark.parametrize("name", BENCHMARK.WORKLOADS)
def test_ledger_balances_on_benchmark_shape(name, tmp_path):
    (matrices, blame, self_inflicted), wrong = run_with_ledger(
        _benchmark_system(name, tmp_path))
    assert wrong == []
    assert sum(sum(map(sum, m)) for m in matrices.values()) > 0
    # the self-inflicted and the back-pressure columns are exercised
    if name == "mix6_quota":
        assert sum(self_inflicted) > 0
    if name == "l2_hot_replay":
        assert sum(map(sum, blame)) > 0


# -- negative controls: a sabotaged settle must be caught ------------------

def _drop_a_key(settle):
    def sabotaged(monitor, name, occupant, t_granted, now, waiting):
        others = [key for key, _t, _gated in waiting if key != occupant]
        settle(monitor, name, occupant, t_granted, now,
               [entry for entry in waiting if entry[0] not in others[:1]])
    return sabotaged


def _charge_a_key_twice(settle):
    def sabotaged(monitor, name, occupant, t_granted, now, waiting):
        settle(monitor, name, occupant, t_granted, now, waiting)
        others = [entry for entry in waiting if entry[0] != occupant]
        settle(monitor, name, occupant, t_granted, now, others[:1])
    return sabotaged


def _clip_at_the_request(settle):
    def sabotaged(monitor, name, occupant, t_granted, now, waiting):
        # every wait counted from its request, not from the grant
        settle(monitor, name, occupant, 0, now, waiting)
    return sabotaged


SABOTAGES = {"drop-a-key": _drop_a_key,
             "charge-a-key-twice": _charge_a_key_twice,
             "clip-at-the-request": _clip_at_the_request}


def sabotage_settle(monkeypatch, how: str) -> None:
    """Replace ``settle`` under both names it is called by."""
    sabotaged = SABOTAGES[how](resource.settle)
    monkeypatch.setattr(resource, "settle", sabotaged)
    monkeypatch.setattr(memctrl, "settle", sabotaged)


@pytest.mark.parametrize("name", BENCHMARK.WORKLOADS)
@pytest.mark.parametrize("how", sorted(SABOTAGES))
def test_ledger_catches_sabotaged_settle(how, name, tmp_path, monkeypatch):
    sabotage_settle(monkeypatch, how)
    _, wrong = run_with_ledger(_benchmark_system(name, tmp_path))
    assert wrong


# -- negative controls: a sabotaged census must be caught ------------------

def _flush_skips_the_lowest(monkeypatch):
    def sabotaged(self):
        lowest = min(self._waiters, default=None)
        for occupant, cycles in self._epoch.items():
            for initiator in self._waiters:
                if initiator not in (occupant, lowest):
                    self._rows[occupant][initiator] += cycles
        self._epoch.clear()
    monkeypatch.setattr(MemoryController, "_flush", sabotaged)


def _late_joiner_one_off(monkeypatch):
    try_accept = MemoryController.try_accept

    def sabotaged(self, txn, now):
        # a joiner during a service noted one cycle later than it came
        late = len(self._late)
        accepted = try_accept(self, txn, now)
        if len(self._late) > late:
            initiator, t = self._late[-1]
            self._late[-1] = (initiator, t + 1)
        return accepted
    monkeypatch.setattr(MemoryController, "try_accept", sabotaged)


def _fast_path_past_a_quota(monkeypatch):
    init = MemoryController.__init__

    def sabotaged(self, *args, **kwargs):
        init(self, *args, **kwargs)
        # every release taken as one that cannot cross a quota
        self._quotas = {}
    monkeypatch.setattr(MemoryController, "__init__", sabotaged)


def _ledger_fails_on_golden(name):
    def caught(tmp_path):
        _, wrong = run_with_ledger(_golden_system(name, tmp_path))
        assert wrong
    return caught


def _quota_crossing_fails(_tmp_path):
    from test_system import test_quota_crossing_partway_through_a_release
    # a crossing missed altogether leaves no stall event to unpack
    with pytest.raises((AssertionError, ValueError)):
        test_quota_crossing_partway_through_a_release()


# name -> (the sabotage, given a monkeypatch; a check that passes only if
# the sabotage is caught, given a directory)
CENSUS_SABOTAGES = {
    "flush-skips-the-lowest": (_flush_skips_the_lowest,
                               _ledger_fails_on_golden("priority")),
    "late-joiner-one-off": (_late_joiner_one_off,
                            _ledger_fails_on_golden("quota_noc")),
    "fast-path-past-a-quota": (_fast_path_past_a_quota,
                               _quota_crossing_fails),
}


@pytest.mark.parametrize("how", sorted(CENSUS_SABOTAGES))
def test_sabotaged_census_is_caught(how, tmp_path, monkeypatch):
    sabotage, caught = CENSUS_SABOTAGES[how]
    sabotage(monkeypatch)
    caught(tmp_path)


# -- the census: the same matrices, cycle by cycle ------------------------

@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_census_matches_matrix_on_golden(name, tmp_path):
    system = _golden_system(name, tmp_path)
    (_, blame, _), _ = run_with_ledger(system)
    books = census(system, blame)
    assert mismatches(system.monitor, *books) == []
    # the controller and the ports are checked on something
    assert sum(sum(map(sum, matrix)) for name, matrix in books[0].items()
               if name != "bus") > 0
