"""Random whole platforms as the test oracle.

Each platform drawn by ``platforms.platforms()`` must run cleanly: the
wait ledger of ``test_conservation`` balances, every memory service
carries its owner's id, a second run that records its completed
transactions writes byte-identical outputs, and the first run's latency
counters and deadline evidence are those recomputed from the recorded
transactions.  A sabotaged ``settle`` must break the ledger, and a
sabotaged deadline compare the counters, on some drawn platform, so the
oracle can fail.  On every bus-bound platform a bus arbiter that grants
the worst-ranked requester must fail the priority inversion check, and
the honest arbiter on none.  A platform corrupted in a few places by
``platforms.invalid_platforms()`` is refused with a ``ConfigError``, or
parses and then runs, raising at most a ``SimulationError``.
"""

import tempfile
from collections import Counter

import pytest
from hypothesis import Phase, given, settings

from socsim.errors import ConfigError, SimulationError
from socsim.report import build_report
from socsim.system import Master, build
from socsim.verify import EVIDENCE_CAP, run_checks

from platforms import (SETTINGS, build_platform, check_platform,
                       invalid_platforms, inversion_control,
                       platform_config, platforms)
from test_conservation import run_with_ledger, sabotage_settle


WANTED = [
    *(("cores", n) for n in range(1, 5)),
    *(("accelerators", n) for n in range(3)),
    *((where, policy) for where in ("bus", "noc")
      for policy in ("round_robin", "fixed_priority", "quota_aware")),
    ("ranks", True), ("l2", True), ("l2", False),
    ("fifo", 1), ("fifo", 2), ("fifo", 8), ("override", True),
    ("quota", "hw_stall"), ("quota", "interrupt"), ("quotas", 2),
    ("replaying", 1), ("replaying", 2), ("stalled", True),
    ("guard grant", True), ("refused", True), ("writeback", True),
    ("self-inflicted", True), ("deadline missed", True)]


def features(tree, trace, system):
    """The ``WANTED`` keys a drawn platform has, and its run reached."""
    yield "cores", tree["masters"]["cores"]
    yield "accelerators", tree["masters"]["accelerators"]
    yield "bus", tree["bus"]["policy"]
    yield "noc", tree["noc"]["policy"]
    yield "ranks", "priority" in tree["bus"]
    yield "l2", tree["l2"]["enabled"]
    yield "fifo", tree["memory"]["fifo_capacity"]
    ports = tree["noc"].get("ports", [])
    yield "override", any(port.get("occupancy") for port in ports)
    quotas = tree["qos"]["quotas"]
    yield "quotas", len(quotas)
    for quota in quotas:
        yield "quota", quota["mode"]
    if trace is not None:
        yield "replaying", len({line.split()[1]
                                for line in trace.splitlines()[1:]})
    yield "stalled", any(ev["kind"] == "stall_asserted" for ev in system.events)
    yield "guard grant", any(res.arbiter.guard_grants
                             for res in (system.bus, *system.ports))
    yield "refused", system.memctrl.refusals > 0
    yield "writeback", system.l2.writebacks > 0
    yield "self-inflicted", any(system.monitor.self_inflicted)
    yield "deadline missed", any(m.deadline_misses for m in system.masters)


def ledger_mismatches(platform) -> list[str]:
    with tempfile.TemporaryDirectory() as directory:
        return run_with_ledger(build_platform(*platform, directory))[1]


def test_random_platform_invariants():
    seen = Counter()

    @settings(max_examples=120, **SETTINGS)
    @given(platforms())
    def check(platform):
        with tempfile.TemporaryDirectory() as directory:
            system = check_platform(*platform, directory)
        seen.update(features(*platform, system))

    check()
    # the draws, and their runs, reached every feature they should
    assert [key for key in WANTED if not seen[key]] == []


def test_sabotaged_settle_fails_the_ledger_on_a_drawn_platform(monkeypatch):
    sabotage_settle(monkeypatch, "drop-a-key")

    tried = []

    @settings(max_examples=60, phases=[Phase.generate], **SETTINGS)
    @given(platforms())
    def balances(platform):
        tried.append(platform)
        assert ledger_mismatches(platform) == []

    with pytest.raises(AssertionError):
        balances()
    # the platform it failed on balances with the real settle
    monkeypatch.undo()
    assert ledger_mismatches(tried[-1]) == []


def test_sabotaged_deadline_compare_fails_on_a_drawn_platform(monkeypatch):
    # ``>=`` for ``>``: a latency equal to its deadline is recorded as a
    # miss too
    complete = Master.complete

    def at_deadline_is_a_miss(self, txn, now):
        complete(self, txn, now)
        latency = now - txn.t_issued
        if latency == self.deadline \
                and len(self.deadline_misses) < EVIDENCE_CAP:
            self.deadline_misses.append(latency)

    monkeypatch.setattr(Master, "complete", at_deadline_is_a_miss)
    tried = []

    @settings(max_examples=120, phases=[Phase.generate], **SETTINGS)
    @given(platforms())
    def holds(platform):
        tried.append(platform)
        with tempfile.TemporaryDirectory() as directory:
            check_platform(*platform, directory)

    with pytest.raises(AssertionError, match="latency counters"):
        holds()
    # the platform it failed on holds with the real compare
    monkeypatch.undo()
    with tempfile.TemporaryDirectory() as directory:
        check_platform(*tried[-1], directory)


def test_worst_ranked_bus_arbiter_is_caught_on_every_bus_bound_platform():
    drawn, honest, sabotaged = inversion_control(60, 0)
    assert drawn == 60
    assert (honest, sabotaged) == (0, drawn)


def test_invalid_platforms_are_refused_or_run():
    outcomes = Counter()

    @settings(max_examples=200, **SETTINGS)
    @given(invalid_platforms())
    def check(platform):
        with tempfile.TemporaryDirectory() as directory:
            try:
                cfg = platform_config(*platform, directory)
            except ConfigError:
                outcomes["refused"] += 1
                return
        try:
            system = build(cfg)
            system.run()
            build_report(system, run_checks(system))
        except SimulationError:
            outcomes["simulation error"] += 1
        else:
            outcomes["ran"] += 1

    check()
    assert sum(outcomes.values()) == 200
    # both ends of the property were reached
    assert outcomes["refused"] and outcomes["ran"], outcomes
