"""Random whole platforms as the test oracle.

The first 120 platforms of ``platforms.draw_platform`` at seed 0 must run
cleanly: the wait ledger of ``test_conservation`` balances, its
per-cycle census gives the monitor's matrices, the grant logs' registers are those ``test_registers`` recomputes from the logs,
every memory service carries its owner's id, a second run that records
its completed transactions writes byte-identical outputs, and the first
run's latency counters and deadline evidence are those recomputed from
the recorded transactions.  The index stratifies the core count, the L2 mode and the
quotas, so each core count comes 30 times, and the runs must reach every
``WANTED`` feature at least 5 times.  A sabotaged ``settle`` must break
the ledger, a sabotaged deadline compare the counters, and an L2 that
stamps the next master's id the ids, on some drawn platform that the
honest code runs cleanly, so the oracle can fail.  On
every bus-bound platform a bus arbiter that grants the worst-ranked
requester must fail the priority inversion check, and the honest arbiter
on none.  A platform corrupted in a few places by
``platforms.draw_invalid`` is refused with a ``ConfigError``, or parses
and then runs, raising at most a ``SimulationError``.  What is drawn
does not depend on the literals in ``src/``.

A failure raises ``platforms.PlatformFailed``, which names the seed and
the index; ``platforms.drawn(platforms.draw_platform, SEED, INDEX)``
gives that platform's ``(tree, trace)`` again, and
``platforms.check_platform`` replays it alone.
"""

import os
import shutil
import tempfile
from collections import Counter
from types import SimpleNamespace

import pytest

from socsim.errors import ConfigError, SimulationError
from socsim.report import build_report
from socsim.system import Master, build
from socsim.verify import EVIDENCE_CAP, run_checks

import platforms
from platforms import (WANTED, PlatformFailed, check_platform,
                       check_random_platforms, draw_invalid, drawn,
                       inversion_control, platform_config)
from test_console import SRC, run_python
from test_conservation import sabotage_settle

TIER1 = 120


@pytest.fixture(scope="module")
def tier1_features() -> Counter:
    """The features of the tier-1 draws; every one of them held every
    invariant."""
    return check_random_platforms(TIER1, 0)


def test_random_platform_invariants(tier1_features):
    assert sum(tier1_features["cores", n] for n in range(1, 5)) == TIER1


def test_tier1_draws_cover_every_wanted_feature(tier1_features):
    assert min(tier1_features["cores", n] for n in range(1, 5)) >= 20
    assert {key: tier1_features[key] for key in WANTED
            if tier1_features[key] < 5} == {}


def _fails_then_holds(monkeypatch, max_examples, match):
    """The sabotage in ``monkeypatch`` breaks an invariant, matching
    ``match``, on one of the first ``max_examples`` platforms of seed 0,
    and that platform holds them all once the sabotage is undone."""
    with pytest.raises(PlatformFailed, match=match) as failed:
        check_random_platforms(max_examples, 0)
    monkeypatch.undo()
    with tempfile.TemporaryDirectory() as directory:
        check_platform(*failed.value.platform, directory)


def test_sabotaged_settle_fails_the_ledger_on_a_drawn_platform(monkeypatch):
    sabotage_settle(monkeypatch, "drop-a-key")
    _fails_then_holds(monkeypatch, 60, "ledger: ")


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
    _fails_then_holds(monkeypatch, TIER1, "latency counters")


def test_an_l2_stamping_a_wrong_id_fails_on_a_drawn_platform(monkeypatch):
    # what the L2 sends to the crossbar carries the id of the master
    # after its owner
    build_platform = platforms.build_platform

    def with_an_l2_stamping_the_next_id(tree, trace, directory):
        system = build_platform(tree, trace, directory)
        inject, n = system.crossbar.inject, system.cfg.n_masters

        def stamp_the_next_id(txn, entity, now):
            txn.id_value = (txn.owner + 1) % n
            inject(txn, entity, now)

        system.l2.crossbar = SimpleNamespace(inject=stamp_the_next_id)
        return system

    monkeypatch.setattr(platforms, "build_platform",
                        with_an_l2_stamping_the_next_id)
    _fails_then_holds(monkeypatch, TIER1, "ids: ")


def test_worst_ranked_bus_arbiter_is_caught_on_every_bus_bound_platform():
    examples, honest, sabotaged = inversion_control(60, 0)
    assert examples == 60
    assert (honest, sabotaged) == (0, examples)


def test_invalid_platforms_are_refused_or_run():
    outcomes = Counter()
    for index in range(200):
        with tempfile.TemporaryDirectory() as directory:
            try:
                cfg = platform_config(*drawn(draw_invalid, 0, index),
                                      directory)
            except ConfigError:
                outcomes["refused"] += 1
                continue
        try:
            system = build(cfg)
            system.run()
            build_report(system, run_checks(system))
        except SimulationError:
            outcomes["simulation error"] += 1
        else:
            outcomes["ran"] += 1
    # both ends of the property were reached
    assert outcomes["refused"] and outcomes["ran"], outcomes


def test_drawn_platforms_do_not_depend_on_literals_in_src(tmp_path):
    # a copy of the socsim this process tests, with one more literal; it
    # behaves the same, so the digest must not move.  The generator reads
    # nothing from ``src/`` but the policy names and the schema version,
    # so this fails only if drawing comes to depend on the source text,
    # as it did when a library mixed the literals of local modules into
    # its draws
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    with open(copy / "socsim" / "errors.py", "a") as fh:
        fh.write("_UNUSED = 2000\n")
    script = os.path.join(os.path.dirname(__file__), "platforms.py")
    digests = []
    for tree in (SRC, str(copy)):
        done = run_python(script, "30", "2026", src=tree, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout)
    assert digests[0] == digests[1] != b""
