"""The grant-time registers, recomputed from the grant logs themselves.

A ``GrantLog`` counts, as it appends each grant, what the report and the
starvation check read, so that neither walks a log: grants per owner,
and the index of each grant that waited longer than its resource's
starvation window as the window stood at that grant; it also keeps that
window, which must end at the one the final longest occupancy gives.
The memory controller counts each initiator's reads and writes in the
order of its first service.  ``register_mismatches`` rebuilds all of
them from the packed records alone and names each register that
differs.  It must find none on the golden platforms, on the benchmark
shapes, and on the tier-1 drawn platforms (``platforms.check_platform``
asks it).  Negative controls sabotage the register updates three ways;
the oracle must catch each.  The starvation verdict, which reads
``late`` alone, must equal ``reference_starvation``, the scan of every
grant it replaced, under windows computed from the configuration.
"""

import pytest

from socsim.memctrl import MemoryController
from socsim.noc import CrossbarPort
from socsim.resource import GrantLog, starvation_window
from socsim.transaction import WRITE
from socsim.verify import EVIDENCE_CAP, check_starvation

from test_kernel import BENCHMARK, _benchmark_system, _golden_system
from test_golden import CASES as GOLDEN_CASES


def _floor(res) -> int:
    """The least longest occupancy ``res`` can have: a port's grows from
    1 and its overrides as (kind, size) pairs are granted; the bus's and
    the controller's are fixed by their tables."""
    if isinstance(res, CrossbarPort):
        return max([1, *res.occupancy_override.values()])
    return res.max_occupancy()


def expected_registers(res, configured: int | None):
    """``(per_owner, late, window)`` of ``res.grants``, rebuilt from its
    records."""
    log = res.grants
    per_owner = [0] * len(log.per_owner)
    late = []
    longest = _floor(res)
    for index, g in enumerate(log):
        per_owner[g.owner] += 1
        longest = max(longest, g.occupancy)
        if g.t_granted - g.t_request > starvation_window(configured, longest):
            late.append(index)
    return per_owner, late, starvation_window(configured, longest)


def expected_services(memctrl) -> list:
    """The controller's ``services`` items, rebuilt from its records."""
    services = {}
    for g in memctrl.records:
        services.setdefault(g.initiator, [0, 0])[g.kind == WRITE] += 1
    return list(services.items())


def register_mismatches(system) -> list[str]:
    """Each register of each resource that its log does not bear out."""
    wrong = []

    def compare(where, counted, recomputed):
        if counted != recomputed:
            wrong.append(f"{where}: counted {str(counted)[:200]}, "
                         f"the log says {str(recomputed)[:200]}")

    configured = system.cfg.starvation_window
    for res in (system.bus, *system.ports, system.memctrl):
        log = res.grants
        per_owner, late, window = expected_registers(res, configured)
        compare(f"{res.resource}.per_owner", list(log.per_owner), per_owner)
        compare(f"{res.resource}.late", list(log.late), late)
        compare(f"{res.resource}.window", log.window, window)
    compare("mem.services", list(system.memctrl.services.items()),
            expected_services(system.memctrl))
    return wrong


def reference_starvation(system) -> dict:
    """The starvation verdict by a scan of every grant of every log, as
    the check read it before the ``late`` register."""
    mon = system.monitor
    now = system.sim.now
    configured = system.cfg.starvation_window
    windows = {res.resource: starvation_window(configured,
                                               res.max_occupancy())
               for res in (system.bus, *system.ports, system.memctrl)}
    violations = []

    def note(resource, who, t_request, waited, granted) -> None:
        if len(violations) < EVIDENCE_CAP:
            violations.append({
                "resource": resource, "master": who, "t_request": t_request,
                "waited": waited, "granted": granted})

    stalled_overlap = mon.stalled_overlap
    arbitrated = [system.bus, *system.ports]
    for res in (*arbitrated, system.memctrl):
        w = windows[res.resource]
        for g in res.grants:
            waited = g.t_granted - g.t_request
            if waited <= w:
                continue
            if g.slot in res.gated:
                waited -= stalled_overlap(g.owner, g.t_request, g.t_granted)
            if waited > w:
                note(res.resource, g.owner, g.t_request, waited, True)
    for res in arbitrated:
        w = windows[res.resource]
        for e in res.entities:
            gated = e in res.gated
            for txn, t_req in res.queues[e]:
                waited = now - t_req
                if waited > w and gated:
                    waited -= stalled_overlap(txn.owner, t_req, now)
                if waited > w:
                    note(res.resource, txn.owner, t_req, waited, False)
    for initiator, _kind, t_enq in system.memctrl.pending_entries():
        if now - t_enq > windows["mem"]:
            note("mem", initiator, t_enq, now - t_enq, False)
    return {"pass": not violations, "windows": windows,
            "violations": violations}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_registers_match_the_log_on_golden(name, tmp_path):
    system = _golden_system(name, tmp_path)
    system.run()
    assert len(system.bus.grants) > 0
    assert register_mismatches(system) == []
    assert check_starvation(system) == reference_starvation(system)


@pytest.mark.parametrize("name", BENCHMARK.WORKLOADS)
def test_registers_match_the_log_on_benchmark_shape(name, tmp_path):
    system = _benchmark_system(name, tmp_path)
    system.run()
    assert any(len(res.grants.late)
               for res in (system.bus, *system.ports, system.memctrl))
    assert register_mismatches(system) == []
    assert check_starvation(system) == reference_starvation(system)


def _sabotage_append(monkeypatch, undo):
    """Have ``GrantLog.append`` call ``undo(log, slot, owner, late)``
    after each honest append; ``late`` says whether it noted the grant
    as late."""
    honest = GrantLog.append

    def append(log, slot, owner, kind, occupancy, t_request, t_granted,
               guard, uid):
        late = len(log.late)
        index = honest(log, slot, owner, kind, occupancy, t_request,
                       t_granted, guard, uid)
        undo(log, slot, owner, len(log.late) > late)
        return index

    monkeypatch.setattr(GrantLog, "append", append)


def _skip_slot_0_owner(monkeypatch):
    def undo(log, slot, owner, late):
        if slot == 0:
            log.per_owner[owner] -= 1
    _sabotage_append(monkeypatch, undo)


def _drop_late(monkeypatch):
    def undo(log, slot, owner, late):
        if late:
            log.late.pop()
    _sabotage_append(monkeypatch, undo)


def _swap_service_kinds(monkeypatch):
    honest = MemoryController.poke

    def poke(memctrl, now):
        served = len(memctrl.records)
        honest(memctrl, now)
        if len(memctrl.records) > served:
            grant = memctrl.records[served]
            counts = memctrl.services[grant.initiator]
            write = grant.kind == WRITE
            counts[write] -= 1
            counts[not write] += 1

    monkeypatch.setattr(MemoryController, "poke", poke)


SABOTAGE = {"skip slot 0's owner count": _skip_slot_0_owner,
            "count each service as the other kind": _swap_service_kinds,
            "drop late grants": _drop_late}


@pytest.mark.parametrize("how", SABOTAGE)
def test_oracle_catches_a_sabotaged_register_update(how, tmp_path,
                                                    monkeypatch):
    SABOTAGE[how](monkeypatch)
    caught = []
    for name in BENCHMARK.WORKLOADS:
        system = _benchmark_system(name, tmp_path / name)
        system.run()
        caught.append(bool(register_mismatches(system)))
    assert all(caught), caught
