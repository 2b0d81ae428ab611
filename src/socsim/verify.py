"""End-of-run verdicts over the recorded schedule.

Four checks, each returning a dict with a boolean ``pass`` and concrete
evidence for every violation found (capped per check so a broken run
does not produce megabytes of it):

* starvation: nobody waits for a resource longer than the window W,
  after deducting time the waiter spent under its own quota stall where
  that stall gates the wait: on the bus, and at a crossbar port for an
  accelerator's own injection (the anti-starvation guard bounds that
  wait separately, by design).  Entity 0 of a port carries the cores'
  L2 traffic, which no stall line gates, so its waits count in full.
  The granted waits are read from each log's ``late`` register, the
  grants that waited longer than the window as it stood when they were
  granted; a window only grows (``resource.starvation_window``), so no
  longer wait is missing from it, and the final window, which the log
  also keeps, judges each again.
* deadline: every transaction of a master with a declared deadline
  finishes within it, and nothing still in flight has already blown it.
  Completed misses are the evidence ``Master.complete`` keeps as they
  happen (``Master.deadline_misses``), against the deadline the master
  was built with, so no latency log is needed.
* priority_inversion: under a fixed-priority bus, no grant goes to a
  worse-ranked master while a strictly better-ranked one has been
  waiting longer than one full occupancy.  The bus judges each grant as
  it makes it and keeps the evidence (``SharedBus.inversions``), so no
  grant log is replayed.
* quota: per period, a quota master's caused cycles stay within
  limit + max_occ + ceil(period / guard) * max_occ, the slack being one
  in-flight occupancy at the crossing plus one guard grant per window.
"""

from __future__ import annotations

from itertools import islice

EVIDENCE_CAP = 20


def _max_occupancies(system) -> dict[str, int]:
    """Longest single occupancy of each resource, in report order."""
    return {res.resource: res.max_occupancy()
            for res in (system.bus, *system.ports, system.memctrl)}


def check_starvation(system) -> dict:
    # each resource's final window, which its log keeps as the run goes
    windows = {res.resource: res.grants.window
               for res in (system.bus, *system.ports, system.memctrl)}
    violations = list(islice(_starved(system, windows), EVIDENCE_CAP))
    return {"pass": not violations, "windows": windows,
            "violations": violations}


def _starved(system, windows: dict[str, int]):
    """Each wait over its resource's window, in report order: the granted
    ones resource by resource, then those still queued at the horizon."""
    now = system.sim.now

    def note(resource, who, t_request, waited, granted) -> dict:
        return {"resource": resource, "master": who, "t_request": t_request,
                "waited": waited, "granted": granted}

    # stall time is excused only at the slots the owner's stall line
    # gates (every bus slot; at a port, the accelerator entities); that
    # only shortens a wait, so a wait within the window needs no lookup
    stalled_overlap = system.monitor.stalled_overlap
    arbitrated = [system.bus, *system.ports]
    for res in (*arbitrated, system.memctrl):
        w = windows[res.resource]
        gated = res.gated
        log = res.grants
        for index in log.late:
            g = log[index]
            waited = g.t_granted - g.t_request
            if waited <= w:
                continue
            if g.slot in gated:
                waited -= stalled_overlap(g.owner, g.t_request, g.t_granted)
            if waited > w:
                yield note(res.resource, g.owner, g.t_request, waited, True)

    # whatever is still waiting at the horizon counts too
    for res in arbitrated:
        w = windows[res.resource]
        for e in res.entities:
            gated = e in res.gated
            for txn, t_req in res.queues[e]:
                waited = now - t_req
                if waited > w and gated:
                    waited -= stalled_overlap(txn.owner, t_req, now)
                if waited > w:
                    yield note(res.resource, txn.owner, t_req, waited, False)
    for initiator, _kind, t_enq in system.memctrl.pending_entries():
        if now - t_enq > windows["mem"]:
            yield note("mem", initiator, t_enq, now - t_enq, False)


def check_deadlines(system) -> dict:
    """Each master built with a deadline: the misses it recorded as its
    transactions completed, then its in-flight transactions already
    older than the deadline.  The deadline is the master's, fixed when
    the system was built; its misses are copied out, not judged again."""
    now = system.sim.now
    checked = [m for m in system.masters if m.deadline is not None]
    violations = []
    for m in checked:
        deadline = m.deadline
        violations += [{"master": m.id, "latency": lat, "deadline": deadline,
                        "completed": True} for lat in m.deadline_misses]
        for uid in sorted(m.active):
            age = now - m.active[uid].t_issued
            if age > deadline:
                violations.append({"master": m.id, "latency": age,
                                   "deadline": deadline, "completed": False})
    return {"pass": not violations, "checked": [m.id for m in checked],
            "violations": violations[:EVIDENCE_CAP]}


def check_priority_inversion(system) -> dict:
    """The inversions the bus noted as it granted (``SharedBus._judge``):
    a better-ranked waiter may be passed over for at most one occupancy;
    any longer and the arbiter inverted the programmed priority."""
    if system.cfg.bus_policy != "fixed_priority":
        return {"pass": True, "applicable": False, "violations": []}
    violations = list(system.bus.inversions)
    return {"pass": not violations, "applicable": True,
            "violations": violations}


def check_quota(system) -> dict:
    cfg = system.cfg
    mon = system.monitor
    if not mon.quotas:
        return {"pass": True, "applicable": False, "violations": []}
    max_occ = max([1] + [occ for name, occ in _max_occupancies(system).items()
                         if name in mon.monitored])
    guard_terms = -(-cfg.period // cfg.guard_window)    # ceil
    violations = []
    bounds = {}
    for master in sorted(mon.quotas):
        limit = mon.quotas[master].config.limit
        bound = limit + max_occ + guard_terms * max_occ
        bounds[master] = bound
        history = list(mon.period_history[master]) + [mon.used[master]]
        for period, caused in enumerate(history):
            if caused > bound and len(violations) < EVIDENCE_CAP:
                violations.append({"master": master, "period": period,
                                   "caused": caused, "bound": bound})
    return {"pass": not violations, "applicable": True,
            "max_occupancy": max_occ, "bounds": bounds,
            "violations": violations}


def run_checks(system) -> dict:
    verdicts = {
        "starvation": check_starvation(system),
        "deadline": check_deadlines(system),
        "priority_inversion": check_priority_inversion(system),
        "quota": check_quota(system),
    }
    verdicts["pass"] = all(v["pass"] for v in verdicts.values())
    return verdicts
