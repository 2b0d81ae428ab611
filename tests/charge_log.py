"""Record what a ``ContentionMonitor`` is charged, entry by entry.

The monitor keeps only its matrices and two entry counts.  A test that
pins individual charges wraps one monitor instance with
``record_charges`` before driving it; the returned lists fill as the
monitor is charged.
"""


def record_charges(monitor):
    """Wrap ``monitor.settle``, ``monitor.tally`` and
    ``monitor.attribute_self`` and return ``(attributions,
    self_inflicted)``: lists of ``(t, resource, causer, sufferer,
    cycles)`` per positive charge and ``(t, resource, master, cycles)``
    per positive self-inflicted amount.

    Each call is read off the monitor once it returns: its charges are
    the rises of the resource's flushed rows since they were last read,
    its self-inflicted amounts the rises of ``self_inflicted`` in the
    call, each in ascending order, at the call's cycle (a tally's: the
    simulator's).  They must be the entries the monitor counted, and a
    tally's must add up to its cycles, or AssertionError is raised.
    """
    attributions, self_inflicted = [], []
    # resource -> its rows as last read
    seen = {name: [list(row) for row in matrix.counts]
            for name, matrix in monitor.matrices.items()}

    def rises(before, after):
        return [(i, a - b) for i, (b, a) in enumerate(zip(before, after))
                if a != b]

    def wrap(name):
        call = getattr(monitor, name)

        def recording(*args):
            now, resource = ((monitor.sim.now, args[0]) if name == "tally"
                             else args[:2])
            counted = len(monitor.attributions), len(
                monitor.self_inflicted_events)
            own = list(monitor.self_inflicted)
            call(*args)
            rows = monitor.matrices[resource].counts
            last = seen.get(resource, [[0] * len(rows)] * len(rows))
            seen[resource] = [list(row) for row in rows]
            charged = [(now, resource, causer, sufferer, cycles)
                       for causer, (was, row) in enumerate(zip(last, rows))
                       for sufferer, cycles in rises(was, row)]
            inflicted = [(now, resource, master, cycles) for master, cycles
                         in rises(own, monitor.self_inflicted)]
            assert (len(charged), len(inflicted)) == (
                len(monitor.attributions) - counted[0],
                len(monitor.self_inflicted_events) - counted[1]), \
                f"{name} on {resource}: {charged}, {inflicted} counted apart"
            assert name != "tally" or sum(
                charge[-1] for charge in charged) == args[-1], \
                f"tally of {args[-1]} cycles on {resource}: {charged}"
            attributions.extend(charged)
            self_inflicted.extend(inflicted)

        setattr(monitor, name, recording)

    for name in ("settle", "tally", "attribute_self"):
        wrap(name)
    return attributions, self_inflicted
