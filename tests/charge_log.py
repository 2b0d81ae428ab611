"""Record what a ``ContentionMonitor`` is charged, entry by entry.

The monitor keeps only its matrices and two entry counts.  A test that
pins individual charges wraps one monitor instance with
``record_charges`` before driving it; the returned lists fill as the
monitor is charged.
"""


def record_charges(monitor):
    """Wrap ``monitor.charge`` and ``monitor.tally`` and return
    ``(attributions, self_inflicted)``: lists of ``(t, resource, causer,
    sufferer, cycles)`` per positive charge and ``(t, resource, master,
    cycles)`` per positive self-inflicted amount, in the order the
    monitor takes them.

    Each batch still reaches the monitor as one charge.  What is recorded
    is what the monitor counted: if it refuses an entry (a self-pair),
    the entries it took before that one.  A tally's entries were written
    into the causer's row by the resource (the memory controller's
    census): they are read from the flushed row, as its rise since the
    row was last recorded, in ascending sufferer order, at the
    simulator's current cycle, and they must be the tally's count and
    cycles, or the tally raises AssertionError.
    """
    attributions, self_inflicted = [], []
    charge, tally = monitor.charge, monitor.tally
    counts = monitor.attributions, monitor.self_inflicted_events
    # (resource, causer) -> the causer's row as last recorded
    seen = {(resource, causer): list(row)
            for resource, matrix in monitor.matrices.items()
            for causer, row in enumerate(matrix.counts)}

    def row_of(resource, causer):
        return monitor.matrices[resource].counts[causer]

    def recording_charge(now, resource, causer, charges):
        charges = list(charges)
        before = [len(count) for count in counts]
        try:
            charge(now, resource, causer, charges)
        finally:
            taken = [len(count) - n for count, n in zip(counts, before)]
            attributions.extend([
                (now, resource, causer, sufferer, cycles)
                for sufferer, cycles, _own in charges if cycles > 0
            ][:taken[0]])
            self_inflicted.extend([
                (now, resource, sufferer, own)
                for sufferer, _cycles, own in charges if own > 0
            ][:taken[1]])
            seen[resource, causer] = list(row_of(resource, causer))

    def recording_tally(resource, causer, entries, total):
        tally(resource, causer, entries, total)
        row = row_of(resource, causer)
        last = seen.get((resource, causer), [0] * len(row))
        rises = [(monitor.sim.now, resource, causer, sufferer, cycles - before)
                 for sufferer, (cycles, before) in enumerate(zip(row, last))
                 if cycles != before]
        seen[resource, causer] = list(row)
        assert (len(rises), sum(rise[-1] for rise in rises)) == (
            entries, total), f"{resource}: tally of {entries} entries, " \
            f"{total} cycles, against the row's rises {rises}"
        attributions.extend(rises)

    monitor.charge = recording_charge
    monitor.tally = recording_tally
    return attributions, self_inflicted
