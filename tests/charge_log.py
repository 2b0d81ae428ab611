"""Record what a ``ContentionMonitor`` is charged, entry by entry.

The monitor keeps only its matrices and two entry counts.  A test that
pins individual charges wraps one monitor instance with
``record_charges`` before driving it; the returned lists fill as the
monitor is charged.
"""


def record_charges(monitor):
    """Wrap ``monitor.charge`` and return ``(attributions,
    self_inflicted)``: lists of ``(t, resource, causer, sufferer,
    cycles)`` per positive charge and ``(t, resource, master, cycles)``
    per positive self-inflicted amount, in the order the monitor takes
    them.

    Each batch still reaches the monitor as one charge.  What is recorded
    is what the monitor counted: if it refuses an entry (a self-pair),
    the entries it took before that one.
    """
    attributions, self_inflicted = [], []
    charge = monitor.charge
    counts = monitor.attributions, monitor.self_inflicted_events

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

    monitor.charge = recording_charge
    return attributions, self_inflicted
