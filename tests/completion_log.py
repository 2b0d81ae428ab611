"""Record the transactions a ``System`` completes, in completion order.

A system counts its completed transactions and frees them.  A test that
reads them wraps the masters of a built system with
``record_completions`` before running it; the returned list fills as
the transactions complete.
"""


def record_completions(system):
    """Wrap each master's ``complete`` and return the list of the
    transactions completed from then on, in completion order, each
    appended once its master has completed it."""
    completed = []
    for master in system.masters:
        def recording_complete(txn, now, complete=master.complete):
            complete(txn, now)
            completed.append(txn)
        master.complete = recording_complete
    return completed
