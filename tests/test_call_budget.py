"""A speed guard that does not depend on the host: Python function calls
per issued transaction in ``System.run``, counted by cProfile on each
benchmark workload's shape (seed 3, 30 k cycles).

The count is deterministic, so it moves only when the code on the
per-transaction path does.  Each ceiling is the count measured when the
budget was set plus 10 %.  Raising a ceiling is a declared change: the
change that raises it records the old and the new count in CHANGES.md.
To re-set a budget after making the path leaner, run this file with
``-s`` and copy the printed counts into ``MEASURED``.
"""

import cProfile
import gc
import types

import pytest

from test_kernel import BENCHMARK, _benchmark_system

# workload -> Python calls per issued transaction when the budget was set
MEASURED = {
    "mix6_quota": 49.85,
    "crowd_mem": 46.58,
    "l2_hot_replay": 28.62,
}
HEADROOM = 1.10


def python_calls_per_issue(system) -> float:
    # the collection that ends a run calls whatever sits in gc.callbacks
    # (hypothesis registers one once any of its tests has run); those
    # calls are not the simulator's, so the count leaves them out
    callbacks = gc.callbacks[:]
    gc.callbacks.clear()
    profile = cProfile.Profile()
    profile.enable()
    try:
        system.run()
    finally:
        profile.disable()
        gc.callbacks[:] = callbacks
    # one entry per code object, so functions that share a file, line
    # and name (every dataclass-generated ``__init__``) are each counted;
    # a built-in function's entry holds a description, not a code object
    calls = sum(entry.callcount for entry in profile.getstats()
                if isinstance(entry.code, types.CodeType))
    issued = sum(m.issued for m in system.masters)
    assert issued > 0
    return calls / issued


@pytest.mark.parametrize("name", BENCHMARK.WORKLOADS)
def test_python_calls_per_issued_transaction(name, tmp_path):
    per_issue = python_calls_per_issue(_benchmark_system(name, tmp_path))
    print(f"{name}: {per_issue:.2f} Python calls per issued transaction")
    assert per_issue <= MEASURED[name] * HEADROOM, (
        f"{name}: {per_issue:.2f} calls per issue, budget "
        f"{MEASURED[name] * HEADROOM:.2f}")
