"""A memory guard that does not depend on the host: bytes a run
allocates and still holds when ``System.run`` returns, per issued
transaction, traced by tracemalloc on each benchmark workload's shape
(seed 3, 30 k cycles).

What a run keeps (the resources' grant records and the event log) is
kept for the reports and the checks, and it grows with the horizon, so
per issued transaction it is what peak RSS is made of on a long run.  A
completed transaction is not kept: it is counted (``Master.completed``,
``latency_total``, ``latency_max``, ``deadline_misses``) and freed.
The count is deterministic for one interpreter, so it moves only when
what the run keeps does.  Each ceiling is the value measured when the budget was set plus 10 %; raising one is a declared
change, recorded with the old and the new value in CHANGES.md.  To
re-set a budget after making the run leaner, run this file with ``-s``
and copy the printed values into ``MEASURED``.  The values were taken
on CPython 3.11.7; 3.12.1 and 3.13.0 give the same values to 0.1 byte,
and 3.10.13 gives values within 3 % of them.
"""

import gc
import tracemalloc

import pytest

from test_kernel import BENCHMARK, _benchmark_system

# workload -> traced bytes retained per issued transaction when set
MEASURED = {
    "mix6_quota": 526.9,
    "crowd_mem": 489.6,
    "l2_hot_replay": 219.9,
}
HEADROOM = 1.10


def retained_bytes_per_issue(system) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        system.run()
        # what the run dropped is not retained, cyclic garbage included
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    issued = sum(m.issued for m in system.masters)
    assert issued > 0
    return retained / issued


@pytest.mark.parametrize("name", BENCHMARK.WORKLOADS)
def test_retained_bytes_per_issued_transaction(name, tmp_path):
    per_issue = retained_bytes_per_issue(_benchmark_system(name, tmp_path))
    print(f"{name}: {per_issue:.1f} traced bytes retained per issued "
          f"transaction")
    assert per_issue <= MEASURED[name] * HEADROOM, (
        f"{name}: {per_issue:.1f} bytes per issue, budget "
        f"{MEASURED[name] * HEADROOM:.1f}")
