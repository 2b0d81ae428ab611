"""Memory guards that do not depend on the host: bytes a run
allocates and still holds when ``System.run`` returns, per issued
transaction, traced by tracemalloc on each benchmark workload's shape
(seed 3, 30 k cycles); and bytes ``load_config`` allocates and still
holds per trace record, on the ``l2_hot_replay`` shape.

What a run keeps (the resources' packed grant logs and the event log)
is kept for the reports, the checks and the read side, and it grows with
the horizon, so per issued transaction it is what peak RSS is made of on
a long run.  A grant costs 50 packed bytes, so what a run keeps per
issue falls as the horizon grows and the run's fixed state spreads.  A
completed transaction is not kept: it is counted (``Master.completed``,
``latency_total``, ``latency_max``, ``deadline_misses``) and freed.
The count is deterministic for one interpreter, so it moves only when
what the run keeps does.  Each ceiling is the value measured when the budget was set plus 10 %; raising one is a declared
change, recorded with the old and the new value in CHANGES.md.  To
re-set a budget after making the run leaner, run this file with ``-s``
and copy the printed values into ``MEASURED``.  The values were taken
on CPython 3.11.7; 3.12.1 and 3.13.0 give the same values to 0.1 byte,
and 3.10.13 gives values within 3 % of them.

A replayed trace is kept as packed columns (``workload.PackedTrace``):
8 bytes each for the cycle, the address and the size, one for the kind
and one naming the master, plus the arrays' spare room.  The config's
other state is fixed, so the bytes per record fall as the trace grows.
A record kept as a ``TraceRecord`` cost about 165 bytes.
"""

import gc
import tracemalloc

import pytest

from socsim.config import load_config
from test_kernel import BENCHMARK, _benchmark_system

# workload -> traced bytes retained per issued transaction when set
MEASURED = {
    "mix6_quota": 205.0,
    "crowd_mem": 175.4,
    "l2_hot_replay": 78.2,
}
# traced bytes retained by load_config per trace record on l2_hot_replay
# when set
TRACE_MEASURED = 27.8
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


def retained_bytes_per_trace_record(config_path: str) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        cfg = load_config(config_path)
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cfg.trace_records) > 0
    return retained / len(cfg.trace_records)


def test_retained_bytes_per_trace_record(tmp_path):
    per_record = retained_bytes_per_trace_record(BENCHMARK.write_inputs(
        "l2_hot_replay", 3, 30_000, str(tmp_path)))
    print(f"l2_hot_replay: {per_record:.1f} traced bytes retained per "
          f"trace record")
    assert per_record <= TRACE_MEASURED * HEADROOM, (
        f"{per_record:.1f} bytes per trace record, budget "
        f"{TRACE_MEASURED * HEADROOM:.1f}")
