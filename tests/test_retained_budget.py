"""Memory guards that do not depend on the host: what the bytes a run
holds grow by between 30 k and 60 k cycles, per transaction issued in
between, traced by tracemalloc on each benchmark workload's shape (seed
3); and bytes ``load_config`` allocates and still holds per trace
record, on the ``l2_hot_replay`` shape.

What a run keeps (the resources' packed grant logs and the event log)
is kept for the reports, the checks and the read side, and it grows with
the horizon, so per issued transaction it is what peak RSS is made of on
a long run.  A grant costs 26 packed bytes while every value its log
holds fits 32 bits (16 for the slot and the owner), and 50 once one does
not and the log has widened.  The run's fixed state (the build, and the
lines of each L2 set, built at the set's first fill) is mostly in place
by 30 k cycles, so the budget reads what the run adds per issue, not
that state spread over a short run's few issues.  A completed
transaction is not kept: it is counted (``Master.completed``,
``latency_total``, ``latency_max``, ``deadline_misses``) and freed.  The
count is deterministic for one interpreter, so it moves only when what
the run keeps does.  Each ceiling is the value measured when the budget
was set plus 10 %; raising one is a declared change, recorded with the
old and the new value in CHANGES.md.  To re-set a budget after making
the run leaner, run this file with ``-s`` and copy the printed values
into ``MEASURED``.  The values were taken on CPython 3.11.7.

A replayed trace is kept as packed columns (``workload.PackedTrace``):
8 bytes each for the cycle, the address and the size, one for the kind
and one naming the master, plus the arrays' spare room.  The config's
other state is fixed, so the bytes per record fall as the trace grows.
A record kept as a ``TraceRecord`` cost about 165 bytes.

An L2 builds a set's lines at the set's first fill, so one of 2**20
sets of 1024 ways, 2**30 lines, builds and runs under a 1 GB
address-space cap.  A platform's build holds state linear in its
masters apart from the monitor's masters x masters matrices, so 3,000
cores build and run under the same cap.
"""

import gc
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc

import pytest

import socsim
from socsim.config import load_config
from socsim.system import build
from test_kernel import BENCHMARK

# the horizons between which the run's growth per issue is measured
START, END = 30_000, 60_000
# workload -> traced bytes retained per transaction issued between START
# and END, when set
MEASURED = {
    "mix6_quota": 114.9,
    "crowd_mem": 85.2,
    "l2_hot_replay": 28.8,
}
# traced bytes retained by load_config per trace record on l2_hot_replay
# when set
TRACE_MEASURED = 27.8
HEADROOM = 1.10


def retained_bytes_per_issue(system, start: int, end: int) -> float:
    """What the traced bytes a run holds grow by from cycle ``start`` to
    ``end``, per transaction issued in between.  Both readings are taken
    while tracing, so a log reallocated in between counts by what it
    grew, not by its whole new size."""
    gc.collect()
    tracemalloc.start()
    try:
        system.run(start)
        issued = sum(m.issued for m in system.masters)
        # what the run dropped is not retained, cyclic garbage included
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
        system.sim.run(end)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - retained
    finally:
        tracemalloc.stop()
    issued = sum(m.issued for m in system.masters) - issued
    assert issued > 0
    return grown / issued


@pytest.mark.parametrize("name", BENCHMARK.WORKLOADS)
def test_retained_bytes_per_issued_transaction(name, tmp_path):
    system = build(load_config(BENCHMARK.write_inputs(name, 3, END,
                                                      str(tmp_path))))
    per_issue = retained_bytes_per_issue(system, START, END)
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


# builds and runs an L2 of 2**20 sets of 1024 ways under a 1 GB
# address-space cap, and prints what it took
BIG_L2 = textwrap.dedent("""
    import json, resource, time
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))
    from socsim.config import SCHEMA_VERSION, parse_config
    from socsim.system import build
    start = time.perf_counter()
    system = build(parse_config({
        "schema_version": SCHEMA_VERSION,
        "sim": {"cycles": 2000, "seed": 1},
        "masters": {"cores": 2},
        "l2": {"sets": 2 ** 20, "ways": 1024},
        "workloads": [
            {"master": m, "profile": {"pattern": "saturating",
                                      "base": m * 0x100000,
                                      "footprint": 0x200}}
            for m in range(2)]}))
    system.run()
    l2 = system.l2
    print(json.dumps({
        "seconds": time.perf_counter() - start,
        "hits": sum(l2.hits.values()), "misses": sum(l2.misses.values()),
        "rows": sum(type(row) is list for row in l2.lines)}))
""")


def test_l2_builds_a_set_s_lines_at_its_first_fill():
    # built up front, 2**30 lines would take about 150 GB and minutes;
    # each set gets lines of its own only when a fill first installs into
    # it, so the run costs what it touches
    # the child imports the socsim this process tests
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(socsim.__file__)))
    done = subprocess.run([sys.executable, "-c", BIG_L2], capture_output=True,
                          text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    ran = json.loads(done.stdout)
    assert ran["hits"] > 0 and ran["misses"] > 0
    assert 0 < ran["rows"] <= ran["misses"]
    assert ran["seconds"] < 1.0, ran


# builds 3,000 saturating cores with the L2 off under a 1 GB
# address-space cap, runs them for 100 cycles, and prints what the build
# holds besides the monitor's matrices
MANY_MASTERS = textwrap.dedent("""
    import json, resource, sys, time, tracemalloc
    resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))
    from socsim.config import SCHEMA_VERSION, parse_config
    from socsim.system import build
    cores = 3000
    cfg = parse_config({
        "schema_version": SCHEMA_VERSION,
        "sim": {"cycles": 100, "seed": 1},
        "masters": {"cores": cores, "id_bits": 12},
        "l2": {"enabled": False},
        "workloads": [
            {"master": m, "profile": {"pattern": "saturating",
                                      "base": m * 0x100,
                                      "footprint": 0x100}}
            for m in range(cores)]})
    tracemalloc.start()
    start = time.perf_counter()
    system = build(cfg)
    seconds = time.perf_counter() - start
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    matrices = sum(sys.getsizeof(m.counts) + sum(map(sys.getsizeof, m.counts))
                   for m in system.monitor.matrices.values())
    system.run()
    print(json.dumps({
        "seconds": seconds, "per_master": (held - matrices) / cores,
        "issued": sum(m.issued for m in system.masters),
        "granted": len(system.bus.grants)}))
""")


def test_a_platform_builds_in_memory_linear_in_its_master_count():
    # the arbiters and the memory controller keep one slot order each;
    # a scan table per last-granted slot (n + 1 tables of n entries per
    # resource) exhausted the cap at 3,000 cores.  Any table with one
    # 8-byte entry per pair of masters holds 24,000 bytes per master
    # here, so the bound of half that admits no such table besides the
    # matrices; the build held about 4,150 when the bound was set
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(socsim.__file__)))
    done = subprocess.run([sys.executable, "-c", MANY_MASTERS],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    ran = json.loads(done.stdout)
    print(f"3,000 cores: built in {ran['seconds']:.2f} s (traced), "
          f"{ran['per_master']:.0f} bytes per master besides the matrices")
    assert ran["issued"] >= 3000 and ran["granted"] > 0
    assert ran["per_master"] <= 12_000, ran
