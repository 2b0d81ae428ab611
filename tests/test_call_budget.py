"""A speed guard that does not depend on the host: Python function calls
and executed bytecodes per issued transaction in ``System.run``, on each
benchmark workload's shape (seed 3, 30 k cycles).  cProfile counts the
calls; a ``sys.settrace`` tracer that takes each frame's opcode events
counts the bytecodes.

Both counts are deterministic, so they move only when the code on the
per-transaction path does.  Each ceiling is the count measured when the
budget was set plus 10 %.  Raising a ceiling is a declared change: the
change that raises it records the old and the new count in CHANGES.md.
To re-set a budget after making the path leaner, run this file as a
script and copy the printed counts into ``MEASURED`` and
``MEASURED_BYTECODES``.  The bytecodes an interpreter executes differ
between Python versions, so ``MEASURED_BYTECODES`` holds the counts of
the one it was measured on, and the bytecode budget is not judged on
another.

Run as a script, ``python3 tests/test_call_budget.py`` prints the cost
readout of each shape, bytecodes and calls per issue; it fails nothing.
Two source trees compare on one interpreter only.  Bytecodes do not see
work done in C (allocation, ``struct`` packing, the collector).
"""

import cProfile
import contextlib
import gc
import sys
import tempfile
import types

import pytest

from test_kernel import BENCHMARK, _benchmark_system

# workload -> Python calls per issued transaction when the budget was set
MEASURED = {
    "mix6_quota": 50.08,
    "crowd_mem": 45.36,
    "l2_hot_replay": 28.74,
}
# workload -> bytecodes executed per issued transaction when the budget
# was set, on the interpreter this names
BYTECODES_MEASURED_ON = (3, 11)
MEASURED_BYTECODES = {
    "mix6_quota": 2305.3,
    "crowd_mem": 1920.5,
    "l2_hot_replay": 1507.8,
}
HEADROOM = 1.10


@contextlib.contextmanager
def _no_gc_callbacks():
    # the collection that ends a run calls whatever sits in gc.callbacks
    # (hypothesis registers one once any of its tests has run); those
    # calls are not the simulator's, so the counts leave them out
    callbacks = gc.callbacks[:]
    gc.callbacks.clear()
    try:
        yield
    finally:
        gc.callbacks[:] = callbacks


def _per_issue(system, count: int) -> float:
    issued = sum(m.issued for m in system.masters)
    assert issued > 0
    return count / issued


def python_calls_per_issue(system) -> float:
    profile = cProfile.Profile()
    with _no_gc_callbacks():
        profile.enable()
        try:
            system.run()
        finally:
            profile.disable()
    # one entry per code object, so functions that share a file, line
    # and name (every dataclass-generated ``__init__``) are each counted;
    # a built-in function's entry holds a description, not a code object
    return _per_issue(system, sum(
        entry.callcount for entry in profile.getstats()
        if isinstance(entry.code, types.CodeType)))


def bytecodes_per_issue(system) -> float:
    executed = 0

    def trace(frame, event, _arg):
        nonlocal executed
        if event == "opcode":
            executed += 1
        elif event == "call":
            frame.f_trace_opcodes = True
        return trace

    with _no_gc_callbacks():
        sys.settrace(trace)
        try:
            system.run()
        finally:
            sys.settrace(None)
    return _per_issue(system, executed)


@pytest.mark.parametrize("name", BENCHMARK.WORKLOADS)
def test_python_calls_per_issued_transaction(name, tmp_path):
    per_issue = python_calls_per_issue(_benchmark_system(name, tmp_path))
    print(f"{name}: {per_issue:.2f} Python calls per issued transaction")
    assert per_issue <= MEASURED[name] * HEADROOM, (
        f"{name}: {per_issue:.2f} calls per issue, budget "
        f"{MEASURED[name] * HEADROOM:.2f}")


@pytest.mark.skipif(
    sys.version_info[:2] != BYTECODES_MEASURED_ON,
    reason="the bytecode budget was measured on another Python")
@pytest.mark.parametrize("name", BENCHMARK.WORKLOADS)
def test_bytecodes_per_issued_transaction(name, tmp_path):
    per_issue = bytecodes_per_issue(_benchmark_system(name, tmp_path))
    print(f"{name}: {per_issue:.1f} bytecodes per issued transaction")
    assert per_issue <= MEASURED_BYTECODES[name] * HEADROOM, (
        f"{name}: {per_issue:.1f} bytecodes per issue, budget "
        f"{MEASURED_BYTECODES[name] * HEADROOM:.1f}")


if __name__ == "__main__":
    for name in BENCHMARK.WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            codes = bytecodes_per_issue(_benchmark_system(name, tmp))
            calls = python_calls_per_issue(_benchmark_system(name, tmp))
        print(f"{name}: {codes:.1f} bytecodes, {calls:.2f} Python calls "
              f"per issued transaction")
