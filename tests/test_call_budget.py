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
Two source trees compare on one interpreter only:
``python3 tests/test_call_budget.py --base BASE_SRC`` runs the readout
for the ``src`` directory ``BASE_SRC`` and for this tree's ``src``, each
in a child process on this interpreter, prints both, and exits 1 if the
bytecodes per issue rise by more than ``COMPARE_TOLERANCE`` on any shape.
Bytecodes do not see work done in C (allocation, ``struct`` packing, the
collector).
"""

import argparse
import cProfile
import contextlib
import gc
import os
import re
import subprocess
import sys
import tempfile
import types

import pytest

from test_kernel import BENCHMARK, _benchmark_system

# workload -> Python calls per issued transaction when the budget was set
MEASURED = {
    "mix6_quota": 50.02,
    "crowd_mem": 45.34,
    "l2_hot_replay": 27.89,
}
# workload -> bytecodes executed per issued transaction when the budget
# was set, on the interpreter this names
BYTECODES_MEASURED_ON = (3, 11)
MEASURED_BYTECODES = {
    "mix6_quota": 2302.8,
    "crowd_mem": 1919.8,
    "l2_hot_replay": 1481.2,
}
HEADROOM = 1.10
# the rise in bytecodes per issue over the base tree that --base allows
COMPARE_TOLERANCE = 0.01
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
_READOUT = re.compile(r"^(\w+): ([\d.]+) bytecodes, ([\d.]+) Python calls",
                      re.MULTILINE)


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


def readout() -> None:
    """Print where socsim comes from, then each shape's cost per issue."""
    import socsim
    print(f"socsim from {os.path.dirname(socsim.__file__)}")
    for name in BENCHMARK.WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            codes = bytecodes_per_issue(_benchmark_system(name, tmp))
            calls = python_calls_per_issue(_benchmark_system(name, tmp))
        print(f"{name}: {codes:.1f} bytecodes, {calls:.2f} Python calls "
              f"per issued transaction")


def child_readout(src: str) -> dict[str, float]:
    """Print the readout of socsim from ``src``, run in a child process on
    this interpreter, and return its bytecodes per issue by shape."""
    src = os.path.abspath(src)
    out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                         env=dict(os.environ, PYTHONPATH=src), check=True,
                         capture_output=True, text=True).stdout
    print(out, end="")
    first = out.splitlines()[0]
    assert first.startswith(f"socsim from {src}{os.sep}"), first
    return {name: float(codes) for name, codes, _ in _READOUT.findall(out)}


def compare(base_src: str) -> int:
    """Compare the readouts of ``base_src`` and of this tree's ``src``;
    1 if the bytecodes per issue rise beyond the tolerance on a shape."""
    print(f"base, {base_src}:")
    base = child_readout(base_src)
    print(f"head, {SRC}:")
    head = child_readout(SRC)
    assert set(base) == set(head) == set(BENCHMARK.WORKLOADS), (base, head)
    risen = []
    for name in BENCHMARK.WORKLOADS:
        change = head[name] / base[name] - 1
        print(f"{name}: bytecodes per issue {base[name]:.1f} -> "
              f"{head[name]:.1f} ({change:+.2%})")
        if change > COMPARE_TOLERANCE:
            risen.append(name)
    if risen:
        print(f"bytecodes per issue rose by more than "
              f"{COMPARE_TOLERANCE:.0%} on {', '.join(risen)}")
        return 1
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", metavar="BASE_SRC",
                        help="compare with the socsim sources in BASE_SRC")
    args = parser.parse_args()
    if args.base is None:
        readout()
    else:
        sys.exit(compare(args.base))
