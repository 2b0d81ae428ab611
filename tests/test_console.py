"""The console's exit-code contract: one table, run through one child.

Each row of ``ROWS`` writes its files into an empty directory and runs
``socsim`` there, as ``python -m socsim.cli`` in a child that imports
the socsim this process tests, with its address space capped at the
row's ``cap`` bytes if it has one.  The row then holds if

- the child exits with ``code``;
- each of ``shown`` begins a line of stderr, in that order (one that
  ends with a newline is the whole line);
- none of ``hidden`` is anywhere in stderr;
- stderr is under 4 KB, and of ``lines`` lines if given;
- every file the row wrote is as it wrote it.

A new command line or exit-code case is a row here, never a CI step.
``run_python`` is the child the row runs in; the tests that need a
Python script in a child with a bounded address space use it too.
"""

import os
import resource
import subprocess
import sys
from operator import eq
from typing import NamedTuple

import pytest

import socsim
from socsim import parse_trace
from socsim.errors import quote

from test_kernel import BENCHMARK

# the socsim this process tests: what a child imports by default
SRC = os.path.dirname(os.path.dirname(socsim.__file__))
# the address-space cap of the bounded-memory cases, as ``ulimit -v
# 1000000`` sets it
GB = 1_000_000 * 1024


def run_python(*args, src=SRC, cap=None, cwd=None):
    """``python *args`` in a child that imports the socsim at ``src``,
    its address space capped at ``cap`` bytes if given: the finished
    process, its output in bytes."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, cwd=cwd, timeout=300,
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=None if cap is None else limit)


class Row(NamedTuple):
    files: dict         # name -> text
    argv: list
    code: int
    shown: tuple = ()
    hidden: tuple = ()
    lines: int = None
    cap: int = None


def _validate(text, name="cfg.yaml", **row):
    return Row({name: text}, ["validate", "--config", name], **row)


# PyYAML reads a hex literal of any length; ``str`` refuses an int of
# more than 4300 decimal digits, and ``int`` a decimal that long
HUGE = "0x" + "f" * 5000
LONG_CYCLE = "9" * 5000 + " 0 R 0x0 8\n"
# one past what a packed grant record or trace column holds
BIG = 2 ** 63
# the benchmark's replayed trace at its full horizon, seed 1
TRACE = BENCHMARK.l2_replay_trace(1, BENCHMARK.HORIZONS["l2_hot_replay"])
CRLF = TRACE.replace("\n", "\r\n")
# a malformed line, a backwards cycle, a cycle too long for ``int`` and
# a malformed line of 100,000 characters, after the last line of TRACE
BROKEN_TAIL = ("not a record\n5 0 R 0x0 8\n" + LONG_CYCLE
               + "x" * 100_000 + "\n")
# seven levels of ten aliases each: the value of sim.cycles holds 10**7
# scalars, and its full repr is about 52 MB
ALIASES = "\n".join([
    "schema_version: 1", "anchors:",
    "  - &a0 [" + ", ".join("a" * 10) + "]",
    *(f"  - &a{i} [" + ", ".join([f"*a{i - 1}"] * 10) + "]"
      for i in range(1, 7)),
    "sim: {cycles: *a6}"]) + "\n"
# a request due at 2**63, which no grant record holds
DUE_AT_2_63 = """\
schema_version: 1
masters: {cores: 1}
qos: {period: 4611686018427387904}
workloads: [{master: 0, profile: {pattern: saturating, count: 1, phase: %d}}]
""" % BIG

ROWS = {
    # -- trace-lint ----------------------------------------------------
    "lint-benchmark-trace": Row(
        {"smoke.trace": TRACE}, ["trace-lint", "smoke.trace"], 0, lines=0),
    # the per-line scanner reads what the fast path reads
    "lint-benchmark-trace-crlf": Row(
        {"crlf.trace": CRLF}, ["trace-lint", "crlf.trace"], 0, lines=0),
    "lint-benchmark-trace-broken-tail": Row(
        {"smoke.trace": TRACE + BROKEN_TAIL}, ["trace-lint", "smoke.trace"],
        2, shown=tuple(f"smoke.trace:{len(TRACE.splitlines()) + n}: "
                       for n in range(1, 5))),
    "lint-100000-character-line": Row(
        {"t.trace": "0 0 R 0x0 8\n" + "x" * 100_000 + "\n"},
        ["trace-lint", "t.trace"], 2,
        shown=("t.trace:2: not of the form ",)),
    "oversized-trace-cycle-lint": Row(
        {"t.trace": "0 0 R 0x0 8\n" + LONG_CYCLE}, ["trace-lint", "t.trace"],
        2, shown=("t.trace:2: ",)),
    # -- validate ------------------------------------------------------
    "validate-good": _validate(
        "schema_version: 1\nmasters: {cores: 2}\n", code=0, lines=0),
    "validate-bad": _validate(
        "schema_version: 1\nsim: {cycles: 0}\nmasters: {cores: 2}\n"
        "qos: {monitored: [bus, [mem]]}\n"
        "workloads: [{master: 9, profile: {pattern: saturating}}]\n",
        code=2, shown=("cfg.yaml.sim.cycles: ", "cfg.yaml.qos.monitored: ",
                       "cfg.yaml.workloads[0].master: ")),
    "validate-month-13": _validate(
        "schema_version: 1\nsim: {cycles: 2020-13-45}\n", "month13.yaml",
        code=2, shown=("month13.yaml: not valid YAML: ",), lines=1),
    "validate-aliased-value": _validate(
        ALIASES, "aliases.yaml", code=2, lines=2, shown=(
            "aliases.yaml.anchors: unknown key\n",
            "aliases.yaml.sim.cycles: expected an integer, got [[[[...], ")),
    # the path shows escaped, so no NUL reaches stderr
    "validate-nul-trace-path": _validate(
        'schema_version: 1\ntrace: "a\\0b"\n', code=2, lines=1,
        shown=("cfg.yaml.trace: cannot read './a\\x00b': embedded null byte",),
        hidden=("\0",)),
    "oversized-sim.cycles": _validate(
        "schema_version: 1\nsim: {cycles: -%s}\n" % HUGE,
        code=2, shown=("cfg.yaml.sim.cycles: ",)),
    "oversized-schema_version": _validate(
        "schema_version: -%s\n" % HUGE,
        code=2, shown=("cfg.yaml.schema_version: ",)),
    "oversized-masters.cores": _validate(
        "schema_version: 1\nmasters: {cores: %s}\n" % HUGE,
        code=2, shown=("cfg.yaml.masters.id_bits: ",)),
    "oversized-masters.accelerators": _validate(
        "schema_version: 1\nmasters: {accelerators: %s}\n" % HUGE,
        code=2, shown=("cfg.yaml.masters.id_bits: ",)),
    "oversized-quota.master": _validate(
        "schema_version: 1\nqos: {quotas: [{master: %s, limit: 5}]}\n" % HUGE,
        code=2, shown=("cfg.yaml.qos.quotas[0].master: ",)),
    "oversized-profile.base": _validate(
        "schema_version: 1\n"
        "workloads: [{master: 0, profile: {base: -%s}}]\n" % HUGE,
        code=2, shown=("cfg.yaml.workloads[0].profile.base: ",)),
    "oversized-profile.kind_mix": _validate(
        "schema_version: 1\n"
        "workloads: [{master: 0, profile: {kind_mix: %s}}]\n" % HUGE,
        code=2, shown=("cfg.yaml.workloads[0].profile.kind_mix: ",)),
    "oversized-trace-cycle-validate": Row(
        {"cfg.yaml": "schema_version: 1\ntrace: t.trace\n",
         "t.trace": "0 0 R 0x0 8\n" + LONG_CYCLE},
        ["validate", "--config", "cfg.yaml"], 2, shown=("t.trace:2: ",)),
    # a hex literal of 400 digits, beyond what ``float`` converts
    "kind-mix-beyond-a-float": _validate(
        "schema_version: 1\n"
        "workloads: [{master: 0, profile: {kind_mix: 0x%s}}]\n" % ("f" * 400),
        code=2, shown=("cfg.yaml.workloads[0].profile.kind_mix: ",)),
    # a problem per core without ways would exhaust the cap: the first 64
    # are listed, the rest (the cores less core 0, less those) counted
    "validate-2**200-cores-with-one-partition": _validate(
        "schema_version: 1\nmasters: {cores: 0x%s}\n"
        "l2: {partitions: {0: [0]}}\n" % ("f" * 50),
        code=2, cap=GB, shown=(
            "cfg.yaml.masters.id_bits: ",
            "cfg.yaml.l2.partitions: core 1 has no ways\n",
            f"cfg.yaml.l2.partitions: {quote(16 ** 50 - 1 - 65)} more cores "
            "have no ways\n")),
    # before their maxima, the partition lists of a huge way count and
    # the set table of a huge set count exhausted the cap
    "validate-2**40-l2-ways": _validate(
        "schema_version: 1\nmasters: {cores: 1}\nl2: {ways: 0x10000000000}\n",
        code=2, cap=GB, shown=("cfg.yaml.l2.ways: ",)),
    "run-2**40-l2-sets": Row(
        {"cfg.yaml": "schema_version: 1\nmasters: {cores: 1}\n"
                     "l2: {sets: 0x10000000000}\n"},
        ["run", "--config", "cfg.yaml", "--out", "out"], 2, cap=GB,
        shown=("cfg.yaml.l2.sets: ",)),
    "validate-beyond-packed-fields": Row(
        {"cfg.yaml": f"schema_version: 1\nsim: {{cycles: {BIG}}}\n"
                     f"bus: {{occupancy: {{read: {BIG}}}}}\n"
                     f"memory: {{read_latency: {BIG}}}\n"
                     f"l2: {{line_size: {BIG}}}\ntrace: t.trace\n",
         "t.trace": f"0 0 R 0x0 {BIG}\n1 0 R 0x10000000000000000 8\n"
                    f"{BIG} 0 R 0x0 8\n"},
        ["validate", "--config", "cfg.yaml"], 2, shown=(
            "cfg.yaml.sim.cycles: ", "cfg.yaml.bus.occupancy.read: ",
            "cfg.yaml.l2.line_size: ", "cfg.yaml.memory.read_latency: ",
            "t.trace:1: ", "t.trace:2: ", "t.trace:3: ")),
    # a null count is the default, not a problem
    "validate-profile-with-a-null-count": _validate(
        "schema_version: 1\n"
        "workloads: [{master: 0, profile: {pattern: warp, stride: 0, "
        "count: null}}]\n",
        code=2, hidden=("profile.count",), shown=(
            "cfg.yaml.workloads[0].profile.pattern: ",
            "cfg.yaml.workloads[0].profile.stride: ")),
    # every problem is collected, also of an entry whose master is refused
    "validate-profile-of-a-missing-master": _validate(
        "schema_version: 1\n"
        "workloads: [{master: 9, profile: {stride: 0, pattern: x}}]\n",
        code=2, shown=("cfg.yaml.workloads[0].master: ",
                       "cfg.yaml.workloads[0].profile.pattern: ",
                       "cfg.yaml.workloads[0].profile.stride: ")),
    "validate-quota-with-a-bad-limit-and-master": _validate(
        "schema_version: 1\nqos: {quotas: [{master: 9, limit: -1}]}\n",
        code=2, shown=("cfg.yaml.qos.quotas[0].limit: ",
                       "cfg.yaml.qos.quotas[0].master: ")),
    # -- run -----------------------------------------------------------
    # an existing file cannot be the output directory, and is kept
    "run-out-names-a-file": Row(
        {"cfg.yaml": "schema_version: 1\nsim: {cycles: 500}\n"
                     "masters: {cores: 2}\n",
         "afile": "kept\n"},
        ["run", "--config", "cfg.yaml", "--out", "afile"], 2,
        shown=("--out: cannot write afile: ",), lines=1),
    "run-cycles-beyond-a-grant-record": Row(
        {"cfg.yaml": DUE_AT_2_63},
        ["run", "--config", "cfg.yaml", "--out", "out",
         "--cycles", str(BIG)], 2,
        shown=(f"--cycles: must be <= {BIG - 1}, got {BIG}\n",), lines=1),
}


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS)
def test_console(tmp_path, row):
    for name, text in row.files.items():
        (tmp_path / name).write_bytes(text.encode())
    done = run_python("-m", "socsim.cli", *row.argv, cap=row.cap,
                      cwd=tmp_path)
    err = done.stderr.decode()
    assert done.returncode == row.code, err[-2000:]
    lines = err.splitlines(keepends=True)
    rest = iter(lines)
    for prefix in row.shown:
        assert any(line.startswith(prefix) for line in rest), \
            (prefix, err[-2000:])
    for text in row.hidden:
        assert text not in err
    assert len(done.stderr) < 4096
    assert row.lines is None or len(lines) == row.lines, err[-2000:]
    for name, text in row.files.items():
        assert (tmp_path / name).read_bytes() == text.encode(), name


def test_a_crlf_copy_of_the_benchmark_trace_parses_to_its_records():
    assert "\r" not in TRACE
    lf, crlf = parse_trace(TRACE), parse_trace(CRLF)
    assert len(crlf) == len(lf) and all(map(eq, crlf, lf))
