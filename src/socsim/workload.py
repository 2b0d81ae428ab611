"""Request streams that drive the masters.

Two sources are supported:

* trace files, one request per line in the v1 format::

      <cycle> <master_id> <R|W> <0xHEXADDR> <size_bytes>

  with ``#`` starting a comment and blank lines ignored;

* synthetic profiles, where request ``i`` of a master is a pure function
  of ``(profile, seed, master_id, i)``.  Two runs with the same profile
  and seed produce identical streams no matter how the simulation
  interleaves them.

Both serve the same record, a ``TraceRecord`` named tuple, which a
master issues from its ``cycle`` on.

A trace is scanned in one of two ways, with the same result.  The fast
path vouches for a whole clean text at C speed: the text is ASCII, breaks
lines only at ``\n``, and in each 64 KiB chunk every line, comments
stripped, is blank or one well-formed record (size >= 1, cycles never
going backwards).  Such a chunk is split into tokens once, its columns
are converted with ``map``, and its records are built from the zipped
columns by one more ``map``.  Any text the fast path cannot vouch for
(non-ASCII, ``\r`` or another line break that ``str.splitlines``
honours, a malformed line, a backwards cycle, a size below 1) goes whole
to the per-line scanner, which is the only source of problem messages.
Both run with cyclic garbage collection paused: the records hold no
cycles, and without the pause every few hundred of them would trigger a
collection pass.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

from .errors import ConfigError
from .kernel import gc_paused
from .transaction import READ, WRITE

TRACE_FORMAT = "v1"

PATTERN_SATURATING = "saturating"
PATTERN_PERIODIC = "periodic"
PATTERN_BURSTY = "bursty"
PATTERNS = (PATTERN_SATURATING, PATTERN_PERIODIC, PATTERN_BURSTY)


class TraceRecord(NamedTuple):
    """One request, a trace line or a synthetic one, ready at ``cycle``;
    a master issues it once its outstanding window allows."""

    cycle: int
    master: int
    kind: str   # READ or WRITE
    addr: int
    size: int


_LINE_RE = re.compile(
    r"^\s*(\d+)\s+(\d+)\s+([RW])\s+(0[xX][0-9a-fA-F]+)\s+(\d+)\s*$"
)


def parse_trace(text: str, source: str = "<trace>") -> list[TraceRecord]:
    """Parse a v1 trace.  Raises ConfigError listing every bad line."""
    records, problems = _scan_trace(text, source)
    if problems:
        raise ConfigError(problems)
    return records


def lint_trace(text: str, source: str = "<trace>") -> list[str]:
    """Return all problems found in a trace, empty when clean."""
    _records, problems = _scan_trace(text, source)
    return problems


def _scan_trace(text: str, source: str) -> tuple[list[TraceRecord], list[str]]:
    """Records and problems of a v1 trace, by the fast path when it can
    vouch for the text, else by the per-line scanner."""
    with gc_paused():
        records = _scan_clean(text)
        if records is not None:
            return records, []
        return _scan_lines(text, source)


# the fast path's grammar, for a chunk whose comments are stripped and
# whose tabs are spaces: each line blank or one record with size >= 1
_COMMENT_RE = re.compile(r"#[^\n]*")
_CLEAN_LINE_RE = re.compile(
    r" *\d+ +\d+ +[RW] +0[xX][0-9a-fA-F]+ +0*[1-9]\d* *\n| *\n", re.ASCII)
# the ASCII line breaks of str.splitlines other than \n
_OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e"
_KINDS = {"R": READ, "W": WRITE}
_CHUNK = 1 << 16


def _scan_clean(text: str) -> list[TraceRecord] | None:
    """Records of a text the fast path can vouch for, else None."""
    if not text.isascii() or any(c in text for c in _OTHER_BREAKS):
        return None
    records: list[TraceRecord] = []
    last_cycle = -1
    start, end_of_text = 0, len(text)
    while start < end_of_text:
        # chunks end at a line break, so no line spans two
        end = text.find("\n", start + _CHUNK) + 1 or end_of_text
        chunk = _COMMENT_RE.sub("", text[start:end]).replace("\t", " ")
        if end == end_of_text and not chunk.endswith("\n"):
            chunk += "\n"
        start = end
        if _CLEAN_LINE_RE.sub("", chunk):
            return None
        toks = chunk.split()
        cycles = list(map(int, toks[0::5]))
        if not cycles:
            continue
        if cycles[0] < last_cycle or cycles != sorted(cycles):
            return None
        last_cycle = cycles[-1]
        # built at C speed from the zipped columns, as the generated
        # __new__ would build each record
        records += map(tuple.__new__, repeat(TraceRecord), zip(
            cycles, _few_ints(toks[1::5]), map(_KINDS.__getitem__, toks[2::5]),
            map(int, toks[3::5], repeat(16)), _few_ints(toks[4::5])))
    return records


def _few_ints(tokens: list[str]):
    """The ints of a column with few distinct tokens (masters, sizes),
    converting each distinct token once."""
    value = {tok: int(tok) for tok in set(tokens)}
    return map(value.__getitem__, tokens)


def _scan_lines(text: str, source: str) -> tuple[list[TraceRecord], list[str]]:
    """The per-line scanner: every problem of every line, with its number."""
    records: list[TraceRecord] = []
    problems: list[str] = []
    last_cycle = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if m is None:
            problems.append(
                f"{source}:{lineno}: not of the form "
                f"'<cycle> <master_id> <R|W> <0xHEXADDR> <size_bytes>': {raw.strip()!r}"
            )
            continue
        cycle = int(m.group(1))
        master = int(m.group(2))
        kind = READ if m.group(3) == "R" else WRITE
        addr = int(m.group(4), 16)
        size = int(m.group(5))
        bad = False
        if cycle < last_cycle:
            problems.append(
                f"{source}:{lineno}: cycle {cycle} goes backwards "
                f"(previous record was at {last_cycle})"
            )
            bad = True
        last_cycle = max(last_cycle, cycle)
        if size < 1:
            problems.append(f"{source}:{lineno}: size must be >= 1, got {size}")
            bad = True
        if not bad:
            records.append(TraceRecord(cycle, master, kind, addr, size))
    return records, problems


def emit_trace(records: list[TraceRecord]) -> str:
    """Render records in the v1 format; parse(emit(r)) == r."""
    lines = [f"# trace-format: {TRACE_FORMAT}"]
    for r in records:
        letter = "R" if r.kind == READ else "W"
        lines.append(f"{r.cycle} {r.master} {letter} 0x{r.addr:08x} {r.size}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SyntheticProfile:
    pattern: str = PATTERN_SATURATING
    kind_mix: float = 1.0       # fraction of reads, rest are writes
    base: int = 0
    footprint: int = 4096       # bytes of address range cycled through
    stride: int = 64
    size: int = 8
    count: int | None = None    # total requests, None = unbounded
    period: int = 100           # periodic: gap between requests; bursty: gap between burst starts
    burst_len: int = 4          # bursty only
    phase: int = 0

    def validate(self, where: str = "profile") -> list[str]:
        problems = []
        if self.pattern not in PATTERNS:
            problems.append(f"{where}.pattern: unknown pattern {self.pattern!r}, "
                            f"expected one of {', '.join(PATTERNS)}")
        if not 0.0 <= self.kind_mix <= 1.0:
            problems.append(f"{where}.kind_mix: must be in [0, 1], got {self.kind_mix}")
        for name in ("footprint", "stride", "size"):
            if getattr(self, name) < 1:
                problems.append(f"{where}.{name}: must be >= 1, got {getattr(self, name)}")
        if self.base < 0:
            problems.append(f"{where}.base: must be >= 0, got {self.base}")
        if self.count is not None and self.count < 0:
            problems.append(f"{where}.count: must be >= 0, got {self.count}")
        if self.pattern in (PATTERN_PERIODIC, PATTERN_BURSTY) and self.period < 1:
            problems.append(f"{where}.period: must be >= 1, got {self.period}")
        if self.pattern == PATTERN_BURSTY and self.burst_len < 1:
            problems.append(f"{where}.burst_len: must be >= 1, got {self.burst_len}")
        if self.phase < 0:
            problems.append(f"{where}.phase: must be >= 0, got {self.phase}")
        return problems


def _request_rng(seed: int, master: int, index: int) -> random.Random:
    # independent generator per (seed, master, index) so request i never
    # depends on whether requests 0..i-1 were ever generated
    return random.Random((seed * 1000003 + master) * 2654435761 + index)


def synthetic_request(profile: SyntheticProfile, seed: int, master: int,
                      index: int) -> TraceRecord | None:
    """Request ``index`` of a synthetic stream, or None past ``count``."""
    if profile.count is not None and index >= profile.count:
        return None
    if profile.pattern == PATTERN_SATURATING:
        cycle = profile.phase
    elif profile.pattern == PATTERN_PERIODIC:
        cycle = profile.phase + index * profile.period
    else:  # bursty: burst b starts at phase + b*period, whole burst ready then
        burst = index // profile.burst_len
        cycle = profile.phase + burst * profile.period
    kind_mix = profile.kind_mix
    # random() is in [0, 1), so at kind_mix 0 or 1 the draw cannot change
    # the kind: skip seeding a generator for it
    if kind_mix >= 1.0:
        kind = READ
    elif kind_mix <= 0.0:
        kind = WRITE
    else:
        rng = _request_rng(seed, master, index)
        kind = READ if rng.random() < kind_mix else WRITE
    addr = profile.base + (index * profile.stride) % profile.footprint
    return TraceRecord(cycle, master, kind, addr, profile.size)


class SyntheticStream:
    def __init__(self, profile: SyntheticProfile, seed: int, master: int):
        self.profile = profile
        self.seed = seed
        self.master = master

    def get(self, index: int) -> TraceRecord | None:
        return synthetic_request(self.profile, self.seed, self.master, index)


class TraceStream:
    """One master's records of a trace (``Config.trace_by_master``),
    served as the requests themselves, not copied."""

    def __init__(self, records: list[TraceRecord]):
        self._records = records

    def get(self, index: int) -> TraceRecord | None:
        if index >= len(self._records):
            return None
        return self._records[index]
