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
master issues from its ``cycle`` on.  A master fetches its requests from
its stream's iterator, with no Python call per request but
``synthetic_request``'s, and reads each by position.

A trace is kept packed, not as records: each master's records are four
columns (``TraceColumns``: cycle and size as signed 64-bit ints, address
as an unsigned one, the kind as its letter in one byte), and the whole
trace (``PackedTrace``) adds one byte per record naming the master of
each record in file order, about 27 bytes a record in all, all written
by ``PackedTrace.extend``.  A record is built only when it is read; a
master's trace stream serves plain tuples of the fields, zipped from the
columns at C speed.  A cycle or a size above ``FIELD_MAX``, or an
address of 2^64 or more, does not fit its column: a problem on its line.

A trace is scanned in one of two ways, with the same result.  The fast
path vouches for a whole clean text at C speed: the text is ASCII, breaks
lines only at ``\n``, and in each 64 KiB chunk every line, comments
stripped, is blank or one well-formed record (a size of 1 to 18 digits,
cycles never going backwards).  Such a chunk is split into tokens once,
and its columns are converted with ``map`` and packed whole.  Any text
the fast path cannot vouch for (non-ASCII, ``\r`` or another line break
that ``str.splitlines`` honours, a malformed line, a backwards cycle, a
size below 1 or of 19 digits or more, a number too long to convert, a
cycle or an address too large for its column) goes whole to the per-line
scanner, the only source of problem messages, which packs its good
records 4,096 at a time.
"""

from __future__ import annotations

import random
import re
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import count, islice, repeat
from operator import itemgetter
from typing import NamedTuple

import _random

from .errors import ConfigError, quote
from .resource import FIELD_MAX
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


# a trace record's kind byte, its letter, as the kind it stands for
_KIND_OF = {ord("R"): READ, ord("W"): WRITE}
# the largest address an unsigned 64-bit column holds
ADDR_MAX = 2 ** 64 - 1


class _Records:
    """Records that compare equal to, and show as, their list, so a
    ``Config`` holding them reads as one holding that list."""

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        if not isinstance(other, (list, _Records)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return repr(list(self))


class TraceColumns(_Records):
    """One master's records of a trace, in file order, packed in four
    columns; a record is built when it is read."""

    __slots__ = ("master", "cycles", "kinds", "addrs", "sizes")

    def __init__(self, master: int):
        self.master = master
        self.cycles = array("q")
        self.kinds = bytearray()    # the trace letter, R or W
        self.addrs = array("Q")
        self.sizes = array("q")

    def __len__(self) -> int:
        return len(self.cycles)

    def __getitem__(self, index: int) -> TraceRecord:
        return TraceRecord(self.cycles[index], self.master,
                           _KIND_OF[self.kinds[index]], self.addrs[index],
                           self.sizes[index])

    def __iter__(self):
        # each record built at C speed, as the generated __new__ would
        # build it
        return map(tuple.__new__, repeat(TraceRecord), self.fields())

    def fields(self):
        """Each record's fields in order, as a plain tuple in the order of
        ``TraceRecord``'s, zipped at C speed from the columns: about a
        third of the cost of building the record."""
        return zip(self.cycles, repeat(self.master),
                   map(_KIND_OF.__getitem__, self.kinds), self.addrs,
                   self.sizes)


class PackedTrace(_Records):
    """A trace's records in file order: each master's ``TraceColumns``
    (``by_master``, the masters in order of first appearance), and the
    ordinal of each record's master in that order, one byte a record
    while there are at most 256 masters."""

    __slots__ = ("by_master", "_order")

    def __init__(self):
        self.by_master: dict[int, TraceColumns] = {}
        self._order = array("B")

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self):
        streams = [iter(columns) for columns in self.by_master.values()]
        return map(next, map(streams.__getitem__, self._order))

    def extend(self, cycles: list[int], masters: list[int], kinds: bytes,
               addrs: list[int], sizes: list[int]) -> None:
        """Append records given as columns in file order, each master's
        to its own columns: the only writer of a trace's columns.  A
        value too large for its column raises OverflowError."""
        counts = Counter(masters)   # the masters in order of first appearance
        for master in counts:
            if master not in self.by_master:
                self.by_master[master] = TraceColumns(master)
        if len(self.by_master) > 256 and self._order.typecode == "B":
            self._order = array("L", self._order)
        ordinal = {master: i for i, master in enumerate(self.by_master)}
        self._order.extend(map(ordinal.__getitem__, masters))
        if len(counts) > 1:
            # a stable sort by master puts each master's records together,
            # in file order
            gather = itemgetter(*sorted(range(len(masters)),
                                        key=masters.__getitem__))
            cycles, kinds = gather(cycles), bytes(gather(kinds))
            addrs, sizes = gather(addrs), gather(sizes)
        start = 0
        for master in sorted(counts):
            end = start + counts[master]
            columns = self.by_master[master]
            # an array built from a tuple or a list is sized once and
            # copied in whole, twice as fast as extending item by item
            columns.cycles += array("q", cycles[start:end])
            columns.kinds += kinds[start:end]
            columns.addrs += array("Q", addrs[start:end])
            columns.sizes += array("q", sizes[start:end])
            start = end


_LINE_RE = re.compile(
    r"^\s*(\d+)\s+(\d+)\s+([RW])\s+(0[xX][0-9a-fA-F]+)\s+(\d+)\s*$"
)


def parse_trace(text: str, source: str = "<trace>") -> PackedTrace:
    """Parse a v1 trace.  Raises ConfigError listing every bad line."""
    records, problems = _scan_trace(text, source)
    if problems:
        raise ConfigError(problems)
    return records


def lint_trace(text: str, source: str = "<trace>") -> list[str]:
    """Return all problems found in a trace, empty when clean."""
    _records, problems = _scan_trace(text, source)
    return problems


def _scan_trace(text: str, source: str) -> tuple[PackedTrace, list[str]]:
    """Records and problems of a v1 trace: chunk by chunk, each by the
    fast path where it can vouch for the chunk, else by the per-line
    scanner, which carries the line numbers and the last cycle on.  A
    text that is not ASCII or breaks a line other than at \\n goes whole
    to the per-line scanner."""
    if not _chunkable(text):
        return _scan_lines(text, source)
    records = PackedTrace()
    problems: list[str] = []
    last_cycle = -1
    lines, counted = 0, 0       # the lines before offset ``counted``
    for start, chunk in _chunks(text):
        cycle = _scan_chunk(records, chunk, last_cycle)
        if cycle is None:
            lines += text.count("\n", counted, start)
            counted = start
            cycle = _scan_lines_into(records, problems, chunk, source, lines,
                                     last_cycle)
        last_cycle = cycle
    return records, problems


# the fast path's grammar, for a chunk whose comments are stripped and
# whose tabs are spaces: each line blank or one record with a size from
# 1 to 10**18 - 1, within FIELD_MAX
_COMMENT_RE = re.compile(r"#[^\n]*")
_CLEAN_LINE_RE = re.compile(
    r" *\d+ +\d+ +[RW] +0[xX][0-9a-fA-F]+ +0*[1-9]\d{0,17} *\n| *\n",
    re.ASCII)
# the ASCII line breaks of str.splitlines other than \n
_OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e"
_CHUNK = 1 << 16
# the per-line scanner packs its good records this many at a time
_BATCH = 1 << 12


def _chunkable(text: str) -> bool:
    """Whether ``text`` breaks its lines at \\n alone, so that it splits
    into chunks of whole lines."""
    return text.isascii() and not any(c in text for c in _OTHER_BREAKS)


def _chunks(text: str):
    """``(offset, chunk)`` of each chunk of about ``_CHUNK`` characters,
    each ending at a line break, or at the end of the text: no line spans
    two."""
    start, end_of_text = 0, len(text)
    while start < end_of_text:
        end = text.find("\n", start + _CHUNK) + 1 or end_of_text
        yield start, text[start:end]
        start = end


def _scan_clean(text: str) -> PackedTrace | None:
    """Records of a text the fast path can vouch for whole, else None."""
    if not _chunkable(text):
        return None
    records = PackedTrace()
    last_cycle = -1
    for _start, chunk in _chunks(text):
        last_cycle = _scan_chunk(records, chunk, last_cycle)
        if last_cycle is None:
            return None
    return records


def _scan_chunk(records: PackedTrace, chunk: str,
                last_cycle: int) -> int | None:
    """Pack the records of a chunk the fast path can vouch for, after a
    record at ``last_cycle``, and return the last cycle after it; None,
    and ``records`` as they were, if it cannot vouch for every line."""
    chunk = _COMMENT_RE.sub("", chunk).replace("\t", " ")
    if not chunk.endswith("\n"):
        chunk += "\n"
    if _CLEAN_LINE_RE.sub("", chunk):
        return None
    toks = chunk.split()
    try:
        cycles = list(map(int, toks[0::5]))
        masters = list(_few_ints(toks[1::5]))
    except ValueError:  # a decimal too long for ``int``
        return None
    if not cycles:
        return last_cycle
    if cycles[0] < last_cycle or cycles != sorted(cycles) \
            or cycles[-1] > FIELD_MAX:
        return None
    addrs = list(map(int, toks[3::5], repeat(16)))
    if max(addrs) > ADDR_MAX:
        return None
    records.extend(cycles, masters, "".join(toks[2::5]).encode(), addrs,
                   list(_few_ints(toks[4::5])))
    return cycles[-1]


def _few_ints(tokens: list[str]):
    """The ints of a column with few distinct tokens (masters, sizes),
    converting each distinct token once."""
    value = {tok: int(tok) for tok in set(tokens)}
    return map(value.__getitem__, tokens)


def _scan_lines(text: str, source: str) -> tuple[PackedTrace, list[str]]:
    """The per-line scanner: every problem of every line, with its number."""
    records = PackedTrace()
    problems: list[str] = []
    _scan_lines_into(records, problems, text, source, 0, -1)
    return records, problems


def _scan_lines_into(records: PackedTrace, problems: list[str], text: str,
                     source: str, lines_before: int, last_cycle: int) -> int:
    """Scan ``text`` line by line, after ``lines_before`` lines and a
    record at ``last_cycle``: pack its good records into ``records``,
    append its problems to ``problems``, and return the last cycle."""
    cycles, masters, kinds, addrs, sizes = [], [], bytearray(), [], []
    for lineno, raw in enumerate(text.splitlines(), start=lines_before + 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _LINE_RE.match(line)
        if m is None:
            problems.append(
                f"{source}:{lineno}: not of the form "
                f"'<cycle> <master_id> <R|W> <0xHEXADDR> <size_bytes>': "
                f"{quote(raw.strip())}")
            continue
        try:
            cycle, master, size = map(int, m.group(1, 2, 5))
        except ValueError:  # over ``sys.get_int_max_str_digits()`` digits
            problems.append(f"{source}:{lineno}: a number has too many "
                            f"digits: {quote(raw.strip())}")
            continue
        addr = int(m.group(4), 16)
        bad = False
        if cycle < last_cycle:
            problems.append(
                f"{source}:{lineno}: cycle {cycle} goes backwards "
                f"(previous record was at {last_cycle})"
            )
            bad = True
        last_cycle = max(last_cycle, cycle)
        if cycle > FIELD_MAX:
            problems.append(f"{source}:{lineno}: cycle must be <= "
                            f"{FIELD_MAX}, got {quote(cycle)}")
            bad = True
        if addr > ADDR_MAX:
            problems.append(f"{source}:{lineno}: address must be <= "
                            f"{ADDR_MAX:#x}, got {quote(m.group(4))}")
            bad = True
        if size < 1:
            problems.append(f"{source}:{lineno}: size must be >= 1, got {size}")
            bad = True
        elif size > FIELD_MAX:
            problems.append(f"{source}:{lineno}: size must be <= "
                            f"{FIELD_MAX}, got {quote(size)}")
            bad = True
        if not bad:
            cycles.append(cycle)
            masters.append(master)
            kinds.append(ord(m.group(3)))
            addrs.append(addr)
            sizes.append(size)
            if len(cycles) == _BATCH:
                records.extend(cycles, masters, kinds, addrs, sizes)
                del cycles[:], masters[:], kinds[:], addrs[:], sizes[:]
    records.extend(cycles, masters, kinds, addrs, sizes)
    return last_cycle


def emit_trace(records: list[TraceRecord]) -> str:
    """Render records in the v1 format; parse(emit(r)) == r."""
    lines = [f"# trace-format: {TRACE_FORMAT}"]
    for r in records:
        letter = "R" if r.kind == READ else "W"
        lines.append(f"{r.cycle} {r.master} {letter} 0x{r.addr:08x} {r.size}")
    return "\n".join(lines) + "\n"


@dataclass
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


# one generator, reseeded for every draw instead of built per request;
# no state of it outlives a draw.  It is seeded by the C seed: for an int
# key, ``random.Random.seed`` only forwards the key to it (and clears
# ``gauss_next``, which ``random()`` never reads)
_GEN = random.Random()
_seed = _random.Random.seed


def _request_draw(seed: int, master: int, index: int) -> float:
    """The one random number of request ``index``: ``random()`` of a
    generator seeded by (seed, master, index) alone, so request i never
    depends on whether requests 0..i-1 were ever generated.  For an int
    key, ``seed`` then ``random`` gives the number a fresh
    ``random.Random(key)`` would."""
    _seed(_GEN, (seed * 1000003 + master) * 2654435761 + index)
    return _GEN.random()


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
    # the kind: skip the draw
    if kind_mix >= 1.0:
        kind = READ
    elif kind_mix <= 0.0:
        kind = WRITE
    else:
        kind = READ if _request_draw(seed, master, index) < kind_mix else WRITE
    addr = profile.base + (index * profile.stride) % profile.footprint
    return TraceRecord(cycle, master, kind, addr, profile.size)


class SyntheticStream:
    def __init__(self, profile: SyntheticProfile, seed: int, master: int):
        self.profile = profile
        self.seed = seed
        self.master = master

    def get(self, index: int) -> TraceRecord | None:
        return synthetic_request(self.profile, self.seed, self.master, index)

    def __iter__(self):
        """The requests in order, each built when it is fetched, with no
        Python call but ``synthetic_request``'s."""
        p = self.profile
        return islice(map(synthetic_request, repeat(p), repeat(self.seed),
                          repeat(self.master), count()), p.count)


class TraceStream:
    """One master's records of a trace (``PackedTrace.by_master``),
    served in file order."""

    def __init__(self, records: TraceColumns):
        self._records = records

    def get(self, index: int) -> TraceRecord | None:
        if index >= len(self._records):
            return None
        return self._records[index]

    def __iter__(self):
        """The records' fields in order, as plain tuples: a master reads
        a request by position, and builds no record."""
        return self._records.fields()
