"""Differential test of the trace scanner against a reference.

``reference_scan`` is the per-line scanner as it was before the C-speed
fast path, verbatim but for the bounds of the packed columns: a cycle
above ``FIELD_MAX`` and an address of 2^64 or more are problems on their
line.  ``workload._scan_trace`` must return the same records and the
same problems for every text: the fast path for each chunk it can vouch
for, the per-line scanner for every other chunk, and for the whole of a
text that is not ASCII or breaks a line other than at \\n.  On long
texts with bad lines anywhere, and on their CRLF copies, it must return
what the per-line scanner returns for the whole text.  Each master's
stream of a parsed trace must serve that master's records of the
reference scan.
"""

import re
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from socsim import workload
from socsim.config import SCHEMA_VERSION
from socsim.resource import FIELD_MAX
from socsim.system import build
from socsim.transaction import READ, WRITE
from socsim.workload import (TraceRecord, _scan_clean, _scan_lines,
                             _scan_trace)

from platforms import draw_platform, drawn, platform_config
from test_golden import CASES as GOLDEN_CASES, _replay_trace
from test_properties import TIER1

_LINE_RE = re.compile(
    r"^\s*(\d+)\s+(\d+)\s+([RW])\s+(0[xX][0-9a-fA-F]+)\s+(\d+)\s*$"
)


def reference_scan(text: str, source: str):
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
        if cycle > FIELD_MAX:
            problems.append(f"{source}:{lineno}: cycle must be <= "
                            f"{FIELD_MAX}, got {cycle}")
            bad = True
        if addr >= 2 ** 64:
            problems.append(f"{source}:{lineno}: address must be <= "
                            f"0xffffffffffffffff, got {m.group(4)!r}")
            bad = True
        if size < 1:
            problems.append(f"{source}:{lineno}: size must be >= 1, got {size}")
            bad = True
        if not bad:
            records.append(TraceRecord(cycle, master, kind, addr, size))
    return records, problems


def assert_same(text: str) -> None:
    assert _scan_trace(text, "t.trace") == reference_scan(text, "t.trace")


def record_parts(steps=(0, 0, 1, 3, 50), kinds="RW", prefixes=("0x", "0X"),
                 sizes=(8, 8, 64, 1, 100), seps=(" ", " ", "  ", "\t", " \t ")):
    """The parts of one record line; the defaults make a good record."""
    return st.tuples(
        st.sampled_from(steps), st.sampled_from(["", "0", "00"]),
        st.integers(0, 12), st.sampled_from(kinds), st.sampled_from(prefixes),
        st.text(alphabet="0123456789abcdefABCDEF", min_size=1, max_size=6),
        st.sampled_from(sizes), st.sampled_from(seps),
        st.sampled_from(["", "", " ", "\t"]),
        st.sampled_from(["", "", " ", "\t", " # note", "#c"]))


# lines of a text the fast path should vouch for
CLEAN_LINES = st.one_of(
    record_parts(), record_parts(), record_parts(),
    st.text(alphabet=" #\tabcxRW019", max_size=10).map(lambda t: "#" + t),
    st.sampled_from(["", " ", "\t", "  \t"]),
)
# lines it must hand on: a record wrong in one field, odd comments, junk
FLAWED_LINES = {
    "backwards": record_parts(steps=(-1, -7)),
    "kind": record_parts(kinds="rwx"),
    "hex-prefix": record_parts(prefixes=("0x_", "0X_", "x")),
    "size-0": record_parts(sizes=(0,)),
    "separator": record_parts(seps=("\x1f", "\xa0", " \x1f")),
    "comment": st.text(max_size=10).map(lambda t: "#" + t),
    "junk": st.text(alphabet="0123456789 xXRW_#-+abfgz\t\x1f\u0663",
                    max_size=12),
}
ODD_BREAKS = ["\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]


@st.composite
def trace_texts(draw, flaw):
    """A clean text, and with ``flaw`` a good record followed somewhere by
    that flawed line, or (flaw "break") by a comment that an odd line
    break must end before the next record."""
    lines = draw(st.lists(CLEAN_LINES, max_size=12))
    breaks = ["\n"] * len(lines)
    if flaw is not None:
        i = draw(st.integers(0, len(lines)))
        if flaw == "break":
            lines[i:i] = [draw(record_parts()), draw(record_parts())]
            breaks[i:i] = [" #" + draw(st.sampled_from(ODD_BREAKS)), "\n"]
        else:
            lines[i:i] = [draw(record_parts()), draw(FLAWED_LINES[flaw])]
            breaks[i:i] = ["\n", "\n"]
    text = render(lines, breaks)
    if draw(st.booleans()):
        text = text.rstrip("\n")
    return text


def render(lines, breaks) -> str:
    """The text of ``lines``, each ended by its break; a line drawn as
    ``record_parts`` is rendered a step after the previous record."""
    cycle = 10      # so a step back always goes backwards
    text = ""
    for line, brk in zip(lines, breaks):
        if isinstance(line, tuple):
            step, zeros, master, kind, prefix, digits, size, sep, lead, tail = line
            cycle += step
            line = lead + sep.join([zeros + str(cycle), str(master), kind,
                                    prefix + digits, str(size)]) + tail
        text += line + brk
    return text


@st.composite
def bad_lines_anywhere(draw):
    """Tens of mostly good lines, with one to four flawed lines at drawn
    places."""
    lines = draw(st.lists(CLEAN_LINES, min_size=20, max_size=80))
    for _ in range(draw(st.integers(1, 4))):
        flaw = draw(st.sampled_from(sorted(FLAWED_LINES)))
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(FLAWED_LINES[flaw]))
    text = render(lines, ["\n"] * len(lines))
    if draw(st.booleans()):
        text = text.rstrip("\n")
    return text


@settings(max_examples=60, deadline=None, derandomize=True)
@given(text=bad_lines_anywhere(), chunk=st.sampled_from([16, 64, 256]))
def test_chunks_scan_as_the_line_scanner_with_bad_lines_anywhere(text,
                                                                 chunk):
    # small chunks, so that a text spans many of them
    with mock.patch.object(workload, "_CHUNK", chunk):
        expected = _scan_lines(text, "t.trace")
        assert _scan_trace(text, "t.trace") == expected
        crlf = text.replace("\n", "\r\n")
        assert _scan_trace(crlf, "t.trace") == expected


@pytest.mark.parametrize("flaw", [None, "break", *FLAWED_LINES])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_scan_matches_reference_on_random_texts(flaw, data):
    assert_same(data.draw(trace_texts(flaw)))


CLEAN = ("# trace-format: v1\n"
         "0 0 R 0x00000000 8\n"
         "\n"
         "\t0\t1 W 0X1F 64   # two masters at cycle 0\n"
         "   \n"
         "007 2 R 0xdeadBEEF 0008\n"
         "9 1 W 0x40 8")


@pytest.mark.parametrize("text", [
    "",
    "\n\n",
    "# only a comment",
    CLEAN,
    CLEAN + "\n",
    "5 0 R 0x10 8#c\n",
    "0 0 R 0x0 8\t\n1 0 W 0x8 8",
    f"0 0 R 0xffffffffffffffff 8\n{FIELD_MAX} 1 W 0x0 8\n",
], ids=["empty", "blank-lines", "comment-only", "clean-no-trailing-newline",
        "clean", "comment-glued-to-size", "tabs", "largest-cycle-and-address"])
def test_clean_texts_take_the_fast_path(text):
    assert _scan_clean(text) is not None
    assert_same(text)


FALLBACK_TEXTS = [
    # each odd break follows a comment, which it must end
    "# c\r\n0 0 R 0x0 8\r\n1 1 W 0x8 8\r\n",
    "# c\r0 0 R 0x0 8\r1 1 W 0x8 8\n",
    "# c\v0 0 R 0x0 8\n",
    "# c\f0 0 R 0x0 8\n",
    "# c\x1c0 0 R 0x0 8\n",
    "# c\x1d0 0 R 0x0 8\n",
    "# c\x1e0 0 R 0x0 8\n",
    "# c\x850 0 R 0x0 8\n",
    "# c\u20280 0 R 0x0 8\n",
    "0\x1f0 R 0x0 8\n# c\x1f1 0 R 0x8 8\n",
    "٣ 0 R 0x0 8\n",
    "0 0 R 0x_1f 8\n",
    "0 0 R 0X1F 8\n0 0 R 0x_1f 8\n",
    "0 0 R 0x0 0\n",
    "9 0 R 0x0 8\ngarbage\n5 0 R 0x0 8\n",
    "9 0 R 0x0 0\n5 0 R 0x0 8\n7 0 R 0x0 8\n",
    "3 0 R 0x0 8\n1 0 R 0x0 8",
    "0 0 R 0x0 8 extra\n",
    "0 0 R\n0x0 8\n",
    "0 0 R 0x0 1000000000000000000\n",
    f"0 0 R 0x0 8\n{FIELD_MAX + 1} 1 R 0x0 8\n2 0 R 0x0 8\n",
    "0 0 R 0x0 8\n1 1 W 0x10000000000000000 8\n",
]
FALLBACK_IDS = [
    "crlf", "cr", "vt", "ff", "fs", "gs", "rs", "nel", "line-sep",
    "unit-sep-is-whitespace", "unicode-digit", "hex-underscore",
    "upper-hex-then-underscore", "size-0", "backwards-after-bad-line",
    "bad-line-advances-last-cycle", "backwards-no-trailing-newline",
    "six-fields", "record-split-over-lines", "size-of-19-digits",
    "cycle-of-2**63", "address-of-2**64"]


@pytest.mark.parametrize("text", FALLBACK_TEXTS, ids=FALLBACK_IDS)
def test_other_texts_fall_back_to_the_line_scanner(text):
    assert _scan_clean(text) is None
    assert_same(text)


@pytest.mark.parametrize("text", FALLBACK_TEXTS, ids=FALLBACK_IDS)
def test_line_scanner_packs_in_batches(text, monkeypatch):
    # a batch boundary after every record, or after every second one
    for batch in (1, 2):
        monkeypatch.setattr(workload, "_BATCH", batch)
        assert_same(text)


def test_fast_path_spans_chunks(monkeypatch):
    monkeypatch.setattr(workload, "_CHUNK", 16)
    lines = [f"{c // 3} {c % 3} {'RW'[c % 2]} 0x{c:x} 8" for c in range(40)]
    text = "# head\n" + "\n".join(lines) + "\n"
    assert _scan_clean(text) is not None
    assert_same(text)
    # a backwards cycle is caught inside a chunk and across chunk ends
    for i in (i for i in range(3, 40) if i % 3):
        back = lines[:i] + [lines[i].replace(f"{i // 3} ", "0 ", 1)] + lines[i + 1:]
        text = "\n".join(back)
        assert _scan_clean(text) is None
        assert_same(text)


def many_masters_text() -> str:
    """2,000 records of 300 masters, in an order of first appearance that
    is not sorted; masters 200-299 first appear after record 1,000."""
    lines = []
    for i in range(2000):
        master = i * 7 % (200 if i < 1000 else 300)
        lines.append(f"{i // 3} {master} {'RW'[i % 2]} 0x{i * 64:x} 8")
    return "\n".join(lines) + "\n"


def assert_same_by_master(text: str) -> None:
    """The scan gives the reference's records and problems, and each
    master's columns hold its records, the masters in order of first
    appearance."""
    assert_same(text)
    records, _problems = _scan_trace(text, "t.trace")
    expected, _problems = reference_scan(text, "t.trace")
    masters = list(dict.fromkeys(r.master for r in expected))
    assert list(records.by_master) == masters
    for master, columns in records.by_master.items():
        assert columns == [r for r in expected if r.master == master]


def test_fast_path_packs_masters_first_seen_in_a_later_chunk(monkeypatch):
    monkeypatch.setattr(workload, "_CHUNK", 256)
    text = many_masters_text()
    assert _scan_clean(text) is not None
    assert_same_by_master(text)


def test_line_scanner_packs_masters_first_seen_in_a_later_batch(
        monkeypatch):
    monkeypatch.setattr(workload, "_BATCH", 7)
    lines = many_masters_text().splitlines()
    # a malformed line and a backwards cycle among the good records
    lines[500:500] = ["garbage"]
    lines[1500:1500] = ["0 250 R 0x0 8"]
    text = "\r\n".join(lines) + "\r\n"
    assert _scan_clean(text) is None
    assert_same_by_master(text)
    assert len(_scan_trace(text, "t.trace")[1]) == 2


def test_values_beyond_a_column_are_problems_on_their_lines():
    text = (f"{FIELD_MAX} 0 R 0xffffffffffffffff 8\n"
            f"{FIELD_MAX + 1} 0 R 0x0 8\n"
            f"{FIELD_MAX + 1} 1 W 0x10000000000000000 8\n")
    records, problems = _scan_trace(text, "t.trace")
    assert records == [TraceRecord(FIELD_MAX, 0, READ, 2 ** 64 - 1, 8)]
    assert problems == [
        f"t.trace:2: cycle must be <= {FIELD_MAX}, got {FIELD_MAX + 1}",
        f"t.trace:3: cycle must be <= {FIELD_MAX}, got {FIELD_MAX + 1}",
        "t.trace:3: address must be <= 0xffffffffffffffff, "
        "got '0x10000000000000000'"]
    assert_same(text)


def assert_streams_serve_the_reference(system, text):
    """Each master's stream serves the reference scan's records of that
    master in file order, by ``get`` and as the master fetches them, and
    then nothing."""
    records, problems = reference_scan(text, "t.trace")
    assert records and not problems
    masters = sorted({r.master for r in records})
    assert sorted(system.cfg.trace_records.by_master) == masters
    for master in masters:
        expected = [r for r in records if r.master == master]
        stream = system.masters[master].stream
        assert [stream.get(i) for i in range(len(expected) + 1)] == [
            *expected, None]
        fetched = iter(stream)
        assert [next(fetched, None) for _ in range(len(expected) + 1)] == [
            *map(tuple, expected), None]
    assert list(system.cfg.trace_records) == records


def test_golden_replay_streams_serve_the_reference_records(tmp_path):
    tree = dict(GOLDEN_CASES["replay"][0], schema_version=SCHEMA_VERSION)
    text = _replay_trace()
    (tmp_path / tree["trace"]).write_text(text)
    system = build(platform_config(tree, None, str(tmp_path)))
    assert_streams_serve_the_reference(system, text)


def test_drawn_platform_streams_serve_the_reference_records():
    traced = 0
    for index in range(TIER1):
        tree, trace = drawn(draw_platform, 0, index)
        if trace is None:
            continue
        traced += 1
        with tempfile.TemporaryDirectory() as directory:
            system = build(platform_config(tree, trace, directory))
        assert_streams_serve_the_reference(system, trace)
    assert traced >= TIER1 // 4
