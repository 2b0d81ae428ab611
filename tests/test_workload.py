import random

import pytest

from socsim.errors import ConfigError
from socsim.transaction import READ, WRITE
from socsim.workload import (SyntheticProfile, SyntheticStream, TraceRecord,
                             TraceStream, _request_draw, emit_trace,
                             lint_trace, parse_trace, synthetic_request)


def test_trace_round_trip():
    records = [
        TraceRecord(0, 0, READ, 0x0, 8),
        TraceRecord(0, 1, READ, 0x100, 8),
        TraceRecord(3, 0, WRITE, 0x40, 4),
        TraceRecord(9, 2, READ, 0xdeadbeef, 64),
    ]
    assert parse_trace(emit_trace(records)) == records


def test_trace_comments_and_blanks_are_ignored():
    text = "# header\n\n  # indented comment\n5 0 R 0x10 8  # trailing\n"
    assert parse_trace(text) == [TraceRecord(5, 0, READ, 0x10, 8)]


def test_lint_reports_every_problem_with_line_numbers():
    text = "\n".join([
        "0 0 R 0x0 8",
        "garbage line",            # 2: malformed
        "1 0 X 0x0 8",             # 3: bad kind letter
        "2 0 R 0x0 0",             # 4: zero size
        "1 0 R 0x0 8",             # 5: cycle goes backwards (after 2)
    ])
    problems = lint_trace(text, source="t.trc")
    assert len(problems) == 4
    assert any(p.startswith("t.trc:2") for p in problems)
    assert any(p.startswith("t.trc:3") for p in problems)
    assert any(p.startswith("t.trc:4") for p in problems)
    assert any(p.startswith("t.trc:5") for p in problems)


def test_parse_trace_raises_on_problems():
    with pytest.raises(ConfigError) as err:
        parse_trace("nonsense\n")
    assert "nonsense" in str(err.value)


def test_synthetic_request_is_pure():
    profile = SyntheticProfile(pattern="saturating", kind_mix=0.5)
    for index in (0, 17, 4096):
        a = synthetic_request(profile, seed=3, master=1, index=index)
        b = synthetic_request(profile, seed=3, master=1, index=index)
        assert a == b


def test_synthetic_streams_differ_by_seed_and_master():
    profile = SyntheticProfile(kind_mix=0.5)
    kinds_a = [synthetic_request(profile, 1, 0, i).kind for i in range(200)]
    kinds_b = [synthetic_request(profile, 2, 0, i).kind for i in range(200)]
    kinds_c = [synthetic_request(profile, 1, 1, i).kind for i in range(200)]
    assert kinds_a != kinds_b
    assert kinds_a != kinds_c


def test_kind_mix_extremes():
    reads = SyntheticProfile(kind_mix=1.0)
    writes = SyntheticProfile(kind_mix=0.0)
    assert all(synthetic_request(reads, 0, 0, i).kind == READ
               for i in range(50))
    assert all(synthetic_request(writes, 0, 0, i).kind == WRITE
               for i in range(50))


@pytest.mark.parametrize("kind_mix", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("master", [0, 5])
def test_kinds_match_the_seeded_draw(kind_mix, master):
    # the generator behind every kind, written out: request i of a master
    # is a read iff its own seeded draw falls below kind_mix, including
    # at the extremes where no draw is made
    seed = 7
    profile = SyntheticProfile(kind_mix=kind_mix)
    for index in range(2000):
        draw = random.Random(
            (seed * 1000003 + master) * 2654435761 + index).random()
        expected = READ if draw < kind_mix else WRITE
        assert synthetic_request(profile, seed, master, index).kind \
            == expected, index


def test_reseeded_generator_draws_what_a_fresh_one_would():
    # the one reused generator against a fresh random.Random per key, on
    # 10,800 keys built as a synthetic stream builds them, seed 0 and
    # seeds past 64 bits included, drawn out of order
    triples = [(seed, master, index)
               for seed in (0, 1, 7, 2**31 - 1, 2**64 + 3, 10**30)
               for master in (0, 1, 5)
               for index in range(600)]
    random.Random(0).shuffle(triples)
    for seed, master, index in triples:
        fresh = random.Random(
            (seed * 1000003 + master) * 2654435761 + index).random()
        assert _request_draw(seed, master, index) == fresh, (seed, master,
                                                             index)


def test_address_walk_wraps_at_footprint():
    profile = SyntheticProfile(base=0x1000, stride=64, footprint=256)
    addrs = [synthetic_request(profile, 0, 0, i).addr for i in range(6)]
    assert addrs == [0x1000, 0x1040, 0x1080, 0x10c0, 0x1000, 0x1040]


def test_saturating_requests_are_ready_at_phase():
    profile = SyntheticProfile(pattern="saturating", phase=12)
    assert all(synthetic_request(profile, 0, 0, i).cycle == 12
               for i in range(10))


def test_periodic_spacing():
    profile = SyntheticProfile(pattern="periodic", period=50, phase=5)
    assert [synthetic_request(profile, 0, 0, i).cycle
            for i in range(4)] == [5, 55, 105, 155]


def test_bursty_groups_share_a_start():
    profile = SyntheticProfile(pattern="bursty", period=100, burst_len=3)
    cycles = [synthetic_request(profile, 0, 0, i).cycle for i in range(7)]
    assert cycles == [0, 0, 0, 100, 100, 100, 200]


def test_count_limits_the_stream():
    stream = SyntheticStream(SyntheticProfile(count=3), seed=0, master=0)
    assert stream.get(2) is not None
    assert stream.get(3) is None


def test_trace_stream_serves_one_masters_records_in_order():
    records = [
        TraceRecord(0, 0, READ, 0x0, 8),
        TraceRecord(2, 0, WRITE, 0x10, 8),
    ]
    stream = TraceStream(records)
    assert stream.get(0) == records[0]
    assert stream.get(0).addr == 0x0
    assert stream.get(1).kind == WRITE
    assert stream.get(1).cycle == 2
    assert stream.get(2) is None
