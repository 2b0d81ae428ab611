"""The two record layouts of a ``GrantLog``.

A log packs each grant narrow (16-bit slot and owner, 32-bit cycles,
occupancy and uid, 26 bytes) until a value does not fit; it then
re-encodes what it holds into the wide layout (50 bytes), once, and
stays wide.  The layout is invisible to every reader:

* a differential run of each golden platform, each benchmark shape at
  30 k cycles and a platform whose trace crosses cycle 2^31 - 1 mid-run,
  once as shipped and once with every log wide from its first grant,
  must give equal records, registers and output files;
* a log widened by each field in turn, mid-log, must read back as a
  plain list of the same tuples by index, by slice and by iteration,
  and an iterator opened before the widening must see the log as it
  stood.
"""

import struct

import pytest

from socsim import resource
from socsim.config import SCHEMA_VERSION, parse_config
from socsim.report import build_report, write_outputs
from socsim.resource import GrantLog
from socsim.system import build
from socsim.transaction import READ, WRITE
from socsim.verify import run_checks

from test_golden import CASES as GOLDEN_CASES, run_case
from test_kernel import BENCHMARK, _benchmark_system

# the first cycle, occupancy or uid the narrow layout cannot hold, and
# the first slot or owner
CYCLE_EDGE = 2 ** 31
ID_EDGE = 2 ** 15


def crossing_trace() -> str:
    """Two cores and an accelerator: 60 records from cycle 0, then 60
    more from 30 cycles below ``CYCLE_EDGE``, so that grants straddle it."""
    lines = ["# trace-format: v1"]
    for start in (0, CYCLE_EDGE - 30):
        for i in range(60):
            master = i % 3
            lines.append(
                f"{start + i * (7 if start == 0 else 1)} {master} "
                f"{'W' if i % 2 else 'R'} "
                f"0x{master * 0x10000 + i * 64:08x} "
                f"{64 if master == 2 else 8}")
    return "\n".join(lines) + "\n"


# a replay that crosses CYCLE_EDGE; a period of 2^30 keeps the rollovers
# to two, so the run skips the idle 2^31 cycles in a few events
CROSSING = {
    "sim": {"cycles": CYCLE_EDGE + 2000, "seed": 1},
    "masters": {"cores": 2, "accelerators": 1},
    "qos": {"period": 2 ** 30, "quotas": []},
    "trace": "crossing.trace",
}


def _crossing_system(tmp_path):
    (tmp_path / CROSSING["trace"]).write_text(crossing_trace())
    return build(parse_config(dict(CROSSING, schema_version=SCHEMA_VERSION),
                              base_dir=str(tmp_path)))


def _run(kind: str, name: str, tmp_path):
    """Run one platform with the event log on; return the system and its
    output files, name -> bytes."""
    tmp_path.mkdir(parents=True)
    out = tmp_path / "out"
    if kind == "golden":
        system, _hashes = run_case(GOLDEN_CASES[name][0], tmp_path)
    else:
        system = (_crossing_system(tmp_path) if kind == "crossing"
                  else _benchmark_system(name, tmp_path))
        system.run()
        write_outputs(system, build_report(system, run_checks(system)),
                      str(out), log_events=True)
    return system, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _logs(system) -> dict:
    return {res.resource: res.grants
            for res in (system.bus, *system.ports, system.memctrl)}


def _state(system) -> dict:
    """Every resource's records and registers."""
    return {
        **{name: (list(log), list(log.per_owner), list(log.late), log.window)
           for name, log in _logs(system).items()},
        "mem.services": list(system.memctrl.services.items()),
    }


PLATFORMS = [*(("golden", name) for name in sorted(GOLDEN_CASES)),
             *(("benchmark", name) for name in BENCHMARK.WORKLOADS),
             ("crossing", "crossing")]


@pytest.mark.parametrize("kind,name", PLATFORMS)
def test_layouts_give_equal_records_and_outputs(kind, name, tmp_path,
                                                monkeypatch):
    shipped, shipped_files = _run(kind, name, tmp_path / "shipped")
    with monkeypatch.context() as patch:
        patch.setattr(resource, "_NARROW", resource._WIDE)
        wide, wide_files = _run(kind, name, tmp_path / "wide")
    # each run really used the layout it stands for
    narrow_on_exit = {log._layout is resource._NARROW
                      for log in _logs(shipped).values()}
    assert narrow_on_exit == {kind != "crossing"}
    assert all(log._layout is resource._WIDE
               for log in _logs(wide).values())
    assert _state(shipped) == _state(wide)
    assert shipped_files.keys() == wide_files.keys()
    for file_name in shipped_files:
        assert shipped_files[file_name] == wide_files[file_name], file_name


def test_crossing_platform_widens_mid_run(tmp_path):
    system = _crossing_system(tmp_path)
    system.run()
    for name, log in _logs(system).items():
        assert log._layout is resource._WIDE, name
        records = list(log)
        assert records[0].t_request < CYCLE_EDGE, name
        assert records[-1].t_granted >= CYCLE_EDGE, name
    # the bus holds one occupancy at a time, so the first bus grant to
    # end past the edge widened its log through ``complete``
    bus = list(system.bus.grants)
    first = next(i for i, g in enumerate(bus) if g.t_completed >= CYCLE_EDGE)
    assert bus[first].t_granted < CYCLE_EDGE
    assert all(max(g) < CYCLE_EDGE for g in bus[:first])


def _fields(i: int) -> dict:
    """The append arguments of narrow grant ``i``."""
    return {"slot": i % 3, "owner": i % 2, "kind": WRITE if i % 3 else READ,
            "occupancy": 4 + i, "t_request": 10 * i, "t_granted": 10 * i + 2,
            "guard": i % 4 == 0, "uid": 100 + i}


def _as_tuple(fields: dict, t_completed: int) -> tuple:
    return (fields["slot"], fields["owner"], int(fields["kind"] == WRITE),
            fields["guard"], fields["occupancy"], fields["t_request"],
            fields["t_granted"], t_completed, fields["uid"])


def _assert_reads_as(log: GrantLog, expected: list) -> None:
    assert len(log) == len(expected)
    assert list(log) == expected
    assert [log[i] for i in range(len(log))] == expected
    assert [log[i] for i in range(-len(log), 0)] == expected
    assert log[:] == expected
    assert log[1:-1] == expected[1:-1]
    assert log[::2] == expected[::2]
    assert log[::-3] == expected[::-3]


WIDENED_BY = ("slot", "owner", "occupancy", "t_request", "t_granted", "uid",
              "t_completed")


@pytest.mark.parametrize("field", WIDENED_BY)
def test_log_widens_mid_log_by_each_field(field):
    log = GrantLog(ID_EDGE + 1)
    expected = []

    def append(fields, t_completed=None):
        assert log.append(**fields) == len(expected)
        expected.append(_as_tuple(fields, -1))
        if t_completed is not None:
            complete(len(expected) - 1, t_completed)

    def complete(index, t_completed):
        log.complete(index, t_completed)
        rec = expected[index]
        expected[index] = rec[:7] + (t_completed, rec[8])

    for i in range(5):
        append(_fields(i), t_completed=10 * i + 6 if i != 2 else None)
    assert log._layout is resource._NARROW
    stood = list(expected)
    opened = iter(log)
    if field == "t_completed":
        complete(2, CYCLE_EDGE)
    else:
        edge = ID_EDGE if field in ("slot", "owner") else CYCLE_EDGE
        append(dict(_fields(5), **{field: edge}))
    assert log._layout is resource._WIDE
    # records after the widening, and completions of records before it
    for i in range(6, 9):
        append(_fields(i), t_completed=10 * i + 7)
    complete(0, 3)
    complete(len(expected) - 1, CYCLE_EDGE + 1)
    _assert_reads_as(log, expected)
    assert list(opened) == stood
    per_owner = [0] * len(log.per_owner)
    for rec in expected:
        per_owner[rec[1]] += 1
    assert log.per_owner == per_owner


def test_wide_log_refuses_what_no_layout_holds():
    log = GrantLog(2)
    log.append(**_fields(0))
    before = list(log)
    with pytest.raises(struct.error):
        log.append(**dict(_fields(1), t_request=resource.FIELD_MAX + 1))
    assert log._layout is resource._WIDE
    assert list(log) == before
