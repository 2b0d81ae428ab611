"""Retained-state representation: slotted per-transaction records,
packed grant logs, plain-int contention matrices and reports that
snapshot them."""

import tracemalloc

import pytest

from socsim.config import parse_config, SCHEMA_VERSION
from socsim.kernel import Simulator
from socsim.monitor import ContentionMonitor
from socsim.report import build_report
from socsim.resource import GrantLog
from socsim.system import build
from socsim.transaction import READ, Transaction
from socsim.workload import TraceRecord


def _one_grant():
    log = GrantLog(1)
    log.append(0, 0, READ, 5, 0, 0, False, 0)
    return log[0]


@pytest.mark.parametrize("record", [
    Transaction(0, 0, READ, 0x0, 8, 0),
    _one_grant(),
    TraceRecord(0, 0, READ, 0x0, 8),
], ids=lambda r: type(r).__name__)
def test_retained_records_have_no_instance_dict(record):
    assert not hasattr(record, "__dict__")


def test_grant_log_holds_each_grant_in_its_packed_bytes():
    # every occupancy of every resource keeps one record for the whole
    # run: 26 packed bytes while its values fit the narrow layout, and at
    # most an eighth more while the buffer grows; an object per grant
    # would cost four times that and more
    log = GrantLog(2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(10_000):
            log.append(i % 2, i % 2, READ, 5, i, i, False, i)
        per_grant = (tracemalloc.get_traced_memory()[0] - before) / len(log)
    finally:
        tracemalloc.stop()
    assert per_grant <= 30, f"{per_grant:.1f} bytes per grant"


def test_matrix_holds_plain_ints():
    mon = ContentionMonitor(Simulator(), 3, period=100)
    mat = mon.add_resource("bus")
    for causer, sufferer, cycles in ((0, 1, 4), (0, 2, 1), (2, 1, 3)):
        mon.attribute(9, "bus", causer, sufferer, cycles)
    assert mat.counts == [[0, 4, 1], [0, 0, 0], [0, 3, 0]]
    assert all(type(v) is int for row in mat.counts for v in row)
    assert (mat.caused_by(0), mat.suffered_by(1), mat.total()) == (5, 7, 8)


def test_report_matrices_are_snapshots():
    system = build(parse_config({
        "schema_version": SCHEMA_VERSION,
        "sim": {"cycles": 2000, "seed": 5},
        "masters": {"cores": 2, "accelerators": 1},
        "workloads": [
            {"master": m, "profile": {"pattern": "saturating",
                                      "base": m * 0x100000}}
            for m in range(3)],
    }))
    system.run()
    report = build_report(system)
    before = {name: [row[:] for row in res["matrix"]]
              for name, res in report["resources"].items()}
    assert any(map(any, before["bus"]))
    for mat in system.monitor.matrices.values():
        for row in mat.counts:
            row[:] = [v + 1000 for v in row]
    after = {name: res["matrix"] for name, res in report["resources"].items()}
    assert after == before
