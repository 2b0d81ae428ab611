import gc
import importlib.util
import os

import pytest

from socsim.config import SCHEMA_VERSION, load_config, parse_config
from socsim.errors import SimulationError
from socsim.kernel import Simulator
from socsim.system import build
from test_golden import CASES as GOLDEN_CASES, _replay_trace


def test_events_fire_in_time_order():
    sim = Simulator()
    rank = sim.register()
    seen = []
    for t in (30, 10, 20):
        sim.schedule(t, rank, lambda t=t: seen.append(t))
    sim.run(100)
    assert seen == [10, 20, 30]


def test_same_cycle_breaks_ties_by_rank():
    sim = Simulator()
    r_a = sim.register("a")
    r_b = sim.register("b")
    seen = []
    sim.schedule(5, r_b, lambda: seen.append("b"))
    sim.schedule(5, r_a, lambda: seen.append("a"))
    sim.run(5)
    assert seen == ["a", "b"]


def test_same_rank_keeps_scheduling_order():
    sim = Simulator()
    rank = sim.register()
    seen = []
    for i in range(5):
        sim.schedule(7, rank, lambda i=i: seen.append(i))
    sim.run(7)
    assert seen == [0, 1, 2, 3, 4]


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    rank = sim.register()
    sim.schedule(10, rank, lambda: sim.schedule(3, rank, lambda: None))
    with pytest.raises(SimulationError):
        sim.run(10)


def test_horizon_is_inclusive():
    sim = Simulator()
    rank = sim.register()
    seen = []
    sim.schedule(10, rank, lambda: seen.append("at"))
    sim.schedule(11, rank, lambda: seen.append("past"))
    sim.run(10)
    assert seen == ["at"]
    assert sim.now == 10
    assert sim.pending() == 1


def test_clock_lands_on_horizon_when_queue_drains():
    sim = Simulator()
    rank = sim.register()
    sim.schedule(3, rank, lambda: None)
    sim.run(50)
    assert sim.now == 50


def test_event_conservation_counters():
    sim = Simulator()
    rank = sim.register()

    def chain(depth):
        if depth:
            sim.schedule(sim.now + 1, rank, lambda: chain(depth - 1))

    sim.schedule(0, rank, lambda: chain(4))
    sim.run(100)
    assert sim.scheduled == 5
    assert sim.processed == 5
    assert sim.pending() == 0


def test_events_can_schedule_at_current_cycle():
    sim = Simulator()
    rank = sim.register()
    seen = []
    sim.schedule(4, rank, lambda: sim.schedule(4, rank, lambda: seen.append("x")))
    sim.run(4)
    assert seen == ["x"]


def test_register_hands_out_consecutive_ranks():
    sim = Simulator()
    assert [sim.register() for _ in range(4)] == [0, 1, 2, 3]


def test_register_keeps_each_name_at_its_rank():
    sim = Simulator()
    assert [sim.register(n) for n in ("master0", "monitor")] == [0, 1]
    assert sim.register() == 2
    assert sim.names == ["master0", "monitor", ""]


def test_platform_names_follow_registration_order():
    from socsim.config import SCHEMA_VERSION, parse_config
    from socsim.system import build

    system = build(parse_config({
        "schema_version": SCHEMA_VERSION,
        "sim": {"cycles": 10},
        "masters": {"cores": 2, "accelerators": 1},
        "noc": {"ports": [
            {"name": "mem", "base": "0x0", "size": "0x10000000"},
            {"name": "dev", "base": "0x10000000", "size": "0x1000"}]},
    }))
    assert system.sim.names == [
        "master0", "master1", "master2", "monitor", "bus", "l2",
        "noc.mem", "noc.dev", "mem", "slave.dev"]
    assert system.sim.names[system.bus.rank] == "bus"


# -- the event loop and the cyclic collector ----------------------------------

def _load_benchmark_workloads():
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCHMARK = _load_benchmark_workloads()


def _golden_system(name, tmp_path):
    tree = dict(GOLDEN_CASES[name][0], schema_version=SCHEMA_VERSION)
    if "trace" in tree:
        (tmp_path / tree["trace"]).write_text(_replay_trace())
    return build(parse_config(tree, base_dir=str(tmp_path)))


def _benchmark_system(name, tmp_path):
    # the benchmark workload's shape, at a small horizon
    return build(load_config(
        BENCHMARK.write_inputs(name, 3, 30_000, str(tmp_path))))


@pytest.mark.parametrize("kind,name", [
    *(("golden", name) for name in sorted(GOLDEN_CASES)),
    *(("benchmark", name) for name in BENCHMARK.WORKLOADS)])
def test_run_leaves_no_cyclic_garbage(kind, name, tmp_path):
    # with the collector off for the whole run, whatever the run drops is
    # freed by reference counting alone or found by the collect below
    system = (_golden_system if kind == "golden" else _benchmark_system)(
        name, tmp_path)
    gc.collect()
    gc.disable()
    try:
        system.run()
        assert system.sim.processed > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_callers_gc_state(enabled):
    seen = []
    sim = Simulator()
    rank = sim.register()
    sim.schedule(3, rank, lambda: seen.append(gc.isenabled()))
    (gc.enable if enabled else gc.disable)()
    try:
        sim.run(10)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    # the run leaves the collector as the caller set it
    assert seen == [enabled]


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_callers_gc_state_when_an_action_raises(enabled):
    sim = Simulator()
    rank = sim.register()

    def fail():
        raise SimulationError("boom")

    sim.schedule(3, rank, fail)
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(SimulationError, match="boom"):
            sim.run(10)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
