"""Contention statistics and quota enforcement.

One instance watches the whole platform.  Resources report every
attributed wait interval here; the monitor folds them into per-resource
causer x sufferer matrices, meters each master's caused cycles against
its programmed quota, and drives the enforcement hardware (interrupt
line or stall line) when a quota is crossed.

Attribution arrives in whole-interval batches when an occupancy or
service completes, so a crossing is detected at the completing batch,
never mid-occupancy.  That is the "one extra occupancy" of slack a
quota bound has to allow.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

from .errors import SimulationError

MODE_HW_STALL = "hw_stall"
MODE_INTERRUPT = "interrupt"
MODES = (MODE_HW_STALL, MODE_INTERRUPT)

ACTION_LOG_ONLY = "log_only"
ACTION_THROTTLE = "throttle_source"
ACTIONS = (ACTION_LOG_ONLY, ACTION_THROTTLE)

_ON = itemgetter(0)     # stall span [on, off|None] -> on


class ContentionMatrix:
    """N x N caused-by x suffered-by cycle counts for one resource.

    ``counts[causer][sufferer]``, a list of N lists of plain ints.
    """

    def __init__(self, n: int):
        self.counts = [[0] * n for _ in range(n)]

    def add(self, causer: int, sufferer: int, cycles: int) -> None:
        if causer == sufferer:
            raise SimulationError(
                f"self-contention is not a pair: master {causer}")
        if cycles < 0:
            raise SimulationError(f"negative contention interval: {cycles}")
        self.counts[causer][sufferer] += cycles

    def caused_by(self, master: int) -> int:
        return sum(self.counts[master])

    def suffered_by(self, master: int) -> int:
        return sum(row[master] for row in self.counts)

    def total(self) -> int:
        return sum(map(sum, self.counts))


@dataclass
class QuotaConfig:
    master: int
    limit: int
    mode: str = MODE_HW_STALL
    action: str = ACTION_THROTTLE       # interrupt mode only
    handler_latency: int = 200          # interrupt mode only


@dataclass
class QuotaState:
    config: QuotaConfig
    used: int = 0
    crossed: bool = False
    stalled: bool = False
    crossings: int = 0


@dataclass
class _StallPoint:
    resource: object    # has .arbiter and .poke(now)
    slot: int


class ContentionMonitor:
    def __init__(self, sim, n_masters: int, period: int = 10000,
                 log: Callable[..., None] | None = None):
        self.sim = sim
        self.rank = sim.register("monitor")
        self.n = n_masters
        self.period = period
        self.log = log or (lambda now, kind, **fields: None)
        self.matrices: dict[str, ContentionMatrix] = {}
        self.monitored: set[str] = set()
        # raw attribution stream, kept separate from the matrices so the
        # two can be reconciled after a run
        self.attributions: list[tuple[int, str, int, int, int]] = []
        self.self_inflicted = [0] * n_masters
        self.self_inflicted_events: list[tuple[int, str, int, int]] = []
        self.quotas: dict[int, QuotaState] = {}
        self._stall_points: dict[int, list[_StallPoint]] = {}
        self._stall_spans: dict[int, list[list[int | None]]] = {}
        self.period_index = 0
        # caused cycles on monitored resources, current period, per master
        self.used = [0] * n_masters
        # master -> list of per-period caused totals (closed periods)
        self.period_history: dict[int, list[int]] = {
            m: [] for m in range(n_masters)}

    # -- wiring ----------------------------------------------------------

    def add_resource(self, name: str, monitored: bool = True) -> ContentionMatrix:
        if name in self.matrices:
            raise SimulationError(f"duplicate resource name {name!r}")
        mat = ContentionMatrix(self.n)
        self.matrices[name] = mat
        if monitored:
            self.monitored.add(name)
        return mat

    def add_quota(self, cfg: QuotaConfig) -> None:
        self.quotas[cfg.master] = QuotaState(cfg)

    def add_stall_point(self, master: int, resource, slot: int) -> None:
        """Register the injection arbiter slot a master's stall line gates."""
        self._stall_points.setdefault(master, []).append(
            _StallPoint(resource, slot))

    def start(self) -> None:
        self.sim.schedule(self.period, self.rank, self._rollover)

    # -- attribution -----------------------------------------------------

    def attribute(self, now: int, resource: str, causer: int, sufferer: int,
                  cycles: int) -> None:
        if cycles <= 0:
            return
        self.matrices[resource].add(causer, sufferer, cycles)
        self.attributions.append((now, resource, causer, sufferer, cycles))
        if resource in self.monitored:
            self.used[causer] += cycles
            state = self.quotas.get(causer)
            if state is not None:
                state.used += cycles
                if not state.crossed and state.used > state.config.limit:
                    self._crossed(now, state)

    def attribute_self(self, now: int, resource: str, master: int,
                       cycles: int) -> None:
        """Waiting the master brought on itself by being quota-stalled."""
        if cycles <= 0:
            return
        self.self_inflicted[master] += cycles
        self.self_inflicted_events.append((now, resource, master, cycles))

    # -- stall spans -----------------------------------------------------

    def is_stalled(self, master: int) -> bool:
        state = self.quotas.get(master)
        return state is not None and state.stalled

    def stalled_overlap(self, master: int, start: int, end: int) -> int:
        """Cycles of [start, end) spent under this master's own stall.

        A master's spans are disjoint and in time order: a span opens
        only while the master is not stalled and the next release closes
        it.  Every span before the last one that opens at or before
        ``start`` has therefore closed by ``start``, and the walk stops at
        the first span that opens at or after ``end``.  Cost is
        O(log spans + spans overlapping the query), however long the run.
        """
        spans = self._stall_spans.get(master)
        if not spans:
            return 0
        total = 0
        for i in range(max(bisect_right(spans, start, key=_ON) - 1, 0),
                       len(spans)):
            on, off = spans[i]
            if on >= end:
                break
            hi = end if off is None else min(end, off)
            lo = max(start, on)
            if hi > lo:
                total += hi - lo
        return total

    def _assert_stall(self, now: int, master: int, why: str) -> None:
        state = self.quotas[master]
        if state.stalled:
            return
        state.stalled = True
        self._stall_spans.setdefault(master, []).append([now, None])
        for point in self._stall_points.get(master, []):
            point.resource.arbiter.set_stall(point.slot, True, now)
        self.log(now, "stall_asserted", master=master, period=self.period_index,
                 used=state.used, why=why)
        for point in self._stall_points.get(master, []):
            point.resource.poke(now)

    def _release_stall(self, now: int, master: int) -> None:
        state = self.quotas[master]
        if not state.stalled:
            return
        state.stalled = False
        self._stall_spans[master][-1][1] = now
        for point in self._stall_points.get(master, []):
            point.resource.arbiter.set_stall(point.slot, False, now)
        self.log(now, "stall_released", master=master, period=self.period_index)
        for point in self._stall_points.get(master, []):
            point.resource.poke(now)

    # -- quota engine ----------------------------------------------------

    def _crossed(self, now: int, state: QuotaState) -> None:
        state.crossed = True
        state.crossings += 1
        cfg = state.config
        if cfg.mode == MODE_HW_STALL:
            # stall line goes up with the crossing itself; it is seen at
            # the next arbitration decision, in-flight occupancy finishes
            self._assert_stall(now, cfg.master, "quota")
        else:
            self.log(now, "interrupt_raised", master=cfg.master,
                     period=self.period_index, used=state.used)
            if cfg.action == ACTION_THROTTLE:
                raised_in = self.period_index
                self.sim.schedule(
                    now + cfg.handler_latency, self.rank,
                    lambda: self._apply_throttle(cfg.master, raised_in))

    def _apply_throttle(self, master: int, raised_in: int) -> None:
        now = self.sim.now
        if self.period_index != raised_in:
            # the period rolled while the handler was in flight; the
            # master's budget is fresh, so stalling it now would be unjust
            self.log(now, "throttle_dropped", master=master, period=raised_in)
            return
        self.log(now, "throttle_applied", master=master, period=self.period_index)
        self._assert_stall(now, master, "interrupt")

    def _rollover(self) -> None:
        now = self.sim.now
        for m in range(self.n):
            self.period_history[m].append(self.used[m])
            self.used[m] = 0
        for state in self.quotas.values():
            state.used = 0
            state.crossed = False
            if state.stalled:
                self._release_stall(now, state.config.master)
        self.period_index += 1
        self.log(now, "period_rollover", period=self.period_index)
        self.sim.schedule(now + self.period, self.rank, self._rollover)

    # -- read side -------------------------------------------------------

    def caused_total(self, master: int) -> int:
        return sum(mat.caused_by(master) for mat in self.matrices.values())

    def suffered_total(self, master: int) -> int:
        return sum(mat.suffered_by(master) for mat in self.matrices.values())

    def logged_total(self, resource: str) -> int:
        """Sum of the raw attribution stream for one resource."""
        return sum(cycles for (_t, res, _c, _s, cycles) in self.attributions
                   if res == resource)
