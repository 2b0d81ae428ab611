"""Contention statistics and quota enforcement.

One instance watches the whole platform.  Resources report every
attributed wait interval here; the monitor folds them into per-resource
causer x sufferer matrices, meters each master's caused cycles against
its programmed quota, and drives the enforcement hardware (interrupt
line or stall line) when a quota is crossed.

Attribution arrives in whole-interval batches, one ``charge`` per
completed occupancy or service, so a crossing is detected at the
completing batch, never mid-occupancy.  That is the "one extra
occupancy" of slack a quota bound has to allow.  The memory controller
writes most of its releases into its matrix row itself, by census
(memctrl.py), and reports each with one ``tally``: only a release that
cannot cross a quota goes that way.  A matrix whose resource defers
charges is flushed by its ``flush`` hook whenever ``counts`` is read.

The matrices are the per-pair contention counters themselves; no log of
the individual charges is kept.  ``attributions`` and
``self_inflicted_events`` count the charged and the self-inflicted
entries, one per positive amount.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter

from .errors import SimulationError

MODE_HW_STALL = "hw_stall"
MODE_INTERRUPT = "interrupt"
MODES = (MODE_HW_STALL, MODE_INTERRUPT)

ACTION_LOG_ONLY = "log_only"
ACTION_THROTTLE = "throttle_source"
ACTIONS = (ACTION_LOG_ONLY, ACTION_THROTTLE)

_ON = itemgetter(0)     # stall span [on, off|None] -> on


class RecordCount:
    """The number of records a log of entries would hold: ``len``."""

    __slots__ = ("n",)

    def __init__(self):
        self.n = 0

    def __len__(self) -> int:
        return self.n


class ContentionMatrix:
    """N x N caused-by x suffered-by cycle counts for one resource.

    ``counts[causer][sufferer]``, a list of N lists of plain ints.  The
    writers write ``rows``, the same lists, and a resource that defers
    some of its charges sets ``flush``, which ``counts`` calls before it
    returns them.
    """

    def __init__(self, n: int):
        self.rows = [[0] * n for _ in range(n)]
        self.flush = None

    @property
    def counts(self) -> list[list[int]]:
        if self.flush is not None:
            self.flush()
        return self.rows

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
    crossed: bool = False
    stalled: bool = False
    crossings: int = 0


class ContentionMonitor:
    def __init__(self, sim, n_masters: int, period: int = 10000,
                 monitored: list[str] | None = None):
        self.sim = sim
        self.rank = sim.register("monitor")
        self.n = n_masters
        self.period = period
        self.events: list[dict] = []    # what ``log`` recorded, in order
        self.matrices: dict[str, ContentionMatrix] = {}
        # the names whose charges meter the quotas; None: every resource
        self._to_monitor = None if monitored is None else set(monitored)
        self.monitored: set[str] = set()    # the added ones among them
        # entries charged to a pair, and entries recorded self-inflicted
        self.attributions = RecordCount()
        self.self_inflicted = [0] * n_masters
        self.self_inflicted_events = RecordCount()
        self.quotas: dict[int, QuotaState] = {}
        # master -> (resource, slot) of each arbiter slot its line gates
        self._stall_points: dict[int, list[tuple[object, int]]] = {}
        self._stall_spans: dict[int, list[list[int | None]]] = {}
        # ever_stalled(master): True once the master's stall line has been
        # raised, for only then can ``stalled_overlap`` be non-zero for it.
        # It is the span dict's own membership test, a call into C, since
        # settlement asks it for every gated waiter
        self.ever_stalled = self._stall_spans.__contains__
        self.period_index = 0
        # caused cycles on monitored resources, current period, per master
        self.used = [0] * n_masters
        # master -> list of per-period caused totals (closed periods)
        self.period_history: dict[int, list[int]] = {
            m: [] for m in range(n_masters)}

    # -- wiring ----------------------------------------------------------

    def add_resource(self, name: str) -> ContentionMatrix:
        if name in self.matrices:
            raise SimulationError(f"duplicate resource name {name!r}")
        mat = ContentionMatrix(self.n)
        self.matrices[name] = mat
        if self._to_monitor is None or name in self._to_monitor:
            self.monitored.add(name)
        return mat

    def add_quota(self, cfg: QuotaConfig) -> None:
        """Program a master's quota once its stall points are registered,
        handing its state to their arbiters (``Arbiter.quota_of``)."""
        state = self.quotas[cfg.master] = QuotaState(cfg)
        for resource, slot in self._stall_points.get(cfg.master, ()):
            resource.arbiter.quota_of[slot] = state

    def add_stall_point(self, master: int, resource, slot: int) -> None:
        """Register the injection arbiter slot a master's stall line gates."""
        self._stall_points.setdefault(master, []).append((resource, slot))

    def start(self) -> None:
        self.sim.schedule(self.period, self.rank, self._rollover)

    def log(self, now: int, kind: str, **fields) -> None:
        self.events.append({"t": now, "kind": kind, **fields})

    # -- attribution -----------------------------------------------------

    def charge(self, now: int, resource: str, causer: int,
               charges) -> None:
        """Charge the waiters of one release at ``resource`` to ``causer``.

        ``charges`` lists ``(sufferer, cycles, self_cycles)`` in ascending
        sufferer order.  Each entry, in order, adds its ``cycles`` to the
        matrix and, on a monitored resource, the causer's quota, firing a
        crossing at the entry that makes it; then records its
        ``self_cycles`` as self-inflicted.  Non-positive amounts are
        skipped, and each positive one is counted once.
        """
        # the row is charged directly: only a positive amount owed to
        # the causer itself is wrong
        row = self.matrices[resource].rows[causer]
        counted = self.attributions
        monitored = resource in self.monitored
        state = self.quotas.get(causer) if monitored else None
        for sufferer, cycles, own in charges:
            if cycles > 0:
                if causer == sufferer:
                    raise SimulationError(
                        f"self-contention is not a pair: master {causer}")
                row[sufferer] += cycles
                counted.n += 1
                if monitored:
                    self.used[causer] += cycles
                    if (state is not None and not state.crossed
                            and self.used[causer] > state.config.limit):
                        self._crossed(now, state)
            if own > 0:
                self.self_inflicted[sufferer] += own
                self.self_inflicted_events.n += 1

    def tally(self, resource: str, causer: int, entries: int,
              cycles: int) -> None:
        """Count a release of ``resource`` whose ``entries`` positive
        charges, ``cycles`` in all, the resource wrote into the causer's
        row itself, and meter them on a monitored resource.  The caller
        has made sure that they do not cross the causer's quota."""
        self.attributions.n += entries
        if resource in self.monitored:
            self.used[causer] += cycles

    def attribute(self, now: int, resource: str, causer: int, sufferer: int,
                  cycles: int) -> None:
        if cycles > 0:
            self.charge(now, resource, causer, ((sufferer, cycles, 0),))

    def attribute_self(self, now: int, resource: str, master: int,
                       cycles: int) -> None:
        """Waiting the master brought on itself by being quota-stalled."""
        if cycles > 0:
            self.charge(now, resource, master, ((master, 0, cycles),))

    # -- stall spans -----------------------------------------------------

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

    def _set_stall(self, now: int, master: int, on: bool, **fields) -> None:
        """Unless it already is, raise (``on``) or release the master's
        stall line at each point it gates; log the change with ``fields``."""
        state = self.quotas[master]
        if state.stalled == on:
            return
        state.stalled = on
        if on:
            self._stall_spans.setdefault(master, []).append([now, None])
        else:
            self._stall_spans[master][-1][1] = now
        points = self._stall_points.get(master, [])
        for resource, slot in points:
            resource.arbiter.set_stall(slot, on, now)
        self.log(now, "stall_asserted" if on else "stall_released",
                 master=master, period=self.period_index, **fields)
        for resource, _slot in points:
            resource.poke(now)

    # -- quota engine ----------------------------------------------------

    def _crossed(self, now: int, state: QuotaState) -> None:
        state.crossed = True
        state.crossings += 1
        cfg = state.config
        if cfg.mode == MODE_HW_STALL:
            # stall line goes up with the crossing itself; it is seen at
            # the next arbitration decision, in-flight occupancy finishes
            self._set_stall(now, cfg.master, True,
                            used=self.used[cfg.master], why="quota")
        else:
            self.log(now, "interrupt_raised", master=cfg.master,
                     period=self.period_index, used=self.used[cfg.master])
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
        self._set_stall(now, master, True, used=self.used[master],
                        why="interrupt")

    def _rollover(self) -> None:
        now = self.sim.now
        for m in range(self.n):
            self.period_history[m].append(self.used[m])
            self.used[m] = 0
        for state in self.quotas.values():
            state.crossed = False
            self._set_stall(now, state.config.master, False)
        self.period_index += 1
        self.log(now, "period_rollover", period=self.period_index)
        self.sim.schedule(now + self.period, self.rank, self._rollover)

    # -- read side -------------------------------------------------------

    def caused_total(self, master: int) -> int:
        return sum(mat.caused_by(master) for mat in self.matrices.values())

    def suffered_total(self, master: int) -> int:
        return sum(mat.suffered_by(master) for mat in self.matrices.values())
