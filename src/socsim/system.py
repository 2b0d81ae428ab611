"""Builds a platform from a Config and runs it.

Registration order fixes every same-cycle tie break, so it is part of
the model: masters first (cores, then accelerators), then the
statistics unit, then the bus, the cache level, the crossbar ports in
declaration order, the memory controller and finally the other port
devices.  A master's issue therefore lands before any resource decision
in the same cycle, and a stall released at a period boundary is visible
to arbitration happening in that same cycle.
"""

from __future__ import annotations

import itertools

from .arbiter import Arbiter
from .bus import SharedBus
from .cache import L2Cache
from .config import Config
from .kernel import Simulator
from .memctrl import MemoryController
from .monitor import ContentionMonitor, RecordCount
from .noc import Crossbar, CrossbarPort, FixedSlave
from .transaction import (ORIGIN_ACCEL, ORIGIN_CORE, ORIGIN_FILL,
                          ORIGIN_WRITEBACK, Transaction)
from .verify import EVIDENCE_CAP
from .workload import SyntheticStream, TraceStream


class Master:
    def __init__(self, sim, uids, master_id: int, is_core: bool,
                 stream=None, outstanding: int = 1,
                 deadline: int | None = None):
        self.sim = sim
        self.uids = uids            # the platform's one transaction id counter
        self.id = master_id
        self.is_core = is_core
        self.rank = sim.register(f"master{master_id}")
        self.stream = stream
        self._requests = None       # the stream's iterator, from ``start``
        self.outstanding = outstanding
        self.issued = 0
        # the next request, once fetched, read by position: a stream
        # serves TraceRecords or plain tuples of their fields
        self._next_request = None
        self.completed = 0
        # end-to-end latency of the completed transactions: their count
        # is ``completed``
        self.latency_total = 0
        self.latency_max = 0
        # the first EVIDENCE_CAP latencies over ``deadline``, in
        # completion order: the deadline check reads these, judged here
        # and nowhere else
        self.deadline = deadline
        self.deadline_misses: list[int] = []
        self.active: dict[int, Transaction] = {}
        self._alarm_at: int | None = None
        # where issued transactions go, set by System: a core's bus and its
        # register there, or an accelerator's crossbar and its entity there
        self.bus = None
        self.bus_register = None
        self.crossbar = None
        self.entity = None

    def start(self) -> None:
        if self.stream is not None:
            self._requests = iter(self.stream)
            self.try_issue(0)

    def try_issue(self, now: int) -> None:
        while len(self.active) < self.outstanding:
            # a request waiting on the bus register or its cycle is asked
            # for again at every retry; fetch it from the stream once
            req = self._next_request
            if req is None:
                req = self._next_request = next(self._requests, None)
                if req is None:
                    return
            cycle = req[0]
            if cycle > now:
                # one alarm, at the earliest cycle anything asked for
                if self._alarm_at is None or cycle < self._alarm_at:
                    self._alarm_at = cycle
                    self.sim.schedule(cycle, self.rank, self._alarm)
                return
            if self.bus_register:
                return      # retried on the bus grant
            self._next_request = None
            self.issued += 1
            uid = next(self.uids)
            _cycle, _master, kind, addr, size = req
            txn = Transaction(uid, self.id, kind, addr, size, now,
                              ORIGIN_CORE if self.is_core else ORIGIN_ACCEL)
            self.active[uid] = txn
            if self.is_core:
                self.bus.issue(txn, self.id, now)
            else:
                # accelerators sit on the crossbar and stamp their own id
                txn.id_value = self.id
                self.crossbar.inject(txn, self.entity, now)

    def _alarm(self) -> None:
        self._alarm_at = None
        self.try_issue(self.sim.now)

    def complete(self, txn: Transaction, now: int) -> None:
        txn.t_done = now
        self.active.pop(txn.uid, None)
        self.completed += 1
        latency = now - txn.t_issued
        self.latency_total += latency
        if latency > self.latency_max:
            self.latency_max = latency
        deadline = self.deadline
        if deadline is not None and latency > deadline \
                and len(self.deadline_misses) < EVIDENCE_CAP:
            self.deadline_misses.append(latency)
        self.retry(now)

    def retry(self, now: int) -> None:
        """Try to issue, unless the alarm is pending for a later cycle:
        it was set for the very request that would be tried next, so
        that request is not due yet."""
        alarm_at = self._alarm_at
        if alarm_at is None or alarm_at <= now:
            self.try_issue(now)


class System:
    """A platform built from ``cfg``.  A completed transaction is
    counted, not kept: ``completed_txns`` is a ``RecordCount`` whose
    ``len`` is the number of completions, and each master keeps its
    latency counters and deadline evidence."""

    def __init__(self, cfg: Config):
        self.cfg = cfg
        self.sim = Simulator()
        # masters and the cache level draw transaction ids from one counter
        uids = itertools.count()
        self.completed_txns = RecordCount()

        n = cfg.n_masters
        streams = self._build_streams(cfg)
        self.masters: list[Master] = []
        for m in range(n):
            stream, outstanding = streams.get(m, (None, 1))
            self.masters.append(Master(
                self.sim, uids, m, is_core=m < cfg.cores,
                stream=stream, outstanding=outstanding,
                deadline=cfg.deadlines.get(m)))

        self.monitor = ContentionMonitor(self.sim, n, period=cfg.period,
                                         monitored=cfg.monitored)
        self.events = self.monitor.events

        bus_arbiter = Arbiter(
            list(range(cfg.cores)), policy=cfg.bus_policy,
            guard_window=cfg.guard_window, ranks=cfg.bus_ranks)
        self.bus = SharedBus(
            self.sim, self.monitor, list(range(cfg.cores)), bus_arbiter,
            cfg.bus_read, cfg.bus_write, cfg.bus_sizes,
            cfg.starvation_window)
        self.bus.cores = self.masters[:cfg.cores]
        for core in self.bus.cores:
            core.bus = self.bus
            core.bus_register = self.bus.queues[core.id]

        self.crossbar = Crossbar(self.sim, cfg.routing_latency)

        # a disabled cache level caches nothing: every access bypasses
        # to the crossbar with its owner id stamped
        cacheable = (cfg.l2.cacheable or []) if cfg.l2.enabled else []
        self.l2 = L2Cache(
            self.sim, self.crossbar, cfg.l2.sets, cfg.l2.ways,
            cfg.l2.line_size, cfg.l2.hit_latency, cfg.l2.partitions,
            cacheable, uids, self._core_response)
        self.bus.downstream = self.l2

        entities = [0] + [1 + a for a in range(cfg.accelerators)]
        entity_master = {1 + a: cfg.cores + a for a in range(cfg.accelerators)}
        for entity, m in entity_master.items():
            self.masters[m].crossbar = self.crossbar
            self.masters[m].entity = entity
        # entity 0 carries the cores' traffic, each accelerator its own,
        # gated by the accelerator's stall line
        self.ports: list[CrossbarPort] = []
        for spec in cfg.ports:
            arbiter = Arbiter(
                entities, policy=cfg.noc_policy,
                guard_window=cfg.guard_window)
            port = CrossbarPort(
                self.sim, self.monitor, spec.name, spec.base, spec.size,
                spec.width, entities, entity_master, arbiter,
                occupancy_override=spec.occupancy,
                starvation_window=cfg.starvation_window)
            self.ports.append(port)
            self.crossbar.add_port(port)

        self.memctrl = MemoryController(
            self.sim, self.monitor, list(range(n)),
            read_latency=cfg.mem_read_latency,
            write_latency=cfg.mem_write_latency,
            fifo_capacity=cfg.fifo_capacity,
            on_done=self._slave_done,
            starvation_window=cfg.starvation_window)
        self.slaves: list[FixedSlave] = []
        for spec, port in zip(cfg.ports, self.ports):
            if spec.name == cfg.memory_port:
                port.target = self.memctrl
            else:
                slave = FixedSlave(self.sim, spec.name,
                                   spec.device_read_latency,
                                   spec.device_write_latency,
                                   self._slave_done)
                self.slaves.append(slave)
                port.target = slave

        # the resources have registered their stall points
        for quota in cfg.quotas:
            self.monitor.add_quota(quota)

    # -- construction helpers -------------------------------------------

    def _build_streams(self, cfg: Config) -> dict:
        streams = {}
        for spec in cfg.workloads:
            streams[spec.master] = (
                SyntheticStream(spec.profile, cfg.seed, spec.master),
                spec.outstanding)
        for m, records in sorted(cfg.trace_by_master.items()):
            # a trace records when each transaction was issued, so the
            # replay must not gate issues on completions; only the
            # per-master bus register limits cores
            streams[m] = (TraceStream(records), len(records))
        return streams

    # -- runtime plumbing ------------------------------------------------

    def _core_response(self, txn: Transaction, now: int) -> None:
        self.completed_txns.n += 1
        self.masters[txn.owner].complete(txn, now)

    def _slave_done(self, txn: Transaction, now: int) -> None:
        arrival = now + self.cfg.response_latency
        if txn.origin in (ORIGIN_FILL, ORIGIN_WRITEBACK):
            self.sim.schedule(arrival, self.l2.rank,
                              lambda: self._l2_response(txn, arrival))
        else:
            self.sim.schedule(arrival, self.masters[txn.owner].rank,
                              lambda: self._core_response(txn, arrival))

    def _l2_response(self, txn: Transaction, now: int) -> None:
        txn.t_done = now
        if txn.origin == ORIGIN_FILL:
            self.l2.fill_returned(txn, now)
        # a writeback needs no reply past this point

    # -- read side -------------------------------------------------------

    def timeline(self, txn: Transaction) -> list[tuple[str, int, int, int]]:
        """``(resource, requested, granted, done)`` of each traversal of
        ``txn``, in path order: the bus, its crossbar port, the memory
        controller.  Read from the resources' records, so a traversal
        shows once it is granted; ``done`` is -1 while it is in
        progress."""
        uid = txn.uid
        return [(resource.resource, g.t_request, g.t_granted, g.t_completed)
                for resource in (self.bus, *self.ports, self.memctrl)
                for g in resource.grants if g.uid == uid]

    # -- running ---------------------------------------------------------

    def run(self, cycles: int | None = None) -> None:
        horizon = cycles if cycles is not None else self.cfg.cycles
        self.monitor.start()
        for master in self.masters:
            master.start()
        self.sim.run(horizon)


def build(cfg: Config) -> System:
    return System(cfg)
