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

from .arbiter import Arbiter, QUOTA_AWARE
from .bus import OccupancyTable, SharedBus
from .cache import Bridge, L2Cache
from .config import Config
from .errors import SimulationError
from .kernel import Simulator
from .memctrl import MemoryController
from .monitor import ContentionMonitor
from .noc import Crossbar, CrossbarPort, FixedSlave
from .transaction import (ORIGIN_ACCEL, ORIGIN_CORE, ORIGIN_FILL,
                          ORIGIN_WRITEBACK, Transaction)
from .workload import SyntheticStream, TraceRecord, TraceStream


class Master:
    def __init__(self, sim, system, master_id: int, is_core: bool,
                 stream=None, outstanding: int = 1):
        self.sim = sim
        self.system = system
        self.id = master_id
        self.is_core = is_core
        self.rank = sim.register(f"master{master_id}")
        self.stream = stream
        self.outstanding = outstanding
        self.next_index = 0
        self.in_flight = 0
        self.issued = 0
        self.completed = 0
        self.latencies: list[int] = []
        self.active: dict[int, Transaction] = {}
        self._alarm_at: int | None = None

    def start(self) -> None:
        if self.stream is not None:
            self.try_issue(0)

    def try_issue(self, now: int) -> None:
        while self.in_flight < self.outstanding:
            req = self.stream.get(self.next_index)
            if req is None:
                return
            if req.earliest > now:
                self._set_alarm(req.earliest)
                return
            if self.is_core and self.system.bus_register_busy(self.id):
                return      # retried on the bus grant
            self.next_index += 1
            self.in_flight += 1
            self.issued += 1
            self.system.issue_from(self, req, now)

    def _set_alarm(self, at: int) -> None:
        if self._alarm_at is not None and self._alarm_at <= at:
            return
        self._alarm_at = at
        self.sim.schedule(at, self.rank, self._alarm)

    def _alarm(self) -> None:
        self._alarm_at = None
        self.try_issue(self.sim.now)

    def complete(self, txn: Transaction, now: int) -> None:
        txn.t_done = now
        self.active.pop(txn.uid, None)
        self.in_flight -= 1
        self.completed += 1
        self.latencies.append(txn.latency)
        self.try_issue(now)


class System:
    def __init__(self, cfg: Config):
        self.cfg = cfg
        self.sim = Simulator()
        self.events: list[dict] = []
        self._uid = 0
        self.completed_txns: list[Transaction] = []

        n = cfg.n_masters
        streams = self._build_streams(cfg)
        self.masters: list[Master] = []
        for m in range(n):
            stream, outstanding = streams.get(m, (None, 1))
            self.masters.append(Master(
                self.sim, self, m, is_core=m < cfg.cores,
                stream=stream, outstanding=outstanding))

        self.monitor = ContentionMonitor(self.sim, n, period=cfg.period,
                                         log=self.log)
        monitored = set(cfg.monitored if cfg.monitored is not None
                        else cfg.resource_names())

        bus_arbiter = Arbiter(
            list(range(cfg.cores)), policy=cfg.bus_policy,
            guard_window=cfg.guard_window, ranks=cfg.bus_ranks,
            is_exhausted=self._core_exhausted)
        self.bus = SharedBus(
            self.sim, self.monitor, list(range(cfg.cores)),
            OccupancyTable(cfg.bus_read, cfg.bus_write, cfg.bus_sizes),
            bus_arbiter)
        if "bus" not in monitored:
            self.monitor.monitored.discard("bus")

        self.crossbar = Crossbar(self.sim, cfg.routing_latency,
                                 cfg.response_latency)

        if cfg.l2.enabled:
            self.l2 = L2Cache(
                self.sim, self.crossbar, cfg.l2.sets, cfg.l2.ways,
                cfg.l2.line_size, cfg.l2.hit_latency, cfg.l2.partitions,
                cfg.l2.cacheable or [], self.new_txn, self._core_response)
            self.bridge = None
            self.bus.downstream = self.l2
        else:
            self.l2 = None
            self.bridge = Bridge(self.sim, self.crossbar)
            self.bus.downstream = self.bridge

        entities = [0] + [1 + a for a in range(cfg.accelerators)]
        entity_master = {1 + a: cfg.cores + a for a in range(cfg.accelerators)}
        self.ports: list[CrossbarPort] = []
        for spec in cfg.ports:
            arbiter = Arbiter(
                entities, policy=cfg.noc_policy,
                guard_window=cfg.guard_window,
                is_exhausted=self._entity_exhausted(entity_master))
            port = CrossbarPort(
                self.sim, self.monitor, spec.name, spec.base, spec.size,
                spec.width, entities, entity_master, arbiter,
                occupancy_override=spec.occupancy,
                monitored=f"noc.{spec.name}" in monitored)
            self.ports.append(port)
            self.crossbar.add_port(port)

        self.memctrl = MemoryController(
            self.sim, self.monitor, list(range(n)),
            read_latency=cfg.mem_read_latency,
            write_latency=cfg.mem_write_latency,
            fifo_capacity=cfg.fifo_capacity,
            on_done=self._slave_done,
            monitored="mem" in monitored)
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

        for quota in cfg.quotas:
            self.monitor.add_quota(quota)
            if quota.master < cfg.cores:
                self.monitor.add_stall_point(quota.master, self.bus,
                                             quota.master)
            else:
                entity = 1 + (quota.master - cfg.cores)
                for port in self.ports:
                    self.monitor.add_stall_point(quota.master, port, entity)

        self.bus.on_grant = self._bus_granted

    # -- construction helpers -------------------------------------------

    def _build_streams(self, cfg: Config) -> dict:
        streams = {}
        for spec in cfg.workloads:
            streams[spec.master] = (
                SyntheticStream(spec.profile, cfg.seed, spec.master),
                spec.outstanding)
        by_master: dict[int, list[TraceRecord]] = {}
        for rec in cfg.trace_records:
            by_master.setdefault(rec.master, []).append(rec)
        for m in sorted(by_master):
            if m in streams:
                raise SimulationError(
                    f"master {m} has both a trace and a profile")
            # a trace records when each transaction was issued, so the
            # replay must not gate issues on completions; only the
            # per-master bus register limits cores
            records = by_master[m]
            streams[m] = (TraceStream(records, m), len(records))
        return streams

    def _core_exhausted(self, slot: int) -> bool:
        state = self.monitor.quotas.get(slot)
        return state is not None and state.crossed

    def _entity_exhausted(self, entity_master: dict[int, int]):
        def check(entity: int) -> bool:
            master = entity_master.get(entity)
            if master is None:
                return False
            state = self.monitor.quotas.get(master)
            return state is not None and state.crossed
        return check

    # -- runtime plumbing ------------------------------------------------

    def log(self, now: int, kind: str, **fields) -> None:
        self.events.append({"t": now, "kind": kind, **fields})

    def new_txn(self, owner: int, kind: str, addr: int, size: int,
                t_issued: int, origin: str) -> Transaction:
        txn = Transaction(self._uid, owner, kind, addr, size, t_issued,
                          origin=origin)
        self._uid += 1
        return txn

    def bus_register_busy(self, master: int) -> bool:
        return master in self.bus.pending

    def _bus_granted(self, slot: int, now: int) -> None:
        self.masters[slot].try_issue(now)

    def issue_from(self, master: Master, req, now: int) -> None:
        origin = ORIGIN_CORE if master.is_core else ORIGIN_ACCEL
        txn = self.new_txn(master.id, req.kind, req.addr, req.size, now, origin)
        master.active[txn.uid] = txn
        if master.is_core:
            self.bus.issue(txn, master.id, now)
        else:
            # accelerators sit on the crossbar and stamp their own id
            txn.id_value = master.id
            entity = 1 + (master.id - self.cfg.cores)
            self.crossbar.inject(txn, entity, now)

    def _core_response(self, txn: Transaction, now: int) -> None:
        self.completed_txns.append(txn)
        self.masters[txn.owner].complete(txn, now)

    def _slave_done(self, txn: Transaction, now: int) -> None:
        arrival = now + self.cfg.response_latency
        if txn.origin in (ORIGIN_FILL, ORIGIN_WRITEBACK):
            self.sim.schedule(arrival, self.l2.rank,
                              lambda: self._l2_response(txn, arrival))
        else:
            self.sim.schedule(arrival, self.masters[txn.owner].rank,
                              lambda: self._direct_response(txn, arrival))

    def _l2_response(self, txn: Transaction, now: int) -> None:
        txn.t_done = now
        if txn.origin == ORIGIN_FILL:
            self.l2.fill_returned(txn, now)
        # a writeback needs no reply past this point

    def _direct_response(self, txn: Transaction, now: int) -> None:
        self.completed_txns.append(txn)
        self.masters[txn.owner].complete(txn, now)

    # -- running ---------------------------------------------------------

    def run(self, cycles: int | None = None) -> None:
        horizon = cycles if cycles is not None else self.cfg.cycles
        self.monitor.start()
        for master in self.masters:
            master.start()
        self.sim.run(horizon)


def build(cfg: Config) -> System:
    return System(cfg)
