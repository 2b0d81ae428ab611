"""Crossbar interconnect between the cache level, the accelerators and
the downstream devices.

Contention exists only per output port: each port rotates over the
ingress entities that can reach it (entity 0 is the cache/bridge side,
entities 1..A are the accelerators) and moves one transaction at a time.
A transfer holds the port for max(1, ceil(size/width)) cycles unless the
port declares an explicit occupancy table.  Responses travel a dedicated
return path with a fixed latency and never contend.

If the device behind a port refuses a delivery (memory controller FIFO
full) the port stays held until a slot frees.  The extra held cycles are
blamed on the FIFO occupants, not on the port's occupant; waiters at the
port keep accruing against the occupant for the whole held interval
since the port genuinely was unavailable to them.
"""

from __future__ import annotations

from collections import deque

from .errors import SimulationError
from .bus import GrantRecord
from .transaction import Transaction


def transfer_cycles(size: int, width: int) -> int:
    return max(1, -(-size // width))


class CrossbarPort:
    def __init__(self, sim, monitor, name: str, base: int, size: int,
                 width: int, entities: list[int], entity_master: dict[int, int],
                 arbiter, occupancy_override: dict[str, int] | None = None,
                 monitored: bool = True):
        self.sim = sim
        self.monitor = monitor
        self.name = name
        self.resource = f"noc.{name}"
        self.rank = sim.register(self.resource)
        self.base = base
        self.size = size
        self.width = width
        self.entities = list(entities)
        self.entity_master = dict(entity_master)   # accel entities only
        self.arbiter = arbiter
        self.occupancy_override = occupancy_override or {}
        self.matrix = monitor.add_resource(self.resource, monitored=monitored)
        self.queues: dict[int, deque[tuple[Transaction, int]]] = {
            e: deque() for e in self.entities}
        self.current = None     # (txn, entity, t_granted, occ, record, hop)
        self.blocked = None     # (t_block, snapshot) while delivery refused
        self.target = None      # device behind the port, set by the builder
        self.grants: list[GrantRecord] = []
        self.busy_cycles = 0
        self._wakeup_at: int | None = None

    def claims(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size

    def occupancy_of(self, txn: Transaction) -> int:
        if txn.kind in self.occupancy_override:
            return self.occupancy_override[txn.kind]
        return transfer_cycles(txn.size, self.width)

    def arrival(self, txn: Transaction, entity: int, now: int) -> None:
        txn.begin_hop(self.resource, now)
        self.queues[entity].append((txn, now))
        self.poke(now)

    def poke(self, now: int) -> None:
        if self.current is not None or self.blocked is not None:
            return
        requesters = [e for e in self.entities if self.queues[e]]
        if not requesters:
            return
        entity = self.arbiter.grant(requesters, now)
        if entity is None:
            self._schedule_wakeup(requesters, now)
            return
        txn, t_arr = self.queues[entity].popleft()
        occ = self.occupancy_of(txn)
        hop = txn.hops[-1]
        hop.t_granted = now
        waiters = tuple(
            (e, self.queues[e][0][0].owner, self.queues[e][0][1],
             self.arbiter.is_stalled(e))
            for e in requesters if self.queues[e])
        record = GrantRecord(
            self.resource, entity, txn.owner, txn.kind, txn.size, occ,
            t_arr, now, self.arbiter.last_was_guard, waiters)
        self.grants.append(record)
        self.current = (txn, entity, now, occ, record, hop)
        self.sim.schedule(now + occ, self.rank, self._transfer_done)

    def _schedule_wakeup(self, requesters, now: int) -> None:
        deadline = self.arbiter.next_guard_deadline(requesters, now)
        if deadline is None:
            return
        if self._wakeup_at is not None and self._wakeup_at <= deadline:
            return
        self._wakeup_at = deadline
        self.sim.schedule(deadline, self.rank, self._wakeup)

    def _wakeup(self) -> None:
        self._wakeup_at = None
        self.poke(self.sim.now)

    def _transfer_done(self) -> None:
        now = self.sim.now
        txn = self.current[0]
        if self.target.try_accept(txn, now):
            self._release(now)
        else:
            # hold the port; the device will call back as slots free
            self.blocked = (now, self.target.block_snapshot())
            self.target.add_blocked_port(self)

    def retry(self, now: int) -> bool:
        txn = self.current[0]
        if not self.target.try_accept(txn, now):
            return False
        t_block, snapshot = self.blocked
        self.blocked = None
        self.target.blame_blocked(now, txn, t_block, snapshot)
        self._release(now)
        return True

    def _release(self, now: int) -> None:
        # the port's own hop is carried here because delivery may already
        # have appended the downstream hop to the transaction
        txn, entity, t_granted, occ, record, hop = self.current
        hop.t_completed = now
        record.t_completed = now
        self.busy_cycles += now - t_granted

        # settle waiters: one suffered cycle per held cycle per distinct
        # waiting owner, longest overlap standing in for the union since
        # every wait interval ends right here
        best: dict[int, tuple[int, int]] = {}   # owner -> (overlap, entity)
        for e in self.entities:
            for wtxn, t_arr in self.queues[e]:
                overlap = now - max(t_arr, t_granted)
                if overlap <= 0:
                    continue
                prev = best.get(wtxn.owner)
                if prev is None or overlap > prev[0]:
                    best[wtxn.owner] = (overlap, e)
        for owner in sorted(best):
            overlap, e = best[owner]
            if owner == txn.owner:
                continue
            if e in self.entity_master:
                # accel waiting at its own injection point: its stalled
                # stretches are its own doing
                start = now - overlap
                own_fault = self.monitor.stalled_overlap(owner, start, now)
                if overlap - own_fault > 0:
                    self.monitor.attribute(now, self.resource, txn.owner,
                                           owner, overlap - own_fault)
                if own_fault > 0:
                    self.monitor.attribute_self(now, self.resource, owner,
                                                own_fault)
            else:
                self.monitor.attribute(now, self.resource, txn.owner, owner,
                                       overlap)

        self.current = None
        self.poke(now)


class Crossbar:
    def __init__(self, sim, routing_latency: int = 1, response_latency: int = 1):
        self.sim = sim
        self.routing_latency = routing_latency
        self.response_latency = response_latency
        self.ports: list[CrossbarPort] = []

    def add_port(self, port: CrossbarPort) -> None:
        self.ports.append(port)

    def route(self, addr: int) -> CrossbarPort:
        for port in self.ports:
            if port.claims(addr):
                return port
        raise SimulationError(f"no crossbar port claims address 0x{addr:x}")

    def inject(self, txn: Transaction, entity: int, now: int) -> None:
        port = self.route(txn.addr)
        arrive = now + self.routing_latency
        self.sim.schedule(arrive, port.rank,
                          lambda: port.arrival(txn, entity, arrive))


class FixedSlave:
    """Always-ready device with a flat service latency per kind, for
    ports that do not front the memory controller."""

    def __init__(self, sim, name: str, read_latency: int, write_latency: int,
                 on_done):
        self.sim = sim
        self.name = name
        self.rank = sim.register(f"slave.{name}")
        self.latency = {"read": read_latency, "write": write_latency}
        self.on_done = on_done
        self.served = 0

    def try_accept(self, txn: Transaction, now: int) -> bool:
        self.served += 1
        done = now + self.latency[txn.kind]
        self.sim.schedule(done, self.rank, lambda: self.on_done(txn, done))
        return True

    def block_snapshot(self):
        raise SimulationError(f"slave {self.name} never blocks")

    def add_blocked_port(self, port) -> None:
        raise SimulationError(f"slave {self.name} never blocks")
