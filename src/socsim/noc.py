"""Crossbar interconnect between the cache level, the accelerators and
the downstream devices.

Contention exists only per output port: each port arbitrates over the
ingress entities that can reach it (entity 0 carries the cores' traffic
from the cache level, entities 1..A are the accelerators) and moves one
transaction at a time.  A transfer holds the port for
max(1, ceil(size/width)) cycles unless the port declares an explicit
occupancy table.  Responses travel a dedicated return path with a fixed
latency and never contend.

If the device behind a port refuses a delivery (memory controller FIFO
full) the port stays held until a slot frees.  The extra held cycles are
blamed on the FIFO occupants, not on the port's occupant; waiters at the
port keep accruing against the occupant for the whole held interval
since the port genuinely was unavailable to them.
"""

from __future__ import annotations

from .errors import SimulationError
from .resource import ArbitratedResource
from .transaction import Transaction


def transfer_cycles(size: int, width: int) -> int:
    return max(1, -(-size // width))


class CrossbarPort(ArbitratedResource):
    """One output port: an arbitrated resource (resource.py) over the
    ingress entities, gated for the accelerator entities only, in front
    of a device that may refuse a delivery."""

    def __init__(self, sim, monitor, name: str, base: int, size: int,
                 width: int, entities: list[int], gated, arbiter,
                 occupancy_override: dict[str, int] | None = None,
                 monitored: bool = True, owners: dict[int, int] | None = None):
        # gated: the accelerator entities, each gated by its own stall
        # line; owners: each entity's owner cap (resource.py)
        super().__init__(sim, monitor, f"noc.{name}", entities, gated,
                         arbiter, monitored, owners)
        self.name = name
        self.base = base
        self.size = size
        self.width = width
        self.occupancy_override = occupancy_override or {}
        self.blocked = None     # (t_block, snapshot) while delivery refused
        self.target = None      # device behind the port, set by the builder

    def claims(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size

    def cycles_for(self, kind: str, size: int) -> int:
        if kind in self.occupancy_override:
            return self.occupancy_override[kind]
        return transfer_cycles(size, self.width)

    def max_occupancy(self) -> int:
        """The most of 1, every override and every occupancy granted so
        far, which the memo holds for exactly the granted kinds and sizes."""
        granted = (occ for by_size in self._occupancy_of.values()
                   for occ in by_size.values())
        return max([1, *self.occupancy_override.values(), *granted])

    def arrival(self, txn: Transaction, entity: int, now: int) -> None:
        self.queues[entity].append((txn, now))
        self.poke(now)

    def _occupy(self, entity: int, occ: int, now: int) -> None:
        self.sim.schedule(now + occ, self.rank, self._transfer_done)

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
        # delivered: the port was busy from the grant until now, blocked
        # cycles included, and its waiters are settled after the delivery
        self.busy_cycles += now - self.current[1].t_granted
        self._finish(now)
        self.poke(now)


class Crossbar:
    def __init__(self, sim, routing_latency: int = 1):
        self.sim = sim
        self.routing_latency = routing_latency
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
