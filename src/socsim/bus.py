"""Shared in-order bus connecting the cores to the cache level.

One request register per core, a single occupant at a time, and no abort
of an occupancy in progress.  A request to an idle bus is granted in the
same cycle (the arbiter then sees a singleton set).
"""

from __future__ import annotations

from .errors import SimulationError
from .resource import ArbitratedResource
from .transaction import Transaction


class OccupancyTable:
    """Cycles the bus is held per transaction, by kind with optional
    per-size overrides."""

    def __init__(self, read: int = 5, write: int = 3,
                 sizes: dict[str, dict[int, int]] | None = None):
        self.base = {"read": read, "write": write}
        self.sizes = sizes or {}

    def lookup(self, kind: str, size: int) -> int:
        by_size = self.sizes.get(kind)
        if by_size and size in by_size:
            return by_size[size]
        return self.base[kind]

    def max_occupancy(self) -> int:
        worst = max(self.base.values())
        for by_size in self.sizes.values():
            if by_size:
                worst = max(worst, max(by_size.values()))
        return worst


class SharedBus(ArbitratedResource):
    """The cores' bus: an arbitrated resource (resource.py) whose entities
    are the cores, each queue one deep (the core's request register) and
    gated by that core's stall line, in front of a cache level that
    always accepts."""

    name = "bus"

    def __init__(self, sim, monitor, masters: list[int],
                 occupancy: OccupancyTable, arbiter, monitored: bool = True):
        super().__init__(sim, monitor, self.name, masters, masters, arbiter,
                         monitored)
        self.occupancy = occupancy
        self.downstream = None          # set by the platform builder
        self.on_grant = None            # optional (slot, now) callback

    def occupancy_of(self, txn: Transaction) -> int:
        return self.occupancy.lookup(txn.kind, txn.size)

    def issue(self, txn: Transaction, master: int, now: int) -> None:
        register = self.queues.get(master)
        if register is None:
            raise SimulationError(f"master {master} is not attached to the bus")
        if register:
            raise SimulationError(
                f"master {master} issued while its request register is full")
        register.append((txn, now))
        self.poke(now)

    def _occupy(self, slot: int, occ: int, now: int) -> None:
        # the downstream never refuses, so the whole occupancy is busy
        # time from the grant on, even one still in flight at the horizon
        self.busy_cycles += occ
        self.sim.schedule(now + occ, self.rank, self._complete)
        if self.on_grant is not None:
            # the request register just freed; its master may refill it
            self.on_grant(slot, now)

    def _complete(self) -> None:
        now = self.sim.now
        record = self.current[1]
        assert now == record.t_granted + record.occupancy, \
            "bus occupancy was aborted"
        # waiters are settled before the cache level sees the transaction
        txn = self._finish(now)
        self.downstream.accept(txn, now)
        self.poke(now)
