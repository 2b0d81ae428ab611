"""Shared in-order bus connecting the cores to the cache level.

One pending-request register per master, single occupant at a time, no
abort of an occupancy in progress.  When a master requests while the bus
is idle it is granted in the same cycle (the arbiter then sees a
singleton set).  When the occupancy ends, everyone who waited during it
is credited suffered cycles attributed to the occupant's owner, computed
by interval arithmetic rather than per-cycle ticking:

    overlap = t_end - max(t_request, t_granted)

Cycles a waiter spent under its own quota stall are its own fault and go
to the self-inflicted counter instead of the pair matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SimulationError
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


@dataclass(slots=True)
class GrantRecord:
    resource: str
    slot: int
    owner: int
    kind: str
    size: int
    occupancy: int
    t_request: int
    t_granted: int
    guard: bool
    # (slot, owner, t_request, stalled) for every master left waiting,
    # snapshot at grant time; most grants leave nobody waiting and share ()
    waiters: tuple[tuple[int, int, int, bool], ...] = ()
    t_completed: int = -1


class SharedBus:
    name = "bus"

    def __init__(self, sim, monitor, masters: list[int],
                 occupancy: OccupancyTable, arbiter):
        self.sim = sim
        self.monitor = monitor
        self.rank = sim.register(self.name)
        self.masters = list(masters)
        self.occupancy = occupancy
        self.arbiter = arbiter
        self.matrix = monitor.add_resource(self.name)
        self.pending: dict[int, tuple[Transaction, int]] = {}
        self.current: tuple[Transaction, int, int, int, GrantRecord] | None = None
        self.downstream = None          # set by the platform builder
        self.on_grant = None            # optional (slot, now) callback
        self.grants: list[GrantRecord] = []
        self.busy_cycles = 0
        self._wakeup_at: int | None = None

    def issue(self, txn: Transaction, master: int, now: int) -> None:
        if master not in self.masters:
            raise SimulationError(f"master {master} is not attached to the bus")
        if master in self.pending:
            raise SimulationError(
                f"master {master} issued while its request register is full")
        txn.begin_hop(self.name, now)
        self.pending[master] = (txn, now)
        self.poke(now)

    def poke(self, now: int) -> None:
        """Try to start a new occupancy; harmless if busy or empty."""
        if self.current is not None or not self.pending:
            return
        slot = self.arbiter.grant(self.pending.keys(), now)
        if slot is None:
            self._schedule_wakeup(now)
            return
        txn, t_req = self.pending.pop(slot)
        occ = self.occupancy.lookup(txn.kind, txn.size)
        hop = txn.hops[-1]
        hop.t_granted = now
        waiters = ()
        if self.pending:
            waiters = tuple((m, tx.owner, tr, self.arbiter.is_stalled(m))
                            for m, (tx, tr) in sorted(self.pending.items()))
        record = GrantRecord(
            self.name, slot, txn.owner, txn.kind, txn.size, occ,
            t_req, now, self.arbiter.last_was_guard, waiters)
        self.grants.append(record)
        self.current = (txn, slot, now, occ, record)
        self.busy_cycles += occ
        self.sim.schedule(now + occ, self.rank, self._complete)
        if self.on_grant is not None:
            # the request register just freed; its master may refill it
            self.on_grant(slot, now)

    def _schedule_wakeup(self, now: int) -> None:
        # all requesters are stalled; nothing will retrigger arbitration
        # before a guard deadline, so set an alarm for the earliest one
        deadline = self.arbiter.next_guard_deadline(self.pending.keys(), now)
        if deadline is None:
            return
        if self._wakeup_at is not None and self._wakeup_at <= deadline:
            return
        self._wakeup_at = deadline
        self.sim.schedule(deadline, self.rank, self._wakeup)

    def _wakeup(self) -> None:
        self._wakeup_at = None
        self.poke(self.sim.now)

    def _complete(self) -> None:
        now = self.sim.now
        txn, slot, t_granted, occ, record = self.current
        assert now == t_granted + occ, "bus occupancy was aborted"
        hop = txn.hops[-1]
        hop.t_completed = now
        record.t_completed = now

        for m, (tx, t_req) in sorted(self.pending.items()):
            if tx.owner == txn.owner:
                continue    # queued behind itself, not a contention pair
            start = max(t_req, t_granted)
            overlap = now - start
            if overlap <= 0:
                continue
            own_fault = self.monitor.stalled_overlap(m, start, now)
            if overlap - own_fault > 0:
                self.monitor.attribute(now, self.name, txn.owner, tx.owner,
                                       overlap - own_fault)
            if own_fault > 0:
                self.monitor.attribute_self(now, self.name, tx.owner, own_fault)

        self.current = None
        self.downstream.accept(txn, now)
        self.poke(now)
