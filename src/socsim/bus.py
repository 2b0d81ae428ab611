"""Shared in-order bus connecting the cores to the cache level.

One request register per core, a single occupant at a time, and no abort
of an occupancy in progress.  A request to an idle bus is granted in the
same cycle (the arbiter then sees a singleton set).

Under a fixed-priority arbiter the bus also judges each grant as it
makes it, as a statistics unit counts in hardware: passing over a
better-ranked head, not stalled, that has waited longer than the longest
occupancy is a priority inversion, unless the grant is a guard grant.
The first ``EVIDENCE_CAP`` are kept in ``inversions``.
"""

from __future__ import annotations

from .arbiter import FIXED_PRIORITY
from .errors import SimulationError
from .resource import ArbitratedResource
from .transaction import READ, Transaction
from .verify import EVIDENCE_CAP


class SharedBus(ArbitratedResource):
    """The cores' bus: an arbitrated resource (resource.py) whose entities
    are the cores, each queue one deep (the core's request register) and
    gated by that core's stall line, in front of a cache level that
    always accepts.  A transaction holds it ``read`` or ``write`` cycles
    by kind, unless ``sizes`` gives that kind's size its own count."""

    name = "bus"

    def __init__(self, sim, monitor, masters: list[int], arbiter,
                 read: int = 5, write: int = 3,
                 sizes: dict[str, dict[int, int]] | None = None,
                 monitored: bool = True):
        # a register holds one request, so its owner cap is 1
        super().__init__(sim, monitor, self.name, masters, masters, arbiter,
                         monitored, owners=dict.fromkeys(masters, 1))
        self.read = read
        self.write = write
        self.sizes = sizes or {}
        self.downstream = None          # set by the platform builder
        self.on_grant = None            # optional (slot, now) callback
        # judged under the ranks and the tables the bus was built with
        self.inversions: list[dict] = []
        self._ranks = None
        if arbiter.policy == FIXED_PRIORITY:
            self._ranks = {m: arbiter.ranks.get(m, m) for m in masters}
            self._longest = self.max_occupancy()

    def cycles_for(self, kind: str, size: int) -> int:
        by_size = self.sizes.get(kind)
        if by_size and size in by_size:
            return by_size[size]
        return self.read if kind == READ else self.write

    def max_occupancy(self) -> int:
        """The longest occupancy the tables give any transaction."""
        return max(self.read, self.write,
                   *(occ for by_size in self.sizes.values()
                     for occ in by_size.values()))

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
        if self._ranks is not None:
            self._judge(slot, now)
        if self.on_grant is not None:
            # the request register just freed; its master may refill it
            self.on_grant(slot, now)

    def _judge(self, slot: int, now: int) -> None:
        """Note each head the grant to ``slot`` passed over in inversion
        of the ranks.  The guard flag and the stall mask are the arbiter's
        in place now, which may have been swapped in after the build."""
        arbiter = self.arbiter
        if arbiter.last_was_guard:
            return      # anti-starvation service is sanctioned
        ranks = self._ranks
        granted_rank = ranks[slot]
        for e, register, _gated, _cap in self._scan:
            if not register or ranks[e] >= granted_rank:
                continue
            waited = now - register[0][1]
            if waited > self._longest and not arbiter.is_stalled(e) \
                    and len(self.inversions) < EVIDENCE_CAP:
                self.inversions.append({
                    "t": now, "granted": slot, "granted_rank": granted_rank,
                    "passed_over": e, "passed_over_rank": ranks[e],
                    "waited": waited})

    def _complete(self) -> None:
        now = self.sim.now
        record = self.current[1]
        assert now == record.t_granted + record.occupancy, \
            "bus occupancy was aborted"
        # waiters are settled before the cache level sees the transaction
        txn = self._finish(now)
        self.downstream.accept(txn, now)
        self.poke(now)
