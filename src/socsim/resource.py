"""Arbitrated resources, and the one rule that settles their waiters.

The shared bus and every crossbar output port are one machine: entities
(the bus: the cores; a port: entity 0 for the cache level plus one per
accelerator), a FIFO queue per entity (one deep on the bus: the core's
request register), an arbiter that grants one queue head at a time, and
a set of gated entities whose stall line blocks them here (the bus: all;
a port: the accelerators).  ``ArbitratedResource`` is that machine; a
subclass says only how an occupancy starts and ends.  The memory
controller keeps its own selection but settles its waiters by the same
``settle``.

``settle`` is on the path of every grant, so it does the least work the
rule allows: one pass over the waiting entries keeps each key's earliest
start and drops the occupant's own key, the keys are sorted only when
there is more than one, and a gated key asks the monitor for its stalled
cycles only if it has ever stalled.  Likewise ``poke`` skips the waiter
snapshot when it grants the only requester and nothing queues behind it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .transaction import Transaction

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
    # (slot, owner, t_request, stalled) of every queue head left waiting,
    # snapshot at grant time; most grants leave nobody waiting and share ()
    waiters: tuple[tuple[int, int, int, bool], ...] = ()
    t_completed: int = -1


def settle(monitor, resource: str, occupant: int, t_granted: int, now: int,
           waiting) -> None:
    """Charge the waiters of an occupancy held by key ``occupant`` from
    ``t_granted`` to ``now``; ``waiting`` yields ``(key, t_request,
    gated)`` per queued entry.

    Every distinct waiting key is charged its longest overlap with the
    occupancy, ``now - max(t_request, t_granted)``, to the occupant (the
    first entry wins a tie).  Every such wait ends at ``now``, so the
    longest overlap is also the union of that key's waits.  The
    occupant's own key is skipped: queueing behind yourself is not a
    contention pair.  Where the entry's slot is gated by its stall line,
    the overlap cycles the key spent stalled are self-inflicted instead.
    Keys are charged in ascending order.
    """
    # one pass keeps each other key's earliest start, clipped to the
    # grant; a start at ``now`` overlaps nothing.  Only a key that ever
    # stalled can have stalled cycles to deduct
    first: dict[int, tuple[int, bool]] = {}
    never = (now, False)
    for key, t_request, gated in waiting:
        start = t_request if t_request > t_granted else t_granted
        if key != occupant and start < first.get(key, never)[0]:
            first[key] = (start, gated)
    for key in sorted(first) if len(first) > 1 else first:
        start, gated = first[key]
        overlap = now - start
        own = (monitor.stalled_overlap(key, start, now)
               if gated and monitor.ever_stalled(key) else 0)
        if overlap > own:
            monitor.attribute(now, resource, occupant, key, overlap - own)
        if own:
            monitor.attribute_self(now, resource, key, own)


class ArbitratedResource:
    """Queues, arbitration, the guard wake-up alarm and waiter settlement.

    A subclass provides ``occupancy_of(txn)`` and ``_occupy(entity, occ,
    now)``, which schedules the end of the occupancy, and ends it with
    ``_finish(now)``.  The arbiter is read at every ``poke``, so it can be
    replaced after the platform is built.
    """

    def __init__(self, sim, monitor, resource: str, entities: list[int],
                 gated, arbiter, monitored: bool = True):
        self.sim = sim
        self.monitor = monitor
        self.resource = resource
        self.rank = sim.register(resource)
        self.entities = list(entities)
        self.gated = frozenset(gated)
        self.arbiter = arbiter
        self.matrix = monitor.add_resource(resource, monitored=monitored)
        self.queues: dict[int, deque[tuple[Transaction, int]]] = {
            e: deque() for e in self.entities}
        self.current = None     # (txn, record, hop)
        self.grants: list[GrantRecord] = []
        self.busy_cycles = 0
        self._wakeup_at: int | None = None

    def poke(self, now: int) -> None:
        """Start the next occupancy; harmless if busy or nothing waits."""
        if self.current is not None:
            return
        queues = self.queues
        requesters = [e for e in self.entities if queues[e]]
        if not requesters:
            return
        arbiter = self.arbiter
        entity = arbiter.grant(requesters, now)
        if entity is None:
            self._schedule_wakeup(requesters, now)
            return
        queue = queues[entity]
        txn, t_request = queue.popleft()
        occ = self.occupancy_of(txn)
        hop = txn.hops[-1]
        hop.t_granted = now
        if queue or len(requesters) > 1:
            waiters = tuple([
                (e, q[0][0].owner, q[0][1], arbiter.is_stalled(e))
                for e in requesters if (q := queues[e])])
        else:
            waiters = ()
        record = GrantRecord(
            self.resource, entity, txn.owner, txn.kind, txn.size, occ,
            t_request, now, arbiter.last_was_guard, waiters)
        self.grants.append(record)
        self.current = (txn, record, hop)
        self._occupy(entity, occ, now)

    def _schedule_wakeup(self, requesters: list[int], now: int) -> None:
        # every requester is blocked and nothing will retrigger
        # arbitration before a guard deadline: set an alarm for the
        # earliest one
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

    def _finish(self, now: int) -> Transaction:
        """End the current occupancy at ``now``, settle everyone still
        queued, and return the occupant's transaction."""
        # the hop was kept at grant: a delivery may already have appended
        # the next resource's hop to the transaction
        txn, record, hop = self.current
        hop.t_completed = now
        record.t_completed = now
        gated = self.gated
        waiting = [(wtxn.owner, t_request, e in gated)
                   for e in self.entities for wtxn, t_request in self.queues[e]]
        if waiting:
            settle(self.monitor, self.resource, txn.owner, record.t_granted,
                   now, waiting)
        self.current = None
        return txn
