"""Arbitrated resources, and the one rule that settles their waiters.

The shared bus, every crossbar output port and the memory controller
are one machine: entities (the cores; entity 0 for the cache level plus
one per accelerator; the initiators), a FIFO queue per entity (one deep
on the bus; a read and a write FIFO in the controller), a selection
that grants one queue head at a time, and the gated entities whose stall
line blocks them here (every core; the accelerators; none).
``ArbitratedResource`` is that machine, with one ``GrantRecord`` per
occupancy.  The bus and a port select through an arbiter and say only
how an occupancy starts and ends; the controller selects, and names its
waiters, by its own rule, and settles them by the same ``settle``.

Every grant and every release runs through here, so the path does only
per-transaction work:

* Scan list.  One ``(entity, queue, gated, owner cap)`` tuple per entity,
  in entity order, is built at construction; ``poke`` and ``_finish``
  walk it instead of looking each queue up by entity.
* Owner cap.  A queue's cap is the most distinct owners it can hold: 1
  for a bus request register or an accelerator entity, the number of
  cores for crossbar entity 0, none if not given.  Entries queue in
  time order, so only an owner's first entry in a queue can be charged
  (a later one starts no earlier, and a tie goes to the first), and
  ``_finish`` stops scanning a queue once it has seen as many distinct
  owners as the cap, or at the first entry requested at ``now``, which
  overlaps nothing.  A release behind a deep entity-0 queue (an L2 fill
  burst) costs O(cores), not O(queue).  ``_finish`` hands ``settle``
  only entries of keys other than the occupant's, and calls it only if
  there is one.
* One charge per release.  ``settle`` walks one entry per key, the keys
  distinct and ascending, once, and hands the monitor the whole release
  in one ``charge``.  On every platform ``System`` builds, the queues of
  one resource hold disjoint owners and the memory controller lists its
  initiators in order; only a queue with an owner cap above 1 (crossbar
  entity 0) lists several owners, in time order, so ``_finish`` sorts
  what it gathered.  A gated key asks the monitor for its stalled
  cycles only if it has ever stalled, and once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter

from .errors import SimulationError
from .transaction import READ, WRITE, Transaction

# one occupancy, kept in its resource's ``grants``, which names the resource
@dataclass(slots=True)
class GrantRecord:
    slot: int               # the granted entity
    owner: int
    kind: str
    occupancy: int
    t_request: int
    t_granted: int
    guard: bool
    t_completed: int = -1
    uid: int = -1           # the granted transaction's
    # the memory controller's names: the id carried, and a service's times
    initiator = property(attrgetter("slot"))
    t_enqueued = property(attrgetter("t_request"))
    t_started = property(attrgetter("t_granted"))
    t_done = property(attrgetter("t_completed"))


def settle(monitor, resource: str, occupant: int, t_granted: int, now: int,
           waiting) -> None:
    """Charge the waiters of an occupancy held by key ``occupant`` from
    ``t_granted`` to ``now``; ``waiting`` holds one ``(key, t_request,
    gated)`` per waiting key, the keys distinct and ascending.

    Each key is charged its overlap with the occupancy, ``now -
    max(t_request, t_granted)``, to the occupant.  A caller that holds
    several entries of one key hands over the earliest: every wait ends
    at ``now``, so the longest overlap is also the union of that key's
    waits.  The occupant's own key is skipped: queueing behind yourself
    is not a contention pair.  Where the entry's slot is gated by its
    stall line, the overlap cycles the key spent stalled are
    self-inflicted instead.  Keys are charged in ascending order, with
    one ``monitor.charge`` for the whole release and none if nobody is
    owed anything.

    Keys are master numbers, never negative.  A repeated or descending
    key raises ``SimulationError`` naming the resource, and nothing of
    the release is charged.
    """
    ever_stalled = monitor.ever_stalled
    charges = []
    prev = -1
    for key, t_request, gated in waiting:
        if key <= prev:
            raise SimulationError(
                f"{resource}: waiter {key} settled after waiter {prev}; "
                f"waiting keys must be distinct and ascending")
        prev = key
        start = t_request if t_request > t_granted else t_granted
        # a start at ``now`` overlaps nothing
        if key != occupant and start < now:
            # only a key that ever stalled can have stalled cycles
            if gated and ever_stalled(key):
                own = monitor.stalled_overlap(key, start, now)
                charges.append((key, now - start - own, own))
            else:
                charges.append((key, now - start, 0))
    if charges:
        monitor.charge(now, resource, occupant, charges)


class ArbitratedResource:
    """Queues, arbitration, the guard wake-up alarm and waiter settlement.

    A subclass provides ``cycles_for(kind, size)``, the cycles a
    transaction of that kind and size holds the resource (asked once per
    pair, the answer memoised by ``occupancy_of``), and ``_occupy(entity,
    occ, now)``, which schedules the end of the occupancy (the bus also
    judges the grant there, into ``inversions``), and ends it with
    ``_finish(now)``.  The arbiter is read at every ``poke``, so it
    can be replaced after the platform is built.  ``owners`` caps the
    distinct owners an entity's queue can hold (see the module
    docstring); an entity it leaves out is scanned to the end.  The
    memory controller brings its own ``_init_queues`` and ``poke``.
    """

    def __init__(self, sim, monitor, resource: str, entities: list[int],
                 gated, arbiter, monitored: bool = True,
                 owners: dict[int, int] | None = None):
        self.sim = sim
        self.monitor = monitor
        self.resource = resource
        self.rank = sim.register(resource)
        self.entities = list(entities)
        self.gated = frozenset(gated)
        self.arbiter = arbiter
        self.matrix = monitor.add_resource(resource, monitored=monitored)
        self._init_queues(owners or {})
        # kind -> size -> cycles, filled as each (kind, size) first shows
        self._occupancy_of = {READ: {}, WRITE: {}}
        self.current = None     # (txn, record)
        self.grants: list[GrantRecord] = []
        self.busy_cycles = 0
        self._wakeup_at: int | None = None

    def _init_queues(self, owners: dict[int, int]) -> None:
        self.queues: dict[int, deque[tuple[Transaction, int]]] = {
            e: deque() for e in self.entities}
        self._scan = [(e, self.queues[e], e in self.gated, owners.get(e))
                      for e in self.entities]

    def occupancy_of(self, txn: Transaction) -> int:
        by_size = self._occupancy_of[txn.kind]
        occ = by_size.get(txn.size)
        if occ is None:
            occ = by_size[txn.size] = self.cycles_for(txn.kind, txn.size)
        return occ

    def poke(self, now: int) -> None:
        """Start the next occupancy; harmless if busy or nothing waits."""
        if self.current is not None:
            return
        requesters = []
        for entity, queue, _gated, _cap in self._scan:
            if queue:
                requesters.append(entity)
        if not requesters:
            return
        arbiter = self.arbiter
        entity = arbiter.grant(requesters, now)
        if entity is None:
            self._schedule_wakeup(requesters, now)
            return
        txn, t_request = self.queues[entity].popleft()
        occ = self.occupancy_of(txn)
        record = GrantRecord(
            entity, txn.owner, txn.kind, occ, t_request, now,
            arbiter.last_was_guard, uid=txn.uid)
        self.grants.append(record)
        self.current = (txn, record)
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
        txn, record = self.current
        record.t_completed = now
        occupant = txn.owner
        # per queue, each owner's first entry requested before now, up to
        # the queue's owner cap; the occupant's own entries only count
        # towards the cap
        waiting = []
        for _entity, queue, gated, cap in self._scan:
            if not queue:
                continue
            if cap == 1:
                head, t_request = queue[0]
                if t_request < now and head.owner != occupant:
                    waiting.append((head.owner, t_request, gated))
                continue
            seen = set()
            for wtxn, t_request in queue:
                if t_request >= now:
                    break
                key = wtxn.owner
                if key not in seen:
                    seen.add(key)
                    if key != occupant:
                        waiting.append((key, t_request, gated))
                    if len(seen) == cap:
                        break
        if waiting:
            # a queue with an owner cap above 1 lists its owners in time
            # order, and settle takes them ascending
            waiting.sort()
            settle(self.monitor, self.resource, occupant, record.t_granted,
                   now, waiting)
        self.current = None
        return txn
