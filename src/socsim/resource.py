"""Arbitrated resources, and the one rule that settles their waiters.

The shared bus, every crossbar output port and the memory controller
are one machine: entities (the cores; entity 0 for the cache level plus
one per accelerator; the initiators), a FIFO queue per entity (one deep
on the bus; a read and a write FIFO in the controller), a selection
that grants one queue head at a time, and the gate map: each gated
entity and the master whose stall line blocks it here (every core by
itself; each accelerator entity by its accelerator; none).
``ArbitratedResource`` is that machine, with one grant record per
occupancy in its ``GrantLog``.  The bus and a port select through an
arbiter and say only how an occupancy starts and ends; the controller
selects, and names its waiters, by its own rule, and settles them by the
same ``settle``.

Every grant and every release runs through here, so the path does only
per-transaction work:

* Packed log.  A grant is one fixed-width ``struct`` record appended to
  its log's ``bytearray`` (no object kept): 26 bytes, with 32-bit
  cycles, occupancy and uid, until a value needs more; the log then
  re-encodes itself once into 50-byte records with 64-bit ones.  It counts
  what the report and the starvation check read as it appends, as a
  statistics unit counts in registers.  ``current`` is ``(txn,
  t_granted, index)``, so no record object is built on the grant path;
  a ``GrantRecord`` is built only when a reader asks for one.
* Scan list.  One ``(entity, queue, gated, owner cap)`` tuple per entity,
  in entity order, is built at construction; ``poke`` and ``_finish``
  walk it instead of looking each queue up by entity.
* Owner cap.  A queue's cap is the most distinct owners it can hold: 1
  for a gated entity, which queues only its own master's requests (a bus
  request register, an accelerator entity), and the masters less the
  gated entities for an ungated one (the cores, for crossbar entity 0).
  Entries queue in time order, so only an owner's first entry in a queue
  can be charged (a later one starts no earlier, and a tie goes to the
  first), and ``_finish`` stops scanning a queue once it has seen as
  many distinct owners as the cap, or at the first entry requested at
  ``now``, which overlaps nothing.  A release behind a deep entity-0
  queue (an L2 fill burst) costs O(cores), not O(queue).  ``_finish``
  hands ``settle`` only entries of keys other than the occupant's, and
  calls it only if there is one.
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

import struct
from array import array
from collections import deque, namedtuple
from collections.abc import Sequence
from itertools import repeat

from .errors import SimulationError
from .transaction import READ, WRITE, Transaction

# one occupancy as its log packs it: slot, owner, kind (an index into
# _KINDS), guard, occupancy, t_request, t_granted, t_completed (-1 until
# the occupancy ends) and uid.  A log starts narrow, 16-bit slot and owner
# and 32-bit cycles, occupancy and uid; the first value that does not fit
# widens it, once, to 32 and 64 bits.  Both end in t_completed and uid,
# as wide as each other
_NARROW = struct.Struct("<hhb?iiiii")
_WIDE = struct.Struct("<iib?qqqqq")
_KINDS = (READ, WRITE)
# the largest occupancy or cycle a wide record holds; the config parser
# and the trace scanner refuse any value that could exceed it.  Slots and
# owners are master numbers, far below 2**31 on any platform that fits
# in memory (the monitor keeps a masters x masters matrix per resource)
FIELD_MAX = 2 ** 63 - 1


def starvation_window(configured: int | None, max_occupancy: int) -> int:
    """The starvation window of a resource whose longest occupancy so far
    is ``max_occupancy``: the configured one, else ten such occupancies.
    It only grows, as the longest occupancy does."""
    return 10 * max_occupancy if configured is None else configured


_Packed = namedtuple("_Packed", (
    "slot",             # the granted entity
    "owner", "kind_code", "guard", "occupancy", "t_request", "t_granted",
    "t_completed",      # -1 while in progress
    "uid"))             # the granted transaction's


class GrantRecord(_Packed):
    """One occupancy, read out of its resource's ``grants``, which names
    the resource: a read-only tuple of the packed fields."""

    __slots__ = ()
    kind = property(lambda rec: _KINDS[rec.kind_code])
    # the memory controller's names: the id carried, and a service's times
    initiator = _Packed.slot
    t_enqueued = _Packed.t_request
    t_started = _Packed.t_granted
    t_done = _Packed.t_completed


class GrantLog(Sequence):
    """A resource's grants, one packed record per occupancy in grant
    order, and the registers its readers need, counted by ``append``:

    * ``per_owner``: grants per owner, indexed by master;
    * ``late``: the index of each grant that waited longer than
      ``window`` as it stood at that grant.  The resource keeps
      ``window`` at its starvation window, which only grows, so every
      grant that waited longer than the final window is in ``late``,
      and ``window`` is the final window once the run ends.

    A record is 26 bytes while every value the log holds fits the narrow
    layout.  The first that does not, at ``append`` or ``complete``,
    re-encodes the log into the 50-byte wide layout, where it stays.
    Indexing and iteration build ``GrantRecord`` s as they read; an
    iteration reads the log as it stood when the iteration began.
    """

    __slots__ = ("_buf", "_layout", "_pack", "_size", "_pack_t_completed",
                 "_t_completed_at", "per_owner", "late", "window")

    def __init__(self, owners: int):
        self._buf = bytearray()
        self._use(_NARROW)
        self.per_owner = [0] * owners
        self.late = array("q")
        self.window = 0

    def _use(self, layout: struct.Struct) -> None:
        self._layout = layout
        self._pack = layout.pack
        self._size = layout.size
        # t_completed is the last field but one, as wide as the last
        field = struct.Struct("<" + layout.format[-1])
        self._pack_t_completed = field.pack_into
        self._t_completed_at = layout.size - 2 * field.size

    def _widen(self) -> None:
        """Re-encode every record in the wide layout."""
        wide = bytearray()
        pack = _WIDE.pack
        for fields in self._layout.iter_unpack(self._buf):
            wide += pack(*fields)
        self._buf = wide
        self._use(_WIDE)

    def append(self, slot: int, owner: int, kind: str, occupancy: int,
               t_request: int, t_granted: int, guard: bool, uid: int) -> int:
        """Log and count one grant, still in progress; return its index."""
        # the packer is called from a local: called as an attribute, it
        # would be looked up as a method on every grant
        pack = self._pack
        try:
            record = pack(slot, owner, kind == WRITE, guard, occupancy,
                          t_request, t_granted, -1, uid)
        except struct.error:
            if self._layout is _WIDE:
                raise
            self._widen()
            return self.append(slot, owner, kind, occupancy, t_request,
                               t_granted, guard, uid)
        buf = self._buf
        index = len(buf) // self._size
        buf += record
        self.per_owner[owner] += 1
        if t_granted - t_request > self.window:
            self.late.append(index)
        return index

    def complete(self, index: int, t_completed: int) -> None:
        """End grant ``index`` at ``t_completed``, in place."""
        pack_into = self._pack_t_completed
        try:
            pack_into(self._buf, index * self._size + self._t_completed_at,
                      t_completed)
        except struct.error:
            if self._layout is _WIDE:
                raise
            self._widen()
            self.complete(index, t_completed)

    def __len__(self) -> int:
        return len(self._buf) // self._size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("grant index out of range")
        return GrantRecord._make(self._layout.unpack_from(
            self._buf, index * self._size))

    def __iter__(self):
        # over a copy, in the layout of the moment, so that the log may
        # grow or widen while it is iterated
        return map(tuple.__new__, repeat(GrantRecord),
                   self._layout.iter_unpack(bytes(self._buf)))


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
    pair, the answer memoised by ``occupancy_of``), ``max_occupancy()``,
    the longest of them so far, and ``_occupy(entity, occ, now)``, which
    schedules the end of the occupancy (the bus also judges the grant
    there, into ``inversions``), and ends it with ``_finish(now)``.  The
    arbiter is read at every ``poke``, so it can be replaced after the
    platform is built.
    ``gated`` maps each gated entity to the master whose stall line gates
    it; the resource registers each as that master's stall point, and
    derives each queue's owner cap from it (see the module docstring).
    ``starvation_window`` is the configured window, None for the default
    rule; a subclass calls ``_watch()`` once its tables are set, and the
    log's ``window`` follows the longest occupancy from there as each
    (kind, size) first shows.  The memory controller brings its own
    ``_init_queues`` and ``poke``.
    """

    def __init__(self, sim, monitor, resource: str, entities: list[int],
                 gated: dict[int, int], arbiter,
                 starvation_window: int | None = None):
        self.sim = sim
        self.monitor = monitor
        self.resource = resource
        self.rank = sim.register(resource)
        self.entities = list(entities)
        self.gated = frozenset(gated)
        self.arbiter = arbiter
        self.matrix = monitor.add_resource(resource)
        self._init_queues()
        for entity, master in gated.items():
            monitor.add_stall_point(master, self, entity)
        # kind -> size -> cycles, filled as each (kind, size) first shows
        self._occupancy_of = {READ: {}, WRITE: {}}
        self.starvation_window = starvation_window
        self.current = None     # (txn, t_granted, index in grants)
        self.grants = GrantLog(monitor.n)
        self.busy_cycles = 0
        self._wakeup_at: int | None = None

    def _init_queues(self) -> None:
        self.queues: dict[int, deque[tuple[Transaction, int]]] = {
            e: deque() for e in self.entities}
        shared = self.monitor.n - len(self.gated)
        self._scan = [(e, self.queues[e], e in self.gated,
                       1 if e in self.gated else shared)
                      for e in self.entities]

    def occupancy_of(self, txn: Transaction) -> int:
        by_size = self._occupancy_of[txn.kind]
        occ = by_size.get(txn.size)
        if occ is None:
            occ = by_size[txn.size] = self.cycles_for(txn.kind, txn.size)
            self._watch()
        return occ

    def _watch(self) -> None:
        # the longest occupancy may have grown, and the window with it
        self.grants.window = starvation_window(self.starvation_window,
                                               self.max_occupancy())

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
            self._schedule_wakeup(arbiter.wake_at)
            return
        txn, t_request = self.queues[entity].popleft()
        occ = self.occupancy_of(txn)
        self.current = (txn, now, self.grants.append(
            entity, txn.owner, txn.kind, occ, t_request, now,
            arbiter.last_was_guard, txn.uid))
        self._occupy(entity, occ, now)

    def _schedule_wakeup(self, deadline: int) -> None:
        # every requester is blocked and nothing will retrigger
        # arbitration before a guard deadline: set an alarm for the
        # earliest one
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
        txn, t_granted, index = self.current
        self.grants.complete(index, now)
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
            settle(self.monitor, self.resource, occupant, t_granted, now,
                   waiting)
        self.current = None
        return txn
