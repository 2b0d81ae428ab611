"""Memory controller with per-initiator read and write FIFOs.

Requests are filed by the id value they carry, which is the whole point
of propagating ids down here: without them every entry would land in one
anonymous pool and per-pair accounting would be impossible.  The single
device behind the controller serves one request at a time; initiators
are picked round robin and each initiator alternates between its read
and its write queue, reads first.  It is an arbitrated resource
(resource.py) over the initiators; ``records`` is its ``grants``, and
``services`` counts each initiator's reads and writes as it is served.

A full FIFO pushes back on the crossbar port trying to deliver.  The
blocked cycles are blamed on whoever held queue slots when the refusal
happened, split proportionally to their entry counts (integer shares,
remainder to the initiator of the oldest entry, self-blame discarded).
"""

from __future__ import annotations

from collections import deque

from .errors import SimulationError
from .resource import ArbitratedResource, settle
from .transaction import READ, WRITE, Transaction

_OTHER = {READ: WRITE, WRITE: READ}


class MemoryController(ArbitratedResource):
    name = "mem"

    def __init__(self, sim, monitor, initiators: list[int],
                 read_latency: int = 40, write_latency: int = 30,
                 fifo_capacity: int = 8, on_done=None,
                 starvation_window: int | None = None):
        super().__init__(sim, monitor, self.name, initiators, {}, None,
                         starvation_window)
        self.latency = {READ: read_latency, WRITE: write_latency}
        self._watch()
        self.capacity = fifo_capacity
        self.on_done = on_done
        self.prefer: dict[int, str] = {i: READ for i in self.entities}
        self.last_served: int | None = None
        # (initiator, its fifos by kind) in round-robin scan order, the
        # initiator after the last served first; rotated as each is served
        self._order = deque((i, self.fifos[i]) for i in self.entities)
        # (initiator, read fifo, write fifo) in ascending initiator order,
        # the order settlement charges the waiters in
        self._heads = [(i, self.fifos[i][READ], self.fifos[i][WRITE])
                       for i in sorted(self.entities)]
        self.records = self.grants
        # initiator -> [reads, writes] served, in the order of its first
        self.services: dict[int, list[int]] = {}
        self.refusals = 0
        self._blocked_ports: list = []

    def _init_queues(self) -> None:
        # initiator -> kind -> fifo; its keys are the known ids
        self.fifos: dict[int, dict[str, deque[tuple[Transaction, int]]]] = {
            i: {READ: deque(), WRITE: deque()} for i in self.entities}

    def max_occupancy(self) -> int:
        return max(self.latency.values())

    # -- crossbar side ---------------------------------------------------

    def try_accept(self, txn: Transaction, now: int) -> bool:
        # strictly the carried id: a request that lost it names no initiator
        initiator = txn.id_value
        queues = self.fifos.get(initiator)
        if queues is None:
            raise SimulationError(
                f"request carries unknown initiator id {initiator}")
        fifo = queues[txn.kind]
        if len(fifo) >= self.capacity:
            self.refusals += 1
            return False
        fifo.append((txn, now))
        self.poke(now)
        return True

    def block_snapshot(self):
        """Occupancy of every queue at refusal time, for later blame."""
        counts: dict[int, int] = {}
        oldest: tuple[int, int] | None = None   # (t_enq, initiator)
        for initiator, queues in self.fifos.items():
            for fifo in queues.values():
                if not fifo:
                    continue
                counts[initiator] = counts.get(initiator, 0) + len(fifo)
                head_t = fifo[0][1]
                if oldest is None or (head_t, initiator) < oldest:
                    oldest = (head_t, initiator)
        return counts, (oldest[1] if oldest else None)

    def add_blocked_port(self, port) -> None:
        if port not in self._blocked_ports:
            self._blocked_ports.append(port)

    def blame_blocked(self, now: int, blocked_txn: Transaction, t_block: int,
                      snapshot) -> None:
        span = now - t_block
        if span <= 0:
            return
        counts, oldest = snapshot
        total = sum(counts.values())
        if total == 0:
            return
        # try_accept has just taken the blocked request, so its id is known
        sufferer = blocked_txn.id_value
        shares = {i: span * c // total for i, c in counts.items()}
        shares[oldest] = shares.get(oldest, 0) + span - sum(shares.values())
        # a charge has one causer, so each blamed initiator is one call
        for initiator in sorted(shares):
            cycles = shares[initiator]
            if cycles > 0 and initiator != sufferer:
                self.monitor.charge(now, self.name, initiator,
                                    ((sufferer, cycles, 0),))

    # -- device ----------------------------------------------------------

    def poke(self, now: int) -> None:
        if self.current is not None:
            return
        for entry in self._order:
            initiator, queues = entry
            kind = self.prefer[initiator]
            fifo = queues[kind]
            if not fifo:
                kind = _OTHER[kind]
                fifo = queues[kind]
                if not fifo:
                    continue
            txn, t_enq = fifo.popleft()
            lat = self.latency[kind]
            self.current = (txn, now, self.grants.append(
                initiator, txn.owner, kind, lat, t_enq, now, False, txn.uid))
            served = self.services.get(initiator)
            if served is None:
                served = self.services[initiator] = [0, 0]
            served[kind == WRITE] += 1
            # the next scan starts after this initiator; the loop returns below
            self._order.rotate(-1 - self._order.index(entry))
            self.last_served = initiator
            self.prefer[initiator] = _OTHER[kind]
            self.busy_cycles += lat
            self.sim.schedule(now + lat, self.rank, self._complete)
            # the pop above freed a slot; blocked deliveries go first come
            # first served
            if self._blocked_ports:
                self._blocked_ports = [port for port in self._blocked_ports
                                       if not port.retry(now)]
            return

    def _complete(self) -> None:
        now = self.sim.now
        txn, t_granted, index = self.current
        self.grants.complete(index, now)

        # whoever sat in any queue while the device was held suffered.  A
        # FIFO fills in t_enq order and all its entries carry one id, so
        # its head, the oldest entry, stands for it, and an initiator
        # waited since the older of its two heads: O(initiators)
        waiting = []
        for initiator, reads, writes in self._heads:
            if reads:
                t_enq = reads[0][1]
                if writes and writes[0][1] < t_enq:
                    t_enq = writes[0][1]
            elif writes:
                t_enq = writes[0][1]
            else:
                continue
            waiting.append((initiator, t_enq, False))
        if waiting:
            # the initiator served last is the one being served
            settle(self.monitor, self.name, self.last_served, t_granted, now,
                   waiting)

        self.current = None
        if self.on_done is not None:
            self.on_done(txn, now)
        self.poke(now)

    # -- read side -------------------------------------------------------

    def pending_entries(self) -> list[tuple[int, str, int]]:
        """(initiator, kind, t_enqueued) of everything still queued."""
        out = []
        for initiator in sorted(self.fifos):
            for kind, fifo in self.fifos[initiator].items():
                for _txn, t_enq in fifo:
                    out.append((initiator, kind, t_enq))
        return out
