"""Memory controller with per-initiator read and write FIFOs.

Requests are filed by the id value they carry, which is the whole point
of propagating ids down here: without them every entry would land in one
anonymous pool and per-pair accounting would be impossible.  The single
device behind the controller serves one request at a time; initiators
are picked round robin and each initiator alternates between its read
and its write queue, reads first.

A full FIFO pushes back on the crossbar port trying to deliver.  The
blocked cycles are blamed on whoever held queue slots when the refusal
happened, split proportionally to their entry counts (integer shares,
remainder to the initiator of the oldest entry, self-blame discarded).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .arbiter import rotation
from .errors import SimulationError
from .resource import settle
from .transaction import READ, WRITE, Transaction

_OTHER = {READ: WRITE, WRITE: READ}


@dataclass(slots=True)
class ServiceRecord:
    uid: int
    initiator: int      # id value the request carried
    owner: int          # ground truth, equal to initiator when ids are intact
    kind: str
    addr: int
    size: int
    t_enqueued: int
    t_started: int
    t_done: int = -1


class MemoryController:
    name = "mem"

    def __init__(self, sim, monitor, initiators: list[int],
                 read_latency: int = 40, write_latency: int = 30,
                 fifo_capacity: int = 8, on_done=None, monitored: bool = True):
        self.sim = sim
        self.monitor = monitor
        self.rank = sim.register(self.name)
        self.initiators = list(initiators)
        self.latency = {READ: read_latency, WRITE: write_latency}
        self.capacity = fifo_capacity
        self.on_done = on_done
        self.matrix = monitor.add_resource(self.name, monitored=monitored)
        self.fifos: dict[tuple[int, str], deque[tuple[Transaction, int]]] = {
            (i, k): deque() for i in self.initiators for k in (READ, WRITE)}
        # initiator -> kind -> fifo, the same deques as ``fifos``, so the
        # per-request paths build no tuple key; its keys are the known ids
        self._queues = {i: {k: self.fifos[(i, k)] for k in (READ, WRITE)}
                        for i in self.initiators}
        self.prefer: dict[int, str] = {i: READ for i in self.initiators}
        self.last_served: int | None = None
        # last served initiator -> the round-robin scan that follows it,
        # as (initiator, its fifos by kind)
        self._scan = {last: [(i, self._queues[i])
                             for i in rotation(self.initiators, last)]
                      for last in [None, *self.initiators]}
        # (initiator, read fifo, write fifo) in ascending initiator order,
        # the order settlement charges the waiters in
        self._heads = [(i, self._queues[i][READ], self._queues[i][WRITE])
                       for i in sorted(self.initiators)]
        self.serving: tuple[Transaction, ServiceRecord] | None = None
        self.records: list[ServiceRecord] = []
        self.busy_cycles = 0
        self.refusals = 0
        self._blocked_ports: list = []

    # -- crossbar side ---------------------------------------------------

    def try_accept(self, txn: Transaction, now: int) -> bool:
        initiator = txn.id_value if txn.id_value is not None else txn.owner
        queues = self._queues.get(initiator)
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
        for (initiator, _kind), fifo in self.fifos.items():
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
        sufferer = (blocked_txn.id_value if blocked_txn.id_value is not None
                    else blocked_txn.owner)
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
        if self.serving is not None:
            return
        for initiator, queues in self._scan[self.last_served]:
            kind = self.prefer[initiator]
            fifo = queues[kind]
            if not fifo:
                kind = _OTHER[kind]
                fifo = queues[kind]
                if not fifo:
                    continue
            txn, t_enq = fifo.popleft()
            self._start_service(txn, initiator, kind, t_enq, now)
            return

    def _start_service(self, txn: Transaction, initiator: int, kind: str,
                       t_enq: int, now: int) -> None:
        lat = self.latency[kind]
        record = ServiceRecord(txn.uid, initiator, txn.owner, kind,
                               txn.addr, txn.size, t_enq, now)
        self.records.append(record)
        self.serving = (txn, record)
        self.last_served = initiator
        self.prefer[initiator] = _OTHER[kind]
        self.busy_cycles += lat
        self.sim.schedule(now + lat, self.rank, self._complete)
        # the pop above freed a slot; blocked deliveries go first come
        # first served
        if self._blocked_ports:
            self._blocked_ports = [port for port in self._blocked_ports
                                   if not port.retry(now)]

    def _complete(self) -> None:
        now = self.sim.now
        txn, record = self.serving
        record.t_done = now

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
            settle(self.monitor, self.name, record.initiator,
                   record.t_started, now, waiting)

        self.serving = None
        if self.on_done is not None:
            self.on_done(txn, now)
        self.poke(now)

    # -- read side -------------------------------------------------------

    def pending_entries(self) -> list[tuple[int, str, int]]:
        """(initiator, kind, t_enqueued) of everything still queued."""
        out = []
        for (initiator, kind), fifo in sorted(self.fifos.items()):
            for _txn, t_enq in fifo:
                out.append((initiator, kind, t_enq))
        return out
