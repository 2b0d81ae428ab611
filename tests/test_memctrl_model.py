"""Differential test of the memory controller against the one it
replaced.

``ReferenceController`` and ``ServiceRecord`` are the memory controller
and its record as they were before the controller became an arbitrated
resource (its own record class, occupant and FIFO maps), verbatim but
for the class name and the monitor's methods it charges through
(``settle``, ``attribute``).  Random request streams, delivered through
crossbar ports that hold a refused request until the controller retries
them, must leave both sides with the same services, matrices,
attribution streams, refusals, queue snapshots and kernel event counts,
at every checkpoint of the run.
"""

from collections import deque
from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from socsim.errors import SimulationError
from socsim.kernel import Simulator
from socsim.memctrl import MemoryController
from socsim.monitor import ContentionMonitor
from socsim.transaction import READ, WRITE, Transaction

from charge_log import record_charges

_OTHER = {READ: WRITE, WRITE: READ}


# the round-robin scan order the controller's tables were built from,
# verbatim: the reference shares no code with what it checks
def rotation(slots: list[int], last: int | None) -> list[int]:
    """Slots in round-robin scan order: strictly after ``last``, wrapping."""
    if last not in slots:
        return list(slots)
    i = slots.index(last)
    return slots[i + 1:] + slots[:i + 1]


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


class ReferenceController:
    name = "mem"

    def __init__(self, sim, monitor, initiators: list[int],
                 read_latency: int = 40, write_latency: int = 30,
                 fifo_capacity: int = 8, on_done=None):
        self.sim = sim
        self.monitor = monitor
        self.rank = sim.register(self.name)
        self.initiators = list(initiators)
        self.latency = {READ: read_latency, WRITE: write_latency}
        self.capacity = fifo_capacity
        self.on_done = on_done
        self.matrix = monitor.add_resource(self.name)
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
                self.monitor.attribute(now, self.name, initiator, sufferer,
                                       cycles)

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
            self.monitor.settle(now, self.name, record.initiator,
                                record.t_started, waiting)

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


class FakePort:
    """The delivery side of a crossbar port: transfers one transaction
    at a time, in arrival order, ``occ`` cycles each, and holds a refused
    one until the controller retries it, as ``CrossbarPort`` does."""

    def __init__(self, sim, occ: int):
        self.sim = sim
        self.rank = sim.register("port")
        self.target = None      # the controller, once it is built
        self.occ = occ
        self.queue = deque()
        self.busy = False
        self.blocked = None

    def arrival(self, txn: Transaction) -> None:
        self.queue.append(txn)
        self._start(self.sim.now)

    def _start(self, now: int) -> None:
        if not self.busy and self.queue:
            self.busy = True
            self.sim.schedule(now + self.occ, self.rank, self._transfer_done)

    def _transfer_done(self) -> None:
        now = self.sim.now
        if self.target.try_accept(self.queue[0], now):
            self._release(now)
        else:
            self.blocked = (now, self.target.block_snapshot())
            self.target.add_blocked_port(self)

    def retry(self, now: int) -> bool:
        txn = self.queue[0]
        if not self.target.try_accept(txn, now):
            return False
        t_block, snapshot = self.blocked
        self.blocked = None
        self.target.blame_blocked(now, txn, t_block, snapshot)
        self._release(now)
        return True

    def _release(self, now: int) -> None:
        self.queue.popleft()
        self.busy = False
        self._start(now)


class Side:
    """One controller behind its ports, fed one request stream."""

    def __init__(self, cls, run):
        n, capacity, read, write, port_occ, requests, _checkpoints = run
        self.sim = Simulator()
        feeder = self.sim.register("feeder")
        self.monitor = ContentionMonitor(self.sim, n, period=10**9)
        self.attributions, _ = record_charges(self.monitor)
        # the ports register before the controller, as on a platform
        self.ports = [FakePort(self.sim, occ) for occ in port_occ]
        self.done = []
        self.mc = cls(self.sim, self.monitor, list(range(n)),
                      read_latency=read, write_latency=write,
                      fifo_capacity=capacity,
                      on_done=lambda txn, t: self.done.append((txn.uid, t)))
        for port in self.ports:
            port.target = self.mc
        t = 0
        for uid, (dt, port, owner, carried, kind) in enumerate(requests):
            t += dt
            txn = Transaction(uid, owner, kind, 0x100, 8, t,
                              id_value=owner if carried is None else carried)
            self.sim.schedule(t, feeder, lambda p=self.ports[port], x=txn:
                              p.arrival(x))

    def state(self):
        mc = self.mc
        # the reference names its occupant ``serving``
        occupant = mc.current if hasattr(mc, "current") else mc.serving
        return ([(r.uid, r.initiator, r.owner, r.kind, r.t_enqueued,
                  r.t_started, r.t_done) for r in mc.records],
                occupant and occupant[0].uid,
                mc.matrix.counts, list(self.attributions),
                mc.refusals, mc.busy_cycles, mc.block_snapshot(),
                mc.pending_entries(), self.done,
                [(len(p.queue), p.blocked) for p in self.ports],
                self.sim.now, self.sim.scheduled)


@st.composite
def controller_runs(draw):
    n = draw(st.integers(1, 4))
    capacity = draw(st.sampled_from([1, 2, 8]))
    read, write = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    port_occ = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    initiator = st.integers(0, n - 1)
    # (cycles after the previous request, port, owner, carried id or
    # None for the owner's own, kind); many requests share a cycle
    request = st.tuples(st.one_of(st.just(0), st.integers(1, 4)),
                        st.integers(0, len(port_occ) - 1), initiator,
                        st.one_of(st.none(), initiator),
                        st.sampled_from([READ, WRITE]))
    requests = draw(st.lists(request, min_size=8, max_size=40))
    checkpoints = sorted(draw(st.lists(st.integers(0, 400), max_size=3)))
    return n, capacity, read, write, port_occ, requests, checkpoints


@settings(max_examples=120, deadline=None, derandomize=True)
@given(controller_runs())
def test_controller_matches_reference(run):
    sides = [Side(cls, run) for cls in (MemoryController, ReferenceController)]
    for until in [*run[-1], 10**6]:
        for side in sides:
            side.sim.run(until)
        assert sides[0].state() == sides[1].state(), until
