"""Shared second-level cache with way partitioning.

It sits between the bus and the crossbar and stamps the issuing core's
owner id into the transaction's id field, because core-side traffic
arrives without one.  Accelerators never pass through here.  An access
outside the cacheable ranges bypasses to crossbar entity 0; a disabled
cache level is a cache with no cacheable range, so every access bypasses.

The cache is write-back write-allocate.  Lookups and victim selection
are confined to the ways assigned to the requesting owner, and LRU order
is kept within that partition.  A missing line is installed at lookup
time while the fill travels as a plain read transaction; the requester's
response still waits for the fill to return, so miss latency is
modelled, but a second access to an in-flight line (only possible when
owners share ways) counts as a hit.  MSHR-level accuracy is out of
scope here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SimulationError
from .transaction import (ORIGIN_FILL, ORIGIN_WRITEBACK, READ, WRITE,
                          Transaction)


@dataclass
class _Line:
    valid: bool = False
    tag: int = -1
    owner: int = -1     # who installed it; used to spot cross-partition evictions
    dirty: bool = False
    last_use: int = 0


class L2Cache:
    def __init__(self, sim, crossbar, sets: int, ways: int, line_size: int,
                 hit_latency: int, partitions: dict[int, list[int]],
                 cacheable: list[tuple[int, int]], make_txn, respond):
        self.sim = sim
        self.rank = sim.register("l2")
        self.crossbar = crossbar
        self.sets = sets
        self.ways = ways
        self.line_size = line_size
        self.hit_latency = hit_latency
        self.partitions = {o: list(w) for o, w in partitions.items()}
        self.cacheable = list(cacheable)
        self.make_txn = make_txn        # platform-wide transaction factory
        self.respond = respond          # completes a core transaction
        # only a cacheable access looks a line up
        self.lines = [[_Line() for _ in range(ways)]
                      for _ in range(sets if cacheable else 0)]
        self._use_tick = 0
        self._outstanding: dict[int, Transaction] = {}   # fill uid -> core txn
        self.hits: dict[int, int] = {}
        self.misses: dict[int, int] = {}
        self.bypasses = 0
        self.evictions = 0
        self.writebacks = 0
        self.cross_partition_evictions = 0
        self.cross_partition_pairs: dict[tuple[int, int], int] = {}

    # -- bus side --------------------------------------------------------

    def accept(self, txn: Transaction, now: int) -> None:
        txn.id_value = txn.owner
        addr = txn.addr
        for base, size in self.cacheable:
            if base <= addr < base + size:
                self.sim.schedule(now + self.hit_latency, self.rank,
                                  lambda: self._lookup(txn))
                return
        self.bypasses += 1
        self.crossbar.inject(txn, 0, now)

    def _lookup(self, txn: Transaction) -> None:
        now = self.sim.now
        owner = txn.owner
        ways = self.partitions.get(owner)
        if ways is None:
            raise SimulationError(f"owner {owner} has no cache ways assigned")
        line_no = txn.addr // self.line_size
        set_idx = line_no % self.sets
        tag = line_no // self.sets
        self._use_tick += 1
        row = self.lines[set_idx]
        for w in ways:
            line = row[w]
            if line.valid and line.tag == tag:
                line.last_use = self._use_tick
                if txn.kind == WRITE:
                    line.dirty = True
                self.hits[owner] = self.hits.get(owner, 0) + 1
                self.respond(txn, now)
                return
        self.misses[owner] = self.misses.get(owner, 0) + 1
        self._fill(txn, set_idx, tag, ways, now)

    def _fill(self, txn: Transaction, set_idx: int, tag: int,
              ways: list[int], now: int) -> None:
        row = self.lines[set_idx]
        victim = None
        for w in ways:
            if not row[w].valid:
                victim = row[w]
                break
        if victim is None:
            victim = min((row[w] for w in ways), key=lambda ln: ln.last_use)
            self.evictions += 1
            if victim.owner != txn.owner:
                self.cross_partition_evictions += 1
                pair = (txn.owner, victim.owner)
                self.cross_partition_pairs[pair] = \
                    self.cross_partition_pairs.get(pair, 0) + 1
            if victim.dirty:
                victim_addr = (victim.tag * self.sets + set_idx) * self.line_size
                wb = self.make_txn(owner=txn.owner, kind=WRITE,
                                   addr=victim_addr, size=self.line_size,
                                   t_issued=now, origin=ORIGIN_WRITEBACK)
                wb.id_value = txn.owner      # the evictor pays for the traffic
                self.writebacks += 1
                self._send_fill_then(txn, set_idx, tag, victim, now, wb)
                return
        self._send_fill_then(txn, set_idx, tag, victim, now, None)

    def _send_fill_then(self, txn: Transaction, set_idx: int, tag: int,
                        victim: _Line, now: int,
                        writeback: Transaction | None) -> None:
        victim.valid = True
        victim.tag = tag
        victim.owner = txn.owner
        victim.dirty = txn.kind == WRITE
        victim.last_use = self._use_tick
        line_base = (tag * self.sets + set_idx) * self.line_size
        fill = self.make_txn(owner=txn.owner, kind=READ, addr=line_base,
                             size=self.line_size, t_issued=now,
                             origin=ORIGIN_FILL)
        fill.id_value = txn.owner
        self._outstanding[fill.uid] = txn
        self.crossbar.inject(fill, 0, now)
        if writeback is not None:
            self.crossbar.inject(writeback, 0, now)

    # -- memory side -----------------------------------------------------

    def fill_returned(self, fill: Transaction, now: int) -> None:
        txn = self._outstanding.pop(fill.uid)
        self.respond(txn, now)
