"""Transactions and their per-hop timing records.

The record types here, and the grant, service and trace records of the
bus, the memory controller and the workload, are slotted dataclasses:
one of each is kept per transaction until the run ends, for the
reports and the checks, so a per-instance ``__dict__`` would cost more
than the fields it holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

READ = "read"
WRITE = "write"

# where a transaction came from; fills and writebacks are generated by the
# cache on behalf of a core but travel with that core's owner id
ORIGIN_CORE = "core"
ORIGIN_ACCEL = "accel"
ORIGIN_FILL = "fill"
ORIGIN_WRITEBACK = "writeback"


@dataclass(slots=True)
class Hop:
    """Timing of one resource traversal.

    For occupancy-style resources the no-abort rule means
    t_completed - t_granted equals the occupancy exactly.
    """

    resource: str
    t_request: int
    t_granted: int = -1
    t_completed: int = -1

    @property
    def wait(self) -> int:
        return self.t_granted - self.t_request


@dataclass(slots=True)
class Transaction:
    uid: int
    owner: int              # ground-truth issuing master, never mutated
    kind: str               # READ or WRITE
    addr: int
    size: int
    t_issued: int
    origin: str = ORIGIN_CORE
    id_value: int | None = None   # propagated id field, set at the injection point
    t_done: int | None = None
    hops: list[Hop] = field(default_factory=list)

    def begin_hop(self, resource: str, t_request: int) -> Hop:
        hop = Hop(resource, t_request)
        self.hops.append(hop)
        return hop

    @property
    def latency(self) -> int:
        assert self.t_done is not None, "transaction not complete"
        return self.t_done - self.t_issued
