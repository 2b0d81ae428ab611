"""Transactions.

Each resource a transaction traverses keeps the one record of that
traversal, a grant record: on the bus, on each crossbar port and in the
memory controller.  ``System.timeline`` reads a transaction's path back
from them.  A grant record is packed into its resource's ``GrantLog``
(resource.py), and no object is kept for it.  ``Transaction`` is a
slotted dataclass, and the workload's requests are named tuples: the
requests are kept until the run ends, so a per-instance ``__dict__``
would cost more than the fields it holds.  A completed transaction is
counted, not kept, and freed.
"""

from __future__ import annotations

from dataclasses import dataclass

READ = "read"
WRITE = "write"

# where a transaction came from; fills and writebacks are generated by the
# cache on behalf of a core but travel with that core's owner id
ORIGIN_CORE = "core"
ORIGIN_ACCEL = "accel"
ORIGIN_FILL = "fill"
ORIGIN_WRITEBACK = "writeback"


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
