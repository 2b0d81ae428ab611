"""Deterministic discrete-event kernel.

A single priority queue holds every pending event as a
``(time, rank, seq, action)`` tuple.  ``rank`` is the fixed tie-break
position a component receives when it registers with the simulator, so
two events at the same cycle always fire in registration order, and two
events from the same component fire in scheduling order via ``seq``.
Nothing about the ordering depends on hash values, id(), or wall-clock,
which is what makes whole runs reproducible byte for byte.

``run`` leaves the cyclic garbage collector as it finds it.  The
per-event garbage holds no reference cycles, so reference counting frees
all of it, and what a run keeps is few tracked objects: the grant logs
are packed bytes and a replayed trace is packed columns.  Automatic
collection therefore has almost nothing to do: over the benchmark
horizons it runs 6 young passes on ``mix6_quota``, one on
``l2_hot_replay`` and none on ``crowd_mem``, each under 0.1 ms (CPython
3.11.7, 2-vCPU VM).
``tests/test_kernel.py::test_run_leaves_no_cyclic_garbage`` guards the
absence of cycles on every golden platform and every benchmark workload.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

from .errors import SimulationError


class Simulator:
    """Event queue plus the global cycle counter."""

    def __init__(self) -> None:
        self._queue: list[tuple[int, int, int, Callable[[], None]]] = []
        # rank -> the name its component registered under
        self.names: list[str] = []
        self.now = 0
        # events scheduled so far, which is also the next event's seq
        self.scheduled = 0

    def register(self, name: str = "") -> int:
        """Hand out the next tie-break rank and keep ``name`` as
        ``names[rank]``.

        Components must register in a fixed topology order; the rank is
        the only thing that orders same-cycle events between components.
        """
        self.names.append(name)
        return len(self.names) - 1

    def schedule(self, time: int, rank: int, action: Callable[[], None]) -> None:
        if time < self.now:
            raise SimulationError(
                f"event scheduled at t={time} before current cycle t={self.now}"
            )
        heappush(self._queue, (time, rank, self.scheduled, action))
        self.scheduled += 1

    def run(self, until: int) -> None:
        """Process events up to and including cycle ``until``."""
        queue = self._queue
        while queue and queue[0][0] <= until:
            time, _rank, _seq, action = heappop(queue)
            assert time >= self.now, "event queue went backwards"
            self.now = time
            action()
        # land on the horizon even if the queue drained early
        if self.now < until:
            self.now = until

    @property
    def processed(self) -> int:
        """Events fired so far: every scheduled event not still queued."""
        return self.scheduled - len(self._queue)

    def pending(self) -> int:
        return len(self._queue)
