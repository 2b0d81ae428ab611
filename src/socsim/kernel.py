"""Deterministic discrete-event kernel.

A single priority queue holds every pending event as a
``(time, rank, seq, action)`` tuple.  ``rank`` is the fixed tie-break
position a component receives when it registers with the simulator, so
two events at the same cycle always fire in registration order, and two
events from the same component fire in scheduling order via ``seq``.
Nothing about the ordering depends on hash values, id(), or wall-clock,
which is what makes whole runs reproducible byte for byte.

``run`` pauses the cyclic garbage collector.  A run allocates millions of
short-lived objects, and automatic collection would walk whatever the run
keeps again and again.  Since the grant logs are packed bytes, what a run
keeps is few tracked objects (17 k on ``mix6_quota`` at 4 M cycles; a
replayed trace's records on ``l2_hot_replay``, 183 k), so the pause saves
little: up to 3 % of the run on ``l2_hot_replay``, within noise on the
other benchmark workloads, and the run-end ``gc.collect(1)`` takes under
0.1 ms (11-28 ms when each grant was an object; CPython 3.11.7, 2-vCPU
VM, the benchmark horizons).  It stays as cheap insurance for runs that
keep more.  Pausing is safe because the per-event garbage holds no
reference cycles: reference counting frees all of it.
``tests/test_kernel.py::test_run_leaves_no_cyclic_garbage`` guards that
on every golden platform and every benchmark workload.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Callable

from .errors import SimulationError


@contextmanager
def gc_paused():
    """Pause automatic cyclic collection for an allocation-heavy phase
    whose garbage has no reference cycles, so reference counting frees
    it all.  The caller's state comes back on the way out, exception or
    not.  When the pause ends a collection of the two young generations
    runs here: otherwise the first automatic pass after the phase would
    walk every object the phase kept, and charge it to the next phase.
    A disabled collector is left alone.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect(1)


class Simulator:
    """Event queue plus the global cycle counter."""

    def __init__(self) -> None:
        self._queue: list[tuple[int, int, int, Callable[[], None]]] = []
        # rank -> the name its component registered under
        self.names: list[str] = []
        self.now = 0
        # events scheduled so far, which is also the next event's seq
        self.scheduled = 0
        self.processed = 0

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
        """Process events up to and including cycle ``until``, with
        cyclic collection paused (see ``gc_paused``)."""
        queue = self._queue
        with gc_paused():
            while queue and queue[0][0] <= until:
                time, _rank, _seq, action = heappop(queue)
                assert time >= self.now, "event queue went backwards"
                self.now = time
                self.processed += 1
                action()
        # land on the horizon even if the queue drained early
        if self.now < until:
            self.now = until

    def pending(self) -> int:
        return len(self._queue)
