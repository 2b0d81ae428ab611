"""Slot arbitration shared by the bus and the crossbar output ports.

Three policies:

* ``round_robin``: scan slots cyclically starting strictly after the last
  granted slot, take the first requester.
* ``fixed_priority``: take the requester with the best (lowest) rank,
  ties broken by slot number.  Default rank is the slot number.
* ``quota_aware``: round robin, but slots whose contention quota is
  exhausted (per an external predicate) are skipped as if stalled.

A stall mask overlays any policy.  Stalled slots are normally skipped,
with one escape hatch: every stalled requester is owed one grant per
guard window of G cycles, measured against deadlines anchored when the
block began.  Anchored deadlines (rather than "G cycles after the last
guard grant") are what keeps a saturating stalled master at exactly one
completion per window; re-anchoring drifts by up to one occupancy per
window and eventually skips a window entirely.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .errors import SimulationError

ROUND_ROBIN = "round_robin"
FIXED_PRIORITY = "fixed_priority"
QUOTA_AWARE = "quota_aware"
POLICIES = (ROUND_ROBIN, FIXED_PRIORITY, QUOTA_AWARE)


class Arbiter:
    def __init__(self, slots: Iterable[int], policy: str = ROUND_ROBIN,
                 guard_window: int = 100,
                 ranks: dict[int, int] | None = None,
                 is_exhausted: Callable[[int], bool] | None = None):
        self.slots = list(slots)
        if policy not in POLICIES:
            raise SimulationError(f"unknown arbitration policy {policy!r}")
        self.policy = policy
        self.guard_window = guard_window
        self.ranks = dict(ranks or {})
        self.is_exhausted = is_exhausted or (lambda slot: False)
        self.last_granted: int | None = None
        self.last_was_guard = False     # set by each grant() call
        self._stalled: set[int] = set()
        # slot -> next guard deadline; present iff the slot is currently
        # blocked (stalled or exhausted) and has been anchored
        self._guard_next: dict[int, int] = {}
        self.guard_grants = 0

    # -- stall mask ------------------------------------------------------

    def set_stall(self, slot: int, on: bool, now: int) -> None:
        if on:
            if slot not in self._stalled:
                self._stalled.add(slot)
                # anchor immediately; the first guard grant is owed one
                # full window after the stall began
                self._guard_next.setdefault(slot, now + self.guard_window)
        else:
            self._stalled.discard(slot)
            if not self._blocked(slot):
                self._guard_next.pop(slot, None)

    def is_stalled(self, slot: int) -> bool:
        return slot in self._stalled

    def _blocked(self, slot: int) -> bool:
        if slot in self._stalled:
            return True
        return self.policy == QUOTA_AWARE and self.is_exhausted(slot)

    # -- selection -------------------------------------------------------

    def _rotation(self) -> list[int]:
        """Slots in scan order: strictly after last_granted, wrapping."""
        if self.last_granted is None or self.last_granted not in self.slots:
            return list(self.slots)
        i = self.slots.index(self.last_granted)
        return self.slots[i + 1:] + self.slots[:i + 1]

    def _sync_guards(self, requesters: set[int], now: int) -> None:
        # lazily anchor quota-blocked requesters, drop state for slots
        # that are no longer blocked (e.g. quota replenished)
        for slot in self.slots:
            if self._blocked(slot):
                if slot in requesters and slot not in self._guard_next:
                    self._guard_next[slot] = now + self.guard_window
            else:
                self._guard_next.pop(slot, None)

    def grant(self, requesters: Iterable[int], now: int) -> int | None:
        """Pick a requester and commit the grant.  None if nothing is
        eligible (all requesters blocked with unexpired guards)."""
        req = set(requesters)
        self.last_was_guard = False
        if not req:
            return None
        self._sync_guards(req, now)

        # guard escape first: a blocked requester whose deadline passed
        # preempts normal rotation, otherwise its minimum service would
        # depend on where the rotation pointer happens to sit
        expired = [s for s in req if s in self._guard_next
                   and self._guard_next[s] <= now]
        if expired:
            order = self._rotation()
            slot = min(expired, key=lambda s: (self._guard_next[s], order.index(s)))
            # advance past every deadline at or before now, never banking
            # missed windows into a burst
            g = self.guard_window
            nxt = self._guard_next[slot]
            self._guard_next[slot] = nxt + g * (((now - nxt) // g) + 1)
            self.guard_grants += 1
            self.last_granted = slot
            self.last_was_guard = True
            return slot

        eligible = {s for s in req if not self._blocked(s)}
        if not eligible:
            return None
        if self.policy == FIXED_PRIORITY:
            slot = min(eligible, key=lambda s: (self.ranks.get(s, s), s))
        else:
            slot = next(s for s in self._rotation() if s in eligible)
        self.last_granted = slot
        return slot

    def next_guard_deadline(self, requesters: Iterable[int], now: int) -> int | None:
        """Earliest guard deadline among blocked requesters, for waking a
        resource that would otherwise sit idle.  None if some requester
        is grantable right away or nothing is pending."""
        req = set(requesters)
        if not req:
            return None
        self._sync_guards(req, now)
        if any(not self._blocked(s) for s in req):
            return None
        deadlines = [self._guard_next[s] for s in req if s in self._guard_next]
        if not deadlines:
            return None
        return max(min(deadlines), now)
