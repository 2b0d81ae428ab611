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

Blocked iff anchored: once the guards are synced for a grant (a stall
anchors and drops its own deadline in ``set_stall``; ``quota_aware``
anchors exhausted requesters lazily and drops replenished slots), a
requester is blocked exactly when it holds a guard deadline.  So a grant
with no deadline held anywhere, the usual case, needs no guard or
eligibility work at all, and otherwise one pass over the requesters
splits them into owed, waiting and eligible.  Every policy picks by
precomputed per-slot positions instead of building a scan order.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterable

from .errors import SimulationError

ROUND_ROBIN = "round_robin"
FIXED_PRIORITY = "fixed_priority"
QUOTA_AWARE = "quota_aware"
POLICIES = (ROUND_ROBIN, FIXED_PRIORITY, QUOTA_AWARE)


def rotation(slots: list[int], last: int | None) -> list[int]:
    """Slots in round-robin scan order: strictly after ``last``, wrapping."""
    if last not in slots:
        return list(slots)
    i = slots.index(last)
    return slots[i + 1:] + slots[:i + 1]


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
        # is_stalled(slot): the stall mask's own membership test, a call
        # into C, since a fixed-priority bus asks it as it judges a grant
        self.is_stalled = self._stalled.__contains__
        # slot -> next guard deadline; present iff the slot is currently
        # blocked (stalled or exhausted) and has been anchored
        self._guard_next: dict[int, int] = {}
        self.guard_grants = 0
        # last granted slot -> {slot: its place in the round-robin scan
        # that starts strictly after it}; None (nothing granted yet)
        # scans in slot order
        self._scan = {
            last: {s: i for i, s in enumerate(rotation(self.slots, last))}
            for last in [None, *self.slots]}
        # slot -> its place in priority order, best rank first
        self._priority = {s: i for i, s in enumerate(sorted(
            self.slots, key=lambda s: (self.ranks.get(s, s), s)))}

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

    def _blocked(self, slot: int) -> bool:
        if slot in self._stalled:
            return True
        return self.policy == QUOTA_AWARE and self.is_exhausted(slot)

    # -- selection -------------------------------------------------------

    def _sync_guards(self, requesters: Collection[int], now: int) -> None:
        # quota_aware only: lazily anchor quota-blocked requesters, drop
        # state for slots that are no longer blocked (e.g. quota
        # replenished); set_stall anchors and drops stalls itself, so the
        # other policies have nothing to sync
        for slot in self.slots:
            if self._blocked(slot):
                if slot in requesters and slot not in self._guard_next:
                    self._guard_next[slot] = now + self.guard_window
            else:
                self._guard_next.pop(slot, None)

    def grant(self, requesters: Collection[int], now: int) -> int | None:
        """Pick a requester and commit the grant.  None if nothing is
        eligible (all requesters blocked with unexpired guards).

        ``requesters`` is a collection of slots (a list or a set); it is
        read more than once and never kept.
        """
        self.last_was_guard = False
        if not requesters:
            return None
        if self.policy == QUOTA_AWARE:
            self._sync_guards(requesters, now)
        scan = self._scan[self.last_granted]
        guard_next = self._guard_next
        if guard_next:
            # blocked iff anchored: one pass finds the eligible requesters
            # and the most overdue blocked one.  Guard escape comes first:
            # an expired deadline preempts normal rotation, otherwise its
            # minimum service would depend on where the rotation pointer
            # happens to sit
            eligible = []
            owed = None     # (deadline, scan place) of the most overdue
            for s in requesters:
                deadline = guard_next.get(s)
                if deadline is None:
                    eligible.append(s)
                elif deadline <= now and (
                        owed is None or (deadline, scan[s]) < owed):
                    owed, slot = (deadline, scan[s]), s
            if owed is not None:
                # advance past every deadline at or before now, never
                # banking missed windows into a burst
                g = self.guard_window
                nxt = owed[0]
                guard_next[slot] = nxt + g * (((now - nxt) // g) + 1)
                self.guard_grants += 1
                self.last_granted = slot
                self.last_was_guard = True
                return slot
            if not eligible:
                return None
            requesters = eligible
        if len(requesters) == 1:
            slot, = requesters
        else:
            order = (self._priority if self.policy == FIXED_PRIORITY
                     else scan)
            slot = min(requesters, key=order.__getitem__)
        self.last_granted = slot
        return slot

    def next_guard_deadline(self, requesters: Collection[int],
                            now: int) -> int | None:
        """Earliest guard deadline among blocked requesters, for waking a
        resource that would otherwise sit idle.  None if some requester
        is grantable right away or nothing is pending."""
        if not requesters:
            return None
        if self.policy == QUOTA_AWARE:
            self._sync_guards(requesters, now)
        # blocked iff anchored
        deadlines = [self._guard_next.get(s) for s in requesters]
        if None in deadlines:
            return None
        return max(min(deadlines), now)
