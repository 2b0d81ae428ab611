"""Slot arbitration shared by the bus and the crossbar output ports.

Three policies:

* ``round_robin``: scan slots cyclically starting strictly after the last
  granted slot, take the first requester.
* ``fixed_priority``: take the requester with the best (lowest) rank,
  ties broken by slot number.  Default rank is the slot number.
* ``quota_aware``: round robin, but slots whose contention quota is
  exhausted (``crossed``) are skipped as if stalled.

A slot's stall line and quota are the ``QuotaState`` of the master that
gates it, handed over in ``quota_of``.  A stalled slot is skipped under
any policy, with one escape hatch: every blocked requester is owed one
grant per guard window of G cycles, measured against deadlines anchored
when the block began.  Anchored deadlines (rather than "G cycles after
the last guard grant") are what keeps a saturating stalled master at
exactly one completion per window; re-anchoring drifts by up to one
occupancy per window and eventually skips a window entirely.

Blocked iff anchored: once the guards are synced for a grant
(``set_stall`` anchors and drops a stall as the monitor raises and drops
the line; ``quota_aware`` anchors exhausted requesters lazily and drops
replenished slots), a requester is blocked exactly when it holds a guard
deadline.  So a grant with no deadline held anywhere, the usual case,
needs no guard or eligibility work at all, and otherwise one pass over
the requesters splits them into owed, waiting and eligible; finding only
waiting ones, it returns None and sets ``wake_at`` to their earliest
deadline.  Every policy picks by each slot's place in one order, round
robin's (``slots``) or priority's, instead of building a scan order.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Collection, Iterable

from .errors import SimulationError

ROUND_ROBIN = "round_robin"
FIXED_PRIORITY = "fixed_priority"
QUOTA_AWARE = "quota_aware"
POLICIES = (ROUND_ROBIN, FIXED_PRIORITY, QUOTA_AWARE)


class Arbiter:
    def __init__(self, slots: Iterable[int], policy: str = ROUND_ROBIN,
                 guard_window: int = 100,
                 ranks: dict[int, int] | None = None):
        self.slots = list(slots)
        if policy not in POLICIES:
            raise SimulationError(f"unknown arbitration policy {policy!r}")
        self.policy = policy
        self.guard_window = guard_window
        self.ranks = dict(ranks or {})
        # slot -> the QuotaState of the master whose stall line gates the
        # slot, handed over by ``ContentionMonitor.add_quota``
        self.quota_of = {}
        self.last_granted: int | None = None
        self.last_was_guard = False     # set by each grant() call
        self.wake_at: int | None = None     # set by each None grant()
        # slot -> next guard deadline; present iff the slot is currently
        # blocked (stalled or exhausted) and has been anchored
        self._guard_next: dict[int, int] = {}
        self.guard_grants = 0
        # slot -> its place in ``slots``, the round-robin order; None
        # (nothing granted yet) -> -1, so the first scan starts at place 0
        self._place = {None: -1, **{s: i for i, s in enumerate(self.slots)}}
        # slot -> its place in priority order, best rank first
        self._priority = {s: i for i, s in enumerate(sorted(
            self.slots, key=lambda s: (self.ranks.get(s, s), s)))}

    # -- stall lines -----------------------------------------------------

    def set_stall(self, slot: int, on: bool, now: int) -> None:
        if on:
            # anchor immediately; the first guard grant is owed one full
            # window after the stall began
            self._guard_next.setdefault(slot, now + self.guard_window)
        elif not self._blocked(slot):
            self._guard_next.pop(slot, None)

    def is_stalled(self, slot: int) -> bool:
        state = self.quota_of.get(slot)
        return state is not None and state.stalled

    def _blocked(self, slot: int) -> bool:
        state = self.quota_of.get(slot)
        return state is not None and (state.stalled or (
            self.policy == QUOTA_AWARE and state.crossed))

    # -- selection -------------------------------------------------------

    def _sync_guards(self, requesters: Collection[int], now: int) -> None:
        # quota_aware only: lazily anchor quota-blocked requesters, drop
        # state for slots no longer blocked (e.g. quota replenished); only
        # a slot with a quota can be either.  set_stall anchors and drops
        # stalls itself, so the other policies have nothing to sync
        for slot, state in self.quota_of.items():
            if state.stalled or state.crossed:
                if slot in requesters and slot not in self._guard_next:
                    self._guard_next[slot] = now + self.guard_window
            else:
                self._guard_next.pop(slot, None)

    def grant(self, requesters: Collection[int], now: int) -> int | None:
        """Pick a requester and commit the grant.  None if nothing is
        eligible (all requesters blocked with unexpired guards, the
        earliest of which is then ``wake_at``; None if no requester).

        ``requesters`` is a collection of slots (a list or a set); it is
        read more than once and never kept.
        """
        self.last_was_guard = False
        if not requesters:
            self.wake_at = None
            return None
        if self.policy == QUOTA_AWARE:
            self._sync_guards(requesters, now)
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
                elif deadline <= now:
                    place = self._place
                    key = (deadline, (place[s] - place[self.last_granted] - 1)
                           % len(self.slots))
                    if owed is None or key < owed:
                        owed, slot = key, s
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
                self.wake_at = min(map(guard_next.__getitem__, requesters))
                return None
            requesters = eligible
        if len(requesters) == 1:
            slot, = requesters
        elif self.policy == FIXED_PRIORITY:
            slot = min(requesters, key=self._priority.__getitem__)
        else:
            # the first place after the last granted slot's, else wrap
            place = self._place
            places = sorted(map(place.__getitem__, requesters))
            i = bisect_right(places, place[self.last_granted])
            slot = self.slots[places[i % len(places)]]
        self.last_granted = slot
        return slot
