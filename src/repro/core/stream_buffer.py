"""The reorder buffer of an indexed stream (paper Section 4.4).

Indexed accesses complete out of order as bank and sub-array
arbitration grants them, but the cluster must see each lane's records
in issue order, the same interface as a sequential stream.
:class:`ReorderBuffer` is that buffer's timing: slots are reserved in
program order when addresses issue, stamped with the cycle their word
arrives, and popped strictly in order once that cycle has passed.
Kernel data never passes through it; the kernel executor moves every
word at issue.

A slot holds an arrival cycle, not a flag, because an in-lane read's
arrival is fixed when the bank grants it (grant plus the in-lane
latency): the grant writes that cycle into the slot and no completion
event is needed. A cross-lane read's slot is stamped when the return
network delivers the word. Until then a slot holds :data:`UNFILLED`, a
far-future sentinel, so readiness is one comparison with the current
cycle.

A sequential stream's buffer needs no class of its own: every lane
fills and drains at the same rate, so
:class:`~repro.core.srf.SequentialPort` keeps one word count.
"""

from __future__ import annotations

import sys
from collections import deque

from repro.errors import SrfError

#: Arrival cycle of a reserved slot whose access has not been granted
#: (in-lane) or delivered (cross-lane): later than any simulated cycle.
UNFILLED = sys.maxsize


class ReorderBuffer:
    """In-order delivery buffer for one indexed stream in one lane.

    ``reserve`` claims the next slot at address-issue time and returns a
    ticket; ``fill`` stamps that ticket's slot with the cycle its word
    arrives; ``pop`` succeeds only when the *oldest* reserved slot's word
    has arrived. ``now`` is the cycle the caller acts in: a word that
    arrived in an earlier cycle is there. This reproduces the stall
    behaviour of Figure 9: a cluster trying to read data whose access
    was delayed by a sub-array conflict stalls even if younger accesses
    completed.

    Tickets are dense and ascending, so the slots are one deque of
    arrival cycles in which position ``k`` (oldest first) holds ticket
    ``_head_ticket + k``.
    """

    def __init__(self, capacity_words: int):
        if capacity_words <= 0:
            raise SrfError("ReorderBuffer needs positive capacity")
        self.capacity = capacity_words
        self._slots = deque()  # arrival cycles, oldest first
        self._head_ticket = 0

    @property
    def occupancy(self) -> int:
        """Slots currently reserved (arrived or not)."""
        return len(self._slots)

    @property
    def space(self) -> int:
        return self.capacity - len(self._slots)

    def can_reserve(self, words: int = 1) -> bool:
        return len(self._slots) + words <= self.capacity

    def reserve(self, count: int = 1) -> int:
        """Reserve ``count`` in-order slots; returns the first ticket.

        The slots' tickets are the returned one and the ``count - 1``
        that follow it.
        """
        slots = self._slots
        if len(slots) + count > self.capacity:
            raise SrfError("reorder buffer full")
        ticket = self._head_ticket + len(slots)
        if count == 1:
            slots.append(UNFILLED)
        else:
            slots.extend([UNFILLED] * count)
        return ticket

    def fill(self, ticket: int, cycle: int) -> None:
        """Stamp a reserved, unstamped ticket's slot with the cycle its
        word arrives."""
        slots = self._slots
        index = ticket - self._head_ticket
        if not 0 <= index < len(slots) or slots[index] != UNFILLED:
            raise SrfError(f"unknown or already-filled ticket {ticket}")
        slots[index] = cycle

    def head_ready(self, now: int) -> bool:
        """True when the oldest reserved slot's word arrived before
        ``now``."""
        slots = self._slots
        return bool(slots) and slots[0] < now

    def head_ready_n(self, count: int, now: int) -> bool:
        """True when the ``count`` oldest reserved slots' words all
        arrived before ``now``.

        Used for multi-word records: the cluster reads a record only once
        every one of its words has returned.
        """
        slots = self._slots
        if count > len(slots):
            return False
        for k in range(count):
            if slots[k] >= now:
                return False
        return True

    def pop(self, now: int) -> None:
        """Release the oldest slot; raises if its word is not there at
        ``now``."""
        slots = self._slots
        if not slots or slots[0] >= now:
            raise SrfError("reorder buffer head not ready")
        self._head_ticket += 1
        slots.popleft()
