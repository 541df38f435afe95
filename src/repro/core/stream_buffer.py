"""The reorder buffer of an indexed stream (paper Section 4.4).

Indexed accesses complete out of order as bank and sub-array
arbitration grants them, but the cluster must see each lane's records
in issue order, the same interface as a sequential stream.
:class:`ReorderBuffer` is that buffer's timing: slots are reserved in
program order when addresses issue, marked filled as accesses complete,
and popped strictly in order. Kernel data never passes through it; the
kernel executor moves every word at issue.

A sequential stream's buffer needs no class of its own: every lane
fills and drains at the same rate, so
:class:`~repro.core.srf.SequentialPort` keeps one word count.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SrfError


class ReorderBuffer:
    """In-order delivery buffer for one indexed stream in one lane.

    ``reserve`` claims the next slot at address-issue time and returns a
    ticket; ``fill`` marks that ticket's slot filled whenever the SRF
    access completes; ``pop`` succeeds only when the *oldest* reserved
    slot has been filled. This reproduces the stall behaviour of
    Figure 9: a cluster trying to read data whose access was delayed by a
    sub-array conflict stalls even if younger accesses completed.

    Tickets are dense and ascending, so the slots are one deque of
    filled flags in which position ``k`` (oldest first) holds ticket
    ``_head_ticket + k``.
    """

    def __init__(self, capacity_words: int):
        if capacity_words <= 0:
            raise SrfError("ReorderBuffer needs positive capacity")
        self.capacity = capacity_words
        self._slots = deque()  # True once filled, oldest first
        self._head_ticket = 0

    @property
    def occupancy(self) -> int:
        """Slots currently reserved (filled or not)."""
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
            slots.append(False)
        else:
            slots.extend([False] * count)
        return ticket

    def fill(self, ticket: int) -> None:
        """Mark a previously reserved ticket's access complete."""
        slots = self._slots
        index = ticket - self._head_ticket
        if not 0 <= index < len(slots) or slots[index]:
            raise SrfError(f"unknown or already-filled ticket {ticket}")
        slots[index] = True

    def head_ready(self) -> bool:
        """True when the oldest reserved slot has been filled."""
        slots = self._slots
        return bool(slots) and slots[0]

    def head_ready_n(self, count: int) -> bool:
        """True when the ``count`` oldest reserved slots are all filled.

        Used for multi-word records: the cluster reads a record only once
        every one of its words has returned.
        """
        slots = self._slots
        if count > len(slots):
            return False
        for k in range(count):
            if not slots[k]:
                return False
        return True

    def pop(self) -> None:
        """Release the oldest slot; raises if it is not filled yet."""
        slots = self._slots
        if not slots or not slots[0]:
            raise SrfError("reorder buffer head not ready")
        self._head_ticket += 1
        slots.popleft()
