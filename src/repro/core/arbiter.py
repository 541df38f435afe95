"""Round-robin arbitration primitives for the SRF port (paper §4.4).

Arbitration for the single SRF port is a two-stage process: *global*
arbitration selects either one sequential stream or all indexed streams;
*local* arbitration in each lane then picks which indexed accesses
proceed, subject to sub-array conflicts. Section 5.4 notes that a simple
round-robin scheme is within 10% of complex stall-aware arbiters, so
round-robin is what both stages use here.
"""

from __future__ import annotations

from repro.errors import SrfError


class RoundRobinArbiter:
    """Fair pick among a dynamic set of requesters.

    :meth:`pick` returns the requester at the rotating pointer, then
    advances the pointer past the winner.
    """

    def __init__(self):
        self._pointer = 0
        #: ``(count, start)`` -> scan order; bank arbitration asks for
        #: the same few rotations every cycle.
        self._orders = {}

    def pick(self, candidates):
        """Select the next candidate, or None when there is none.

        ``candidates`` is an indexable sequence. The rotation pointer is
        interpreted modulo the current candidate count, so the candidate
        list may change size between calls.
        """
        count = len(candidates)
        if count == 0:
            return None
        position = self._pointer % count
        self._pointer = position + 1
        return candidates[position]

    def rotation(self, count: int) -> tuple:
        """Index order for scanning ``count`` items starting at the pointer."""
        if count < 0:
            raise SrfError("negative candidate count")
        if count == 0:
            return ()
        key = (count, self._pointer % count)
        order = self._orders.get(key)
        if order is None:
            start = key[1]
            order = self._orders[key] = tuple(
                (start + step) % count for step in range(count)
            )
        return order

    def advance(self, count: int) -> None:
        """Rotate the pointer by one position over ``count`` items."""
        if count > 0:
            self._pointer = (self._pointer + 1) % count
