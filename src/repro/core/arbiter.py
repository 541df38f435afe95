"""Round-robin arbitration primitives for the SRF port (paper §4.4).

Arbitration for the single SRF port is a two-stage process: *global*
arbitration selects either one sequential stream or all indexed streams;
*local* arbitration in each lane then picks which indexed accesses
proceed, subject to sub-array conflicts. Section 5.4 notes that a simple
round-robin scheme is within 10% of complex stall-aware arbiters, so
round-robin is what both stages use here. The global stage and the
choice among sequential streams use :class:`RoundRobinArbiter`; each
bank's local stage keeps the same rotating pointer as a plain int
(:meth:`~repro.core.srf.StreamRegisterFile._grant_indexed`).
"""

from __future__ import annotations


class RoundRobinArbiter:
    """Fair pick among a dynamic set of requesters.

    :meth:`pick` returns the requester at the rotating pointer, then
    advances the pointer past the winner.
    """

    def __init__(self):
        self._pointer = 0

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
