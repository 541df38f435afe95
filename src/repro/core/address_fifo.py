"""Per-lane address FIFOs for indexed SRF streams (paper Section 4.4).

Clusters compute *record* addresses with their ALUs and push them into a
dedicated FIFO per indexed stream per lane. A counter at the head of the
FIFO breaks each record access into a sequence of single-word accesses,
"significantly reducing the address generation overhead imposed on the
compute clusters". The SRF's local arbitration only ever consumes the
head word access of each FIFO, which is what produces the head-of-line
blocking studied in Figure 17.

The model does the head counter's expansion when a record is pushed: a
FIFO holds one plain ``(target_lane, bank_local_addr, ticket, last)``
tuple per word access, oldest first, and arbitration reads the head as
``_words[0]``. ``ticket`` is the reorder-buffer slot a read fills (None
for a write); ``last`` marks a record's final word. For in-lane streams
the target lane is the FIFO's own lane; a cross-lane record striped
across banks may straddle lanes. No entry carries a data word: the
address decides which bank and sub-array the access occupies, and the
kernel executor has already moved the word itself.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SrfError


class AddressFifo:
    """Pending word accesses of one indexed stream in one lane.

    Capacity is counted in *records*, matching Table 3's "Address FIFO
    size (per lane per stream)" parameter; the head counter that expands
    records into words is free. :attr:`records` counts the records with
    a word still queued, so it falls only when a record's ``last`` word
    is consumed. :class:`~repro.core.srf.IndexedStream` is the only
    producer and the SRF's indexed arbitration the only consumer; both
    work on ``_words`` and ``records`` directly, which is what keeps the
    per-word path free of calls and objects.
    """

    __slots__ = ("capacity", "lane", "records", "_words")

    def __init__(self, capacity_entries: int, lane: int):
        if capacity_entries <= 0:
            raise SrfError("AddressFifo needs positive capacity")
        self.capacity = capacity_entries
        self.lane = lane
        self.records = 0
        self._words = deque()
