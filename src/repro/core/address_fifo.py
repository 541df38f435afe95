"""Per-lane address FIFOs for indexed SRF streams (paper Section 4.4).

Clusters compute *record* addresses with their ALUs and push them into a
dedicated FIFO per indexed stream per lane. A counter at the head of the
FIFO breaks each record access into a sequence of single-word accesses,
"significantly reducing the address generation overhead imposed on the
compute clusters". The SRF's local arbitration only ever consumes the
head word access of each FIFO, which is what produces the head-of-line
blocking studied in Figure 17.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from repro.errors import SrfError


class RecordAccess:
    """One record-granular entry of an address FIFO.

    ``words`` lists the record's single-word targets in order as
    ``(target_lane, bank_local_addr)`` pairs — for in-lane streams every
    target lane equals the issuing lane, while a cross-lane record
    striped across banks may straddle lanes. ``tickets`` lists the
    reorder-buffer tickets the words fill (reads); ``values`` lists the
    words to store (writes). Exactly one of the two is set.
    """

    __slots__ = ("words", "tickets", "values")

    def __init__(self, words, tickets=None, values=None):
        if (tickets is None) == (values is None):
            raise SrfError("a record access is either a read or a write")
        payload = tickets if tickets is not None else values
        if len(payload) != len(words):
            raise SrfError("one ticket/value per word required")
        self.words = words  # of (target_lane, bank_local_addr)
        self.tickets = tickets  # reads
        self.values = values  # writes

    @property
    def is_read(self) -> bool:
        return self.tickets is not None


class WordAccess(NamedTuple):
    """A single-word access peeled off the head of an address FIFO."""

    bank_local_addr: int
    target_lane: int
    source_lane: int
    stream_id: int
    ticket: "int | None"  # reads: reorder ticket; writes: None
    value: object  # writes: the word to store; reads: None

    @property
    def is_read(self) -> bool:
        return self.ticket is not None


#: Sentinel marking the head-word cache as needing recomputation (None is
#: a valid cached value — it means "FIFO empty").
_STALE = object()


class AddressFifo:
    """FIFO of pending record accesses for one indexed stream in one lane.

    Capacity is counted in *record entries*, matching Table 3's
    "Address FIFO size (per lane per stream)" parameter; the head counter
    that expands records into words is free.
    """

    def __init__(self, capacity_entries: int, stream_id: int, lane: int):
        if capacity_entries <= 0:
            raise SrfError("AddressFifo needs positive capacity")
        self.capacity = capacity_entries
        self.stream_id = stream_id
        self.lane = lane
        self._entries = deque()
        self._head_word = 0  # expansion counter at the FIFO head
        # Arbitration re-peeks blocked heads every cycle, so the head
        # word access is cached until push/advance/clear move the head.
        self._head_cache = _STALE

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def push(self, access: RecordAccess) -> None:
        """Enqueue a record access (cluster-side)."""
        entries = self._entries
        if len(entries) >= self.capacity:
            raise SrfError("address FIFO overflow")
        if not access.words:
            raise SrfError("empty record access")
        if not entries:
            self._head_cache = _STALE  # pushing onto an empty FIFO moves the head
        entries.append(access)

    def peek_word(self) -> "WordAccess | None":
        """The head single-word access, or None when the FIFO is empty."""
        cached = self._head_cache
        if cached is not _STALE:
            return cached
        if not self._entries:
            word = None
        else:
            head = self._entries[0]
            index = self._head_word
            target_lane, addr = head.words[index]
            tickets = head.tickets
            if tickets is not None:
                word = WordAccess(addr, target_lane, self.lane,
                                  self.stream_id, tickets[index], None)
            else:
                word = WordAccess(addr, target_lane, self.lane,
                                  self.stream_id, None, head.values[index])
        self._head_cache = word
        return word

    def advance(self) -> None:
        """Consume the head word access (it was granted this cycle)."""
        if not self._entries:
            raise SrfError("advance on empty address FIFO")
        head = self._entries[0]
        self._head_word += 1
        if self._head_word >= len(head.words):
            self._entries.popleft()
            self._head_word = 0
        self._head_cache = _STALE

    def clear(self) -> None:
        self._entries.clear()
        self._head_word = 0
        self._head_cache = _STALE
