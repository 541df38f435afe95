"""Address FIFOs: record->word expansion, record capacity, head order.

A FIFO holds one ``(target_lane, bank_local_addr, ticket, last)`` tuple
per word access and no data word; its indexed stream pushes them and
the SRF's arbitration consumes the head, so the tests drive both through
an :class:`~repro.core.srf.IndexedStream`.
"""

import pytest

from repro.config import isrf4_config
from repro.core import SrfArray
from repro.core.address_fifo import AddressFifo
from repro.core.descriptors import IndexSpace, StreamDescriptor, StreamKind
from repro.core.srf import StreamRegisterFile
from repro.errors import SrfError
from repro.kernel import KernelBuilder
from repro.machine import KernelInvocation, StreamProcessor
from repro.machine.executor import KernelExecutor


def open_stream(kind, record_words=1, records=16, fifo_records=2):
    """One indexed stream of ``kind`` on a fresh ISRF4 SRF."""
    srf = StreamRegisterFile(isrf4_config(address_fifo_words=fifo_records))
    crosslane = kind is StreamKind.CROSSLANE_INDEXED_READ
    words = records * record_words
    region = srf.allocator.allocate(
        words if crosslane else words * srf.geometry.lanes, "t"
    )
    descriptor = StreamDescriptor(
        "t", kind, region.base, length_records=records,
        record_words=record_words,
        index_space=IndexSpace.GLOBAL if crosslane else IndexSpace.PER_LANE,
    )
    return srf, srf.open_indexed(descriptor)


class TestAddressFifo:
    def test_single_word_records(self):
        srf, stream = open_stream(StreamKind.INLANE_INDEXED_READ)
        stream.issue_read(3, 10)
        fifo = stream.fifos[3]
        assert fifo.lane == 3
        assert list(fifo._words) == [(3, stream.local_base + 10, 0, True)]
        assert fifo.records == 1
        srf.tick(0)
        assert not fifo._words
        assert fifo.records == 0

    def test_record_expands_to_word_sequence(self):
        # The head counter's expansion of a record into single-word
        # accesses (paper Section 4.4) happens at push: a 3-word
        # cross-lane record becomes three words that straddle two banks.
        srf, stream = open_stream(
            StreamKind.CROSSLANE_INDEXED_READ, record_words=3
        )
        stream.issue_read(0, 1)  # global words 3, 4, 5
        split = srf.geometry.split
        start = stream.descriptor.base + 3
        expected = [(*split(start + j), j, j == 2) for j in range(3)]
        assert list(stream.fifos[0]._words) == expected
        assert len({word[0] for word in expected}) == 2
        assert stream.fifos[0].records == 1
        assert stream.pending_words == 3

    def test_capacity_counts_records_not_words(self):
        srf, stream = open_stream(
            StreamKind.INLANE_INDEXED_READ, record_words=2, fifo_records=2
        )
        fifo = stream.fifos[0]
        stream.issue_read(0, 0)
        stream.issue_read(0, 1)
        assert len(fifo._words) == 4
        assert fifo.records == fifo.capacity == 2
        assert not stream.can_issue(0)
        with pytest.raises(SrfError):
            stream.issue_read(0, 2)  # overflow
        srf.tick(0)  # grants one word of the head record
        assert len(fifo._words) == 3
        assert fifo.records == 2  # a partly granted record still counts
        assert not stream.can_issue(0)
        srf.tick(1)  # the head record's last word leaves
        assert fifo.records == 1
        assert stream.can_issue(0)

    def test_head_of_line_order_preserved(self):
        srf, stream = open_stream(
            StreamKind.INLANE_INDEXED_READ, fifo_records=4
        )
        fifo = stream.fifos[0]
        stream.issue_read(0, 1)
        stream.issue_read(0, 2)
        assert fifo._words[0][1] == stream.local_base + 1
        srf.tick(0)  # one FIFO offers only its head each cycle
        assert [word[1] for word in fifo._words] == [stream.local_base + 2]
        assert srf.stats.inlane_grants == 1

    def test_write_records_carry_values(self):
        # The executor stores a write record's words when it issues the
        # write; the record's FIFO entries carry the word addresses they
        # went to, with no ticket and no word.
        proc = StreamProcessor(isrf4_config())
        b = KernelBuilder("k")
        b.idxl_ostream("t", record_words=2)
        kernel = b.build()
        view = SrfArray(proc.srf, 16 * 2 * 8, "t").inlane_write(16, 2)
        executor = KernelExecutor(
            proc.config, proc.srf,
            KernelInvocation(kernel, {"t": view}, iterations=0),
            proc.schedule_kernel(kernel),
        )
        executor.idx_write(
            kernel.streams["t"], [(4, ("a", "b"))] + [None] * 7
        )
        stream = executor._indexed["t"]
        assert stream.issue_writes([4] + [None] * 7)
        base = stream.local_base + 8
        assert list(stream.fifos[0]._words) == [
            (0, base, None, False),
            (0, base + 1, None, True),
        ]
        assert proc.srf.storage.read_lane(0, base) == "a"
        assert proc.srf.storage.read_lane(0, base + 1) == "b"
        assert stream.outstanding_writes == 2
        for cycle in range(8):
            proc.srf.tick(cycle)
        assert proc.srf.stats.indexed_write_grants == 2
        assert stream.quiescent

    def test_advance_on_empty_raises(self):
        # Nothing leaves an empty FIFO: no record was issued, so popping
        # one raises and the SIMD form stalls.
        srf, stream = open_stream(StreamKind.INLANE_INDEXED_READ)
        srf.tick(0)
        assert srf.stats.indexed_cycles == 0
        with pytest.raises(SrfError):
            stream.pop_record(0)
        assert stream.pop_records([1] + [0] * 7) is False

    def test_peek_on_empty_returns_none(self):
        fifo = AddressFifo(capacity_entries=1, lane=0)
        assert not fifo._words
        assert fifo.records == 0
        with pytest.raises(SrfError):
            AddressFifo(capacity_entries=0, lane=0)
