"""Stream buffers: a sequential port's lane FIFOs and the indexed-stream
ReorderBuffer.

Both are timing state only. The kernel executor moves every word at
issue, so a sequential port keeps its lane FIFOs as one word count
(every lane fills and drains at the same rate) and a reorder-buffer
slot holds the cycle its word arrives.
"""

import pytest
from hypothesis import given, strategies as st

from repro.config import base_config
from repro.core.descriptors import StreamDescriptor, StreamKind
from repro.core.srf import PortDirection, StreamRegisterFile
from repro.core.stream_buffer import ReorderBuffer
from repro.errors import SrfError


def open_port(direction, capacity_words=8, words=64):
    """A sequential port with a ``capacity_words`` stream buffer."""
    srf = StreamRegisterFile(base_config())
    region = srf.allocator.allocate(words, "s")
    kind = (StreamKind.SEQUENTIAL_READ if direction is PortDirection.READ
            else StreamKind.SEQUENTIAL_WRITE)
    descriptor = StreamDescriptor("s", kind, region.base, length_records=words)
    return srf, srf.open_sequential(descriptor, direction, capacity_words)


class TestLaneFifo:
    """A sequential port's per-lane stream buffers, kept as one count."""

    def test_block_fill_then_simd_pops(self):
        srf, port = open_port(PortDirection.READ)
        srf.tick(0)  # grants one 4-word-per-lane block
        assert port.occupancy == 0
        for cycle in range(1, 4):
            srf.tick(cycle)
        assert port.occupancy == 4
        port.pop_simd()
        port.pop_simd()
        assert port.occupancy == 2

    def test_simd_pushes_then_block_drain(self):
        srf, port = open_port(PortDirection.WRITE)
        port.push_simd()
        port.push_simd()
        srf.tick(0)
        assert srf.stats.sequential_words == 0  # no full block, no flush
        port.flush()
        srf.tick(1)
        assert port.occupancy == 0
        assert srf.stats.sequential_words == 2 * srf.geometry.lanes

    def test_overflow_raises(self):
        _srf, port = open_port(PortDirection.WRITE, capacity_words=2)
        port.push_simd()
        port.push_simd()
        assert not port.can_push()
        with pytest.raises(SrfError):
            port.push_simd()

    def test_underflow_raises(self):
        _srf, port = open_port(PortDirection.READ, capacity_words=2)
        assert not port.can_pop()
        with pytest.raises(SrfError):
            port.pop_simd()


class TestReorderBuffer:
    """Slots hold arrival cycles; a word is there at ``now`` when it
    arrived before ``now``."""

    def test_in_order_fill_and_pop(self):
        rob = ReorderBuffer(4)
        t0, t1 = rob.reserve(), rob.reserve()
        assert (t0, t1) == (0, 1)
        rob.fill(t0, 3)
        rob.fill(t1, 3)
        assert not rob.head_ready(3)
        rob.pop(4)
        assert rob.head_ready(4)
        rob.pop(4)
        assert rob.occupancy == 0

    def test_word_is_there_only_after_its_arrival_cycle(self):
        # An in-lane grant stamps the arrival cycle ahead of time.
        rob = ReorderBuffer(2)
        t = rob.reserve()
        assert not rob.head_ready(100)  # reserved, not stamped
        rob.fill(t, 7)
        assert not rob.head_ready(7)
        assert not rob.head_ready_n(1, 7)
        with pytest.raises(SrfError):
            rob.pop(7)
        assert rob.head_ready(8)
        assert rob.head_ready_n(1, 8)
        rob.pop(8)

    def test_out_of_order_fill_blocks_head(self):
        # Figure 9: a younger completed access must not unblock the head.
        rob = ReorderBuffer(4)
        t0 = rob.reserve()
        t1 = rob.reserve()
        rob.fill(t1, 2)
        assert not rob.head_ready(10)
        with pytest.raises(SrfError):
            rob.pop(10)
        rob.fill(t0, 5)
        assert not rob.head_ready(5)
        assert rob.head_ready(6)
        assert rob.head_ready_n(2, 6)
        rob.pop(6)
        rob.pop(6)
        assert rob.occupancy == 0

    def test_record_waits_for_its_last_arrival(self):
        rob = ReorderBuffer(4)
        t0 = rob.reserve(2)
        rob.fill(t0, 3)
        rob.fill(t0 + 1, 5)
        assert rob.head_ready(4)
        assert not rob.head_ready_n(2, 5)
        assert rob.head_ready_n(2, 6)
        assert not rob.head_ready_n(3, 6)  # only two slots reserved

    def test_capacity_enforced(self):
        rob = ReorderBuffer(2)
        rob.reserve()
        rob.reserve()
        assert not rob.can_reserve()
        with pytest.raises(SrfError):
            rob.reserve()

    def test_pop_frees_capacity(self):
        rob = ReorderBuffer(1)
        t = rob.reserve()
        rob.fill(t, 0)
        rob.pop(1)
        assert rob.can_reserve()

    def test_double_fill_rejected(self):
        rob = ReorderBuffer(2)
        t = rob.reserve()
        rob.fill(t, 1)
        with pytest.raises(SrfError):
            rob.fill(t, 2)

    def test_unknown_ticket_rejected(self):
        rob = ReorderBuffer(2)
        with pytest.raises(SrfError):
            rob.fill(99, 0)

    @given(st.permutations(list(range(6))))
    def test_any_fill_order_pops_in_issue_order(self, fill_order):
        # Each step stamps one slot with the step's cycle. After it, at
        # the next cycle, exactly the stamped prefix of the issue order
        # is poppable: a slot leaves only once every older one has.
        rob = ReorderBuffer(6)
        tickets = [rob.reserve() for _ in range(6)]
        filled = set()
        popped = 0
        for cycle, position in enumerate(fill_order):
            rob.fill(tickets[position], cycle)
            filled.add(position)
            while rob.head_ready(cycle + 1):
                assert popped in filled
                rob.pop(cycle + 1)
                popped += 1
            assert popped == min(set(range(7)) - filled)
        assert popped == 6
