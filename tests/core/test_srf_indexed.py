"""Indexed SRF access: in-lane, cross-lane, conflicts, ISRF1 vs ISRF4."""

import pytest

from repro.config import isrf1_config, isrf4_config
from repro.core.descriptors import IndexSpace, StreamDescriptor, StreamKind
from repro.core.srf import StreamRegisterFile
from repro.errors import SrfAccessError, SrfError


def make_isrf4(**overrides):
    return StreamRegisterFile(isrf4_config(**overrides))


def make_isrf1(**overrides):
    return StreamRegisterFile(isrf1_config(**overrides))


def inlane_table(srf, records=64, name="lut"):
    """Allocate a per-lane table and fill each bank with lane*1000+i."""
    desc_words = records * srf.geometry.lanes
    region = srf.allocator.allocate(desc_words, name)
    desc = StreamDescriptor(
        name, StreamKind.INLANE_INDEXED_READ, region.base,
        length_records=records,
    )
    stream = srf.open_indexed(desc)
    local_base = (region.base // srf.geometry.block_words) * \
        srf.geometry.words_per_lane_access
    for lane in range(srf.geometry.lanes):
        for i in range(records):
            srf.storage.write_lane(lane, local_base + i, lane * 1000 + i)
    return stream


def drain_until_ready(srf, stream, lane, limit=32, start=0):
    cycle = start
    while not stream.data_ready(lane):
        if cycle - start > limit:
            raise AssertionError("data never became ready")
        srf.tick(cycle)
        cycle += 1
    return cycle


class TestInLaneIndexedRead:
    def test_lookup_returns_lane_local_value(self):
        srf = make_isrf4()
        stream = inlane_table(srf)
        stream.issue_read(lane=3, record_index=17)
        drain_until_ready(srf, stream, lane=3)
        assert stream.pop_data(3) == 3017

    def test_latency_is_pipelined_four_cycles(self):
        srf = make_isrf4()
        stream = inlane_table(srf)
        stream.issue_read(lane=0, record_index=0)
        # Grant at cycle 0, data ready after completing cycle 4's tick.
        for cycle in range(4):
            srf.tick(cycle)
            assert not stream.data_ready(0)
        srf.tick(4)
        assert stream.data_ready(0)

    def test_one_access_per_stream_per_cycle(self):
        # Section 5.3: "our current implementation limits each indexed
        # stream to issuing a single indexed SRF access per cycle", so two
        # accesses of the SAME stream serialize even across sub-arrays.
        srf = make_isrf4()
        stream = inlane_table(srf)
        stream.issue_read(0, 0)
        stream.issue_read(0, 4)  # different sub-array, same stream
        for cycle in range(5):
            srf.tick(cycle)
        assert stream.data_ready(0)
        assert stream.pop_data(0) == 0
        assert not stream.data_ready(0)
        srf.tick(5)
        assert stream.pop_data(0) == 4

    def test_distinct_streams_and_subarrays_proceed_in_parallel(self):
        # ISRF4's extra bandwidth shows up with multiple indexed streams
        # hitting distinct sub-arrays (Rijndael and Filter in the paper).
        srf = make_isrf4()
        a = inlane_table(srf, name="lut_a")
        b = inlane_table(srf, name="lut_b")
        a.issue_read(0, 0)
        b.issue_read(0, 4)  # different stream and different sub-array
        for cycle in range(5):
            srf.tick(cycle)
        assert a.data_ready(0) and b.data_ready(0)
        assert srf.stats.indexed_cycles == 1

    def test_distinct_streams_same_subarray_serialize_on_isrf4(self):
        srf = make_isrf4()
        a = inlane_table(srf, name="lut_a")
        b = inlane_table(srf, name="lut_b")
        a.issue_read(0, 0)
        b.issue_read(0, 0)  # same sub-array of the same bank
        for cycle in range(5):
            srf.tick(cycle)
        ready = [a.data_ready(0), b.data_ready(0)]
        assert sorted(ready) == [False, True]
        srf.tick(5)
        assert a.data_ready(0) and b.data_ready(0)

    def test_same_subarray_serializes(self):
        srf = make_isrf4()
        stream = inlane_table(srf)
        # Records 0 and 1 share a sub-array: second access waits a cycle.
        stream.issue_read(0, 0)
        stream.issue_read(0, 1)
        for cycle in range(5):
            srf.tick(cycle)
        assert stream.data_ready(0)
        assert stream.pop_data(0) == 0
        assert not stream.data_ready(0)
        srf.tick(5)
        assert stream.data_ready(0)
        assert stream.pop_data(0) == 1

    def test_isrf1_grants_one_word_per_lane_per_cycle(self):
        srf = make_isrf1()
        stream = inlane_table(srf)
        stream.issue_read(0, 0)
        stream.issue_read(0, 4)  # different sub-arrays, still serialized
        for cycle in range(5):
            srf.tick(cycle)
        assert stream.pop_data(0) == 0
        assert not stream.data_ready(0)
        srf.tick(5)
        assert stream.pop_data(0) == 4

    def test_lanes_are_independent(self):
        srf = make_isrf4()
        stream = inlane_table(srf)
        for lane in range(8):
            stream.issue_read(lane, lane)
        for cycle in range(5):
            srf.tick(cycle)
        for lane in range(8):
            assert stream.pop_data(lane) == lane * 1000 + lane
        assert srf.stats.inlane_grants == 8
        assert srf.stats.indexed_cycles == 1

    def test_issue_backpressure_via_can_issue(self):
        srf = make_isrf4(address_fifo_words=2, stream_buffer_words=4)
        stream = inlane_table(srf)
        issued = 0
        while stream.can_issue(0):
            stream.issue_read(0, issued)
            issued += 1
        assert issued == 2  # FIFO capacity limits first
        with pytest.raises(SrfError):
            stream.issue_read(0, 0)

    def test_rob_capacity_limits_issue(self):
        srf = make_isrf4(address_fifo_words=8, stream_buffer_words=4)
        stream = inlane_table(srf)
        count = 0
        while stream.can_issue(0):
            stream.issue_read(0, count)
            count += 1
        assert count == 4  # reorder buffer slots limit


class TestInLaneIndexedWrite:
    def test_write_lands_and_drains(self):
        srf = make_isrf4()
        records = 64
        region = srf.allocator.allocate(records * 8, "wtab")
        desc = StreamDescriptor(
            "wtab", StreamKind.INLANE_INDEXED_WRITE, region.base,
            length_records=records,
        )
        stream = srf.open_indexed(desc)
        stream.issue_write(2, 5, [42])
        assert stream.outstanding_writes == 1
        for cycle in range(6):
            srf.tick(cycle)
        assert stream.outstanding_writes == 0
        assert stream.quiescent
        local_base = (region.base // srf.geometry.block_words) * 4
        assert srf.storage.read_lane(2, local_base + 5) == 42

    def test_read_api_rejected_on_write_stream(self):
        srf = make_isrf4()
        region = srf.allocator.allocate(64, "wtab")
        desc = StreamDescriptor(
            "wtab", StreamKind.INLANE_INDEXED_WRITE, region.base,
            length_records=8,
        )
        stream = srf.open_indexed(desc)
        with pytest.raises(SrfError):
            stream.issue_read(0, 0)
        with pytest.raises(SrfError):
            stream.pop_data(0)


class TestCrossLaneIndexedRead:
    def test_any_lane_reads_any_record(self):
        srf = make_isrf4()
        records = 256
        region = srf.allocator.allocate(records, "nodes")
        srf.storage.write_range(
            region.base, [10 * i for i in range(records)]
        )
        from repro.core.descriptors import IndexSpace
        desc = StreamDescriptor(
            "nodes", StreamKind.CROSSLANE_INDEXED_READ, region.base,
            length_records=records, index_space=IndexSpace.GLOBAL,
        )
        stream = srf.open_indexed(desc)
        # Record 37 lives in lane (37 // 4) % 8 = 1; read it from lane 6.
        stream.issue_read(6, 37)
        for cycle in range(8):
            srf.tick(cycle)
        assert stream.data_ready(6)
        assert stream.pop_data(6) == 370
        assert srf.stats.crosslane_grants == 1

    def test_bank_port_limit_serializes_same_bank_targets(self):
        srf = make_isrf4()  # 1 cross-lane port per bank
        from repro.core.descriptors import IndexSpace
        records = 256
        region = srf.allocator.allocate(records, "nodes")
        srf.storage.write_range(region.base, list(range(records)))
        desc = StreamDescriptor(
            "nodes", StreamKind.CROSSLANE_INDEXED_READ, region.base,
            length_records=records, index_space=IndexSpace.GLOBAL,
        )
        stream = srf.open_indexed(desc)
        # Records 0 and 1 both live in bank 0; issue from two lanes.
        stream.issue_read(4, 0)
        stream.issue_read(5, 1)
        for cycle in range(16):
            srf.tick(cycle)
        assert stream.pop_data(4) == 0
        assert stream.pop_data(5) == 1
        # Only one port: the two accesses cannot be granted the same cycle.
        assert srf.stats.crosslane_grants == 2
        assert srf.stats.blocked_heads >= 1

    def test_two_ports_allow_parallel_same_bank_access(self):
        srf = StreamRegisterFile(isrf4_config(crosslane_ports_per_bank=2))
        from repro.core.descriptors import IndexSpace
        records = 256
        region = srf.allocator.allocate(records, "nodes")
        srf.storage.write_range(region.base, list(range(records)))
        desc = StreamDescriptor(
            "nodes", StreamKind.CROSSLANE_INDEXED_READ, region.base,
            length_records=records, index_space=IndexSpace.GLOBAL,
        )
        stream = srf.open_indexed(desc)
        stream.issue_read(4, 0)
        stream.issue_read(5, 4)  # same bank 0... record 4 -> bank 1
        stream.issue_read(6, 1)  # bank 0 again
        srf.tick(0)
        # bank 0 received two requests (records 0 and 1) and can grant both
        # only with 2 ports and distinct sub-arrays; records 0 and 1 share
        # a sub-array though, so exactly one is granted plus record 4.
        assert srf.stats.crosslane_grants >= 2


class TestStreamExtent:
    """open_indexed proves a stream's records lie inside the SRF."""

    def test_per_lane_stream_past_its_bank_is_rejected_at_open(self):
        srf = make_isrf4()
        # The last block: its records start 4 words before the bank ends.
        desc = StreamDescriptor(
            "x", StreamKind.INLANE_INDEXED_READ, base=32736,
            length_records=64,
        )
        with pytest.raises(SrfAccessError, match="x: per-lane records"):
            srf.open_indexed(desc)
        assert not srf._indexed_list

    def test_global_stream_past_the_srf_is_rejected_at_open(self):
        srf = make_isrf4()
        total = srf.geometry.total_words
        desc = StreamDescriptor(
            "g", StreamKind.CROSSLANE_INDEXED_READ, base=total - 32,
            length_records=33, index_space=IndexSpace.GLOBAL,
        )
        with pytest.raises(SrfAccessError, match="g: records span"):
            srf.open_indexed(desc)

    def test_streams_ending_at_the_boundary_are_accepted(self):
        srf = make_isrf4()
        geometry = srf.geometry
        inlane = srf.open_indexed(StreamDescriptor(
            "x", StreamKind.INLANE_INDEXED_READ, base=32736,
            length_records=4,
        ))
        inlane.issue_read(7, 3)
        crosslane = srf.open_indexed(StreamDescriptor(
            "g", StreamKind.CROSSLANE_INDEXED_READ,
            base=geometry.total_words - 32, length_records=32,
            index_space=IndexSpace.GLOBAL,
        ))
        crosslane.issue_read(0, 31)
        for cycle in range(8):
            srf.tick(cycle)
        assert inlane.pop_data(7) == 0
        assert crosslane.pop_data(0) == 0

    def test_record_index_is_still_checked_at_issue(self):
        srf = make_isrf4()
        stream = inlane_table(srf, records=8)
        with pytest.raises(SrfError, match="out of range"):
            stream.issue_read(0, 8)
        with pytest.raises(SrfError, match="out of range"):
            stream.issue_reads([None, -1] + [None] * 6)


def _snapshot(stream):
    """Every lane's queued words and reorder slots, plus the counters."""
    return (
        [list(fifo._words) for fifo in stream.fifos],
        [fifo.records for fifo in stream.fifos],
        [list(rob._slots) for rob in stream.robs],
        [rob._head_ticket for rob in stream.robs],
        stream.pending_words,
    )


class TestSimdCalls:
    """issue_reads / issue_writes / pop_records act on every active lane
    or, when any of them would block, on none."""

    def test_issue_reads_with_one_full_fifo_changes_nothing(self):
        srf = make_isrf4(address_fifo_words=2)
        stream = inlane_table(srf)
        stream.issue_read(5, 0)
        stream.issue_read(5, 1)  # lane 5's FIFO is full
        stream.issue_read(2, 3)
        before = _snapshot(stream)
        assert stream.issue_reads(list(range(8))) is False
        assert _snapshot(stream) == before
        # Predicating lane 5 off lets every other lane issue.
        indices = [10 + lane for lane in range(8)]
        indices[5] = None
        assert stream.issue_reads(indices) is True
        assert [fifo.records for fifo in stream.fifos] == [
            1, 1, 2, 1, 1, 2, 1, 1
        ]
        assert stream.pending_words == 10

    def test_pop_records_with_one_lane_not_ready_pops_nothing(self):
        srf = make_isrf4()
        stream = inlane_table(srf)
        assert stream.issue_reads([lane for lane in range(7)] + [None])
        for cycle in range(5):
            srf.tick(cycle)
        before = _snapshot(stream)
        assert stream.pop_records([1] * 8) is False  # lane 7 issued nothing
        assert _snapshot(stream) == before
        popped = stream.pop_records([1] * 7 + [0])
        assert popped == [lane * 1000 + lane for lane in range(7)] + [None]
        assert all(rob.occupancy == 0 for rob in stream.robs)

    def test_multiword_records_pop_as_tuples(self):
        srf = make_isrf4()
        records = 8
        region = srf.allocator.allocate(records * 2 * 8, "pairs")
        stream = srf.open_indexed(StreamDescriptor(
            "pairs", StreamKind.INLANE_INDEXED_READ, region.base,
            length_records=records, record_words=2,
        ))
        for lane in range(8):
            for word in range(records * 2):
                srf.storage.write_lane(
                    lane, stream.local_base + word, (lane, word)
                )
        assert stream.issue_reads([3] * 8)
        cycle = 0
        while not stream.record_ready(0):
            srf.tick(cycle)
            cycle += 1
        assert stream.pop_records([2] * 8) == [
            ((lane, 6), (lane, 7)) for lane in range(8)
        ]

    def test_issue_writes_all_or_nothing(self):
        srf = make_isrf4(address_fifo_words=1)
        region = srf.allocator.allocate(64 * 8, "wtab")
        stream = srf.open_indexed(StreamDescriptor(
            "wtab", StreamKind.INLANE_INDEXED_WRITE, region.base,
            length_records=64,
        ))
        stream.issue_write(4, 0, [1])
        entries = [(lane, [lane]) for lane in range(8)]
        assert stream.issue_writes(entries) is False
        assert stream.outstanding_writes == 1
        assert stream.pending_words == 1
        entries[4] = None
        assert stream.issue_writes(entries) is True
        assert stream.outstanding_writes == 8
        for cycle in range(8):
            srf.tick(cycle)
        assert stream.quiescent
        assert [srf.storage.read_lane(lane, stream.local_base + lane)
                for lane in range(8)] == [0, 1, 2, 3, 0, 5, 6, 7]

    def test_wrong_direction_is_rejected(self):
        srf = make_isrf4()
        read = inlane_table(srf)
        region = srf.allocator.allocate(64, "w")
        write = srf.open_indexed(StreamDescriptor(
            "w", StreamKind.INLANE_INDEXED_WRITE, region.base,
            length_records=8,
        ))
        with pytest.raises(SrfError):
            read.issue_writes([(0, [1])] + [None] * 7)
        with pytest.raises(SrfError):
            write.issue_reads([0] + [None] * 7)
        with pytest.raises(SrfError):
            write.pop_records([1] + [0] * 7)
