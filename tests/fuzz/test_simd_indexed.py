"""Property: the SIMD indexed-stream calls equal their per-lane form.

Two identical SRFs take the same random, lane-predicated SIMD steps on
four indexed streams: an in-lane 1-word read, an in-lane 2-word read, a
cross-lane read and an in-lane write. One SRF uses ``issue_reads`` /
``issue_writes`` / ``pop_records``; the other the per-lane protocol a
lockstep caller would use without them: ``can_issue`` on every active
lane, then ``issue_read`` / ``issue_write`` per lane; ``record_ready``
on every active lane, then ``pop_record`` per lane. Every step's return
values and every cycle's ``SrfStats`` must match, and at the end so do
the popped words, the return network's counters and the SRF contents.
As in a kernel, a read's data is popped with the predicate it was
issued with, oldest issue first; a drain phase pops what is left.
"""

import random
from collections import deque

from hypothesis import given, settings, strategies as st

from repro.config import isrf4_config
from repro.core.descriptors import IndexSpace, StreamDescriptor, StreamKind
from repro.core.srf import StreamRegisterFile
from tests.fuzz.strategies import FUZZ_EXAMPLES

LANES = 8
RECORDS = 16  # per lane (in-lane) or in total (cross-lane)

#: (kind, record words, index space) of the four streams.
STREAMS = (
    (StreamKind.INLANE_INDEXED_READ, 1, IndexSpace.PER_LANE),
    (StreamKind.INLANE_INDEXED_READ, 2, IndexSpace.PER_LANE),
    (StreamKind.CROSSLANE_INDEXED_READ, 3, IndexSpace.GLOBAL),
    (StreamKind.INLANE_INDEXED_WRITE, 1, IndexSpace.PER_LANE),
)

ISSUE, POP = 1, 2

#: One stream's action in one cycle: (idle/issue/pop, lane mask, seed).
_action = st.tuples(
    st.sampled_from((0, ISSUE, ISSUE, POP, POP)),
    st.integers(0, (1 << LANES) - 1),
    st.integers(0, 1 << 16),
)


@st.composite
def simd_programs(draw):
    return {
        "fifo": draw(st.sampled_from((1, 2, 4))),
        "rob": draw(st.sampled_from((4, 8))),
        "policy": draw(st.sampled_from(("round_robin", "occupancy"))),
        "ports": draw(st.sampled_from((1, 2))),
        "cycles": draw(st.lists(
            st.tuples(st.lists(_action, min_size=4, max_size=4),
                      st.booleans()),
            min_size=1, max_size=40,
        )),
    }


def _machine(spec):
    srf = StreamRegisterFile(isrf4_config(
        address_fifo_words=spec["fifo"],
        stream_buffer_words=spec["rob"],
        indexed_arbitration=spec["policy"],
        crosslane_ports_per_bank=spec["ports"],
    ))
    streams = []
    for number, (kind, words, space) in enumerate(STREAMS):
        footprint = RECORDS * words
        if space is IndexSpace.PER_LANE:
            footprint *= LANES
        region = srf.allocator.allocate(footprint, f"s{number}")
        srf.storage.write_range(
            region.base,
            [number * 100_000 + offset for offset in range(footprint)],
        )
        streams.append(srf.open_indexed(StreamDescriptor(
            f"s{number}", kind, region.base, length_records=RECORDS,
            record_words=words, index_space=space,
        )))
    return srf, streams


def _per_lane_issue(stream, per_lane, write):
    for lane, entry in enumerate(per_lane):
        if entry is not None and not stream.can_issue(lane):
            return False
    for lane, entry in enumerate(per_lane):
        if entry is not None:
            if write:
                stream.issue_write(lane, entry[0], entry[1])
            else:
                stream.issue_read(lane, entry)
    return True


def _per_lane_pop(stream, counts):
    for lane, count in enumerate(counts):
        if count and not stream.record_ready(lane):
            return False
    return [
        stream.pop_record(lane) if count else None
        for lane, count in enumerate(counts)
    ]


def _step(stream, action, issued, simd):
    """One SIMD access of ``stream`` through either protocol.

    ``issued`` holds the per-lane word counts of the reads issued and
    not yet popped, oldest first.
    """
    kind, mask, seed = action
    write = stream.descriptor.kind.is_write
    if kind == POP:
        if write or not issued:
            return None
        counts = issued[0]
        got = (stream.pop_records(counts) if simd
               else _per_lane_pop(stream, counts))
        if got is not False:
            issued.popleft()
        return got
    if kind != ISSUE:
        return None
    rng = random.Random(seed)
    active = [bool(mask >> lane & 1) for lane in range(LANES)]
    per_lane = [
        rng.randrange(RECORDS) if on else None for on in active
    ]
    if write:
        per_lane = [
            None if index is None else (index, [rng.randrange(1 << 20)])
            for index in per_lane
        ]
        return (stream.issue_writes(per_lane) if simd
                else _per_lane_issue(stream, per_lane, True))
    ok = (stream.issue_reads(per_lane) if simd
          else _per_lane_issue(stream, per_lane, False))
    if ok:
        issued.append([stream.record_words if on else 0 for on in active])
    return ok


#: Cycles after the drawn ones in which every read stream pops.
DRAIN_CYCLES = 24
_DRAIN = ([(POP, 0, 0)] * len(STREAMS), False)


@settings(max_examples=FUZZ_EXAMPLES)
@given(spec=simd_programs())
def test_simd_calls_match_per_lane_calls(spec):
    sides = [_machine(spec), _machine(spec)]
    issued = [[deque() for _ in STREAMS] for _ in sides]
    popped = ([], [])
    program = spec["cycles"] + [_DRAIN] * DRAIN_CYCLES
    for cycle, (actions, comm_busy) in enumerate(program):
        for number, action in enumerate(actions):
            got, want = (
                _step(streams[number], action, issued[side][number],
                      simd=side == 0)
                for side, (_srf, streams) in enumerate(sides)
            )
            assert got == want, (cycle, number, action)
            if action[0] == POP and got:
                popped[0].append(got)
                popped[1].append(want)
        for srf, _streams in sides:
            srf.tick(cycle, comm_busy=comm_busy)
        assert sides[0][0].stats == sides[1][0].stats, cycle
    assert popped[0] == popped[1]
    (simd_srf, simd_streams), (lane_srf, lane_streams) = sides
    assert simd_srf.return_network.stats == lane_srf.return_network.stats
    assert simd_srf.storage._words == lane_srf.storage._words
    for simd_stream, lane_stream in zip(simd_streams, lane_streams):
        assert simd_stream.pending_words == lane_stream.pending_words
        assert simd_stream.outstanding_writes == lane_stream.outstanding_writes
