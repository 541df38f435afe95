"""Property: arrival-cycle reorder slots act as filled flags did.

A reorder-buffer slot holds the cycle its word arrives: an in-lane
read's grant writes the grant cycle plus the in-lane latency, and a
cross-lane read's slot is stamped when the return network delivers the
word; the calendar keeps no in-lane fill. The reference here keeps the
representation this replaced: per-lane deques of filled flags, an
in-lane fill event posted at grant plus the in-lane latency, a
cross-lane word that joins its bank's return queue (an unchanged
:class:`~repro.interconnect.crossbar.ReturnNetwork`) at grant plus the
cross-lane latency less one and sets its flag on delivery, and a write
retirement event at grant plus the in-lane latency. It learns each
cycle's grants from the words the SRF's address FIFOs lose in the tick
(only a grant pops a FIFO) and models everything else itself.

Random SIMD issue, pop and tick sequences drive one ISRF1 or ISRF4 SRF
with four indexed streams: in-lane one- and two-word reads, an in-lane
read-write stream and a two-word cross-lane read, with comm-busy
cycles. Every cycle ``issue_reads``/``issue_writes`` and
``pop_records`` must return what the reference predicts, and every
lane's ``data_ready`` and ``record_ready``, ``SrfStats``, ``idle`` and
the in-flight line of ``occupancy_report`` must equal the reference's.
"""

import random
from collections import deque
from dataclasses import asdict

from hypothesis import Phase, given, settings, strategies as st

from repro.config import isrf1_config, isrf4_config
from repro.core.descriptors import IndexSpace, StreamDescriptor, StreamKind
from repro.core.srf import StreamRegisterFile
from repro.interconnect.crossbar import ReturnNetwork
from tests.fuzz.strategies import FUZZ_EXAMPLES

LANES = 8
RECORDS = 16  # per lane (in-lane) or in total (cross-lane)

#: (kind, record words, index space) of the four streams.
STREAMS = (
    (StreamKind.INLANE_INDEXED_READ, 1, IndexSpace.PER_LANE),
    (StreamKind.INLANE_INDEXED_READ, 2, IndexSpace.PER_LANE),
    (StreamKind.INLANE_INDEXED_READWRITE, 1, IndexSpace.PER_LANE),
    (StreamKind.CROSSLANE_INDEXED_READ, 2, IndexSpace.GLOBAL),
)

READ, WRITE, POP = 1, 2, 3

#: One stream's action in one cycle: (idle/read/write/pop, lane mask,
#: index seed). Write streams turn a read into a write.
_action = st.tuples(
    st.sampled_from((0, READ, READ, WRITE, POP, POP)),
    st.integers(0, (1 << LANES) - 1),
    st.integers(0, 1 << 16),
)


@st.composite
def programs(draw):
    return {
        "preset": draw(st.sampled_from((isrf1_config, isrf4_config))),
        "fifo": draw(st.sampled_from((1, 2, 4))),
        "rob": draw(st.sampled_from((4, 8))),
        "policy": draw(st.sampled_from(("round_robin", "occupancy"))),
        "shared": draw(st.booleans()),
        "inlane_latency": draw(st.integers(1, 5)),
        "crosslane_latency": draw(st.integers(1, 7)),
        "cycles": draw(st.lists(
            st.tuples(st.lists(_action, min_size=4, max_size=4),
                      st.booleans()),
            min_size=1, max_size=40,
        )),
    }


def _machine(spec):
    # One cross-lane port per bank: a bank grants at most one cross-lane
    # word per cycle, so the reference's return queues fill in the
    # SRF's order.
    config = spec["preset"](
        address_fifo_words=spec["fifo"],
        stream_buffer_words=spec["rob"],
        indexed_arbitration=spec["policy"],
        shared_interlane_network=spec["shared"],
        inlane_indexed_latency=spec["inlane_latency"],
        crosslane_indexed_latency=spec["crosslane_latency"],
        crosslane_ports_per_bank=1,
    )
    srf = StreamRegisterFile(config)
    streams = []
    for number, (kind, words, space) in enumerate(STREAMS):
        footprint = RECORDS * words
        if space is IndexSpace.PER_LANE:
            footprint *= LANES
        region = srf.allocator.allocate(footprint, f"s{number}")
        streams.append(srf.open_indexed(StreamDescriptor(
            f"s{number}", kind, region.base, length_records=RECORDS,
            record_words=words, index_space=space,
        )))
    return srf, streams


class _Lane:
    """One stream's lane in the reference: FIFO records and filled
    flags in ticket order."""

    def __init__(self):
        self.records = 0
        self.flags = deque()
        self.head_ticket = 0

    def fill(self, ticket):
        index = ticket - self.head_ticket
        assert 0 <= index < len(self.flags) and not self.flags[index]
        self.flags[index] = True

    def ready(self, words):
        return len(self.flags) >= words and all(
            self.flags[k] for k in range(words)
        )


class FlagReference:
    """The SRF's reorder, completion and stats behaviour before slots
    held arrival cycles, driven by the grants the SRF makes."""

    def __init__(self, srf, streams):
        config = srf.config
        self.streams = streams
        self.fifo_capacity = config.address_fifo_words
        self.rob_capacity = config.stream_buffer_words
        self.inlane_latency = config.inlane_indexed_latency
        self.crosslane_delay = max(1, config.crosslane_indexed_latency - 1)
        self.lanes = [[_Lane() for _ in range(LANES)] for _ in streams]
        self.network = ReturnNetwork(lanes=LANES)
        self.calendar = {}  # due cycle -> events in grant order
        self.queued = 0  # words in the address FIFOs
        self.outstanding_writes = 0
        self.stats = {name: 0 for name in asdict(srf.stats)}

    # -- client side ------------------------------------------------------
    def issue(self, number, active, write):
        """Whether a SIMD issue on ``active`` lanes succeeds; applies it."""
        stream = self.streams[number]
        words = stream.record_words
        lanes = [self.lanes[number][lane] for lane in active]
        has_rob = stream.robs is not None
        if any(lane.records >= self.fifo_capacity
               or (has_rob and len(lane.flags) + words > self.rob_capacity)
               for lane in lanes):
            return False
        for lane in lanes:
            lane.records += 1
            if not write:
                lane.flags.extend([False] * words)
        self.queued += words * len(lanes)
        if write:
            self.outstanding_writes += words * len(lanes)
        return True

    def pop(self, number, active):
        """Whether a SIMD pop on ``active`` lanes succeeds; applies it."""
        words = self.streams[number].record_words
        lanes = [self.lanes[number][lane] for lane in active]
        if not all(lane.ready(words) for lane in lanes):
            return False
        for lane in lanes:
            for _ in range(words):
                lane.flags.popleft()
            lane.head_ticket += words
        return True

    def data_ready(self, number, lane):
        return self.lanes[number][lane].ready(1)

    def record_ready(self, number, lane):
        return self.lanes[number][lane].ready(
            self.streams[number].record_words
        )

    # -- the tick ---------------------------------------------------------
    def tick(self, cycle, comm_busy, granted):
        """One SRF tick; ``granted[number][lane]`` is ``(popped, rest)``:
        the words the tick popped from that FIFO, oldest first, and the
        words left behind them."""
        stats = self.stats
        stats["cycles"] += 1
        for due in sorted(d for d in self.calendar if d <= cycle):
            for event in self.calendar.pop(due):
                if event[0] == "fill":
                    event[1].fill(event[2])
                elif event[0] == "return":
                    _, bank, lane, ticket, flags = event
                    self.network.enqueue(bank, lane, ticket, flags.fill)
                else:
                    self.outstanding_writes -= 1
        if comm_busy or self.network.queued:
            self.network.tick(comm_busy)
        if not self.queued:
            return
        stats["indexed_cycles"] += 1
        heads = grants = 0
        for number, per_lane in enumerate(granted):
            stream = self.streams[number]
            for lane, (popped, rest) in enumerate(per_lane):
                if not popped and not rest:
                    continue
                heads += 1
                flags = self.lanes[number][lane]
                after = popped[1:] + rest[:1]
                for word, following in zip(popped, after + [None]):
                    target, _addr, ticket, last = word
                    grants += 1
                    if last:
                        flags.records -= 1
                    if stream.is_crosslane:
                        stats["crosslane_grants"] += 1
                        self.network.reserve(target)
                        self._post(cycle + self.crosslane_delay,
                                   ("return", target, lane, ticket, flags))
                        # The uncovered word is offered to a later bank
                        # in the same cycle.
                        if following is not None and following[0] > target:
                            heads += 1
                    elif ticket is not None:
                        stats["inlane_grants"] += 1
                        self._post(cycle + self.inlane_latency,
                                   ("fill", flags, ticket))
                    else:
                        stats["indexed_write_grants"] += 1
                        self._post(cycle + self.inlane_latency, ("write",))
        self.queued -= grants
        if not grants:
            stats["empty_indexed_cycles"] += 1
        stats["blocked_heads"] += heads - grants

    def _post(self, due, event):
        self.calendar.setdefault(due, []).append(event)

    # -- forensics --------------------------------------------------------
    def idle(self):
        return not (self.calendar or self.network.pending() or self.queued
                    or self.outstanding_writes)

    def inflight_lines(self):
        count = sum(len(events) for events in self.calendar.values())
        if not count:
            return []
        return [f"{count} pipelined accesses in flight "
                f"(next due cycle {min(self.calendar)})"]


def _active(mask):
    return [lane for lane in range(LANES) if mask >> lane & 1]


def _compare_ready(streams, reference, cycle):
    for number, stream in enumerate(streams):
        if stream.robs is None:
            continue
        for lane in range(LANES):
            where = (cycle, number, lane)
            assert stream.data_ready(lane) == reference.data_ready(
                number, lane), where
            assert stream.record_ready(lane) == reference.record_ready(
                number, lane), where


def _act(stream, number, action, reference):
    kind, mask, seed = action
    active = _active(mask)
    if kind == POP:
        counts = [1 if lane in active else 0 for lane in range(LANES)]
        return stream.pop_records(counts), reference.pop(number, active)
    if kind == 0:
        return None, None
    write = stream.descriptor.kind.is_write and (
        kind == WRITE or not stream.is_read
    )
    rng = random.Random(seed)
    indices = [rng.randrange(RECORDS) if lane in active else None
               for lane in range(LANES)]
    got = (stream.issue_writes(indices) if write
           else stream.issue_reads(indices))
    return got, reference.issue(number, active, write)


#: Cycles after the drawn ones in which every read stream pops.
DRAIN_CYCLES = 32
_DRAIN = ([(POP, (1 << LANES) - 1, 0)] * len(STREAMS), False)


#: Hypothesis's explain phase traces every line of a failing example's
#: reruns, which for these programs took over 4 GB; a failure is
#: reported without its explanation instead.
_PHASES = [phase for phase in Phase if phase is not Phase.explain]


@settings(max_examples=FUZZ_EXAMPLES, phases=_PHASES)
@given(spec=programs())
def test_arrival_stamps_match_filled_flags(spec):
    srf, streams = _machine(spec)
    reference = FlagReference(srf, streams)
    program = spec["cycles"] + [_DRAIN] * DRAIN_CYCLES
    for cycle, (actions, comm_busy) in enumerate(program):
        _compare_ready(streams, reference, cycle)
        for number, (stream, action) in enumerate(zip(streams, actions)):
            got, want = _act(stream, number, action, reference)
            assert got == want, (cycle, number, action)
        before = [[list(fifo._words) for fifo in stream.fifos]
                  for stream in streams]
        srf.tick(cycle, comm_busy=comm_busy)
        granted = []
        for stream, queues in zip(streams, before):
            granted.append([])
            for fifo, words in zip(stream.fifos, queues):
                popped = words[:len(words) - len(fifo._words)]
                granted[-1].append((popped, list(fifo._words)))
        reference.tick(cycle, comm_busy, granted)
        assert asdict(srf.stats) == reference.stats, cycle
        assert srf.idle == reference.idle(), cycle
        inflight = [line for line in srf.occupancy_report()
                    if "pipelined" in line]
        assert inflight == reference.inflight_lines(), cycle
    _compare_ready(streams, reference, len(program))
