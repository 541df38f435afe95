"""The stream register file with indexed access — the paper's contribution.

:class:`StreamRegisterFile` assembles the pieces of Sections 4.1–4.5 into
one cycle-steppable device:

* a single time-multiplexed port that each cycle serves *either* one
  sequential ``N x m``-word block access *or* all indexed streams
  (two-stage arbitration, §4.4);
* per-lane sequential stream buffers (:class:`SequentialPort`);
* per-lane, per-stream address FIFOs and reorder buffers for indexed
  streams (:class:`IndexedStream`);
* per-bank local arbitration with sub-array conflict detection and
  head-of-line blocking (§4.2, Figure 17);
* cross-lane access through dedicated address and data-return crossbars
  (§4.5, Figure 18).

The SRF runs once per simulated cycle, so its representation is chosen
for host speed without changing a single grant. Pipelined completions
live in a calendar ring of per-cycle buckets of typed event tuples,
applied in grant order; indexed arbitration files every address-FIFO
head in its target bank's bucket in one pass per cycle, then arbitrates
the banks in order (see :meth:`StreamRegisterFile._grant_indexed`).

Clients (the kernel executor and the memory controller) interact through
small, explicit protocols. Sequential ports expose ``wants_grant`` /
``on_grant`` to the arbiter and ``pop_simd`` / ``push_simd`` to the
clusters. Indexed streams take one call per SIMD access —
``issue_reads(indices)``, ``issue_writes(indices)`` and
``pop_records(counts)``, each all-or-nothing across the active lanes and
False when the clusters must stall — plus per-lane ``can_issue`` /
``issue_read`` / ``issue_write`` / ``data_ready`` / ``record_ready`` /
``pop_record`` / ``pop_data`` for callers that model lanes one at a time
(the Figure 17/18 microbenchmarks). Address FIFOs hold plain word-access
tuples, so an indexed word costs no object beyond its FIFO entry and its
completion event.

Every stream is timed by counts and tickets alone: the kernel executor
moves every kernel word between the clusters and
:class:`~repro.core.storage.SrfStorage` when it issues the access, and
the memory controller moves a memory op's words when it issues the op,
so a sequential port or memory op counts buffered words, an
address-FIFO entry carries only its address, and a reorder-buffer slot
is a filled flag. No grant touches storage.
"""

from __future__ import annotations

import enum
import itertools
from bisect import insort
from dataclasses import dataclass

from repro.config.machine import MachineConfig
from repro.core.address_fifo import AddressFifo
from repro.core.arbiter import RoundRobinArbiter
from repro.core.descriptors import IndexSpace, StreamDescriptor
from repro.core.geometry import SrfGeometry
from repro.core.storage import SrfAllocator, SrfStorage
from repro.core.stream_buffer import ReorderBuffer
from repro.errors import SrfAccessError, SrfError
from repro.interconnect.crossbar import (
    AddressNetwork,
    ReturnNetwork,
    RingAddressNetwork,
)


#: Grant order of a bank with exactly one head word access.
_SINGLE = (0,)

#: The global arbiter's two classes; the pick is truthy for "indexed".
_CLASSES = (False, True)


class PortDirection(enum.Enum):
    """Direction of a sequential port relative to its client."""

    #: SRF -> client (the client pops words the port fetched).
    READ = "read"
    #: client -> SRF (the client pushes words the port drains).
    WRITE = "write"


@dataclass
class SrfStats:
    """Per-run SRF traffic and arbitration counters."""

    cycles: int = 0
    sequential_grants: int = 0
    sequential_words: int = 0
    inlane_grants: int = 0
    crosslane_grants: int = 0
    indexed_write_grants: int = 0
    indexed_cycles: int = 0
    #: Indexed-group cycles in which zero accesses were granted.
    empty_indexed_cycles: int = 0
    #: Head word accesses present but not granted in an indexed cycle
    #: (sub-array conflicts, port limits, network backpressure).
    blocked_heads: int = 0

    @property
    def indexed_words(self) -> int:
        return self.inlane_grants + self.crosslane_grants + self.indexed_write_grants


class SequentialPort:
    """One sequential stream's connection to the SRF port.

    The port's grants fetch (reads) or drain (writes) whole ``N x m``
    blocks through a per-lane stream buffer, and the client takes or
    gives one word per lane per access on the other side. The kernel
    executor moves the words themselves when it issues each access, so
    the port times the stream by counts alone: clusters run in SIMD
    lockstep, so every lane's buffer holds the same :attr:`occupancy`
    words. A write stream's final partial block drains on
    :meth:`flush` with only the words pushed.
    """

    _ids = itertools.count()

    def __init__(self, srf: "StreamRegisterFile", descriptor: StreamDescriptor,
                 direction: PortDirection, buffer_words: "int | None" = None):
        self.port_id = next(SequentialPort._ids)
        self.srf = srf
        self.descriptor = descriptor
        self.direction = direction
        geometry = srf.geometry
        self.block_words = geometry.block_words
        self.words_per_lane = geometry.words_per_lane_access
        self.lanes = geometry.lanes
        self.total_blocks = geometry.blocks_spanned(
            descriptor.base, descriptor.length_words
        )
        #: Stream-buffer words per lane, and words buffered per lane.
        self.capacity = buffer_words or srf.config.stream_buffer_words
        if self.capacity <= 0:
            raise SrfError("stream buffer needs positive capacity")
        self.occupancy = 0
        self._blocks_done = 0
        #: Words per lane granted but not yet delivered (pipelined reads
        #: must reserve buffer space at grant time or back-to-back grants
        #: would overflow the stream buffer when they land).
        self._inflight_words = 0
        self._flush_requested = direction is PortDirection.READ

    # -- client side ------------------------------------------------------
    def can_pop(self) -> bool:
        return self.direction is PortDirection.READ and self.occupancy > 0

    def pop_simd(self) -> None:
        """Take one word per lane (cluster-side sequential read)."""
        if self.occupancy <= 0:
            raise SrfError("stream buffer underflow")
        self.occupancy -= 1

    def can_push(self) -> bool:
        return (self.direction is PortDirection.WRITE
                and self.occupancy < self.capacity)

    def push_simd(self) -> None:
        """Give one word per lane (cluster-side sequential write)."""
        if self.occupancy >= self.capacity:
            raise SrfError("stream buffer overflow")
        self.occupancy += 1

    def flush(self) -> None:
        """Request that buffered write data be drained even if partial."""
        self._flush_requested = True

    @property
    def drained(self) -> bool:
        """True when all stream data has moved through the port."""
        if self.direction is PortDirection.READ:
            return self._blocks_done >= self.total_blocks
        return self._blocks_done >= self.total_blocks or (
            self._flush_requested and self.occupancy == 0
        )

    # -- arbiter side ------------------------------------------------------
    def wants_grant(self) -> bool:
        if self._blocks_done >= self.total_blocks:
            return False
        if self.direction is PortDirection.READ:
            return (
                self.capacity - self.occupancy - self._inflight_words
                >= self.words_per_lane
            )
        occupancy = self.occupancy
        if occupancy >= self.words_per_lane:
            return True
        return self._flush_requested and occupancy > 0

    def on_grant(self, cycle: int) -> int:
        """Perform one block transfer; returns words moved."""
        if self.direction is PortDirection.READ:
            self.srf.schedule_fill(
                cycle + self.srf.config.srf_sequential_latency, self
            )
            self._blocks_done += 1
            self._inflight_words += self.words_per_lane
            return self.block_words
        width = min(self.words_per_lane, self.occupancy)
        self.occupancy -= width
        if width == self.words_per_lane or self._flush_requested:
            self._blocks_done += 1
        return width * self.lanes

    def deliver_fill(self) -> None:
        """Complete a pipelined read block (called by the SRF)."""
        self._inflight_words -= self.words_per_lane
        self.occupancy += self.words_per_lane
        if self.occupancy > self.capacity:
            raise SrfError("stream buffer overflow")


class IndexedStream:
    """Timing state for one indexed stream (Table 1 kinds).

    A read stream owns, per lane, an address FIFO and a reorder buffer;
    issuing a record reserves reorder slots so data returns in issue
    order (Figure 9's stall semantics). A write stream's FIFO entries
    carry only addresses, like a read's; ``outstanding_writes`` lets the
    executor barrier on write drain at kernel end. The words a kernel
    reads or writes move in the kernel executor when it issues the
    access, so no data passes through the stream.

    Clusters run in SIMD lockstep, so the kernel executor drives a
    stream one SIMD access at a time: :meth:`issue_reads`,
    :meth:`issue_writes` and :meth:`pop_records` take one entry per lane
    (``None`` or 0 for a lane predicated off) and act on every active
    lane, or on none when any of them would block. The per-lane calls
    (:meth:`can_issue`, :meth:`issue_read`, :meth:`pop_record`, ...)
    serve the Figure 17/18 microbenchmarks; both forms share
    :meth:`_enqueue` and :meth:`_dequeue`.
    """

    def __init__(self, srf: "StreamRegisterFile", descriptor: StreamDescriptor):
        if descriptor.kind.is_sequential:
            raise SrfError(f"{descriptor.name}: not an indexed stream kind")
        self.srf = srf
        self.descriptor = descriptor
        lanes = srf.geometry.lanes
        cfg = srf.config
        self.fifos = [
            AddressFifo(cfg.address_fifo_words, descriptor.stream_id, lane)
            for lane in range(lanes)
        ]
        if descriptor.kind.is_read:
            self.robs = [
                ReorderBuffer(cfg.stream_buffer_words) for _ in range(lanes)
            ]
        else:
            self.robs = None
        self.outstanding_writes = 0
        #: Word accesses queued across all lane FIFOs (kept as a counter
        #: so per-cycle arbitration polls are O(1), not O(lanes)).
        self.pending_words = 0
        # Immutable per-stream facts, cached off the hot per-word paths.
        self.is_crosslane = descriptor.kind.is_crosslane
        self.is_read = descriptor.kind.is_read
        self.record_words = descriptor.record_words
        #: Bank-local address of record 0 in every lane (PER_LANE).
        self.local_base = self._check_layout()

    def _check_layout(self) -> int:
        """Prove every in-range record lies inside the SRF; returns the
        bank-local base.

        Issue checks each record index against ``length_records``, so
        after this check every queued word address names a real bank
        word.
        """
        geometry = self.srf.geometry
        descriptor = self.descriptor
        base = descriptor.base
        geometry.check_block_aligned(base, descriptor.name)
        local_base = (
            (base // geometry.block_words) * geometry.words_per_lane_access
        )
        if descriptor.index_space is IndexSpace.PER_LANE:
            end = local_base + descriptor.length_words
            if end > geometry.bank_words:
                raise SrfAccessError(
                    f"{descriptor.name}: per-lane records span bank-local "
                    f"words [{local_base},{end}), past the "
                    f"{geometry.bank_words}-word bank"
                )
        else:
            end = base + descriptor.length_words
            if end > geometry.total_words:
                raise SrfAccessError(
                    f"{descriptor.name}: records span global words "
                    f"[{base},{end}), past the {geometry.total_words}-word "
                    "SRF"
                )
        return local_base

    # -- shared by the SIMD and per-lane calls ----------------------------
    def _enqueue(self, lane: int, record_index: int, write: bool) -> None:
        """Queue one record access of ``lane`` (the caller checked
        :meth:`can_issue`).

        A read reserves the record's in-order reorder tickets; a write
        counts its words as outstanding. The record is expanded into its
        word accesses here, once: this is the only copy of the
        record-to-bank address arithmetic on the timing side.
        """
        descriptor = self.descriptor
        if not 0 <= record_index < descriptor.length_records:
            raise SrfError(
                f"{descriptor.name}: record index {record_index} out of "
                f"range [0,{descriptor.length_records})"
            )
        rw = self.record_words
        if write:
            ticket = None
            self.outstanding_writes += rw
        else:
            # ReorderBuffer.reserve, inline: the caller checked capacity.
            rob = self.robs[lane]
            slots = rob._slots
            ticket = rob._head_ticket + len(slots)
            if rw == 1:
                slots.append(False)
            else:
                slots.extend([False] * rw)
        fifo = self.fifos[lane]
        queue = fifo._words
        if rw == 1 and not self.is_crosslane:
            queue.append((lane, self.local_base + record_index, ticket, True))
        else:
            split = self.srf.geometry.split
            start = record_index * rw
            last = rw - 1
            for j in range(rw):
                if self.is_crosslane:
                    target, addr = split(descriptor.base + start + j)
                else:
                    target, addr = lane, self.local_base + start + j
                queue.append((
                    target, addr,
                    None if ticket is None else ticket + j,
                    j == last,
                ))
        fifo.records += 1
        self.pending_words += rw

    def _dequeue(self, lane: int) -> None:
        """Release ``lane``'s oldest record (the caller checked it
        returned)."""
        rob = self.robs[lane]
        rw = self.record_words
        slots = rob._slots
        rob._head_ticket += rw
        if rw == 1:
            slots.popleft()
        else:
            for _ in range(rw):
                slots.popleft()

    # -- client (cluster) side, one SIMD access per call ------------------
    def _can_issue_all(self, per_lane) -> bool:
        """:meth:`can_issue` of every lane whose entry is not None."""
        fifos = self.fifos
        robs = self.robs
        rw = self.record_words
        for lane, entry in enumerate(per_lane):
            if entry is not None:
                fifo = fifos[lane]
                if fifo.records >= fifo.capacity:
                    return False
                if robs is not None:
                    rob = robs[lane]
                    if len(rob._slots) + rw > rob.capacity:
                        return False
        return True

    def issue_reads(self, indices) -> bool:
        """Issue a record read in every lane whose index is not None.

        Returns False, changing nothing, when any such lane's address
        FIFO or reorder buffer is full (the clusters stall); otherwise
        issues them all and returns True.
        """
        if not self.is_read:
            raise SrfError(f"{self.descriptor.name}: not a read stream")
        if not self._can_issue_all(indices):
            return False
        enqueue = self._enqueue
        for lane, index in enumerate(indices):
            if index is not None:
                enqueue(lane, index, False)
        return True

    def issue_writes(self, indices) -> bool:
        """Issue a record write in every lane whose index is not None;
        all or nothing, like :meth:`issue_reads`."""
        if not self.descriptor.kind.is_write:
            raise SrfError(f"{self.descriptor.name}: not a write stream")
        if not self._can_issue_all(indices):
            return False
        enqueue = self._enqueue
        for lane, index in enumerate(indices):
            if index is not None:
                enqueue(lane, index, True)
        return True

    def pop_records(self, counts) -> bool:
        """Pop one record in every lane whose count is nonzero.

        Returns False, popping nothing, when any such lane's record has
        not fully returned; otherwise pops them all and returns True.
        """
        robs = self.robs
        if robs is None:
            raise SrfError(f"{self.descriptor.name}: write streams have no data")
        rw = self.record_words
        for lane, count in enumerate(counts):
            if count:
                slots = robs[lane]._slots
                if rw == 1:
                    if not slots or not slots[0]:
                        return False
                elif not robs[lane].head_ready_n(rw):
                    return False
        dequeue = self._dequeue
        for lane, count in enumerate(counts):
            if count:
                dequeue(lane)
        return True

    # -- client (cluster) side, one lane per call ---------------------------
    def can_issue(self, lane: int) -> bool:
        """Whether ``lane`` may enqueue another record access now."""
        fifo = self.fifos[lane]
        if fifo.records >= fifo.capacity:
            return False
        robs = self.robs
        return robs is None or robs[lane].can_reserve(self.record_words)

    def issue_read(self, lane: int, record_index: int) -> None:
        """Enqueue a record read; reserves in-order reorder slots."""
        if not self.is_read:
            raise SrfError(f"{self.descriptor.name}: not a read stream")
        if not self.can_issue(lane):
            raise SrfError(
                f"{self.descriptor.name}: lane {lane}'s address FIFO or "
                "reorder buffer is full"
            )
        self._enqueue(lane, record_index, False)

    def issue_write(self, lane: int, record_index: int) -> None:
        """Enqueue a record write's word addresses."""
        if not self.descriptor.kind.is_write:
            raise SrfError(f"{self.descriptor.name}: not a write stream")
        if not self.can_issue(lane):
            raise SrfError(
                f"{self.descriptor.name}: lane {lane}'s address FIFO or "
                "reorder buffer is full"
            )
        self._enqueue(lane, record_index, True)

    def data_ready(self, lane: int) -> bool:
        """Whether the oldest issued record's next word has returned."""
        return self.robs is not None and self.robs[lane].head_ready()

    def record_ready(self, lane: int) -> bool:
        """Whether a full record (``record_words`` words) has returned."""
        return self.robs is not None and self.robs[lane].head_ready_n(
            self.record_words
        )

    def pop_record(self, lane: int) -> None:
        """Pop one full record of ``lane``."""
        if not self.record_ready(lane):
            raise SrfError(
                f"{self.descriptor.name}: lane {lane} has no complete "
                "record to pop"
            )
        self._dequeue(lane)

    def pop_data(self, lane: int) -> None:
        """Pop the next in-order word of ``lane``."""
        if self.robs is None:
            raise SrfError(f"{self.descriptor.name}: write streams have no data")
        self.robs[lane].pop()

    @property
    def quiescent(self) -> bool:
        """True when no addresses or writes remain in flight."""
        return self.pending_words == 0 and self.outstanding_writes == 0


class StreamRegisterFile:
    """Cycle-steppable SRF with sequential and indexed access.

    Construct one per simulated machine; register sequential ports and
    indexed streams, then call :meth:`tick` once per cycle. ``comm_busy``
    tells the SRF whether the inter-cluster network carries an explicit
    (statically scheduled) communication this cycle, which takes priority
    over cross-lane data returns (§4.5).
    """

    def __init__(self, config: MachineConfig):
        config.validate()
        self.config = config
        self.geometry = SrfGeometry(
            lanes=config.lanes,
            bank_words=config.bank_words,
            words_per_lane_access=config.words_per_lane_access,
            subarrays_per_bank=config.subarrays_per_bank,
        )
        self.storage = SrfStorage(self.geometry)
        self.allocator = SrfAllocator(self.geometry)
        self.stats = SrfStats()
        self._seq_ports = []
        self._indexed = {}  # stream_id -> IndexedStream
        self._indexed_list = []  # same streams, in registration order
        self._global_arbiter = RoundRobinArbiter()
        self._seq_arbiter = RoundRobinArbiter()
        self._bank_arbiters = [RoundRobinArbiter() for _ in range(config.lanes)]
        network_cls = (
            RingAddressNetwork if config.crosslane_network == "ring"
            else AddressNetwork
        )
        self.address_network = network_cls(
            lanes=config.lanes,
            ports_per_bank=config.crosslane_ports_per_bank,
            source_bandwidth=max(1, config.crosslane_indexed_bandwidth or 1),
        )
        self.return_network = ReturnNetwork(lanes=config.lanes)
        # Sub-array decode factors, inlined on the per-word grant path
        # (open_indexed and issue proved its addresses).
        self._subarray_stride = self.geometry.words_per_lane_access
        self._subarray_count = self.geometry.subarrays_per_bank
        # Completion calendar: a ring of per-cycle buckets of typed event
        # tuples (see _complete_due). A due is 1..max-latency cycles out,
        # so live dues span fewer cycles than the ring has buckets and a
        # bucket holds one due cycle at a time; _cal_due[b] is bucket b's.
        self._cal_size = max(
            config.srf_sequential_latency,
            config.inlane_indexed_latency,
            config.crosslane_indexed_latency,
        ) + 2
        self._cal = [[] for _ in range(self._cal_size)]
        self._cal_due = [0] * self._cal_size
        self._cal_count = 0
        self._cal_floor = 0  # next due cycle not yet completed
        self._comm_busy = False
        #: Event tracer (repro.observe) the processor hands a traced
        #: machine's SRF; None when disabled.
        self.tracer = None
        self._occupancy_policy = config.indexed_arbitration == "occupancy"
        self._shared_network = config.shared_interlane_network
        #: Per-bank grant cap for indexed word accesses per cycle.
        self._bank_cap = (
            min(config.inlane_indexed_bandwidth, config.subarrays_per_bank)
            if config.supports_indexing
            else 0
        )

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def open_sequential(
        self,
        descriptor: StreamDescriptor,
        direction: "PortDirection | None" = None,
        buffer_words: "int | None" = None,
    ) -> SequentialPort:
        """Attach a sequential stream to the SRF port."""
        self.geometry.check_block_aligned(descriptor.base, descriptor.name)
        if direction is None:
            direction = (
                PortDirection.READ
                if descriptor.kind.is_read
                else PortDirection.WRITE
            )
        port = SequentialPort(self, descriptor, direction, buffer_words)
        self._seq_ports.append(port)
        if self.tracer is not None:
            self.tracer.instant(
                "srf", f"open:{descriptor.name}", self.stats.cycles,
                direction=direction.value,
                length_words=descriptor.length_words,
            )
        return port

    def close_sequential(self, port) -> None:
        """Detach a sequential port, or a requester registered with
        :meth:`attach_port` (its stream finished)."""
        self._seq_ports.remove(port)

    def attach_port(self, port) -> None:
        """Register a duck-typed sequential requester (a memory op).

        ``port`` must expose ``wants_grant() -> bool`` and
        ``on_grant(cycle) -> int`` (words moved), like
        :class:`SequentialPort`.
        """
        self._seq_ports.append(port)

    def open_indexed(self, descriptor: StreamDescriptor) -> IndexedStream:
        """Attach an indexed stream (requires an ISRF machine)."""
        if not self.config.supports_indexing:
            raise SrfError(
                f"machine '{self.config.name}' has a sequential-only SRF; "
                f"cannot open indexed stream {descriptor.name}"
            )
        stream = IndexedStream(self, descriptor)
        self._indexed[descriptor.stream_id] = stream
        self._indexed_list.append(stream)
        if self.tracer is not None:
            self.tracer.instant(
                "srf", f"open:{descriptor.name}", self.stats.cycles,
                kind=descriptor.kind.name,
                length_records=descriptor.length_records,
            )
        return stream

    def close_indexed(self, stream: IndexedStream) -> None:
        if not stream.quiescent:
            raise SrfError(
                f"{stream.descriptor.name}: closing with accesses in flight"
            )
        del self._indexed[stream.descriptor.stream_id]
        self._indexed_list.remove(stream)

    # ------------------------------------------------------------------
    # Cycle stepping
    # ------------------------------------------------------------------
    def tick(self, cycle: int, comm_busy: bool = False) -> None:
        """Advance the SRF by one cycle.

        ``comm_busy`` marks a cycle carrying an explicit (statically
        scheduled) inter-cluster communication: it pre-empts cross-lane
        data returns and, on machines with a shared inter-lane network
        (§4.5's preferred option), cross-lane index injection as well.
        """
        self.stats.cycles += 1
        self._comm_busy = comm_busy
        if self._cal_count:
            self._complete_due(cycle)
        else:
            self._cal_floor = cycle + 1
        self.return_network.tick(comm_busy)
        self._arbitrate(cycle)

    def next_event_cycle(self, cycle: int) -> "int | None":
        """No caller; kept because bench/layers.py wraps it by name
        (ROADMAP item 8)."""
        raise NotImplementedError("every cycle ticks the SRF")

    def fast_forward(self, cycles: int) -> None:
        """No caller; kept because bench/layers.py wraps it by name
        (ROADMAP item 8)."""
        raise NotImplementedError("every cycle ticks the SRF")

    # ------------------------------------------------------------------
    # Pipelined completions (calendar ring)
    # ------------------------------------------------------------------
    # Event kinds, typed tuples instead of closures:
    #   (1, rob, ticket)                       in-lane read fill
    #   (2, bank, src_lane, ticket, sid, rob)  cross-lane return
    #   (3, stream)                            write retirement
    #   (4, port)                              sequential block fill
    def schedule_fill(self, due: int, port: SequentialPort) -> None:
        """Register a pipelined sequential read completion."""
        slot = due % self._cal_size
        self._cal[slot].append((4, port))
        self._cal_due[slot] = due
        self._cal_count += 1

    def _complete_due(self, cycle: int) -> None:
        """Apply every completion due at or before ``cycle``.

        Each bucket holds one due cycle, in push order, which is the
        order the accesses were granted; completions never push new
        events, so a bucket is drained by plain iteration.
        """
        size = self._cal_size
        floor = self._cal_floor
        cal = self._cal
        enqueue = self.return_network.enqueue
        while floor <= cycle:
            bucket = cal[floor % size]
            if bucket:
                for ev in bucket:
                    kind = ev[0]
                    if kind == 1:
                        # ReorderBuffer.fill, inline: one per indexed word.
                        slots = ev[1]._slots
                        index = ev[2] - ev[1]._head_ticket
                        if not 0 <= index < len(slots) or slots[index]:
                            raise SrfError(
                                f"unknown or already-filled ticket {ev[2]}"
                            )
                        slots[index] = True
                    elif kind == 2:
                        enqueue(ev[1], ev[2], ev[3], ev[4], ev[5].fill)
                    elif kind == 3:
                        ev[1].outstanding_writes -= 1
                    else:
                        ev[1].deliver_fill()
                self._cal_count -= len(bucket)
                cal[floor % size] = []
                if not self._cal_count:
                    break
            floor += 1
        self._cal_floor = cycle + 1

    def _next_due(self) -> int:
        """Due cycle of the oldest pending completion (some must exist)."""
        return min(
            due for due, bucket in zip(self._cal_due, self._cal) if bucket
        )

    # ------------------------------------------------------------------
    # Arbitration (two-stage, §4.4)
    # ------------------------------------------------------------------
    def _arbitrate(self, cycle: int) -> None:
        """Two-stage arbitration (§4.4): the global stage selects either
        ONE sequential stream or ALL indexed streams, alternating fairly
        between the two classes; a second round-robin picks which
        sequential stream when that class wins."""
        sequential = [p for p in self._seq_ports if p.wants_grant()]
        indexed_wanted = False
        for s in self._indexed_list:
            if s.pending_words:
                indexed_wanted = True
                break
        if sequential:
            if indexed_wanted and self._global_arbiter.pick(_CLASSES):
                self._grant_indexed(cycle)
                return
            port = self._seq_arbiter.pick(sequential)
            self.stats.sequential_grants += 1
            self.stats.sequential_words += port.on_grant(cycle)
        elif indexed_wanted:
            self._grant_indexed(cycle)

    def _grant_indexed(self, cycle: int) -> None:
        """Local arbitration of every bank for one indexed cycle.

        Each bank serves, in round-robin (or fullest-FIFO-first) order,
        the head word accesses that target it: in-lane heads live at
        their own lane's bank, cross-lane heads at the bank their word
        addresses. A bank grants at most ``_bank_cap`` words, one per
        sub-array when it has several; a cross-lane word also needs a
        return-queue slot and a free address-network route, and yields
        to an explicit comm on a shared network. Banks are arbitrated in
        index order, so a cross-lane grant that uncovers a new head word
        offers it to a later bank in the same cycle.
        """
        stats = self.stats
        stats.indexed_cycles += 1
        address_network = self.address_network
        address_network.begin_cycle()
        lanes = self.geometry.lanes
        # One pass files each live head word in its target bank's bucket,
        # ordered by (stream position, lane); a head's first field is its
        # target lane, which for an in-lane stream is the FIFO's own.
        # Only a grant moves a head mid-cycle: an in-lane grant at bank b
        # moves lane b's FIFO, which no later bank reads; a cross-lane
        # grant may uncover a word for a later bank, which is insort-ed
        # into that bank's bucket below.
        buckets = [[] for _ in range(lanes)]
        position = 0
        for stream in self._indexed_list:
            if not stream.pending_words:
                continue
            lane = 0
            for fifo in stream.fifos:
                queue = fifo._words
                if queue:
                    word = queue[0]
                    buckets[word[0]].append(
                        (position, lane, stream, fifo, word)
                    )
                lane += 1
            position += 1
        bank_cap = self._bank_cap
        multi_cap = bank_cap > 1
        sub_stride = self._subarray_stride
        sub_count = self._subarray_count
        occupancy_policy = self._occupancy_policy
        shared_comm = self._shared_network and self._comm_busy
        return_network = self.return_network
        bank_arbiters = self._bank_arbiters
        cal = self._cal
        size = self._cal_size
        cfg = self.config
        inlane_due = cycle + cfg.inlane_indexed_latency
        crosslane_due = cycle + max(1, cfg.crosslane_indexed_latency - 1)
        inlane_bucket = cal[inlane_due % size]
        crosslane_bucket = cal[crosslane_due % size]
        granted_total = 0
        blocked_total = 0
        inlane_grants = crosslane_grants = write_grants = 0
        for bank in range(lanes):
            heads = buckets[bank]
            if not heads:
                continue
            n_heads = len(heads)
            if n_heads == 1:
                order = _SINGLE
            elif occupancy_policy:
                # Stall-aware policy (§5.4): serve the fullest address
                # FIFOs first — the streams most likely to stall.
                order = sorted(
                    range(n_heads), key=lambda p: -heads[p][3].records
                )
            else:
                order = bank_arbiters[bank].rotation(n_heads)
            used_subarrays = 0
            granted = 0
            for index in order:
                if granted >= bank_cap:
                    break
                position, lane, stream, fifo, word = heads[index]
                _target, addr, ticket, last = word
                subarray_bit = 1 << (addr // sub_stride % sub_count)
                if multi_cap and used_subarrays & subarray_bit:
                    continue
                crosslane = stream.is_crosslane
                if crosslane:
                    if shared_comm:
                        continue  # the shared network carries the comm
                    if not return_network.bank_has_space(bank):
                        continue
                    if not address_network.try_route(lane, bank):
                        continue
                    return_network.reserve(bank)
                used_subarrays |= subarray_bit
                queue = fifo._words
                queue.popleft()
                if last:
                    fifo.records -= 1
                stream.pending_words -= 1
                if crosslane and queue:
                    uncovered = queue[0]
                    if uncovered[0] > bank:
                        insort(
                            buckets[uncovered[0]],
                            (position, lane, stream, fifo, uncovered),
                        )
                # Launch: the bank access happens now; its completion is
                # a calendar event at the access latency.
                if ticket is not None:
                    rob = stream.robs[lane]
                    if crosslane:
                        crosslane_grants += 1
                        crosslane_bucket.append((
                            2, bank, lane, ticket, fifo.stream_id, rob,
                        ))
                    else:
                        inlane_grants += 1
                        inlane_bucket.append((1, rob, ticket))
                else:
                    write_grants += 1
                    inlane_bucket.append((3, stream))
                granted += 1
            bank_arbiters[bank].advance(n_heads)
            granted_total += granted
            blocked_total += n_heads - granted
        if granted_total:
            self._cal_count += granted_total
            self._cal_due[inlane_due % size] = inlane_due
            self._cal_due[crosslane_due % size] = crosslane_due
            stats.inlane_grants += inlane_grants
            stats.crosslane_grants += crosslane_grants
            stats.indexed_write_grants += write_grants
        else:
            stats.empty_indexed_cycles += 1
        stats.blocked_heads += blocked_total

    # ------------------------------------------------------------------
    def occupancy_report(self) -> list:
        """Human-readable lines describing current SRF occupancy.

        Used by deadlock forensics: which ports/streams hold state and
        how much is still in flight.
        """
        lines = []
        for port in self._seq_ports:
            # Memory ops report through MemoryController.inflight_report.
            if isinstance(port, SequentialPort):
                lines.append(
                    f"sequential port {port.descriptor.name}: "
                    f"{port._blocks_done}/{port.total_blocks} blocks, "
                    f"buffer {port.occupancy}/{port.capacity} words/lane"
                )
        for stream in self._indexed_list:
            lines.append(
                f"indexed stream {stream.descriptor.name}: "
                f"{stream.pending_words} queued words, "
                f"{stream.outstanding_writes} outstanding writes"
            )
        lines.extend(self._inflight_lines())
        if self.return_network.pending():
            lines.append(
                f"{self.return_network.pending()} words waiting in "
                f"return-network queues"
            )
        return lines

    def _inflight_lines(self) -> list:
        """Forensic lines about pipelined completions still in flight."""
        if not self._cal_count:
            return []
        return [
            f"{self._cal_count} pipelined accesses in flight "
            f"(next due cycle {self._next_due()})"
        ]

    @property
    def idle(self) -> bool:
        """True when nothing is in flight anywhere in the SRF."""
        if self._cal_count or self.return_network.pending():
            return False
        if any(p.wants_grant() for p in self._seq_ports):
            return False
        return all(s.quiescent for s in self._indexed.values())
