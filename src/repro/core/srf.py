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
for host speed without changing a single grant. A reorder-buffer slot
holds the cycle its word arrives: an in-lane read's grant writes it (the
grant cycle plus the in-lane latency) and a cross-lane read's slot is
stamped when the return network delivers the word, so the clients'
ready checks compare head slots with the current cycle. The pipelined
completions that remain (cross-lane words reaching their bank's return
queue, write retirements, sequential block fills) live in a calendar
ring of per-cycle buckets of typed event tuples, applied in grant
order. Indexed arbitration files every address FIFO with a live head in
its head word's target bank's bucket in one pass per cycle, then
arbitrates the banks in order, each from its own round-robin pointer
(see :meth:`StreamRegisterFile._grant_indexed`).

Clients (the kernel executor and the memory controller) interact through
small, explicit protocols. Sequential ports expose a request line
(``requesting``, kept equal to ``wants_grant()``) and ``on_grant`` to
the arbiter and ``pop_simd`` / ``push_simd`` to the clusters. Indexed
streams take one call per SIMD access —
``issue_reads(indices)``, ``issue_writes(indices)`` and
``pop_records(counts)``, each all-or-nothing across the active lanes and
False when the clusters must stall — plus per-lane ``can_issue`` /
``issue_read`` / ``issue_write`` / ``data_ready`` / ``record_ready`` /
``pop_record`` / ``pop_data`` for callers that model lanes one at a time
(the Figure 17/18 microbenchmarks). Address FIFOs hold plain word-access
tuples, so an in-lane indexed word costs no object beyond its FIFO
entry, and a cross-lane read or a write one completion event more.

The arbiter serves the streams that request it (§4.4): the SRF counts
raised request lines and queued indexed words, so a cycle with neither
costs no arbitration, and the return network runs only on a comm cycle
or while returns are queued.

Every stream is timed by counts and tickets alone: the kernel executor
moves every kernel word between the clusters and
:class:`~repro.core.storage.SrfStorage` when it issues the access, and
the memory controller moves a memory op's words when it issues the op,
so a sequential port or memory op counts buffered words, an
address-FIFO entry carries only its address, and a reorder-buffer slot
holds an arrival cycle. No grant touches storage.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from repro.config.machine import MachineConfig
from repro.core.address_fifo import AddressFifo
from repro.core.arbiter import RoundRobinArbiter
from repro.core.descriptors import IndexSpace, StreamDescriptor
from repro.core.geometry import SrfGeometry
from repro.core.storage import SrfAllocator, SrfStorage
from repro.core.stream_buffer import UNFILLED, ReorderBuffer
from repro.errors import SrfAccessError, SrfError
from repro.interconnect.crossbar import (
    AddressNetwork,
    ReturnNetwork,
    RingAddressNetwork,
)


#: The global arbiter's two classes; the pick is truthy for "indexed".
_CLASSES = (False, True)


def _fullest_first(fifo: AddressFifo) -> int:
    """Sort key of the occupancy policy: fuller address FIFOs first."""
    return -fifo.records


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


class PortRequester:
    """A sequential client of the SRF port, with its request line.

    :attr:`requesting` equals ``wants_grant()`` whenever the arbiter
    reads it: the client calls :meth:`refresh_request` after every change
    to the state ``wants_grant`` reads, except a grant, after which the
    SRF refreshes it. The SRF counts raised lines, so a cycle with none
    asks no port anything. Subclasses set ``srf`` and implement
    ``wants_grant() -> bool`` and ``on_grant(cycle) -> int`` (words
    moved).
    """

    requesting = False

    def refresh_request(self) -> None:
        wants = self.wants_grant()
        if wants != self.requesting:
            self.requesting = wants
            self.srf._raised_lines += 1 if wants else -1


class SequentialPort(PortRequester):
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
        self.refresh_request()

    def can_push(self) -> bool:
        return (self.direction is PortDirection.WRITE
                and self.occupancy < self.capacity)

    def push_simd(self) -> None:
        """Give one word per lane (cluster-side sequential write)."""
        if self.occupancy >= self.capacity:
            raise SrfError("stream buffer overflow")
        self.occupancy += 1
        self.refresh_request()

    def flush(self) -> None:
        """Request that buffered write data be drained even if partial."""
        self._flush_requested = True
        self.refresh_request()

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
        """Complete a pipelined read block (called by the SRF).

        Occupancy plus in-flight words stays constant, so the request
        line does not change.
        """
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
    serve the Figure 18 microbenchmark and callers that model lanes one
    at a time. Both forms go through :meth:`_enqueue` and
    :meth:`_dequeue`, which walk the FIFOs or reorder buffers they are
    given: every lane's for a SIMD access, one lane's for a per-lane
    call.
    """

    def __init__(self, srf: "StreamRegisterFile", descriptor: StreamDescriptor,
                 order: int):
        if descriptor.kind.is_sequential:
            raise SrfError(f"{descriptor.name}: not an indexed stream kind")
        self.srf = srf
        self.descriptor = descriptor
        lanes = srf.geometry.lanes
        cfg = srf.config
        if descriptor.kind.is_read:
            self.robs = [
                ReorderBuffer(cfg.stream_buffer_words) for _ in range(lanes)
            ]
        else:
            self.robs = None
        # ``order`` is the stream's place among the SRF's indexed streams
        # (opening order), which with the lane fixes each FIFO's place in
        # bank arbitration.
        self.fifos = [
            AddressFifo(
                cfg.address_fifo_words, lane, self,
                None if self.robs is None else self.robs[lane],
                order * lanes + lane,
            )
            for lane in range(lanes)
        ]
        self.outstanding_writes = 0
        #: Word accesses queued across all lane FIFOs (kept as a counter
        #: so per-cycle arbitration polls are O(1), not O(lanes)).
        self.pending_words = 0
        # Immutable per-stream facts, cached off the hot per-word paths.
        self.is_crosslane = descriptor.kind.is_crosslane
        self.is_read = descriptor.kind.is_read
        self.record_words = descriptor.record_words
        #: Whether each record is one word in the issuing lane's bank.
        self._one_word = self.record_words == 1 and not self.is_crosslane
        #: The reorder slots a multi-word record reserves.
        self._record_slots = (UNFILLED,) * self.record_words
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

    # -- queuing and releasing records ------------------------------------
    def _enqueue(self, indices, fifos, write: bool) -> bool:
        """Queue one record access in every lane whose index is not None.

        ``indices[k]`` is the record index for ``fifos[k]``'s lane: the
        SIMD calls pass every lane's FIFO, the per-lane calls their one
        lane's. Returns False, changing nothing, when any such lane's
        address FIFO or reorder buffer is full; otherwise queues them all
        and returns True. The capacity check and the queuing are one
        pass: a refusal withdraws the lanes already queued.

        A read reserves each record's in-order reorder tickets; a write
        counts its words as outstanding. A one-word in-lane record is
        queued here; any other record's words come from
        :meth:`_push_words`.
        """
        rw = self.record_words
        records = self.descriptor.length_records
        one_word = self._one_word
        local_base = self.local_base
        ticket = None
        active = 0
        for index, fifo in zip(indices, fifos):
            if index is None:
                continue
            rob = fifo.rob
            if fifo.records >= fifo.capacity or (
                    rob is not None and len(rob._slots) + rw > rob.capacity):
                self._withdraw(indices, fifos, fifo, write)
                return False
            if not 0 <= index < records:
                raise SrfError(
                    f"{self.descriptor.name}: record index {index} out of "
                    f"range [0,{records})"
                )
            if not write:
                # ReorderBuffer.reserve, inline: capacity checked above.
                slots = rob._slots
                ticket = rob._head_ticket + len(slots)
                if rw == 1:
                    slots.append(UNFILLED)
                else:
                    slots.extend(self._record_slots)
            if one_word:
                fifo._words.append((fifo.lane, local_base + index, ticket,
                                    True))
            else:
                self._push_words(fifo, index, ticket)
            fifo.records += 1
            active += 1
        queued = active * rw
        if write:
            self.outstanding_writes += queued
        self.pending_words += queued
        self.srf._queued_words += queued
        return True

    def _push_words(self, fifo: AddressFifo, index: int, ticket) -> None:
        """Queue record ``index``'s word accesses in ``fifo`` (any record
        but a one-word in-lane one): the timing side's only copy of the
        record-to-bank address arithmetic. Word ``j`` fills ticket
        ``ticket + j`` (None for a write)."""
        queue = fifo._words
        rw = self.record_words
        last = rw - 1
        if self.is_crosslane:
            split = self.srf.geometry.split
            start = self.descriptor.base + index * rw
            for j in range(rw):
                target, addr = split(start + j)
                queue.append((target, addr,
                              None if ticket is None else ticket + j,
                              j == last))
        else:
            lane = fifo.lane
            start = self.local_base + index * rw
            for j in range(rw):
                queue.append((lane, start + j,
                              None if ticket is None else ticket + j,
                              j == last))

    def _withdraw(self, indices, fifos, stop: AddressFifo,
                  write: bool) -> None:
        """Undo :meth:`_enqueue`'s queuing of the FIFOs before ``stop``
        once ``stop`` refused: each lane queued ``record_words`` FIFO
        words and, for a read, reserved as many reorder slots, all at the
        tails."""
        rw = self.record_words
        for index, fifo in zip(indices, fifos):
            if fifo is stop:
                break
            if index is not None:
                queue = fifo._words
                for _ in range(rw):
                    queue.pop()
                fifo.records -= 1
                if not write:
                    slots = fifo.rob._slots
                    for _ in range(rw):
                        slots.pop()

    def _dequeue(self, counts, robs) -> bool:
        """Release the oldest record of every lane whose count is
        nonzero (``counts[k]`` is for ``robs[k]``'s lane, as in
        :meth:`_enqueue`).

        Returns False, releasing nothing, when any such lane's record has
        not fully arrived; otherwise releases them all and returns True.
        A word has arrived when its slot's arrival cycle lies before the
        cycle the clients act in.
        """
        now = self.srf._now
        rw = self.record_words
        for count, rob in zip(counts, robs):
            if count:
                if rw == 1:
                    slots = rob._slots
                    if not slots or slots[0] >= now:
                        return False
                elif not rob.head_ready_n(rw, now):
                    return False
        for count, rob in zip(counts, robs):
            if count:
                rob._head_ticket += rw
                slots = rob._slots
                if rw == 1:
                    slots.popleft()
                else:
                    for _ in range(rw):
                        slots.popleft()
        return True

    # -- client (cluster) side, one SIMD access per call ------------------
    def issue_reads(self, indices) -> bool:
        """Issue a record read in every lane whose index is not None.

        Returns False, changing nothing, when any such lane's address
        FIFO or reorder buffer is full (the clusters stall); otherwise
        issues them all and returns True.
        """
        if not self.is_read:
            raise SrfError(f"{self.descriptor.name}: not a read stream")
        return self._enqueue(indices, self.fifos, False)

    def issue_writes(self, indices) -> bool:
        """Issue a record write in every lane whose index is not None;
        all or nothing, like :meth:`issue_reads`."""
        if not self.descriptor.kind.is_write:
            raise SrfError(f"{self.descriptor.name}: not a write stream")
        return self._enqueue(indices, self.fifos, True)

    def pop_records(self, counts) -> bool:
        """Pop one record in every lane whose count is nonzero.

        Returns False, popping nothing, when any such lane's record has
        not fully returned; otherwise pops them all and returns True.
        """
        if self.robs is None:
            raise SrfError(f"{self.descriptor.name}: write streams have no data")
        return self._dequeue(counts, self.robs)

    # -- client (cluster) side, one lane per call ---------------------------
    def can_issue(self, lane: int) -> bool:
        """Whether ``lane`` may enqueue another record access now."""
        fifo = self.fifos[lane]
        if fifo.records >= fifo.capacity:
            return False
        rob = fifo.rob
        return rob is None or rob.can_reserve(self.record_words)

    def issue_read(self, lane: int, record_index: int) -> None:
        """Enqueue a record read; reserves in-order reorder slots."""
        if not self.is_read:
            raise SrfError(f"{self.descriptor.name}: not a read stream")
        if not self._enqueue((record_index,), (self.fifos[lane],), False):
            self._raise_full(lane)

    def issue_write(self, lane: int, record_index: int) -> None:
        """Enqueue a record write's word addresses."""
        if not self.descriptor.kind.is_write:
            raise SrfError(f"{self.descriptor.name}: not a write stream")
        if not self._enqueue((record_index,), (self.fifos[lane],), True):
            self._raise_full(lane)

    def _raise_full(self, lane: int) -> None:
        raise SrfError(
            f"{self.descriptor.name}: lane {lane}'s address FIFO or "
            "reorder buffer is full"
        )

    def data_ready(self, lane: int) -> bool:
        """Whether the oldest issued record's next word has returned."""
        return self.robs is not None and self.robs[lane].head_ready(
            self.srf._now
        )

    def record_ready(self, lane: int) -> bool:
        """Whether a full record (``record_words`` words) has returned."""
        return self.robs is not None and self.robs[lane].head_ready_n(
            self.record_words, self.srf._now
        )

    def pop_record(self, lane: int) -> None:
        """Pop one full record of ``lane``."""
        if self.robs is None or not self._dequeue((1,), (self.robs[lane],)):
            raise SrfError(
                f"{self.descriptor.name}: lane {lane} has no complete "
                "record to pop"
            )

    def pop_data(self, lane: int) -> None:
        """Pop the next in-order word of ``lane``."""
        if self.robs is None:
            raise SrfError(f"{self.descriptor.name}: write streams have no data")
        self.robs[lane].pop(self.srf._now)

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
        #: Registered sequential requesters whose request line is raised.
        self._raised_lines = 0
        #: Word accesses queued across every indexed stream's FIFOs.
        self._queued_words = 0
        self._global_arbiter = RoundRobinArbiter()
        self._seq_arbiter = RoundRobinArbiter()
        #: Each bank's round-robin pointer over its head word accesses.
        self._bank_pointers = [0] * config.lanes
        #: Opening order of the next indexed stream.
        self._stream_order = itertools.count()
        network_cls = (
            RingAddressNetwork if config.crosslane_network == "ring"
            else AddressNetwork
        )
        # validate() requires a positive cross-lane bandwidth on an
        # indexed machine; a sequential-only machine has 0 and never
        # routes an index.
        self.address_network = network_cls(
            lanes=config.lanes,
            ports_per_bank=config.crosslane_ports_per_bank,
            source_bandwidth=config.crosslane_indexed_bandwidth or 1,
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
        # In-lane reads post no event: their grant stamps the reorder
        # slot with the cycle the word arrives.
        self._cal_size = max(
            config.srf_sequential_latency,
            config.inlane_indexed_latency,
            config.crosslane_indexed_latency,
        ) + 2
        self._cal = [[] for _ in range(self._cal_size)]
        self._cal_due = [0] * self._cal_size
        self._cal_count = 0
        #: The cycle clients act in: one past the last ticked cycle. Every
        #: completion due before it has happened, and a reorder slot
        #: stamped before it holds an arrived word.
        self._now = 0
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
        port.refresh_request()
        if self.tracer is not None:
            self.tracer.instant(
                "srf", f"open:{descriptor.name}", self.stats.cycles,
                direction=direction.value,
                length_words=descriptor.length_words,
            )
        return port

    def close_sequential(self, port) -> None:
        """Detach a sequential port, or a requester registered with
        :meth:`attach_port` (its stream finished); lowers its line."""
        self._seq_ports.remove(port)
        if port.requesting:
            port.requesting = False
            self._raised_lines -= 1

    def attach_port(self, port: PortRequester) -> None:
        """Register another sequential requester (a memory op), raising
        its line if it wants a grant."""
        self._seq_ports.append(port)
        port.refresh_request()

    def open_indexed(self, descriptor: StreamDescriptor) -> IndexedStream:
        """Attach an indexed stream (requires an ISRF machine)."""
        if not self.config.supports_indexing:
            raise SrfError(
                f"machine '{self.config.name}' has a sequential-only SRF; "
                f"cannot open indexed stream {descriptor.name}"
            )
        stream = IndexedStream(self, descriptor, next(self._stream_order))
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
        # Each FIFO names its stream for arbitration; breaking that
        # cycle lets reference counting free the closed stream at once.
        for fifo in stream.fifos:
            fifo.stream = None

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
        self._now = cycle + 1
        if comm_busy or self.return_network.queued:
            self.return_network.tick(comm_busy)
        if self._raised_lines or self._queued_words:
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
    # Event kinds, typed tuples instead of closures (an in-lane read has
    # none: its grant stamps the reorder slot with its arrival cycle):
    #   (2, bank, src_lane, ticket, rob)       cross-lane read reaches
    #                                          its bank's return queue
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
        floor = self._now
        cal = self._cal
        enqueue = self.return_network.enqueue
        deliver = self._deliver
        while floor <= cycle:
            bucket = cal[floor % size]
            if bucket:
                for ev in bucket:
                    kind = ev[0]
                    if kind == 2:
                        # The event itself is the return's token.
                        enqueue(ev[1], ev[2], ev, deliver)
                    elif kind == 3:
                        ev[1].outstanding_writes -= 1
                    else:
                        ev[1].deliver_fill()
                self._cal_count -= len(bucket)
                cal[floor % size] = []
                if not self._cal_count:
                    break
            floor += 1

    def _deliver(self, event) -> None:
        """Stamp a cross-lane read's reorder slot as the return network
        delivers its word, in the tick of cycle ``_now - 1``."""
        event[4].fill(event[3], self._now - 1)

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
        sequential stream when that class wins.

        The stages read request lines and counts, not the ports: the
        candidates are the raised lines in registration order, listed
        only on a cycle that grants a sequential block.
        """
        if self._raised_lines:
            if self._queued_words and self._global_arbiter.pick(_CLASSES):
                self._grant_indexed(cycle)
                return
            port = self._seq_arbiter.pick(
                [p for p in self._seq_ports if p.requesting]
            )
            self.stats.sequential_grants += 1
            self.stats.sequential_words += port.on_grant(cycle)
            port.refresh_request()
        elif self._queued_words:
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
        lanes = self.geometry.lanes
        # One pass files each address FIFO with a live head in its head
        # word's target bank's bucket, ordered by FIFO key (stream order,
        # then lane); a head's first field is its target lane, which for
        # an in-lane stream is the FIFO's own. Only a grant moves a head
        # mid-cycle: an in-lane grant at bank b moves lane b's FIFO,
        # which no later bank reads; a cross-lane grant may uncover a
        # word for a later bank, whose bucket then takes the FIFO in key
        # order below.
        buckets = [[] for _ in range(lanes)]
        crosslane_heads = False
        for stream in self._indexed_list:
            if stream.pending_words:
                crosslane_heads = crosslane_heads or stream.is_crosslane
                for fifo in stream.fifos:
                    queue = fifo._words
                    if queue:
                        buckets[queue[0][0]].append(fifo)
        address_network = self.address_network
        if crosslane_heads:
            address_network.begin_cycle()
        bank_cap = self._bank_cap
        multi_cap = bank_cap > 1
        sub_stride = self._subarray_stride
        sub_count = self._subarray_count
        occupancy_policy = self._occupancy_policy
        shared_comm = self._shared_network and self._comm_busy
        return_network = self.return_network
        pointers = self._bank_pointers
        cal = self._cal
        size = self._cal_size
        cfg = self.config
        inlane_due = cycle + cfg.inlane_indexed_latency
        crosslane_due = cycle + max(1, cfg.crosslane_indexed_latency - 1)
        inlane_bucket = cal[inlane_due % size]
        crosslane_bucket = cal[crosslane_due % size]
        heads_total = 0
        inlane_grants = crosslane_grants = write_grants = 0
        for bank in range(lanes):
            heads = buckets[bank]
            if not heads:
                continue
            n_heads = len(heads)
            heads_total += n_heads
            pointer = pointers[bank]
            # Advance the bank's round-robin pointer by one position.
            pointers[bank] = (pointer + 1) % n_heads
            # Sub-arrays can conflict only among several heads, and only
            # matter when the bank may grant more than one of them.
            subarrays = multi_cap and n_heads > 1
            if n_heads > 1:
                if occupancy_policy:
                    # Stall-aware policy (§5.4): serve the fullest address
                    # FIFOs first — the streams most likely to stall.
                    heads = sorted(heads, key=_fullest_first)
                else:
                    start = pointer % n_heads
                    if start:
                        heads = heads[start:] + heads[:start]
            used_subarrays = 0
            granted = 0
            for fifo in heads:
                queue = fifo._words
                _target, addr, ticket, last = queue[0]
                if subarrays:
                    subarray_bit = 1 << (addr // sub_stride % sub_count)
                    if used_subarrays & subarray_bit:
                        continue
                stream = fifo.stream
                crosslane = stream.is_crosslane
                if crosslane:
                    if shared_comm:
                        continue  # the shared network carries the comm
                    if not return_network.bank_has_space(bank):
                        continue
                    if not address_network.try_route(fifo.lane, bank):
                        continue
                    return_network.reserve(bank)
                if subarrays:
                    used_subarrays |= subarray_bit
                queue.popleft()
                if last:
                    fifo.records -= 1
                stream.pending_words -= 1
                # Launch: the bank access happens now.
                if crosslane:
                    # Its word reaches the bank's return queue after the
                    # access latency, then waits for the network.
                    crosslane_grants += 1
                    crosslane_bucket.append(
                        (2, bank, fifo.lane, ticket, fifo.rob)
                    )
                    if queue:
                        target = queue[0][0]
                        if target > bank:
                            later = buckets[target]
                            key = fifo.key
                            at = len(later)
                            while at and later[at - 1].key > key:
                                at -= 1
                            later.insert(at, fifo)
                elif ticket is not None:
                    # ReorderBuffer.fill, inline: the word arrives after
                    # the in-lane latency, so no event is needed.
                    rob = fifo.rob
                    slots = rob._slots
                    index = ticket - rob._head_ticket
                    if not 0 <= index < len(slots) or slots[index] != UNFILLED:
                        raise SrfError(
                            f"unknown or already-filled ticket {ticket}"
                        )
                    slots[index] = inlane_due
                    inlane_grants += 1
                else:
                    write_grants += 1
                    inlane_bucket.append((3, stream))
                granted += 1
                if granted == bank_cap:
                    break
        granted_total = inlane_grants + crosslane_grants + write_grants
        if granted_total:
            self._queued_words -= granted_total
            events = crosslane_grants + write_grants
            if events:
                self._cal_count += events
                self._cal_due[inlane_due % size] = inlane_due
                self._cal_due[crosslane_due % size] = crosslane_due
            stats.inlane_grants += inlane_grants
            stats.crosslane_grants += crosslane_grants
            stats.indexed_write_grants += write_grants
        else:
            stats.empty_indexed_cycles += 1
        stats.blocked_heads += heads_total - granted_total

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
        """Forensic lines about pipelined completions still in flight:
        calendar events and in-lane words whose arrival is ahead."""
        arriving = self._arriving()
        count = self._cal_count + len(arriving)
        if not count:
            return []
        if self._cal_count:
            arriving.append(self._next_due())
        return [
            f"{count} pipelined accesses in flight "
            f"(next due cycle {min(arriving)})"
        ]

    def _arriving(self) -> list:
        """Arrival cycles of the granted in-lane reads whose word has not
        arrived yet (a delivered cross-lane word's stamp is past)."""
        now = self._now
        return [
            stamp
            for stream in self._indexed_list if stream.robs is not None
            for rob in stream.robs
            for stamp in rob._slots if now <= stamp != UNFILLED
        ]

    @property
    def idle(self) -> bool:
        """True when nothing is in flight anywhere in the SRF."""
        if self._cal_count or self.return_network.pending():
            return False
        if self._raised_lines or self._arriving():
            return False
        return all(s.quiescent for s in self._indexed.values())
