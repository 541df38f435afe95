"""Cycle-accurate execution of a scheduled kernel on the machine.

The executor replays a kernel's modulo schedule against the SRF timing
model. Iterations are evaluated functionally (on real data) the moment
they are *issued* into the software pipeline; their stream accesses then
fire as timed events at ``issue_cycle + slot(op)``. Clusters run in SIMD
lockstep, so any event that cannot complete — an empty stream buffer, a
full address FIFO, indexed data still in flight (Figure 9) — stalls the
whole machine for a cycle and is retried; those cycles are the
"SRF stall" component of Figure 12.

Kernel data moves once, at issue: a read takes its words from SRF
storage and a write stores them, in program order, so a read of a
read-write stream (paper §7) sees every earlier write of the kernel.
The timed events then carry only what the SRF needs to time the access
— record indices and word counts — and no word passes through the
timing model. This is exact because kernels run one at a time, and
static analysis (``python -m repro.analyze``) rejects as ``srf-race``
any memory transfer unordered against a kernel that touches its SRF
words.
"""

from __future__ import annotations

import heapq
import itertools

from repro.config.machine import MachineConfig
from repro.core.descriptors import StreamDescriptor
from repro.core.srf import PortDirection, StreamRegisterFile
from repro.errors import ExecutionError, ReplayError, SrfAccessError
from repro.kernel.interpreter import ExecutionContext, KernelInterpreter
from repro.kernel.ir import KernelStream
from repro.kernel.ops import OpKind
from repro.kernel.schedule import StaticSchedule
from repro.machine.program import KernelInvocation
from repro.machine.replay import REPLAY_DATA_KINDS
from repro.machine.stats import KernelRunStats

#: Fixed per-invocation cost of loading kernel microcode and priming the
#: stream units (part of Figure 12's "kernel overheads").
KERNEL_STARTUP_CYCLES = 32


class _SrfBackedContext(ExecutionContext):
    """Functional stream data wired straight to SRF storage.

    Every access reads or writes storage when the interpreter makes it,
    which is program order; the timed events only time it.
    """

    def __init__(self, executor: "KernelExecutor"):
        self._executor = executor

    def seq_read(self, stream: KernelStream) -> list:
        return self._executor.functional_seq_read(stream)

    def seq_write(self, stream: KernelStream, lane_values) -> None:
        self._executor.functional_seq_write(stream, lane_values)

    def idx_read(self, stream: KernelStream, indices: list) -> list:
        return self._executor.functional_idx_read(stream, indices)

    def idx_write(self, stream: KernelStream, entries: list) -> None:
        self._executor.functional_idx_write(stream, entries)


class _Event:
    """A timed stream access; ``fire`` returns True when it completed.

    ``target`` is the op's sequential port or indexed stream (None for a
    comm) and ``detail`` its iteration's trace detail. Only indexed ops
    use it, for one record index or word count per lane; the words
    themselves moved when the iteration was issued.
    """

    __slots__ = ("target", "detail")
    is_comm = False

    def __init__(self, target, detail):
        self.target = target
        self.detail = detail

    def fire(self) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


class _SeqRead(_Event):
    __slots__ = ()

    def fire(self) -> bool:
        if not self.target.can_pop():
            return False
        self.target.pop_simd()
        return True


class _SeqWrite(_Event):
    __slots__ = ()

    def fire(self) -> bool:
        if not self.target.can_push():
            return False
        self.target.push_simd()
        return True


class _IdxIssue(_Event):
    __slots__ = ()

    def fire(self) -> bool:
        return self.target.issue_reads(self.detail)


class _IdxData(_Event):
    __slots__ = ()

    def fire(self) -> bool:
        return self.target.pop_records(self.detail)


class _IdxWrite(_Event):
    __slots__ = ()

    def __init__(self, target, detail):
        # The words were stored at issue; the SRF times the indices.
        self.target = target
        self.detail = [None if entry is None else entry[0]
                       for entry in detail]

    def fire(self) -> bool:
        return self.target.issue_writes(self.detail)


class _Comm(_Event):
    __slots__ = ()
    is_comm = True

    def fire(self) -> bool:
        return True  # statically scheduled comms always have priority


#: Timed op kind -> the event class that fires it.
_EVENT_CLASSES = {
    OpKind.SEQ_READ: _SeqRead,
    OpKind.SEQ_WRITE: _SeqWrite,
    OpKind.IDX_ISSUE: _IdxIssue,
    OpKind.IDX_DATA: _IdxData,
    OpKind.IDX_WRITE: _IdxWrite,
    OpKind.COMM: _Comm,
}


class KernelExecutor:
    """Drives one :class:`KernelInvocation` to completion on the SRF."""

    def __init__(self, config: MachineConfig, srf: StreamRegisterFile,
                 invocation: KernelInvocation, schedule: StaticSchedule,
                 observer=None, record_to=None, replay_from=None):
        self.config = config
        self.srf = srf
        self.invocation = invocation
        self.schedule = schedule
        # Observability (repro.observe); None when disabled.
        self._stall_counter = None
        if observer is not None and observer.metrics is not None:
            metrics = observer.metrics
            self._stall_counter = metrics.counter(
                f"kernel.{invocation.name}.srf_stall_cycles"
            )
            # Static VLIW slot utilisation of the modulo schedule: ops
            # issued per iteration over the ii * ALU slot capacity.
            capacity = schedule.ii * config.alus_per_cluster
            metrics.gauge(
                f"kernel.{invocation.name}.slot_utilization"
            ).set(len(invocation.kernel.ops) / capacity if capacity else 0.0)
        self._geometry = srf.geometry
        self._bind_streams()
        if invocation.on_start is not None:
            invocation.on_start()
        #: Replay integration (repro.machine.replay). ``replay_from``
        #: supplies recorded per-iteration stream details in place of
        #: functional execution (no interpreter at all; the timing model
        #: runs unchanged); ``record_to`` captures them during a
        #: functional run. Both are :class:`InvocationTrace` objects.
        self._record_rows = None
        self._replay_rows = None
        self._data_ops = None
        if replay_from is not None:
            if len(replay_from.rows) != invocation.iterations:
                raise ReplayError(
                    f"{invocation.name}: trace has "
                    f"{len(replay_from.rows)} rows for "
                    f"{invocation.iterations} iterations"
                )
            self._replay_rows = replay_from.rows
            self._data_ops = invocation.kernel.stream_ops(
                *REPLAY_DATA_KINDS
            )
            self._interpreter = None
        else:
            self._interpreter = KernelInterpreter(
                invocation.kernel, config.lanes, _SrfBackedContext(self)
            )
            if record_to is not None:
                self._record_rows = record_to.rows
                self._data_ops = invocation.kernel.stream_ops(
                    *REPLAY_DATA_KINDS
                )
        #: One ``(slot, event class, port or stream, op_id)`` row per
        #: timed op, in firing order; every issued iteration turns each
        #: row into one event.
        targets = {**self._ports, **self._indexed}
        self._event_rows = [
            (schedule.slots[op.op_id], _EVENT_CLASSES[op.kind],
             targets.get(op.stream.name) if op.stream is not None else None,
             op.op_id)
            for op in schedule.timed_stream_ops()
        ]
        self._heap = []
        self._sequence = itertools.count()
        self._vt = 0
        self._issued = 0
        self._startup_remaining = KERNEL_STARTUP_CYCLES
        self._flushed = False
        self.finished = False
        self.stats = KernelRunStats(
            kernel_name=invocation.name,
            ii=schedule.ii,
            depth=schedule.depth,
            iterations=invocation.iterations,
            useful_iterations=invocation.mean_useful_iterations,
            startup_cycles=KERNEL_STARTUP_CYCLES,
            lanes=config.lanes,
        )
        self._seq_cursors = {name: 0 for name in invocation.kernel.streams}
        #: SRF storage's word list, which the functional accesses index
        #: directly after their own range checks.
        self._words = srf.storage._words

    # ------------------------------------------------------------------
    # Stream binding
    # ------------------------------------------------------------------
    def _bind_streams(self) -> None:
        self._ports = {}  # stream name -> SequentialPort
        self._indexed = {}  # stream name -> IndexedStream
        self._descriptors = {}
        for name, formal in self.invocation.kernel.streams.items():
            descriptor = self.invocation.bindings[name]
            if not isinstance(descriptor, StreamDescriptor):
                raise ExecutionError(
                    f"{self.invocation.name}: binding for {name!r} is not a "
                    "StreamDescriptor"
                )
            if descriptor.kind is not formal.kind:
                raise ExecutionError(
                    f"{self.invocation.name}: stream {name!r} is "
                    f"{formal.kind.value} but bound to a "
                    f"{descriptor.kind.value} descriptor"
                )
            if descriptor.record_words != formal.record_words:
                raise ExecutionError(
                    f"{self.invocation.name}: stream {name!r} has "
                    f"{formal.record_words}-word records but is bound to a "
                    f"descriptor with {descriptor.record_words}-word records"
                )
            self._descriptors[name] = descriptor
            if formal.kind.is_sequential:
                direction = (
                    PortDirection.READ if formal.kind.is_read
                    else PortDirection.WRITE
                )
                self._ports[name] = self.srf.open_sequential(
                    descriptor, direction
                )
            else:
                self._indexed[name] = self.srf.open_indexed(descriptor)

    def _release_streams(self) -> None:
        for port in self._ports.values():
            self.srf.close_sequential(port)
        for stream in self._indexed.values():
            self.srf.close_indexed(stream)

    # ------------------------------------------------------------------
    # Functional data access (the interpreter's context, and replay)
    # ------------------------------------------------------------------
    def _seq_slice(self, stream: KernelStream) -> slice:
        """Storage slice of every lane's next word of a sequential
        stream; advances the stream's cursor.

        The lanes' words sit ``m`` words apart in one SRF block, so they
        are one strided slice of storage once the block is checked
        against the stream's and both ends against the SRF's.
        """
        descriptor = self._descriptors[stream.name]
        geometry = self._geometry
        m = geometry.words_per_lane_access
        cursor = self._seq_cursors[stream.name]
        block = cursor // m
        blocks = self._ports[stream.name].total_blocks
        if block >= blocks:
            raise SrfAccessError(
                f"{stream.name}: lane word {cursor} out of range: the "
                f"stream's {blocks} blocks hold {blocks * m} words a lane"
            )
        first = descriptor.base + block * geometry.block_words + cursor % m
        last = first + (geometry.lanes - 1) * m
        limit = len(self._words)
        if first < 0 or last >= limit:
            raise SrfAccessError(
                f"{stream.name}: SRF address {first if first < 0 else last} "
                f"out of range [0,{limit})"
            )
        self._seq_cursors[stream.name] = cursor + 1
        return slice(first, last + 1, m)

    def functional_seq_read(self, stream: KernelStream) -> list:
        """Every lane's next word of a sequential read stream."""
        return self._words[self._seq_slice(stream)]

    def functional_seq_write(self, stream: KernelStream,
                             lane_values: list) -> None:
        """Store every lane's next word of a sequential write stream."""
        self._words[self._seq_slice(stream)] = lane_values

    def _record_addresses(self, stream: KernelStream, indices) -> list:
        """Storage indices of every lane's record ``indices[lane]``.

        One entry per lane: None where the index is None, else the
        storage index of a 1-word record or the list of a longer
        record's word indices. Each index is checked against the
        stream's records before storage is indexed, so a bad index
        raises :class:`SrfAccessError` and touches no neighbouring
        allocation; ``open_indexed`` proved that every in-range record
        lies inside the lane's bank (in-lane) or the SRF (cross-lane).
        """
        indexed = self._indexed[stream.name]
        rw = indexed.record_words
        records = indexed.descriptor.length_records
        crosslane = indexed.is_crosslane
        base = indexed.descriptor.base if crosslane else indexed.local_base
        geometry = self._geometry
        m = geometry.words_per_lane_access
        block_words = geometry.block_words
        addresses: list = []
        for lane, index in enumerate(indices):
            if index is None:
                addresses.append(None)
                continue
            if not 0 <= index < records:
                raise SrfAccessError(
                    f"{stream.name}: lane {lane} record index {index} out "
                    f"of range [0,{records})"
                )
            start = base + index * rw
            if crosslane:
                addresses.append(
                    start if rw == 1 else range(start, start + rw)
                )
                continue
            column = lane * m
            if rw == 1:
                super_block, offset = divmod(start, m)
                addresses.append(super_block * block_words + column + offset)
            else:
                addresses.append([
                    (addr // m) * block_words + column + addr % m
                    for addr in range(start, start + rw)
                ])
        return addresses

    def functional_idx_read(self, stream: KernelStream,
                            indices: list) -> list:
        """Every lane's record ``indices[lane]`` (0 where it is None).

        Multi-word records come back as tuples.
        """
        words = self._words
        addresses = self._record_addresses(stream, indices)
        if self._indexed[stream.name].record_words == 1:
            return [0 if address is None else words[address]
                    for address in addresses]
        return [0 if address is None else tuple([words[a] for a in address])
                for address in addresses]

    def functional_idx_write(self, stream: KernelStream,
                             entries: list) -> None:
        """Store every lane's ``(record_index, value)`` entry (None
        writes nothing); a multi-word record's value is its word tuple.
        """
        words = self._words
        addresses = self._record_addresses(stream, [
            None if entry is None else entry[0] for entry in entries
        ])
        single = self._indexed[stream.name].record_words == 1
        for entry, address in zip(entries, addresses):
            if entry is not None:
                if single:
                    words[address] = entry[1]
                else:
                    for a, word in zip(address, entry[1]):
                        words[a] = word

    # ------------------------------------------------------------------
    # Cycle stepping
    # ------------------------------------------------------------------
    @property
    def startup_remaining(self) -> int:
        """Microcode-load cycles left before the first loop iteration."""
        return self._startup_remaining

    def fast_forward(self, cycles: int) -> None:
        """Consume ``cycles`` of the fixed startup delay in bulk.

        Equivalent to ``cycles`` calls to :meth:`step` while the startup
        countdown is running (each would only bump the cycle counter).
        """
        if cycles > self._startup_remaining:
            raise ExecutionError(
                f"{self.invocation.name}: cannot fast-forward {cycles} "
                f"cycles with {self._startup_remaining} startup cycles left"
            )
        self.stats.total_cycles += cycles
        self._startup_remaining -= cycles

    # No caller left; kept because bench/layers.py wraps it by name.
    def fast_forward_steady(self, cycles: int) -> None:
        """Consume ``cycles`` steady-state cycles that would only wait.

        Valid only while no iteration issue or timed event is due in
        the window: each skipped step would have bumped ``total_cycles``
        and virtual time and done nothing else.
        """
        self.stats.total_cycles += cycles
        self._vt += cycles

    def step(self) -> bool:
        """Advance one machine cycle; returns comm_busy for this cycle.

        Sets :attr:`finished` when the kernel (including output drain)
        has completed.
        """
        if self.finished:
            return False
        self.stats.total_cycles += 1
        if self._startup_remaining > 0:
            self._startup_remaining -= 1
            return False
        self._issue_ready_iterations()
        comm_busy = self._fire_events()
        self._maybe_finish()
        return comm_busy

    def _issue_ready_iterations(self) -> None:
        ii = self.schedule.ii
        while (
            self._issued < self.invocation.iterations
            and self._issued * ii <= self._vt
        ):
            details = self._iteration_details()
            base_vt = self._issued * ii
            heap = self._heap
            sequence = self._sequence
            for slot, event_class, target, op_id in self._event_rows:
                vt = base_vt + slot
                heapq.heappush(heap, (vt, next(sequence),
                                      event_class(target, details.get(op_id))))
            self._issued += 1

    def _iteration_details(self) -> dict:
        """Stream-access details of the next iteration, by op id.

        Execute mode runs the interpreter on real data, which moves the
        iteration's words (and optionally records the data-bearing
        details); replay mode rehydrates them from the recorded trace
        without an interpreter and stores each recorded write through
        the same functional calls, in program order. Nothing mutates a
        detail, so rows are recorded and replayed without copies.
        """
        if self._replay_rows is not None:
            row = self._replay_rows[self._issued]
            if len(row) != len(self._data_ops):
                raise ReplayError(
                    f"{self.invocation.name}: iteration {self._issued} "
                    f"row has {len(row)} details for "
                    f"{len(self._data_ops)} data ops"
                )
            details = {}
            for op, detail in zip(self._data_ops, row):
                if op.kind is OpKind.SEQ_WRITE:
                    self.functional_seq_write(op.stream, detail)
                elif op.kind is OpKind.IDX_WRITE:
                    self.functional_idx_write(op.stream, detail)
                details[op.op_id] = detail
            return details
        trace = self._interpreter.run_iteration()
        details = {op.op_id: detail for op, detail in trace.entries}
        if self._record_rows is not None:
            self._record_rows.append(
                [details[op.op_id] for op in self._data_ops]
            )
        return details

    def _fire_events(self) -> bool:
        """Fire all events due at the current virtual time.

        Returns whether an explicit comm occupied the network this cycle.
        On the first event that cannot fire the machine stalls: virtual
        time freezes and the cycle is charged to SRF stall.
        """
        comm_busy = False
        stalled = False
        while self._heap and self._heap[0][0] <= self._vt:
            _vt, _seq, event = self._heap[0]
            if event.fire():
                heapq.heappop(self._heap)
                comm_busy = comm_busy or event.is_comm
            else:
                stalled = True
                break
        if stalled:
            self.stats.srf_stall_cycles += 1
            if self._stall_counter is not None:
                self._stall_counter.add()
        else:
            self._vt += 1
        return comm_busy

    def _maybe_finish(self) -> None:
        if self._issued < self.invocation.iterations or self._heap:
            return
        if not self._flushed:
            for port in self._ports.values():
                if port.direction is PortDirection.WRITE:
                    port.flush()
            self._flushed = True
        write_ports_done = all(
            port.drained for port in self._ports.values()
            if port.direction is PortDirection.WRITE
        )
        indexed_done = all(s.quiescent for s in self._indexed.values())
        if write_ports_done and indexed_done:
            self.finished = True
            # The interpreter's context points back at this executor;
            # dropping it breaks the cycle so a finished executor is
            # freed by reference counting.
            self._interpreter = None
            self._release_streams()
            if self.invocation.on_finish is not None:
                self.invocation.on_finish()
