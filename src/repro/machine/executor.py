"""Cycle-accurate execution of a scheduled kernel on the machine.

The executor replays a kernel's modulo schedule against the SRF timing
model. Iterations are evaluated functionally (on real data) the moment
they are *issued* into the software pipeline; their stream accesses then
fire as timed events at ``issue_cycle + slot(op)``. Clusters run in SIMD
lockstep, so any event that cannot complete — an empty stream buffer, a
full address FIFO, indexed data still in flight (Figure 9) — stalls the
whole machine for a cycle and is retried; those cycles are the
"SRF stall" component of Figure 12.

Functional evaluation at issue is exact because kernel streams are
read-only or write-only for the duration of a kernel (paper §7), and
issue order equals program order.
"""

from __future__ import annotations

import heapq
import itertools

from repro.config.machine import MachineConfig
from repro.core.descriptors import StreamDescriptor
from repro.core.srf import PortDirection, StreamRegisterFile
from repro.errors import ExecutionError, ReplayError
from repro.kernel.interpreter import ExecutionContext, KernelInterpreter
from repro.kernel.ir import KernelStream
from repro.kernel.ops import OpKind
from repro.kernel.schedule import StaticSchedule
from repro.machine.program import KernelInvocation
from repro.machine.replay import REPLAY_DATA_KINDS, copy_detail
from repro.machine.stats import KernelRunStats

#: Fixed per-invocation cost of loading kernel microcode and priming the
#: stream units (part of Figure 12's "kernel overheads").
KERNEL_STARTUP_CYCLES = 32


class _SrfBackedContext(ExecutionContext):
    """Functional stream data wired straight to SRF storage.

    Sequential writes and indexed writes are *not* performed here — the
    timed events push the real values through the SRF port machinery, so
    the architectural state is only updated by the timing model.
    """

    def __init__(self, executor: "KernelExecutor"):
        self._executor = executor

    def seq_read(self, stream: KernelStream) -> list:
        return self._executor.functional_seq_read(stream)

    def seq_write(self, stream: KernelStream, lane_values) -> None:
        pass  # flows through the timed SeqWrite event

    def idx_read(self, stream: KernelStream, lane: int, record_index: int):
        return self._executor.functional_idx_read(stream, lane, record_index)

    def idx_write(self, stream, lane, record_index, value) -> None:
        # The architectural write flows through the timed IdxWrite event;
        # the overlay keeps later functional reads of a read-write
        # stream coherent with program order.
        self._executor.functional_idx_write(stream, lane, record_index, value)


class _Event:
    """A timed stream access; ``fire`` returns True when it completed."""

    __slots__ = ("vt",)

    def fire(self, executor) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    @property
    def is_comm(self) -> bool:
        return False


class _SeqRead(_Event):
    __slots__ = ("vt", "port")

    def __init__(self, vt, port):
        self.vt = vt
        self.port = port

    def fire(self, executor) -> bool:
        if not self.port.can_pop():
            return False
        self.port.pop_simd()
        return True


class _SeqWrite(_Event):
    __slots__ = ("vt", "port", "values")

    def __init__(self, vt, port, values):
        self.vt = vt
        self.port = port
        self.values = values

    def fire(self, executor) -> bool:
        if not self.port.can_push():
            return False
        self.port.push_simd(self.values)
        return True


class _IdxIssue(_Event):
    __slots__ = ("vt", "stream", "indices")

    def __init__(self, vt, stream, indices):
        self.vt = vt
        self.stream = stream
        self.indices = indices  # per-lane record index or None

    def fire(self, executor) -> bool:
        return self.stream.issue_reads(self.indices)


class _IdxData(_Event):
    __slots__ = ("vt", "stream", "counts")

    def __init__(self, vt, stream, counts):
        self.vt = vt
        self.stream = stream
        self.counts = counts  # per-lane words expected (0 = predicated off)

    def fire(self, executor) -> bool:
        return self.stream.pop_records(self.counts) is not False


class _IdxWrite(_Event):
    __slots__ = ("vt", "stream", "entries")

    def __init__(self, vt, stream, entries):
        self.vt = vt
        self.stream = stream
        self.entries = entries  # per-lane (index, [words]) or None

    def fire(self, executor) -> bool:
        return self.stream.issue_writes(self.entries)


class _Comm(_Event):
    __slots__ = ("vt",)

    def __init__(self, vt):
        self.vt = vt

    def fire(self, executor) -> bool:
        return True  # statically scheduled comms always have priority

    @property
    def is_comm(self) -> bool:
        return True


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
        self._timed_ops = schedule.timed_stream_ops()
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
        #: Program-order shadow of indexed writes, so functional reads of
        #: a read-write stream observe writes that the timed SRF path has
        #: not retired yet. The timing path needs no equivalent: reads
        #: and writes of one stream share an address FIFO, which keeps
        #: their SRF-side order equal to program order.
        self._write_overlay = {}

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
    # Functional data access (used by the interpreter's context)
    # ------------------------------------------------------------------
    def functional_seq_read(self, stream: KernelStream) -> list:
        descriptor = self._descriptors[stream.name]
        geometry = self._geometry
        m = geometry.words_per_lane_access
        cursor = self._seq_cursors[stream.name]
        block_base = descriptor.base + (cursor // m) * geometry.block_words
        offset = cursor % m
        storage = self.srf.storage
        values = [
            storage.read(block_base + lane * m + offset)
            for lane in range(geometry.lanes)
        ]
        self._seq_cursors[stream.name] = cursor + 1
        return values

    def functional_idx_write(self, stream: KernelStream, lane: int,
                             record_index: int, value) -> None:
        self._write_overlay[(stream.name, lane, record_index)] = value

    def functional_idx_read(self, stream: KernelStream, lane: int,
                            record_index: int):
        overlay = self._write_overlay
        if overlay:
            overlay_key = (stream.name, lane, record_index)
            if overlay_key in overlay:
                return overlay[overlay_key]
        indexed = self._indexed[stream.name]
        rw = indexed.record_words
        storage = self.srf.storage
        if indexed.is_crosslane:
            start = indexed.descriptor.base + record_index * rw
            if rw == 1:
                return storage.read(start)
            return tuple([storage.read(start + j) for j in range(rw)])
        start = indexed.local_base + record_index * rw
        if rw == 1:
            return storage.read_lane(lane, start)
        return tuple([storage.read_lane(lane, start + j) for j in range(rw)])

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
        while (
            self._issued < self.invocation.iterations
            and self._issued * self.schedule.ii <= self._vt
        ):
            details = self._iteration_details()
            base_vt = self._issued * self.schedule.ii
            for op in self._timed_ops:
                vt = base_vt + self.schedule.slots[op.op_id]
                event = self._make_event(op, vt, details)
                heapq.heappush(self._heap, (vt, next(self._sequence), event))
            self._issued += 1

    def _iteration_details(self) -> dict:
        """Stream-access details of the next iteration, by op id.

        Execute mode runs the interpreter on real data (and optionally
        records the data-bearing details); replay mode rehydrates them
        from the recorded trace without touching an interpreter. Details
        are copied at the recording/replaying boundary so SRF-side
        mutation can never corrupt a stored row.
        """
        if self._replay_rows is not None:
            row = self._replay_rows[self._issued]
            if len(row) != len(self._data_ops):
                raise ReplayError(
                    f"{self.invocation.name}: iteration {self._issued} "
                    f"row has {len(row)} details for "
                    f"{len(self._data_ops)} data ops"
                )
            return {
                op.op_id: copy_detail(op.kind, detail)
                for op, detail in zip(self._data_ops, row)
            }
        trace = self._interpreter.run_iteration()
        details = {op.op_id: detail for op, detail in trace.entries}
        if self._record_rows is not None:
            self._record_rows.append([
                copy_detail(op.kind, details[op.op_id])
                for op in self._data_ops
            ])
        return details

    def _make_event(self, op, vt, details) -> _Event:
        kind = op.kind
        if kind is OpKind.SEQ_READ:
            return _SeqRead(vt, self._ports[op.stream.name])
        if kind is OpKind.SEQ_WRITE:
            return _SeqWrite(vt, self._ports[op.stream.name],
                             details[op.op_id])
        if kind is OpKind.IDX_ISSUE:
            return _IdxIssue(vt, self._indexed[op.stream.name],
                             details[op.op_id])
        if kind is OpKind.IDX_DATA:
            return _IdxData(vt, self._indexed[op.stream.name],
                            details[op.op_id])
        if kind is OpKind.IDX_WRITE:
            return _IdxWrite(vt, self._indexed[op.stream.name],
                             details[op.op_id])
        if kind is OpKind.COMM:
            return _Comm(vt)
        raise ExecutionError(f"unexpected timed op {op.name}")

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
            if event.fire(self):
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
