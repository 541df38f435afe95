"""Cycle-accurate execution of a scheduled kernel on the machine.

The executor replays a kernel's modulo schedule against the SRF timing
model. Iterations are evaluated functionally (on real data) the moment
they are *issued* into the software pipeline; their stream accesses then
fire at ``issue_cycle + slot(op)``. Clusters run in SIMD lockstep, so
any access that cannot complete — an empty stream buffer, a full address
FIFO, indexed data still in flight (Figure 9) — stalls the whole machine
for a cycle and is retried; those cycles are the "SRF stall" component
of Figure 12.

The timed accesses fire from a static table built once from the modulo
schedule (:func:`firing_table`): at virtual time ``vt`` the ops whose
slot is ``vt`` modulo ``ii`` are due, one per iteration in flight, older
iteration first. No per-iteration event object exists.

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

from collections import deque

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


#: A virtual time no kernel reaches.
_NEVER = float("inf")

#: Firing-table row codes of the timed op kinds.
_SEQ_READ, _SEQ_WRITE, _IDX_ISSUE, _IDX_DATA, _IDX_WRITE, _COMM = range(6)
_ROW_CODES = {
    OpKind.SEQ_READ: _SEQ_READ,
    OpKind.SEQ_WRITE: _SEQ_WRITE,
    OpKind.IDX_ISSUE: _IDX_ISSUE,
    OpKind.IDX_DATA: _IDX_DATA,
    OpKind.IDX_WRITE: _IDX_WRITE,
    OpKind.COMM: _COMM,
}


def firing_table(slots: list, ii: int) -> list:
    """Firing order of a modulo schedule's timed ops, per residue.

    ``slots`` holds the timed ops' slots in ``timed_stream_ops()`` order;
    entry ``r`` of the result lists the positions of the ops with
    ``slot % ii == r``. At virtual time ``vt`` those ops are due, op at
    position ``p`` once for iteration ``(vt - slots[p]) // ii``. They are
    ordered older iteration (larger slot) first, then by position: the
    order in which a heap of ``(issue * ii + slot, push order)`` pops
    them when each issued iteration pushes its ops in position order.
    """
    table = [[] for _ in range(ii)]
    for position in sorted(range(len(slots)), key=lambda p: (-slots[p], p)):
        table[slots[position] % ii].append(position)
    return table


class KernelExecutor:
    """Drives one :class:`KernelInvocation` to completion on the SRF."""

    def __init__(self, config: MachineConfig, srf: StreamRegisterFile,
                 invocation: KernelInvocation, schedule: StaticSchedule,
                 record_to=None, replay_from=None):
        self.config = config
        self.srf = srf
        self.invocation = invocation
        self.schedule = schedule
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
            #: ``(row position, stream, indexed)`` of each recorded write.
            self._replay_writes = [
                (position, op.stream, op.kind is OpKind.IDX_WRITE)
                for position, op in enumerate(self._data_ops)
                if op.kind in (OpKind.SEQ_WRITE, OpKind.IDX_WRITE)
            ]
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
        #: One ``(slot, code, port or stream, op_id, held)`` row per timed
        #: op: its row code, what it drives (None for a comm), and, for an
        #: indexed op, the position of its detail in an iteration's held
        #: details. ``_held_ops`` says where each held detail comes from
        #: (its key in :meth:`_iteration_details`) and whether it is an
        #: IDX_WRITE's, held as its index list.
        targets = {**self._ports, **self._indexed}
        keys = None
        if self._replay_rows is not None:
            keys = {op.op_id: position
                    for position, op in enumerate(self._data_ops)}
        rows = []
        self._held_ops = []
        for op in schedule.timed_stream_ops():
            code = _ROW_CODES[op.kind]
            held = None
            if code in (_IDX_ISSUE, _IDX_DATA, _IDX_WRITE):
                held = len(self._held_ops)
                key = op.op_id if keys is None else keys[op.op_id]
                self._held_ops.append((key, code == _IDX_WRITE))
            target = (None if op.stream is None
                      else targets.get(op.stream.name))
            rows.append(
                (schedule.slots[op.op_id], code, target, op.op_id, held)
            )
        self._set_firing(rows, schedule.ii, invocation.iterations)
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

    def _set_firing(self, rows: list, ii: int, iterations: int) -> None:
        """Build the firing table of ``rows`` (in ``timed_stream_ops()``
        order) and reset the firing state."""
        self._ii = ii
        self._iterations = iterations
        self._table = [
            [rows[position] for position in residue]
            for residue in firing_table([row[0] for row in rows], ii)
        ]
        self._max_slot = max((row[0] for row in rows), default=0)
        #: Virtual time of the last row's firing (of the last iteration):
        #: every row has fired once ``_vt`` passes it.
        self._end_vt = (
            (iterations - 1) * ii + self._max_slot if iterations else -1
        )
        self._vt = 0
        #: Virtual time at which the next iteration issues.
        self._next_issue_vt = 0 if iterations else _NEVER
        #: Position in the due residue's rows: kept across a refusal.
        self._position = 0
        self._issued = 0
        #: Held details of iterations ``_held_base`` onward, dropped once
        #: an iteration's last row has fired.
        self._held = deque()
        self._held_base = 0

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
        """No caller; kept because bench/layers.py wraps it by name
        (ROADMAP item 8)."""
        raise NotImplementedError("every cycle steps the kernel")

    def fast_forward_steady(self, cycles: int) -> None:
        """No caller; kept because bench/layers.py wraps it by name
        (ROADMAP item 8)."""
        raise NotImplementedError("every cycle steps the kernel")

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
        if self._vt >= self._next_issue_vt:
            self._issue_ready_iterations()
        comm_busy = self._fire_events()
        if self._vt > self._end_vt:
            self._maybe_finish()
        return comm_busy

    def _issue_ready_iterations(self) -> None:
        ii = self._ii
        while (
            self._issued < self._iterations
            and self._issued * ii <= self._vt
        ):
            details = self._iteration_details()
            held = []
            for key, index_list in self._held_ops:
                detail = details[key]
                if index_list:
                    # The words were stored at issue; the SRF times the
                    # indices.
                    detail = [None if entry is None else entry[0]
                              for entry in detail]
                held.append(detail)
            self._held.append(held)
            self._issued += 1
        self._next_issue_vt = (
            self._issued * ii if self._issued < self._iterations
            else _NEVER
        )

    def _iteration_details(self):
        """Stream-access details of the next iteration: a dict by op id,
        or in replay mode the recorded row, by data-op position.

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
            for position, stream, indexed in self._replay_writes:
                if indexed:
                    self.functional_idx_write(stream, row[position])
                else:
                    self.functional_seq_write(stream, row[position])
            return row
        trace = self._interpreter.run_iteration()
        details = {op.op_id: detail for op, detail in trace.entries}
        if self._record_rows is not None:
            self._record_rows.append(
                [details[op.op_id] for op in self._data_ops]
            )
        return details

    def _fire_events(self) -> bool:
        """Fire every row due at the current virtual time.

        Returns whether an explicit comm occupied the network this cycle.
        On the first row that cannot fire the machine stalls: virtual
        time freezes, the cycle is charged to SRF stall, and the next
        cycle resumes at that row.
        """
        vt = self._vt
        ii = self._ii
        rows = self._table[vt % ii]
        position = self._position
        iterations = self._iterations
        comm_busy = False
        due = len(rows)
        while position < due:
            slot, code, target, _op_id, held = rows[position]
            iteration = (vt - slot) // ii
            if 0 <= iteration < iterations:
                if code == _SEQ_READ:
                    fired = target.can_pop()
                    if fired:
                        target.pop_simd()
                elif code == _SEQ_WRITE:
                    fired = target.can_push()
                    if fired:
                        target.push_simd()
                elif code == _COMM:
                    # Statically scheduled comms always have priority.
                    fired = comm_busy = True
                else:
                    detail = self._held[iteration - self._held_base][held]
                    if code == _IDX_ISSUE:
                        fired = target.issue_reads(detail)
                    elif code == _IDX_DATA:
                        fired = target.pop_records(detail)
                    else:
                        fired = target.issue_writes(detail)
                if not fired:
                    self._position = position
                    self.stats.srf_stall_cycles += 1
                    return comm_busy
            position += 1
        self._position = 0
        self._vt = vt = vt + 1
        held = self._held
        while held and self._held_base * ii + self._max_slot < vt:
            held.popleft()
            self._held_base += 1
        return comm_busy

    def _maybe_finish(self) -> None:
        """Finish once every row has fired (the caller checked) and the
        kernel's output has drained."""
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
