"""Functional execution of kernel graphs.

The interpreter evaluates ONE iteration of a kernel across all lanes in
SIMD lockstep, producing both the real data values (so benchmark outputs
can be verified against references) and an :class:`IterationTrace` — the
exact stream accesses the iteration performs, which the machine-level
executor replays against the cycle-accurate SRF model.

Evaluation is SIMD-wide: each op is touched once per iteration, not once
per lane. :class:`KernelInterpreter` compiles the kernel once into a flat
plan of ``(code, op, out, args)`` rows over a list of per-lane value
slots. An ALU op is one ``list(map(payload, *operands))`` — a C-level
loop that calls the payload lane by lane, in lane order — and a stream
op is one call to the context with one entry per lane. Values stay
plain Python objects, computed iteration by iteration.

Stream contents are mediated by an :class:`ExecutionContext`, so the
same kernel runs standalone (tests, golden references) or inside the
full processor simulation without modification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExecutionError
from repro.kernel.ir import Kernel, KernelStream
from repro.kernel.ops import OpKind


class ExecutionContext:
    """Data supply/sink for a kernel run, one SIMD access per call.

    Every accessor takes or returns one entry per lane, so a stream op
    costs one call whatever the lane count. Subclasses provide the
    accessors; the defaults raise, so a context only implements what its
    kernel uses.
    """

    def seq_read(self, stream: KernelStream) -> list:
        """Next word of ``stream`` for every lane (list of ``lanes``)."""
        raise ExecutionError(f"context cannot read stream {stream.name}")

    def seq_write(self, stream: KernelStream, lane_values: list) -> None:
        """Accept one word per lane for ``stream``."""
        raise ExecutionError(f"context cannot write stream {stream.name}")

    def idx_read(self, stream: KernelStream, indices: list) -> list:
        """Record ``indices[lane]`` of ``stream`` as seen from each lane.

        ``indices`` holds one record index per lane, or None for a lane
        predicated off, which reads 0. Multi-word records come back as a
        tuple of ``record_words`` words.
        """
        raise ExecutionError(f"context cannot index stream {stream.name}")

    def idx_write(self, stream: KernelStream, entries: list) -> None:
        """Store each lane's ``(record_index, value)`` entry in ``stream``.

        ``entries`` holds one entry per lane, or None for a lane
        predicated off, which writes nothing.
        """
        raise ExecutionError(f"context cannot index-write {stream.name}")


@dataclass
class IterationTrace:
    """Stream/communication activity of one kernel iteration.

    Entries are ``(op, detail)`` in program order, where detail depends
    on the op kind:

    * SEQ_READ — None (always one word per lane);
    * SEQ_WRITE — per-lane list of values to push;
    * IDX_ISSUE — per-lane record index, or None for predicated-off lanes;
    * IDX_DATA — per-lane word count to pop (0 for predicated-off lanes);
    * IDX_WRITE — per-lane ``(record_index, value)`` or None, the
      entries the context stored;
    * COMM — None.
    """

    iteration: int
    entries: list = field(default_factory=list)

    def by_kind(self, kind: OpKind) -> list:
        return [(op, detail) for op, detail in self.entries if op.kind is kind]


# Plan codes, in the order run_iteration tests them (most frequent first).
# ALU ops are split by operand count so the common arities unpack their
# operand slots without building a list.
(_ALU2, _ALU1, _ALUN, _IDX_DATA, _IDX_ISSUE, _SEQ_READ, _SEQ_WRITE,
 _IDX_WRITE, _COMM) = range(9)

_ALU_KINDS = (OpKind.ARITH, OpKind.LOGIC, OpKind.MUL, OpKind.DIV)

_STREAM_CODES = {
    OpKind.IDX_DATA: _IDX_DATA,
    OpKind.IDX_ISSUE: _IDX_ISSUE,
    OpKind.SEQ_READ: _SEQ_READ,
    OpKind.SEQ_WRITE: _SEQ_WRITE,
    OpKind.IDX_WRITE: _IDX_WRITE,
    OpKind.COMM: _COMM,
}


class KernelInterpreter:
    """Evaluates a kernel iteration-by-iteration over ``lanes`` lanes."""

    def __init__(self, kernel: Kernel, lanes: int, context: ExecutionContext):
        kernel.validate()
        self.kernel = kernel
        self.lanes = lanes
        self.context = context
        self.iterations_run = 0
        self._carry_state = {
            carry.name: [carry.init_value] * lanes for carry in kernel.carries
        }
        # Each op's per-lane values live in one slot of a list. CONST and
        # LANEID values never change between iterations (and no op
        # mutates a value list in place), so they are evaluated once
        # into the initial slot list that every iteration copies. CARRY
        # reads see the previous iteration's values wherever they sit in
        # program order, so each iteration seeds them up front.
        slot_of = {op.op_id: slot for slot, op in enumerate(kernel.ops)}
        self._initial: list = [None] * len(kernel.ops)
        self._carry_slots: list = []
        self._plan: list = []
        for slot, op in enumerate(kernel.ops):
            kind = op.kind
            if kind is OpKind.CONST:
                self._initial[slot] = [op.value] * lanes
            elif kind is OpKind.LANEID:
                self._initial[slot] = list(range(lanes))
            elif kind is OpKind.CARRY:
                self._carry_slots.append((slot, op.carry.name))
            else:
                args = tuple(slot_of[operand.op_id] for operand in op.operands)
                if kind in _ALU_KINDS:
                    code = {1: _ALU1, 2: _ALU2}.get(len(args), _ALUN)
                else:
                    code = _STREAM_CODES[kind]
                self._plan.append((code, op, slot, args))
        self._carry_updates = [
            (carry.name, slot_of[carry.update_op.op_id])
            for carry in kernel.carries
        ]

    def carry_values(self, name: str) -> list:
        """Current per-lane values of a named carry (for app inspection)."""
        try:
            return list(self._carry_state[name])
        except KeyError:
            raise ExecutionError(f"no carry named {name!r}") from None

    # ------------------------------------------------------------------
    def run_iteration(self) -> IterationTrace:
        """Execute one iteration across all lanes; returns its trace."""
        lanes = self.lanes
        context = self.context
        carry_state = self._carry_state
        trace = IterationTrace(self.iterations_run)
        entries = trace.entries
        values = self._initial[:]
        for slot, name in self._carry_slots:
            values[slot] = carry_state[name]

        for code, op, out, args in self._plan:
            if code == _ALU2:
                a, b = args
                try:
                    values[out] = list(map(op.payload, values[a], values[b]))
                except Exception:
                    values[out] = self._lanewise(op, [values[a], values[b]])
            elif code == _ALU1:
                try:
                    values[out] = list(map(op.payload, values[args[0]]))
                except Exception:
                    values[out] = self._lanewise(op, [values[args[0]]])
            elif code == _ALUN:
                operands = [values[arg] for arg in args]
                try:
                    values[out] = list(map(op.payload, *operands))
                except Exception:
                    # Also the path of an op without operands, which
                    # map() rejects.
                    values[out] = self._lanewise(op, operands)
            elif code == _IDX_DATA:
                indices = values[args[0]]
                data = context.idx_read(op.stream, indices)
                if len(data) != lanes:
                    raise self._width_error(op, data)
                values[out] = data
                rw = op.stream.record_words
                if None in indices:
                    counts = [0 if index is None else rw for index in indices]
                else:
                    counts = [rw] * lanes
                entries.append((op, counts))
            elif code == _IDX_ISSUE:
                if len(args) > 1:
                    indices = [
                        int(index) if predicate else None
                        for index, predicate in zip(values[args[0]],
                                                    values[args[1]])
                    ]
                else:
                    indices = list(map(int, values[args[0]]))
                values[out] = indices
                entries.append((op, indices))
            elif code == _SEQ_READ:
                lane_values = context.seq_read(op.stream)
                if len(lane_values) != lanes:
                    raise self._width_error(op, lane_values)
                values[out] = list(lane_values)
                entries.append((op, None))
            elif code == _SEQ_WRITE:
                lane_values = values[args[0]]
                written = list(lane_values)
                context.seq_write(op.stream, written)
                values[out] = lane_values
                entries.append((op, written))
            elif code == _IDX_WRITE:
                writes = self._write_entries(op, values, args)
                context.idx_write(op.stream, writes)
                values[out] = [None] * lanes
                entries.append((op, writes))
            else:  # _COMM
                payload = values[args[0]]
                values[out] = [
                    payload[int(source) % lanes] for source in values[args[1]]
                ]
                entries.append((op, None))

        for name, slot in self._carry_updates:
            carry_state[name] = list(values[slot])
        self.iterations_run += 1
        return trace

    def run(self, iterations: int) -> list:
        """Run several iterations; returns their traces."""
        return [self.run_iteration() for _ in range(iterations)]

    # ------------------------------------------------------------------
    def _lanewise(self, op, operands: list) -> list:
        """Evaluate an ALU op one lane at a time, naming a failing lane.

        This runs an op without operands, and re-runs from lane 0 an op
        whose ``map`` raised, so the report can name the failing lane.
        """
        payload = op.payload
        result = []
        for lane in range(self.lanes):
            try:
                result.append(payload(*[v[lane] for v in operands]))
            except Exception as exc:
                raise ExecutionError(
                    f"{self.kernel.name}: payload of {op.name} failed on "
                    f"lane {lane}: {exc}"
                ) from exc
        return result

    def _write_entries(self, op, values: list, args: tuple) -> list:
        """An IDX_WRITE's ``(record_index, value)`` entries, one per
        lane and None where the predicate is off; the context stores
        them and the trace records them."""
        indices = values[args[0]]
        data = values[args[1]]
        predicates = values[args[2]] if len(args) > 2 else None
        rw = op.stream.record_words
        writes: list = []
        for lane in range(self.lanes):
            if predicates is not None and not predicates[lane]:
                writes.append(None)
                continue
            record_index = int(indices[lane])
            value = data[lane]
            if (len(value) if isinstance(value, tuple) else 1) != rw:
                raise ExecutionError(f"{op.name}: record needs {rw} words")
            writes.append((record_index, value))
        return writes

    def _width_error(self, op, lane_values) -> ExecutionError:
        return ExecutionError(
            f"{op.name}: context returned {len(lane_values)} values for "
            f"{self.lanes} lanes"
        )
