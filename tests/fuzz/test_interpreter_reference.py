"""The SIMD interpreter against an independent per-lane evaluator.

:class:`KernelInterpreter` evaluates each op once per SIMD access: an
ALU op is one ``map`` over the lanes and a stream op is one context call
with an entry per lane. The three-way property checks the machine
against that same interpreter over a :class:`ListContext`, so it cannot
catch a fault in the interpreter's own logic. This property can:
:class:`PerLaneReference` is the plain definition — every op, every
lane, one at a time, in program order — reading and writing the
``ListContext`` bindings lane by lane without going through its SIMD
accessors. Over random dense and CSR-shaped sparse programs, both must
produce the same outputs, write tables, carries and
:class:`IterationTrace` entries, type for type, predicated-off lanes
included.
"""

from hypothesis import given, settings

from repro.errors import ExecutionError
from repro.kernel import KernelInterpreter, OpKind
from tests.fuzz.strategies import (
    FUZZ_EXAMPLES, LANES, assert_same_typed, build_kernel, kernel_specs,
    make_context, sparse_kernel_specs,
)

_ALU_KINDS = (OpKind.ARITH, OpKind.LOGIC, OpKind.MUL, OpKind.DIV)


class PerLaneReference:
    """One kernel iteration at a time, one op and one lane at a time."""

    def __init__(self, kernel, lanes, context):
        self.kernel = kernel
        self.lanes = lanes
        self.context = context
        self.carry_state = {
            carry.name: [carry.init_value] * lanes for carry in kernel.carries
        }

    def table(self, stream, lane):
        ctx = self.context
        if stream.name in ctx._lane_tables:
            return ctx._lane_tables[stream.name][lane]
        return ctx._global_tables[stream.name]

    def run_iteration(self):
        """Returns the iteration's ``(op, detail)`` entries."""
        lanes = range(self.lanes)
        ctx = self.context
        entries = []
        values = {}
        for op in self.kernel.ops:
            kind = op.kind
            operands = [values.get(o.op_id) for o in op.operands]
            if kind is OpKind.CONST:
                result = [op.value for _ in lanes]
            elif kind is OpKind.LANEID:
                result = list(lanes)
            elif kind is OpKind.CARRY:
                result = list(self.carry_state[op.carry.name])
            elif kind in _ALU_KINDS:
                result = []
                for lane in lanes:
                    try:
                        result.append(op.payload(*[v[lane] for v in operands]))
                    except Exception as exc:
                        raise ExecutionError(f"{op.name} lane {lane}") from exc
            elif kind is OpKind.SEQ_READ:
                name = op.stream.name
                cursor = ctx._cursors[name]
                result = [ctx._inputs[name][lane][cursor] for lane in lanes]
                ctx._cursors[name] = cursor + 1
                entries.append((op, None))
            elif kind is OpKind.SEQ_WRITE:
                result = operands[0]
                sink = ctx.outputs.setdefault(op.stream.name,
                                              [[] for _ in lanes])
                for lane in lanes:
                    sink[lane].append(result[lane])
                entries.append((op, list(result)))
            elif kind is OpKind.IDX_ISSUE:
                result = []
                for lane in lanes:
                    on = len(operands) < 2 or operands[1][lane]
                    result.append(int(operands[0][lane]) if on else None)
                entries.append((op, result))
            elif kind is OpKind.IDX_DATA:
                result, counts = [], []
                for lane in lanes:
                    index = operands[0][lane]
                    if index is None:
                        result.append(0)
                        counts.append(0)
                    else:
                        result.append(self.table(op.stream, lane)[index])
                        counts.append(op.stream.record_words)
                entries.append((op, counts))
            elif kind is OpKind.IDX_WRITE:
                detail = []
                for lane in lanes:
                    if len(operands) > 2 and not operands[2][lane]:
                        detail.append(None)
                        continue
                    record_index = int(operands[0][lane])
                    value = operands[1][lane]
                    self.table(op.stream, lane)[record_index] = value
                    words = (list(value) if isinstance(value, tuple)
                             else [value])
                    detail.append((record_index, words))
                result = [None for _ in lanes]
                entries.append((op, detail))
            elif kind is OpKind.COMM:
                result = [
                    operands[0][int(operands[1][lane]) % self.lanes]
                    for lane in lanes
                ]
                entries.append((op, None))
            else:  # pragma: no cover - exhaustive over OpKind
                raise AssertionError(kind)
            values[op.op_id] = result
        for carry in self.kernel.carries:
            self.carry_state[carry.name] = list(values[carry.update_op.op_id])
        return entries


def _outcome(run, iterations):
    """Each iteration's result, or the exception type that ended the run."""
    results = []
    try:
        for _ in range(iterations):
            results.append(run())
    except ExecutionError:
        return results, ExecutionError
    return results, None


def _assert_interpreter_matches_reference(spec):
    kernel, streams = build_kernel(spec)
    iterations = spec["iterations"]
    simd_ctx = make_context(spec, streams)
    ref_ctx = make_context(spec, streams)
    interp = KernelInterpreter(kernel, LANES, simd_ctx)
    reference = PerLaneReference(kernel, LANES, ref_ctx)
    traces, simd_error = _outcome(interp.run_iteration, iterations)
    expected, ref_error = _outcome(reference.run_iteration, iterations)
    assert simd_error is ref_error
    assert len(traces) == len(expected)
    for iteration, (trace, ref_entries) in enumerate(zip(traces, expected)):
        assert trace.iteration == iteration
        assert [op for op, _ in trace.entries] == [op for op, _ in ref_entries]
        for (op, detail), (_, ref_detail) in zip(trace.entries, ref_entries):
            assert_same_typed(ref_detail, detail,
                              f"iter {iteration} {op.name}")
    assert_same_typed(ref_ctx.outputs.get("out"), simd_ctx.outputs.get("out"),
                      "out")
    if streams["wtab"] is not None:
        for lane in range(LANES):
            assert_same_typed(ref_ctx.table("wtab", lane),
                              simd_ctx.table("wtab", lane), f"wtab[{lane}]")
    for name, state in reference.carry_state.items():
        assert_same_typed(state, interp.carry_values(name), f"carry {name}")


@settings(max_examples=FUZZ_EXAMPLES)
@given(spec=kernel_specs(max_iterations=24))
def test_interpreter_matches_per_lane_reference(spec):
    _assert_interpreter_matches_reference(spec)


@settings(max_examples=FUZZ_EXAMPLES)
@given(spec=sparse_kernel_specs(max_iterations=24))
def test_interpreter_matches_per_lane_reference_sparse(spec):
    """The same, with CSR-shaped index streams driving a predicated
    gather, so predicated-off lanes occur in most iterations."""
    _assert_interpreter_matches_reference(spec)
