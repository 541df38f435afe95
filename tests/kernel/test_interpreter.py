"""Functional kernel execution and trace generation."""

from collections import Counter

import pytest

from repro.errors import ExecutionError
from repro.kernel import KernelBuilder, KernelInterpreter, OpKind
from repro.kernel.contexts import ListContext


def lookup_kernel():
    b = KernelBuilder("lookup")
    in_s = b.istream("in")
    lut = b.idxl_istream("LUT")
    out = b.ostream("out")
    a = b.read(in_s)
    v = b.idx_read(lut, a)
    c = b.arith(lambda x, y: x + y, a, v, name="foo")
    b.write(out, c)
    return b.build(), in_s, lut, out


class TestBasicExecution:
    def test_figure10_lookup_semantics(self):
        k, in_s, lut, out = lookup_kernel()
        ctx = ListContext(lanes=2)
        ctx.bind_input(in_s, [[0, 2], [1, 3]])
        ctx.bind_table(lut, [[100, 200, 300, 400]] * 2)
        KernelInterpreter(k, 2, ctx).run(2)
        assert ctx.output("out") == [[100, 302], [201, 403]]

    def test_per_lane_tables_differ(self):
        k, in_s, lut, _ = lookup_kernel()
        ctx = ListContext(lanes=2)
        ctx.bind_input(in_s, [[0], [0]])
        ctx.bind_table(lut, [[10], [20]])
        KernelInterpreter(k, 2, ctx).run(1)
        assert ctx.output("out") == [[10], [20]]

    def test_constants_and_arith(self):
        b = KernelBuilder("k")
        out = b.ostream("o")
        x = b.const(3)
        y = b.const(4)
        b.write(out, b.add(b.mul(x, x), b.mul(y, y)))
        k = b.build()
        ctx = ListContext(lanes=1)
        KernelInterpreter(k, 1, ctx).run(1)
        assert ctx.output("o") == [[25]]

    def test_div(self):
        b = KernelBuilder("k")
        out = b.ostream("o")
        b.write(out, b.div(b.const(1.0), b.const(4.0)))
        k = b.build()
        ctx = ListContext(lanes=1)
        KernelInterpreter(k, 1, ctx).run(1)
        assert ctx.output("o") == [[0.25]]

    def test_select(self):
        b = KernelBuilder("k")
        in_s = b.istream("i")
        out = b.ostream("o")
        x = b.read(in_s)
        cond = b.lt(x, b.const(10))
        b.write(out, b.select(cond, b.const("small"), b.const("big")))
        k = b.build()
        ctx = ListContext(lanes=1)
        ctx.bind_input(in_s, [[5, 15]])
        KernelInterpreter(k, 1, ctx).run(2)
        assert ctx.output("o") == [["small", "big"]]

    def test_payload_error_is_wrapped(self):
        b = KernelBuilder("k")
        out = b.ostream("o")
        b.write(out, b.div(b.const(1.0), b.const(0.0)))
        k = b.build()
        with pytest.raises(ExecutionError, match="div"):
            KernelInterpreter(k, 1, ListContext(1)).run_iteration()


class TestCarries:
    def test_running_sum(self):
        b = KernelBuilder("sum")
        in_s = b.istream("i")
        out = b.ostream("o")
        acc = b.carry(0, "acc")
        x = b.read(in_s)
        nxt = b.add(acc, x)
        b.update(acc, nxt)
        b.write(out, nxt)
        k = b.build()
        ctx = ListContext(lanes=2)
        ctx.bind_input(in_s, [[1, 2, 3], [10, 20, 30]])
        interp = KernelInterpreter(k, 2, ctx)
        interp.run(3)
        assert ctx.output("o") == [[1, 3, 6], [10, 30, 60]]
        assert interp.carry_values("acc") == [6, 60]

    def test_carry_reads_previous_iteration_value(self):
        b = KernelBuilder("k")
        out = b.ostream("o")
        c = b.carry(7, "c")
        b.write(out, c)  # write BEFORE update: must see old value
        b.update(c, b.add(c, b.const(1)))
        k = b.build()
        ctx = ListContext(lanes=1)
        KernelInterpreter(k, 1, ctx).run(3)
        assert ctx.output("o") == [[7, 8, 9]]

    def test_unknown_carry_name(self):
        b = KernelBuilder("k")
        c = b.carry(0, "a")
        b.update(c, c)
        k = b.build()
        interp = KernelInterpreter(k, 1, ListContext(1))
        with pytest.raises(ExecutionError):
            interp.carry_values("missing")


class TestIndexedAccess:
    def test_predicated_idx_read_skips_lanes(self):
        b = KernelBuilder("k")
        in_s = b.istream("i")
        lut = b.idxl_istream("t")
        out = b.ostream("o")
        x = b.read(in_s)
        pred = b.lt(x, b.const(2))
        v = b.idx_read(lut, x, predicate=pred)
        b.write(out, v)
        k = b.build()
        ctx = ListContext(lanes=2)
        ctx.bind_input(in_s, [[0], [5]])
        ctx.bind_table(lut, [[100, 200]] * 2)
        interp = KernelInterpreter(k, 2, ctx)
        trace = interp.run_iteration()
        assert ctx.output("o") == [[100], [0]]  # lane 1 predicated off
        (_op, indices), = trace.by_kind(OpKind.IDX_ISSUE)
        assert indices == [0, None]
        (_op, counts), = trace.by_kind(OpKind.IDX_DATA)
        assert counts == [1, 0]

    def test_idx_write_mutates_table(self):
        b = KernelBuilder("k")
        wtab = b.idxl_ostream("w")
        b.idx_write(wtab, b.const(1), b.const(99))
        k = b.build()
        ctx = ListContext(lanes=2)
        ctx.bind_table(wtab, [[0, 0], [0, 0]])
        KernelInterpreter(k, 2, ctx).run(1)
        assert ctx.table("w", lane=0) == [0, 99]
        assert ctx.table("w", lane=1) == [0, 99]

    def test_predicated_idx_write(self):
        b = KernelBuilder("k")
        in_s = b.istream("i")
        wtab = b.idxl_ostream("w")
        x = b.read(in_s)
        b.idx_write(wtab, b.const(0), x, predicate=x)
        k = b.build()
        ctx = ListContext(lanes=2)
        ctx.bind_input(in_s, [[0], [5]])
        ctx.bind_table(wtab, [[-1], [-1]])
        trace = KernelInterpreter(k, 2, ctx).run_iteration()
        assert ctx.table("w", lane=0) == [-1]
        assert ctx.table("w", lane=1) == [5]
        (_op, detail), = trace.by_kind(OpKind.IDX_WRITE)
        assert detail == [None, (0, [5])]

    def test_global_table_for_crosslane(self):
        b = KernelBuilder("k")
        nodes = b.idx_istream("n")
        in_s = b.istream("i")
        out = b.ostream("o")
        idx = b.read(in_s)
        b.write(out, b.idx_read(nodes, idx))
        k = b.build()
        ctx = ListContext(lanes=2)
        ctx.bind_input(in_s, [[3], [0]])
        ctx.bind_global(nodes, [5, 6, 7, 8])
        KernelInterpreter(k, 2, ctx).run(1)
        assert ctx.output("o") == [[8], [5]]


class TestComm:
    def test_rotation_permutation(self):
        b = KernelBuilder("k")
        in_s = b.istream("i")
        out = b.ostream("o")
        lane_id = b.istream("lane")
        x = b.read(in_s)
        me = b.read(lane_id)
        src = b.add(me, b.const(1))
        b.write(out, b.comm(x, src))
        k = b.build()
        ctx = ListContext(lanes=4)
        ctx.bind_input(in_s, [[10], [11], [12], [13]])
        ctx.bind_input(lane_id, [[0], [1], [2], [3]])
        KernelInterpreter(k, 4, ctx).run(1)
        assert ctx.output("o") == [[11], [12], [13], [10]]

    def test_comm_appears_in_trace(self):
        b = KernelBuilder("k")
        out = b.ostream("o")
        b.write(out, b.comm(b.const(1), b.const(0)))
        k = b.build()
        trace = KernelInterpreter(k, 2, ListContext(2)).run_iteration()
        assert len(trace.by_kind(OpKind.COMM)) == 1


class TestContextErrors:
    def test_exhausted_input_raises(self):
        k, in_s, lut, _ = lookup_kernel()
        ctx = ListContext(lanes=1)
        ctx.bind_input(in_s, [[0]])
        ctx.bind_table(lut, [[9]])
        interp = KernelInterpreter(k, 1, ctx)
        interp.run(1)
        with pytest.raises(ExecutionError):
            interp.run_iteration()

    def test_unbound_table_raises(self):
        k, in_s, _lut, _ = lookup_kernel()
        ctx = ListContext(lanes=1)
        ctx.bind_input(in_s, [[0]])
        with pytest.raises(ExecutionError):
            KernelInterpreter(k, 1, ctx).run_iteration()

    def test_out_of_range_index_raises(self):
        k, in_s, lut, _ = lookup_kernel()
        ctx = ListContext(lanes=1)
        ctx.bind_input(in_s, [[5]])
        ctx.bind_table(lut, [[1, 2]])
        with pytest.raises(ExecutionError):
            KernelInterpreter(k, 1, ctx).run_iteration()


class CountingContext(ListContext):
    """A ListContext that counts its indexed calls."""

    def __init__(self, lanes):
        super().__init__(lanes)
        self.calls = Counter()

    def idx_read(self, stream, indices):
        self.calls["idx_read"] += 1
        return super().idx_read(stream, indices)

    def idx_write(self, stream, entries):
        self.calls["idx_write"] += 1
        super().idx_write(stream, entries)


class TestSimdEvaluation:
    """Each op is evaluated once per SIMD access, not once per lane."""

    def test_one_context_call_per_indexed_op(self):
        b = KernelBuilder("k")
        in_s = b.istream("i")
        lut = b.idxl_istream("t")
        xlut = b.idx_istream("x")
        wtab = b.idxl_ostream("w")
        out = b.ostream("o")
        x = b.read(in_s)
        v = b.add(b.idx_read(lut, x), b.idx_read(xlut, x))
        b.idx_write(wtab, x, v, predicate=b.lt(x, b.const(2)))
        b.write(out, v)
        k = b.build()
        lanes, iterations = 4, 3
        ctx = CountingContext(lanes)
        ctx.bind_input(in_s, [[lane, 3 - lane, 1] for lane in range(lanes)])
        ctx.bind_table(lut, [[10, 20, 30, 40]] * lanes)
        ctx.bind_global(xlut, [1, 2, 3, 4])
        ctx.bind_table(wtab, [[0] * 4 for _ in range(lanes)])
        KernelInterpreter(k, lanes, ctx).run(iterations)
        assert ctx.calls == {"idx_read": 2 * iterations,
                             "idx_write": iterations}
        assert ctx.output("o")[3] == [44, 11, 22]
        assert ctx.table("w", lane=3) == [11, 22, 0, 0]

    def test_failing_lane_is_named(self):
        def fails_on_lane_two(lane):
            if lane == 2:
                raise ValueError("bad operand")
            return lane

        b = KernelBuilder("k")
        out = b.ostream("o")
        b.write(out, b.logic(fails_on_lane_two, b.laneid(), name="picky"))
        k = b.build()
        with pytest.raises(ExecutionError,
                           match=r"payload of picky failed on lane 2: bad"):
            KernelInterpreter(k, 4, ListContext(4)).run_iteration()

    def test_side_effecting_payload_runs_once_per_lane_in_order(self):
        calls = []

        def record(lane, x):
            calls.append((lane, x))
            return x

        b = KernelBuilder("k")
        in_s = b.istream("i")
        out = b.ostream("o")
        b.write(out, b.arith(record, b.laneid(), b.read(in_s)))
        k = b.build()
        ctx = ListContext(4)
        ctx.bind_input(in_s, [[10 * lane, 10 * lane + 1] for lane in range(4)])
        KernelInterpreter(k, 4, ctx).run(2)
        assert calls == [(lane, 10 * lane) for lane in range(4)] + [
            (lane, 10 * lane + 1) for lane in range(4)
        ]

    def test_op_without_operands_runs_once_per_lane(self):
        calls = []
        b = KernelBuilder("k")
        out = b.ostream("o")
        b.write(out, b.arith(lambda: calls.append(1) or len(calls)))
        k = b.build()
        ctx = ListContext(3)
        KernelInterpreter(k, 3, ctx).run(1)
        assert ctx.output("o") == [[1], [2], [3]]
