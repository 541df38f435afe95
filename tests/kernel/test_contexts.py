"""ListContext: the standalone execution context."""

import pytest

from repro.errors import ExecutionError
from repro.kernel import KernelBuilder
from repro.kernel.contexts import ListContext


def streams():
    b = KernelBuilder("k")
    return (b, b.istream("i"), b.idxl_istream("t"),
            b.idx_istream("g"), b.ostream("o"))


class TestBinding:
    def test_input_lane_count_checked(self):
        _, in_s, *_ = streams()
        ctx = ListContext(4)
        with pytest.raises(ExecutionError):
            ctx.bind_input(in_s, [[1, 2]])

    def test_table_lane_count_checked(self):
        _, _in, lut, *_ = streams()
        ctx = ListContext(2)
        with pytest.raises(ExecutionError):
            ctx.bind_table(lut, [[1]])

    def test_global_table_shared_across_lanes(self):
        _, _in, _lut, g, _o = streams()
        ctx = ListContext(3)
        ctx.bind_global(g, [7, 8, 9])
        # One SIMD read: every lane indexes the same table, and a lane
        # predicated off (None) reads 0.
        assert ctx.idx_read(g, [2, None, 0]) == [9, 0, 7]

    def test_unbound_accesses_raise(self):
        _, in_s, lut, g, _o = streams()
        ctx = ListContext(1)
        with pytest.raises(ExecutionError):
            ctx.seq_read(in_s)
        with pytest.raises(ExecutionError):
            ctx.idx_read(lut, [0])
        with pytest.raises(ExecutionError):
            ctx.idx_write(lut, [(0, 1)])


class TestAccessSemantics:
    def test_seq_read_advances_all_lanes_together(self):
        _, in_s, *_ = streams()
        ctx = ListContext(2)
        ctx.bind_input(in_s, [[1, 2], [3, 4]])
        assert ctx.seq_read(in_s) == [1, 3]
        assert ctx.seq_read(in_s) == [2, 4]
        with pytest.raises(ExecutionError):
            ctx.seq_read(in_s)

    def test_idx_write_then_read(self):
        _, _in, lut, *_ = streams()
        ctx = ListContext(2)
        ctx.bind_table(lut, [[0, 0], [0, 0]])
        ctx.idx_write(lut, [None, (0, 42)])  # lane 0 predicated off
        assert ctx.idx_read(lut, [0, 0]) == [0, 42]  # per-lane isolation

    def test_idx_write_bounds_checked(self):
        _, _in, lut, *_ = streams()
        ctx = ListContext(1)
        ctx.bind_table(lut, [[0]])
        with pytest.raises(ExecutionError):
            ctx.idx_write(lut, [(5, 1)])
        with pytest.raises(ExecutionError):
            ctx.idx_read(lut, [-1])

    def test_output_collection(self):
        _, _in, _lut, _g, out = streams()
        ctx = ListContext(2)
        ctx.seq_write(out, ["a", "b"])
        ctx.seq_write(out, ["c", "d"])
        assert ctx.output("o") == [["a", "c"], ["b", "d"]]
        with pytest.raises(ExecutionError):
            ctx.output("missing")

    def test_table_inspection_requires_lane_for_per_lane(self):
        _, _in, lut, g, _o = streams()
        ctx = ListContext(2)
        ctx.bind_table(lut, [[1], [2]])
        ctx.bind_global(g, [3])
        assert ctx.table("t", lane=1) == [2]
        assert ctx.table("g") == [3]
        with pytest.raises(ExecutionError):
            ctx.table("t")
        with pytest.raises(ExecutionError):
            ctx.table("missing")
