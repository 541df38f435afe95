"""Read-write indexed SRF streams — the paper's §7 future-work extension.

"We are exploring support for data structures that require both reads
and writes simultaneously in the SRF." The kernel executor moves every
word when it issues the access, in program order, so each read of a
read-write stream sees the kernel's earlier writes; on the timing side
reads and writes of the stream share one address FIFO, so their bank
accesses keep program order too. The canonical use case is in-SRF
histogramming (read bin, increment, write back), which is impossible
with read-xor-write streams in a single kernel.
"""

import pytest

from repro.config import base_config, isrf4_config
from repro.core import SrfArray
from repro.core.descriptors import StreamKind
from repro.errors import KernelBuildError, SrfError
from repro.kernel import KernelBuilder, KernelInterpreter
from repro.kernel.contexts import ListContext
from repro.machine import KernelInvocation, StreamProcessor, StreamProgram
from repro.memory import load_op


def histogram_kernel():
    b = KernelBuilder("histogram")
    in_s = b.istream("in")
    bins = b.idxl_iostream("bins")
    value = b.read(in_s)
    count = b.idx_read(bins, value)
    b.idx_write(bins, value, b.logic(lambda c: c + 1, count))
    return b.build(), in_s, bins


class TestStreamKind:
    def test_readwrite_is_both(self):
        kind = StreamKind.INLANE_INDEXED_READWRITE
        assert kind.is_read and kind.is_write
        assert kind.is_indexed and not kind.is_crosslane
        assert kind.value == "idxl_iostream"

    def test_builder_accepts_rw_for_read_and_write(self):
        histogram_kernel()  # builds without error

    def test_plain_read_stream_still_rejects_writes(self):
        b = KernelBuilder("k")
        t = b.idxl_istream("t")
        with pytest.raises(KernelBuildError):
            b.idx_write(t, b.const(0), b.const(1))


class TestInterpreterSemantics:
    def test_histogram_with_list_context(self):
        kernel, in_s, bins = histogram_kernel()
        ctx = ListContext(lanes=2)
        ctx.bind_input(in_s, [[0, 1, 0, 0], [2, 2, 2, 1]])
        ctx.bind_table(bins, [[0, 0, 0, 0], [0, 0, 0, 0]])
        KernelInterpreter(kernel, 2, ctx).run(4)
        assert ctx.table("bins", lane=0) == [3, 1, 0, 0]
        assert ctx.table("bins", lane=1) == [0, 1, 3, 0]


class TestMachineSemantics:
    def run_histogram(self, data_per_lane, bins_count=8):
        proc = StreamProcessor(isrf4_config())
        lanes = proc.config.lanes
        kernel, in_s, bins = histogram_kernel()
        n = len(data_per_lane[0]) * lanes
        in_arr = SrfArray(proc.srf, n, "in")
        bins_arr = SrfArray(proc.srf, bins_count * lanes, "bins")
        bins_arr.fill_replicated([0] * bins_count)
        region = proc.memory.allocate(n, "src")
        proc.memory.load_region(
            region, in_arr.stream_image_per_lane(data_per_lane)
        )
        prog = StreamProgram("hist")
        t_load = prog.add_memory(load_op(in_arr.seq_read(), region))
        prog.add_kernel(KernelInvocation(kernel, {
            "in": in_arr.seq_read(),
            "bins": bins_arr.inlane_readwrite(bins_count),
        }, iterations=len(data_per_lane[0])), deps=[t_load])
        proc.run_program(prog)
        return proc, bins_arr

    def test_histogram_counts_are_exact(self):
        lanes = 8
        data = [[(lane + k) % 8 for k in range(16)] for lane in range(lanes)]
        proc, bins_arr = self.run_histogram(data)
        for lane in range(lanes):
            expected = [data[lane].count(v) for v in range(8)]
            assert bins_arr.read_per_lane(lane, 8) == expected

    def test_repeated_bin_read_after_write_hazard(self):
        # Every lane hammers bin 0: each read must see the previous
        # iteration's write (the RAW hazard the shared FIFO resolves).
        data = [[0] * 12 for _ in range(8)]
        proc, bins_arr = self.run_histogram(data)
        for lane in range(8):
            assert bins_arr.read_per_lane(lane, 1) == [12]

    def test_rw_stream_rejected_on_sequential_machine(self):
        proc = StreamProcessor(base_config())
        arr = SrfArray(proc.srf, 64, "bins")
        with pytest.raises(SrfError):
            proc.srf.open_indexed(arr.inlane_readwrite(8))

    def test_rw_descriptor_factory(self):
        proc = StreamProcessor(isrf4_config())
        arr = SrfArray(proc.srf, 64, "bins")
        desc = arr.inlane_readwrite(8)
        assert desc.kind is StreamKind.INLANE_INDEXED_READWRITE
        stream = proc.srf.open_indexed(desc)
        assert stream.robs is not None  # readable
        stream.issue_write(0, 0)   # and writable
