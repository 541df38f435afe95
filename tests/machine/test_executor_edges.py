"""Executor and processor edge cases and failure paths."""

import pytest

import repro.machine.processor as processor_module
from repro.config import base_config, isrf4_config
from repro.core import SrfArray
from repro.errors import ExecutionError, SrfError
from repro.kernel import KernelBuilder
from repro.machine import (
    KERNEL_STARTUP_CYCLES,
    KernelInvocation,
    StreamProcessor,
    StreamProgram,
)
from repro.memory import load_op


def copy_kernel():
    b = KernelBuilder("copy")
    in_s = b.istream("in")
    out_s = b.ostream("out")
    b.write(out_s, b.read(in_s))
    return b.build()


class TestBindingValidation:
    def test_non_descriptor_binding_rejected(self):
        proc = StreamProcessor(base_config())
        prog = StreamProgram("p")
        prog.add_kernel(KernelInvocation(
            copy_kernel(), {"in": "not-a-descriptor", "out": object()},
            iterations=1,
        ))
        with pytest.raises(ExecutionError, match="not a\n?.*StreamDescriptor"):
            proc.run_program(prog)

    def test_kind_mismatch_rejected(self):
        proc = StreamProcessor(base_config())
        arr = SrfArray(proc.srf, 64, "a")
        prog = StreamProgram("p")
        prog.add_kernel(KernelInvocation(
            copy_kernel(),
            # "in" expects a sequential READ; give it a write view.
            {"in": arr.seq_write(), "out": arr.seq_write()},
            iterations=1,
        ))
        with pytest.raises(ExecutionError, match="bound to a"):
            proc.run_program(prog)

    def test_indexed_kernel_on_sequential_machine_rejected(self):
        b = KernelBuilder("k")
        lut = b.idxl_istream("lut")
        out = b.ostream("o")
        b.write(out, b.idx_read(lut, b.const(0)))
        kernel = b.build()
        proc = StreamProcessor(base_config())
        arr = SrfArray(proc.srf, 64, "a")
        prog = StreamProgram("p")
        prog.add_kernel(KernelInvocation(kernel, {
            "lut": arr.inlane_read(8), "o": arr.seq_write(),
        }, iterations=1))
        with pytest.raises(Exception, match="sequential-only"):
            proc.run_program(prog)


class TestFunctionalReadRange:
    """An indexed read outside the bank (in-lane) or the SRF (cross-lane)
    raises an SrfError when the iteration is evaluated: never an
    IndexError, and never a word read through a wrapped negative index.
    """

    def run_lookup(self, crosslane, index):
        proc = StreamProcessor(isrf4_config())
        lanes = proc.config.lanes
        b = KernelBuilder("k")
        table = b.idx_istream("t") if crosslane else b.idxl_istream("t")
        out_s = b.ostream("o")
        b.write(out_s, b.idx_read(table, b.const(index)))
        kernel = b.build()
        arr = SrfArray(proc.srf, 8 * lanes, "t")
        out = SrfArray(proc.srf, 4 * lanes, "o")
        view = (arr.crosslane_read(8 * lanes) if crosslane
                else arr.inlane_read(8))
        prog = StreamProgram("p")
        prog.add_kernel(KernelInvocation(kernel, {
            "t": view, "o": out.seq_write(),
        }, iterations=4))
        proc.run_program(prog)

    @pytest.mark.parametrize("crosslane", [False, True],
                             ids=["inlane", "crosslane"])
    @pytest.mark.parametrize("where", ["past_end", "negative"])
    def test_out_of_range_index_raises_srf_error(self, crosslane, where):
        index = isrf4_config().srf_words if where == "past_end" else -1
        # The message is the functional read's, which names the lane: the
        # timed issue's own record-index check fires only later.
        with pytest.raises(SrfError, match="lane 0 record index"):
            self.run_lookup(crosslane, index)


class TestDeadlockDetection:
    def test_unsatisfiable_dependency_reports_deadlock(self, monkeypatch):
        monkeypatch.setattr(processor_module, "DEADLOCK_CYCLES", 500)
        proc = StreamProcessor(base_config())
        arr = SrfArray(proc.srf, 64, "a")
        region = proc.memory.allocate(64, "r")
        prog = StreamProgram("deadlocked")
        # A load depending on a task id that never exists in this run.
        prog.add_memory(load_op(arr.seq_read(), region), deps=[10**9])
        prog.tasks[0].deps = [10**9]
        with pytest.raises(ExecutionError, match="no progress"):
            prog.validate = lambda: None  # bypass static validation
            proc.run_program(prog)


class TestKernelLifecycle:
    def test_zero_iteration_kernel_completes(self):
        proc = StreamProcessor(base_config())
        arr = SrfArray(proc.srf, 64, "a")
        out = SrfArray(proc.srf, 64, "o")
        prog = StreamProgram("p")
        prog.add_kernel(KernelInvocation(copy_kernel(), {
            "in": arr.seq_read(), "out": out.seq_write(),
        }, iterations=0))
        stats = proc.run_program(prog)
        run = stats.kernel_runs[0]
        assert run.loop_body_cycles == 0
        assert run.total_cycles >= KERNEL_STARTUP_CYCLES

    def test_on_start_and_on_finish_hooks_fire_in_order(self):
        events = []
        proc = StreamProcessor(base_config())
        arr = SrfArray(proc.srf, 64, "a")
        out = SrfArray(proc.srf, 64, "o")
        arr.fill_stream_order([1] * 64)
        prog = StreamProgram("p")
        prog.add_kernel(KernelInvocation(
            copy_kernel(),
            {"in": arr.seq_read(), "out": out.seq_write()},
            iterations=8,
            on_start=lambda: events.append("start"),
            on_finish=lambda: events.append("finish"),
        ))
        proc.run_program(prog)
        assert events == ["start", "finish"]

    def test_srf_streams_released_after_kernel(self):
        proc = StreamProcessor(isrf4_config())
        b = KernelBuilder("k")
        lut = b.idxl_istream("lut")
        out_s = b.ostream("o")
        b.write(out_s, b.idx_read(lut, b.const(0)))
        kernel = b.build()
        table = SrfArray(proc.srf, 64, "t")
        out = SrfArray(proc.srf, 64, "o")
        prog = StreamProgram("p")
        prog.add_kernel(KernelInvocation(kernel, {
            "lut": table.inlane_read(8), "o": out.seq_write(),
        }, iterations=8))
        proc.run_program(prog)
        assert proc.srf.idle
        assert not proc.srf._indexed  # all indexed streams closed
        assert not proc.srf._seq_ports  # all ports closed

    def test_processor_reusable_across_programs(self):
        proc = StreamProcessor(base_config())
        arr = SrfArray(proc.srf, 64, "a")
        out = SrfArray(proc.srf, 64, "o")
        arr.fill_stream_order(list(range(64)))
        for _ in range(3):
            prog = StreamProgram("p")
            prog.add_kernel(KernelInvocation(copy_kernel(), {
                "in": arr.seq_read(), "out": out.seq_write(),
            }, iterations=8))
            stats = proc.run_program(prog)
            assert stats.total_cycles > 0
        assert out.read_stream_order(64) == list(range(64))

    def test_schedule_cache_reused(self):
        proc = StreamProcessor(base_config())
        kernel = copy_kernel()
        first = proc.schedule_kernel(kernel)
        second = proc.schedule_kernel(kernel)
        assert first is second
