"""Program-analyzer mutation corpus.

Each test constructs a stream program with exactly one deliberate
defect and asserts the analyzer reports that defect's stable code at
the right severity — plus clean-program tests proving the same
constructs pass when correct.
"""

import pytest

from repro.analyze import analyze_program, footprint
from repro.config.presets import base_config, isrf4_config
from repro.core import SrfArray
from repro.core.descriptors import IndexSpace, StreamDescriptor, StreamKind
from repro.core.geometry import SrfGeometry
from repro.kernel.builder import KernelBuilder
from repro.machine import StreamProcessor, StreamProgram
from repro.machine.program import KernelInvocation
from repro.memory import load_op, store_op


@pytest.fixture
def isrf():
    return StreamProcessor(isrf4_config())


@pytest.fixture
def base():
    return StreamProcessor(base_config())


def copy_kernel(n_reads=1):
    """src -> dst pass-through kernel with ``n_reads`` pops/iteration."""
    b = KernelBuilder("copy")
    src = b.istream("src")
    dst = b.ostream("dst")
    total = b.read(src, name="pop0")
    for k in range(1, n_reads):
        total = b.add(total, b.read(src, name=f"pop{k}"), name=f"sum{k}")
    b.write(dst, total)
    return b.build()


def table_kernel(index_const=None, predicated=False, affine_stride=None):
    """Kernel reading ``table[index]`` with a configurable index shape."""
    b = KernelBuilder("lookup")
    table = b.idxl_istream("table")
    dst = b.ostream("dst")
    if affine_stride is not None:
        it = b.carry(0, "it")
        b.update(it, b.add(it, b.const(1), name="next"))
        index = b.mul(it, b.const(affine_stride), name="stride")
    else:
        index = b.const(index_const if index_const is not None else 0)
    predicate = b.lt(index, b.const(10**9)) if predicated else None
    b.write(dst, b.idx_read(table, index, predicate=predicate))
    return b.build()


def error_codes(report):
    return {d.code for d in report.errors}


class TestCleanPrograms:
    def test_sequential_copy_is_clean(self, isrf):
        kernel = copy_kernel()
        a = SrfArray(isrf.srf, 64, "a")
        c = SrfArray(isrf.srf, 64, "c")
        region = isrf.memory.allocate(64, "r")
        prog = StreamProgram("clean")
        t_load = prog.add_memory(load_op(a.seq_read(), region))
        t_kernel = prog.add_kernel(KernelInvocation(
            kernel, {"src": a.seq_read(), "dst": c.seq_write()},
            iterations=8,
        ), deps=[t_load])
        prog.add_memory(store_op(c.seq_read(), region), deps=[t_kernel])
        report = analyze_program(prog, isrf.config)
        assert report.ok, report.describe()

    def test_in_bounds_lookup_is_proven(self, isrf):
        kernel = table_kernel(affine_stride=1)
        table = SrfArray(isrf.srf, 256, "table")
        out = SrfArray(isrf.srf, 256, "out")
        prog = StreamProgram("lookup")
        prog.add_kernel(KernelInvocation(
            kernel,
            {"table": table.inlane_read(), "dst": out.seq_write()},
            iterations=16,  # indices 0..15 < 32 records/lane
        ))
        report = analyze_program(prog, isrf.config)
        assert report.ok, report.describe()
        summary = [d for d in report.diagnostics if d.code == "bounds-summary"]
        assert summary and "1 of 1" in summary[0].message


class TestBindings:
    def test_missing_binding(self, isrf):
        kernel = copy_kernel()
        a = SrfArray(isrf.srf, 64, "a")
        c = SrfArray(isrf.srf, 64, "c")
        invocation = KernelInvocation(
            kernel, {"src": a.seq_read(), "dst": c.seq_write()},
            iterations=8,
        )
        del invocation.bindings["src"]  # bypass construction check
        prog = StreamProgram("broken")
        prog.add_kernel(invocation)
        assert "missing-binding" in error_codes(
            analyze_program(prog, isrf.config)
        )

    def test_binding_kind_mismatch(self, isrf):
        kernel = copy_kernel()
        a = SrfArray(isrf.srf, 64, "a")
        c = SrfArray(isrf.srf, 64, "c")
        prog = StreamProgram("broken")
        prog.add_kernel(KernelInvocation(
            kernel, {"src": a.seq_read(), "dst": c.seq_read()},  # not write
            iterations=8,
        ))
        assert "binding-kind-mismatch" in error_codes(
            analyze_program(prog, isrf.config)
        )

    def test_binding_record_words_mismatch(self, isrf):
        b = KernelBuilder("wide")
        table = b.idxl_istream("table", record_words=2)
        dst = b.ostream("dst")
        b.write(dst, b.idx_read(table, b.const(0)))
        kernel = b.build()
        arr = SrfArray(isrf.srf, 256, "arr")
        out = SrfArray(isrf.srf, 256, "out")
        prog = StreamProgram("broken")
        prog.add_kernel(KernelInvocation(
            kernel,
            {"table": arr.inlane_read(record_words=1),  # formal wants 2
             "dst": out.seq_write()},
            iterations=4,
        ))
        assert "binding-record-words" in error_codes(
            analyze_program(prog, isrf.config)
        )

    def test_indexing_on_sequential_machine(self, base):
        kernel = table_kernel(index_const=0)
        table = SrfArray(base.srf, 256, "table")
        out = SrfArray(base.srf, 256, "out")
        prog = StreamProgram("broken")
        prog.add_kernel(KernelInvocation(
            kernel,
            {"table": table.inlane_read(), "dst": out.seq_write()},
            iterations=4,
        ))
        assert "indexing-unsupported" in error_codes(
            analyze_program(prog, base.config)
        )

    def test_srf_overflow(self, isrf):
        kernel = copy_kernel()
        a = SrfArray(isrf.srf, 64, "a")
        beyond = StreamDescriptor(
            "beyond", StreamKind.SEQUENTIAL_WRITE,
            base=isrf.config.srf_words, length_records=64,
        )
        prog = StreamProgram("broken")
        prog.add_kernel(KernelInvocation(
            kernel, {"src": a.seq_read(), "dst": beyond}, iterations=8,
        ))
        assert "srf-overflow" in error_codes(
            analyze_program(prog, isrf.config)
        )


class TestBounds:
    def test_constant_index_out_of_bounds(self, isrf):
        table = SrfArray(isrf.srf, 256, "table")  # 32 records/lane
        out = SrfArray(isrf.srf, 256, "out")
        kernel = table_kernel(index_const=32)  # first invalid record
        prog = StreamProgram("broken")
        prog.add_kernel(KernelInvocation(
            kernel,
            {"table": table.inlane_read(), "dst": out.seq_write()},
            iterations=4,
        ))
        report = analyze_program(prog, isrf.config)
        assert "index-out-of-bounds" in error_codes(report)

    def test_affine_index_escapes_on_last_iteration(self, isrf):
        table = SrfArray(isrf.srf, 256, "table")  # 32 records/lane
        out = SrfArray(isrf.srf, 256, "out")
        kernel = table_kernel(affine_stride=1)
        prog = StreamProgram("broken")
        prog.add_kernel(KernelInvocation(
            kernel,
            {"table": table.inlane_read(), "dst": out.seq_write()},
            iterations=33,  # index reaches 32 on the final iteration
        ))
        assert "index-out-of-bounds" in error_codes(
            analyze_program(prog, isrf.config)
        )

    def test_predicated_escape_is_not_an_error(self, isrf):
        # A lane may be predicated off exactly when its index escapes;
        # the analyzer must downgrade to a cannot-prove note.
        table = SrfArray(isrf.srf, 256, "table")
        out = SrfArray(isrf.srf, 256, "out")
        kernel = table_kernel(index_const=32, predicated=True)
        prog = StreamProgram("guarded")
        prog.add_kernel(KernelInvocation(
            kernel,
            {"table": table.inlane_read(), "dst": out.seq_write()},
            iterations=4,
        ))
        report = analyze_program(prog, isrf.config)
        assert report.ok, report.describe()
        assert "bounds-unproven" in report.codes()

    def test_zero_iterations_proves_nothing_and_errors_nothing(self, isrf):
        table = SrfArray(isrf.srf, 256, "table")
        out = SrfArray(isrf.srf, 256, "out")
        kernel = table_kernel(index_const=32)
        prog = StreamProgram("empty")
        prog.add_kernel(KernelInvocation(
            kernel,
            {"table": table.inlane_read(), "dst": out.seq_write()},
            iterations=0,  # never executes: no access, no fault
        ))
        assert analyze_program(prog, isrf.config).ok


class TestExtents:
    def test_stream_overrun(self, isrf):
        kernel = copy_kernel()
        a = SrfArray(isrf.srf, 32, "a")  # one block: 4 words/lane
        c = SrfArray(isrf.srf, 256, "c")
        prog = StreamProgram("broken")
        prog.add_kernel(KernelInvocation(
            kernel, {"src": a.seq_read(), "dst": c.seq_write()},
            iterations=5,  # pops 5 words/lane from a 4-word/lane stream
        ))
        assert "stream-overrun" in error_codes(
            analyze_program(prog, isrf.config)
        )

    def test_exact_fit_is_clean(self, isrf):
        kernel = copy_kernel()
        a = SrfArray(isrf.srf, 32, "a")
        c = SrfArray(isrf.srf, 256, "c")
        prog = StreamProgram("snug")
        prog.add_kernel(KernelInvocation(
            kernel, {"src": a.seq_read(), "dst": c.seq_write()},
            iterations=4,
        ))
        assert "stream-overrun" not in {
            d.code for d in analyze_program(prog, isrf.config).diagnostics
        }


class TestHazards:
    def test_unordered_load_races_kernel(self, isrf):
        kernel = copy_kernel()
        a = SrfArray(isrf.srf, 64, "a")
        c = SrfArray(isrf.srf, 64, "c")
        region = isrf.memory.allocate(64, "r")
        prog = StreamProgram("racy")
        prog.add_memory(load_op(a.seq_read(), region))  # writes a
        prog.add_kernel(KernelInvocation(  # reads a, NO dependency
            kernel, {"src": a.seq_read(), "dst": c.seq_write()},
            iterations=8,
        ))
        assert "srf-race" in error_codes(analyze_program(prog, isrf.config))

    def test_ordered_tasks_do_not_race(self, isrf):
        kernel = copy_kernel()
        a = SrfArray(isrf.srf, 64, "a")
        c = SrfArray(isrf.srf, 64, "c")
        region = isrf.memory.allocate(64, "r")
        prog = StreamProgram("ordered")
        t_load = prog.add_memory(load_op(a.seq_read(), region))
        prog.add_kernel(KernelInvocation(
            kernel, {"src": a.seq_read(), "dst": c.seq_write()},
            iterations=8,
        ), deps=[t_load])
        report = analyze_program(prog, isrf.config)
        assert "srf-race" not in {d.code for d in report.diagnostics}

    def test_disjoint_unordered_tasks_do_not_race(self, isrf):
        kernel = copy_kernel()
        a = SrfArray(isrf.srf, 64, "a")
        c = SrfArray(isrf.srf, 64, "c")
        other = SrfArray(isrf.srf, 64, "other")
        region = isrf.memory.allocate(64, "r")
        prog = StreamProgram("disjoint")
        prog.add_memory(load_op(other.seq_read(), region))
        prog.add_kernel(KernelInvocation(
            kernel, {"src": a.seq_read(), "dst": c.seq_write()},
            iterations=8,
        ))
        assert analyze_program(prog, isrf.config).ok

    def test_unordered_kernels_warn_not_error(self, isrf):
        kernel = copy_kernel()
        a = SrfArray(isrf.srf, 64, "a")
        c = SrfArray(isrf.srf, 64, "c")
        d = SrfArray(isrf.srf, 64, "d")
        prog = StreamProgram("kernels")
        prog.add_kernel(KernelInvocation(
            kernel, {"src": a.seq_read(), "dst": c.seq_write()},
            iterations=8, name="writer",
        ))
        prog.add_kernel(KernelInvocation(
            kernel, {"src": c.seq_read(), "dst": d.seq_write()},
            iterations=8, name="reader",
        ))
        report = analyze_program(prog, isrf.config)
        assert report.ok  # kernels serialise on the microcontroller
        assert "kernel-overlap-unordered" in {
            d.code for d in report.warnings
        }

    def test_transitive_ordering_is_honoured(self, isrf):
        kernel = copy_kernel()
        a = SrfArray(isrf.srf, 64, "a")
        c = SrfArray(isrf.srf, 64, "c")
        region = isrf.memory.allocate(64, "r")
        prog = StreamProgram("transitive")
        t_load = prog.add_memory(load_op(a.seq_read(), region))
        t_mid = prog.add_memory(
            load_op(c.seq_read(), region), deps=[t_load]
        )
        prog.add_kernel(KernelInvocation(  # ordered after load via t_mid
            kernel, {"src": a.seq_read(), "dst": c.seq_write()},
            iterations=8,
        ), deps=[t_mid])
        report = analyze_program(prog, isrf.config)
        assert "srf-race" not in {d.code for d in report.diagnostics}


def memory_pair(proc, second, same_region=True, ordered=False):
    """A load, then a ``second`` ("load" or "store") memory op, on
    disjoint SRF arrays, over one main-memory region or two."""
    first_region = proc.memory.allocate(64, "r1")
    second_region = (first_region if same_region
                     else proc.memory.allocate(64, "r2"))
    build = load_op if second == "load" else store_op
    prog = StreamProgram("pair")
    t_load = prog.add_memory(load_op(
        SrfArray(proc.srf, 64, "a").seq_read(), first_region
    ))
    prog.add_memory(
        build(SrfArray(proc.srf, 64, "b").seq_read(), second_region),
        deps=[t_load] if ordered else [],
    )
    return prog


class TestMemoryHazards:
    """Main memory is a second address space: unordered memory ops whose
    address spans overlap with at least one writer race."""

    def test_unordered_load_and_store_of_one_region_race(self, isrf):
        report = analyze_program(memory_pair(isrf, "store"), isrf.config)
        assert error_codes(report) == {"mem-race"}  # and no srf-race

    def test_ordered_load_and_store_do_not_race(self, isrf):
        prog = memory_pair(isrf, "store", ordered=True)
        assert analyze_program(prog, isrf.config).ok

    def test_unordered_loads_of_one_region_do_not_race(self, isrf):
        assert analyze_program(memory_pair(isrf, "load"), isrf.config).ok

    def test_unordered_disjoint_regions_do_not_race(self, isrf):
        prog = memory_pair(isrf, "store", same_region=False)
        assert analyze_program(prog, isrf.config).ok


class TestDependencies:
    def test_dangling_dependency(self, isrf):
        a = SrfArray(isrf.srf, 64, "a")
        region = isrf.memory.allocate(64, "r")
        prog = StreamProgram("dangling")
        prog.add_memory(load_op(a.seq_read(), region), deps=[10**9])
        assert "dangling-dependency" in error_codes(
            analyze_program(prog, isrf.config)
        )


class TestBankPressure:
    def test_affine_access_gets_an_estimate(self, isrf):
        table = SrfArray(isrf.srf, 256, "table")
        out = SrfArray(isrf.srf, 256, "out")
        kernel = table_kernel(affine_stride=1)
        prog = StreamProgram("pressure")
        prog.add_kernel(KernelInvocation(
            kernel,
            {"table": table.inlane_read(), "dst": out.seq_write()},
            iterations=16,
        ))
        report = analyze_program(prog, isrf.config)
        assert "bank-pressure" in report.codes()

    def test_opaque_access_gets_unknown_note(self, isrf):
        b = KernelBuilder("opaque")
        table = b.idxl_istream("table")
        dst = b.ostream("dst")
        index = b.logic(lambda: 0, name="whoknows")
        bounded = b.mod(index, b.const(8))
        b.write(dst, b.idx_read(table, bounded))
        kernel = b.build()
        table_a = SrfArray(isrf.srf, 256, "table")
        out = SrfArray(isrf.srf, 256, "out")
        prog = StreamProgram("opaque")
        prog.add_kernel(KernelInvocation(
            kernel,
            {"table": table_a.inlane_read(), "dst": out.seq_write()},
            iterations=16,
        ))
        report = analyze_program(prog, isrf.config)
        assert "bank-pressure-unknown" in report.codes()

    def test_bank_pressure_skipped_on_sequential_machines(self, base):
        kernel = copy_kernel()
        a = SrfArray(base.srf, 64, "a")
        c = SrfArray(base.srf, 64, "c")
        prog = StreamProgram("seq")
        prog.add_kernel(KernelInvocation(
            kernel, {"src": a.seq_read(), "dst": c.seq_write()},
            iterations=8,
        ))
        report = analyze_program(prog, base.config)
        assert "bank-pressure" not in report.codes()


class TestFootprint:
    def test_per_lane_footprint_is_block_per_m_words(self):
        geometry = SrfGeometry(lanes=8, bank_words=4096,
                               words_per_lane_access=4,
                               subarrays_per_bank=4)
        descriptor = StreamDescriptor(
            "t", StreamKind.INLANE_INDEXED_READ, base=64,
            length_records=6, index_space=IndexSpace.PER_LANE,
        )
        start, end = footprint(descriptor, geometry)
        assert start == 64
        assert end == 64 + 2 * geometry.block_words  # ceil(6/4) blocks

    def test_sequential_footprint_rounds_to_blocks(self):
        geometry = SrfGeometry(lanes=8, bank_words=4096,
                               words_per_lane_access=4,
                               subarrays_per_bank=4)
        descriptor = StreamDescriptor(
            "s", StreamKind.SEQUENTIAL_READ, base=0, length_records=33,
        )
        start, end = footprint(descriptor, geometry)
        assert (start, end) == (0, 2 * geometry.block_words)
