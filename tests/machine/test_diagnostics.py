"""Performance-diagnostics: bound analysis matches the paper's reasoning."""


from repro.config import base_config, isrf1_config, isrf4_config
from repro.harness import run_benchmark
from repro.kernel import KernelBuilder, ModuloScheduler
from repro.machine.diagnostics import (
    analyze_schedule,
    diagnose_kernel_run,
    diagnose_program,
)


class TestScheduleBounds:
    def test_alu_bound_kernel(self):
        b = KernelBuilder("alu_heavy")
        in_s = b.istream("i")
        out = b.ostream("o")
        x = b.read(in_s)
        acc = x
        for _ in range(16):
            acc = b.mul(acc, x)
        b.write(out, acc)
        schedule = ModuloScheduler().schedule(b.build())
        bounds = analyze_schedule(schedule)
        assert bounds.alu_bound == 4  # 16 muls on 4 ALUs
        assert bounds.binding_constraint == "ALU issue"

    def test_divider_bound_kernel(self):
        b = KernelBuilder("divider")
        in_s = b.istream("i")
        out = b.ostream("o")
        b.write(out, b.div(b.const(1.0), b.read(in_s)))
        bounds = analyze_schedule(ModuloScheduler().schedule(b.build()))
        assert bounds.divider_bound == 16
        assert bounds.binding_constraint == "divider"

    def test_recurrence_bound_kernel(self):
        b = KernelBuilder("carried")
        lut = b.idxl_istream("t")
        out = b.ostream("o")
        ptr = b.carry(0, "ptr")
        v = b.idx_read(lut, ptr)
        b.update(ptr, b.logic(lambda x: int(x) % 8, v))
        b.write(out, v)
        schedule = ModuloScheduler().schedule(b.build(),
                                              inlane_separation=8)
        bounds = analyze_schedule(schedule)
        assert bounds.binding_constraint == "loop-carried recurrence"
        assert bounds.recurrence_bound == schedule.ii

    def test_recurrence_bound_uses_the_schedules_capacity(self):
        # A 16-word reorder buffer covers a separation of 10 at II 1;
        # the default 8 words would need II 2 (ceil(10 / 8)).
        b = KernelBuilder("lookup")
        in_s = b.istream("i")
        lut = b.idxl_istream("t")
        out = b.ostream("o")
        x = b.read(in_s)
        b.write(out, b.add(x, b.idx_read(lut, x)))
        schedule = ModuloScheduler().schedule(
            b.build(), inlane_separation=10, stream_capacity_words=16
        )
        bounds = analyze_schedule(schedule)
        assert schedule.ii == 1
        assert bounds.recurrence_bound == 1
        assert bounds.binding_constraint != "loop-carried recurrence"

    def test_index_port_bound_kernel(self):
        b = KernelBuilder("lookups")
        in_s = b.istream("i")
        lut = b.idxl_istream("t")
        out = b.ostream("o")
        x = b.read(in_s)
        acc = x
        for _ in range(6):
            acc = b.logic(lambda p, q: p + q, acc, b.idx_read(lut, x))
        b.write(out, acc)
        bounds = analyze_schedule(ModuloScheduler().schedule(b.build()))
        assert bounds.index_port_bounds["t"] == 6
        assert bounds.binding_constraint == "indexed-stream port"

    def test_describe_mentions_binding_constraint(self):
        b = KernelBuilder("k")
        out = b.ostream("o")
        b.write(out, b.const(1))
        bounds = analyze_schedule(ModuloScheduler().schedule(b.build()))
        assert "bound by" in bounds.describe()


class TestRunDiagnosis:
    def test_rijndael_isrf1_is_srf_bound(self):
        result = run_benchmark("Rijndael", isrf1_config(), "small")
        diagnoses = [
            diagnose_kernel_run(r) for r in result.stats.kernel_runs
        ]
        assert any("SRF-bandwidth" in d.classification for d in diagnoses)

    def test_isrf4_stalls_much_less_than_isrf1(self):
        r1 = run_benchmark("Rijndael", isrf1_config(), "small")
        r4 = run_benchmark("Rijndael", isrf4_config(), "small")
        frac1 = max(diagnose_kernel_run(r).stall_fraction
                    for r in r1.stats.kernel_runs)
        frac4 = max(diagnose_kernel_run(r).stall_fraction
                    for r in r4.stats.kernel_runs)
        assert frac4 < 0.6 * frac1

    def test_sort_kernels_loop_bound(self):
        result = run_benchmark("Sort", isrf4_config(), "small")
        diagnoses = [
            diagnose_kernel_run(r) for r in result.stats.kernel_runs
        ]
        assert all(d.classification == "loop bound" for d in diagnoses)


class TestProgramDiagnosis:
    def test_base_rijndael_memory_bound(self):
        config = base_config()
        result = run_benchmark("Rijndael", config, "small")
        diagnosis = diagnose_program(result.stats, config)
        assert diagnosis.classification == "memory-bandwidth bound"
        assert diagnosis.dram_utilization > 0.6

    def test_isrf4_rijndael_kernel_bound(self):
        config = isrf4_config()
        result = run_benchmark("Rijndael", config, "small")
        diagnosis = diagnose_program(result.stats, config)
        assert diagnosis.classification == "kernel (compute/SRF) bound"
        assert diagnosis.dram_utilization < 0.4

    def test_describe_is_readable(self):
        config = base_config()
        result = run_benchmark("Sort", config, "small")
        text = diagnose_program(result.stats, config).describe()
        assert "program:" in text
        assert "II=" in text
