"""Statistics classes: invariants of the Figure 12 accounting."""

from hypothesis import given, strategies as st

from repro.apps import fft
from repro.config.presets import all_configs
from repro.machine.stats import KernelRunStats, ProgramStats


class TestKernelRunStats:
    def test_zero_cycles_bandwidths_are_zero(self):
        run = KernelRunStats(kernel_name="k")
        assert run.sequential_bandwidth == 0.0
        assert run.inlane_bandwidth == 0.0
        assert run.crosslane_bandwidth == 0.0

    def test_imbalance_plus_loop_body_equals_trip_time(self):
        run = KernelRunStats(kernel_name="k", ii=5, iterations=10,
                             useful_iterations=7.5, total_cycles=100)
        assert run.loop_body_cycles + run.imbalance_cycles == 5 * 10
        assert run.loop_body_cycles == round(5 * 7.5)

    def test_overhead_never_negative(self):
        # Real runs keep their counters consistent, so the unclamped
        # remainder stays non-negative on every preset.
        for name, config in all_configs().items():
            runs = fft.run(config, n=16).stats.kernel_runs
            assert runs, name
            assert all(run.overhead_cycles >= 0 for run in runs), name

    def test_overhead_is_the_exact_remainder(self):
        # Inconsistent counters (more stall than total) surface as a
        # negative overhead instead of being clamped away.
        run = KernelRunStats(kernel_name="k", ii=10, iterations=10,
                             useful_iterations=10, total_cycles=50,
                             srf_stall_cycles=80)
        assert run.overhead_cycles == 50 - 100 - 80

    @given(
        ii=st.integers(min_value=1, max_value=64),
        iterations=st.integers(min_value=0, max_value=100),
        stalls=st.integers(min_value=0, max_value=500),
        extra=st.integers(min_value=0, max_value=500),
    )
    def test_breakdown_components_cover_total(self, ii, iterations, stalls,
                                              extra):
        total = ii * iterations + stalls + extra
        run = KernelRunStats(kernel_name="k", ii=ii, iterations=iterations,
                             useful_iterations=float(iterations),
                             total_cycles=total, srf_stall_cycles=stalls)
        assert (run.loop_body_cycles + run.srf_stall_cycles
                + run.overhead_cycles) == total


class TestProgramStats:
    def make(self, **kw):
        stats = ProgramStats(name="p", **kw)
        return stats

    def test_breakdown_keys(self):
        stats = self.make(total_cycles=10, memory_stall_cycles=4,
                          idle_cycles=1)
        breakdown = stats.breakdown()
        assert set(breakdown) == {
            "kernel_loop_body", "srf_stall", "memory_stall",
            "kernel_overheads", "idle",
        }

    def test_merge_accumulates(self):
        a = self.make(total_cycles=10, memory_stall_cycles=2,
                      offchip_words=100)
        run = KernelRunStats(kernel_name="k", ii=1, iterations=3,
                             useful_iterations=3.0, total_cycles=5)
        a.kernel_runs.append(run)
        b = self.make(total_cycles=20, memory_stall_cycles=8,
                      offchip_words=50)
        a.merge(b)
        assert a.total_cycles == 30
        assert a.memory_stall_cycles == 10
        assert a.offchip_words == 150
        assert len(a.kernel_runs) == 1

    def test_aggregate_kernel_categories(self):
        stats = self.make()
        for k in range(3):
            stats.kernel_runs.append(KernelRunStats(
                kernel_name=f"k{k}", ii=2, iterations=4,
                useful_iterations=4.0, total_cycles=20,
                srf_stall_cycles=3,
            ))
        assert stats.kernel_loop_body_cycles == 3 * 8
        assert stats.srf_stall_cycles == 9
        assert stats.kernel_overhead_cycles == 3 * (20 - 8 - 3)
