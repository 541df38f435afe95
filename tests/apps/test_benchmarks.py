"""End-to-end benchmark tests: functional verification plus the paper's
qualitative relations between machine configurations.

Workloads are scaled down relative to the paper so the suite stays
fast; the relations under test (who wins, what the traffic ratios look
like) are size-independent.
"""

import pytest

from repro.config import (
    all_configs,
    base_config,
)
from repro.apps import fft, filter2d, igraph, rijndael, sort


@pytest.fixture(scope="module")
def rijndael_results():
    return {
        name: rijndael.run(cfg, blocks_per_lane=4, repeats=2, warmup=1)
        for name, cfg in all_configs().items()
    }


class TestRijndael:
    def test_all_configs_verified(self, rijndael_results):
        for name, result in rijndael_results.items():
            assert result.verified, f"{name} produced wrong ciphertext"

    def test_isrf_traffic_reduction_about_95_percent(self, rijndael_results):
        base = rijndael_results["Base"].offchip_words
        isrf = rijndael_results["ISRF4"].offchip_words
        assert isrf / base < 0.10  # paper: up to 95% reduction

    def test_isrf4_fastest(self, rijndael_results):
        cycles = {k: r.cycles for k, r in rijndael_results.items()}
        assert cycles["ISRF4"] < cycles["ISRF1"]
        assert cycles["ISRF4"] < cycles["Cache"]
        assert cycles["ISRF4"] < cycles["Base"]

    def test_speedup_magnitude(self, rijndael_results):
        speedup = (rijndael_results["Base"].cycles
                   / rijndael_results["ISRF4"].cycles)
        assert 2.0 < speedup < 6.5  # paper: 4.11x

    def test_isrf1_suffers_srf_stalls(self, rijndael_results):
        # Rijndael has five indexed streams: ISRF1's single indexed word
        # per cycle per lane stalls (paper: 42% of execution time).
        r1 = rijndael_results["ISRF1"].stats
        r4 = rijndael_results["ISRF4"].stats
        assert r1.srf_stall_cycles > 2 * r4.srf_stall_cycles
        assert r1.srf_stall_cycles > 0.2 * rijndael_results["ISRF1"].cycles

    def test_cache_captures_locality_but_lacks_bandwidth(
        self, rijndael_results
    ):
        cache = rijndael_results["Cache"]
        base = rijndael_results["Base"]
        assert cache.offchip_words < 0.2 * base.offchip_words
        assert cache.stats.memory_stall_cycles > 0.3 * cache.cycles

    def test_base_is_memory_bound(self, rijndael_results):
        base = rijndael_results["Base"].stats
        assert base.memory_stall_cycles > base.kernel_loop_body_cycles


@pytest.fixture(scope="module")
def fft_results():
    return {
        name: fft.run(cfg, n=16, repeats=2, warmup=1)
        for name, cfg in all_configs().items()
    }


class TestFft2d:
    def test_all_configs_verified(self, fft_results):
        for name, result in fft_results.items():
            assert result.verified, f"{name} produced a wrong FFT"

    def test_isrf_eliminates_rotation_traffic(self, fft_results):
        base = fft_results["Base"].offchip_words
        isrf = fft_results["ISRF4"].offchip_words
        assert isrf / base == pytest.approx(0.5, abs=0.1)

    def test_isrf_faster_than_base(self, fft_results):
        assert fft_results["ISRF4"].cycles < fft_results["Base"].cycles

    def test_cache_between_base_and_isrf(self, fft_results):
        # The cache captures the rotation but still pays the explicit
        # reorder passes (paper §5.3).
        assert fft_results["Cache"].cycles <= fft_results["Base"].cycles
        assert fft_results["ISRF4"].cycles <= fft_results["Cache"].cycles

    def test_cache_cuts_offchip_traffic(self, fft_results):
        assert (fft_results["Cache"].offchip_words
                < fft_results["Base"].offchip_words)


@pytest.fixture(scope="module")
def sort_results():
    return {
        name: sort.run(cfg, n=512, repeats=2, warmup=1)
        for name, cfg in all_configs().items()
    }


class TestSort:
    def test_all_configs_verified(self, sort_results):
        for name, result in sort_results.items():
            assert result.verified, f"{name} did not sort"

    def test_traffic_identical_across_configs(self, sort_results):
        words = {r.offchip_words for r in sort_results.values()}
        assert len(words) == 1  # Figure 11: Sort gains no traffic

    def test_isrf_reduces_kernel_time(self, sort_results):
        assert sort_results["ISRF4"].cycles < sort_results["Base"].cycles

    def test_isrf1_equals_isrf4(self, sort_results):
        # One indexed stream -> no ISRF1/ISRF4 difference (paper §5.3).
        assert sort_results["ISRF1"].cycles == sort_results["ISRF4"].cycles

    def test_cache_gives_no_speedup(self, sort_results):
        assert sort_results["Cache"].cycles == sort_results["Base"].cycles

    def test_inlane_merge_ii_shorter_than_conditional(self, sort_results):
        runs = sort_results["ISRF4"].stats.kernel_runs
        inlane = [r.ii for r in runs if r.kernel_name.startswith("sort")]
        cond = [r.ii for r in runs if r.kernel_name.startswith("cond")]
        assert max(inlane) < min(cond)


@pytest.fixture(scope="module")
def filter_results():
    return {
        name: filter2d.run(cfg, height=32, width=32, repeats=2, warmup=1)
        for name, cfg in all_configs().items()
    }


class TestFilter:
    def test_all_configs_verified(self, filter_results):
        for name, result in filter_results.items():
            assert result.verified, f"{name} produced a wrong convolution"

    def test_isrf4_faster_kernel_loops_than_base(self, filter_results):
        base = filter_results["Base"].stats
        isrf = filter_results["ISRF4"].stats
        assert isrf.kernel_loop_body_cycles < base.kernel_loop_body_cycles

    def test_isrf1_stalls_heavily(self, filter_results):
        # Filter's 25 neighbour reads per pixel exceed ISRF1's one word
        # per cycle per lane (paper: 18% of time in SRF stalls).
        r1 = filter_results["ISRF1"].stats
        assert r1.srf_stall_cycles > 0.1 * filter_results["ISRF1"].cycles
        assert (filter_results["ISRF4"].stats.srf_stall_cycles
                < 0.3 * r1.srf_stall_cycles)

    def test_cache_equals_base(self, filter_results):
        assert (filter_results["Cache"].cycles
                == filter_results["Base"].cycles)

    def test_work_units_count_every_strip_of_the_chain(self):
        # At 64x64 the presets strip the image differently: Base fits it
        # whole and runs it three times (warmup + max(2, 1) strips of 60
        # output rows), ISRF4 runs 48 + 12 + 48 rows. The harness must
        # compare them per output pixel of the whole measured chain.
        from repro.config import isrf4_config
        from repro.harness.figures import _work_units

        for cfg, rows in ((base_config(), 3 * 60),
                          (isrf4_config(), 48 + 12 + 48)):
            result = filter2d.run(cfg, height=64, width=64)
            assert result.verified
            assert _work_units(result) == rows * 64

    def test_reference_matches_scipy(self):
        scipy_signal = pytest.importorskip("scipy.signal")
        import numpy as np

        image = np.random.default_rng(3).normal(size=(16, 24))
        padded = np.pad(image, ((0, 0), (2, 2)), mode="edge")
        expected = scipy_signal.correlate2d(
            padded, filter2d.COEFFS, mode="valid"
        )
        assert np.allclose(filter2d.reference_filter(image), expected)


@pytest.fixture(scope="module")
def ig_results():
    return {
        name: igraph.run(cfg, dataset="IG_SML", nodes=384,
                         strips_to_run=2, warmup=1)
        for name, cfg in all_configs().items()
    }


class TestIrregularGraph:
    def test_all_configs_verified(self, ig_results):
        for name, result in ig_results.items():
            assert result.verified, f"{name} produced wrong node updates"

    def test_isrf_eliminates_replication_traffic(self, ig_results):
        def per_edge(result):
            return result.offchip_words / result.details["edges_processed"]

        assert per_edge(ig_results["ISRF4"]) < 0.7 * per_edge(
            ig_results["Base"]
        )

    def test_isrf_strips_twice_as_long(self, ig_results):
        assert (ig_results["ISRF4"].details["strip_edges"]
                == 2 * ig_results["Base"].details["strip_edges"] - 10)

    def test_isrf_faster_per_edge(self, ig_results):
        def per_edge(result):
            return result.cycles / result.details["edges_processed"]

        assert per_edge(ig_results["ISRF4"]) < per_edge(ig_results["Base"])

    def test_cache_captures_reuse(self, ig_results):
        def per_edge(result):
            return result.offchip_words / result.details["edges_processed"]

        assert per_edge(ig_results["Cache"]) < 0.8 * per_edge(
            ig_results["Base"]
        )

    def test_all_indexed_access_is_crosslane(self, ig_results):
        runs = ig_results["ISRF4"].stats.kernel_runs
        edge_runs = [r for r in runs if "igraph_isrf" in r.kernel_name]
        assert edge_runs
        assert all(r.inlane_words == 0 for r in edge_runs)
        assert sum(r.crosslane_words for r in edge_runs) > 0


class TestTable4Datasets:
    def test_table4_parameters(self):
        t = igraph.TABLE4
        assert t["IG_SML"].flops_per_neighbor == 16
        assert t["IG_SCL"].flops_per_neighbor == 51
        assert t["IG_SML"].avg_degree == 4
        assert t["IG_DMS"].avg_degree == 16
        assert t["IG_SML"].base_strip_edges == 1163
        assert t["IG_SML"].isrf_strip_edges == 2316
        assert t["IG_DMS"].base_strip_edges == 265
        assert t["IG_DCS"].isrf_strip_edges == 528

    def test_graph_degree_close_to_target(self):
        g = igraph.IrregularGraph(2000, avg_degree=4, seed=1)
        assert 3.2 < g.edge_count / g.nodes < 4.8
        dense = igraph.IrregularGraph(1000, avg_degree=16, seed=1)
        assert 13.0 < dense.edge_count / dense.nodes < 19.0

    def test_strips_cover_all_nodes(self):
        g = igraph.IrregularGraph(500, avg_degree=4, seed=2)
        strips = g.strips(200)
        flattened = [v for strip in strips for v in strip]
        assert flattened == list(range(500))

    def test_compute_limited_vs_memory_limited(self):
        # SCL (51 flops) must be compute-bound on Base; SML (16 flops)
        # memory-bound (the paper's second-letter taxonomy).
        base_scl = igraph.run(base_config(), dataset="IG_SCL", nodes=384,
                              strips_to_run=2)
        base_sml = igraph.run(base_config(), dataset="IG_SML", nodes=384,
                              strips_to_run=2)
        scl = base_scl.stats
        sml = base_sml.stats
        assert (scl.kernel_loop_body_cycles / base_scl.cycles
                > sml.kernel_loop_body_cycles / base_sml.cycles)
        assert (sml.memory_stall_cycles / base_sml.cycles
                > scl.memory_stall_cycles / base_scl.cycles)
