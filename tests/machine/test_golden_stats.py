"""Golden-stats regression test: tier-1 timing pinned per app x preset.

``golden_stats.json`` snapshots the ``ProgramStats`` fingerprint of a
small workload of every application — the paper's FFT 2D, Rijndael,
Sort, Filter and all four Table 4 IG datasets plus the sparse suite
(SpMV CSR/CSC and both stencils) — for all four Table 2 presets. It
also pins a table of Figure 17/18 microbenchmark points, which drive
the SRF directly: their ``ThroughputResult``, the full ``SrfStats`` and
both cross-lane networks' ``CrossbarStats``. Any change to cycle-level
behaviour — intentional or not — shows up as a diff against the
fixture. It doubles as the enforcement of the
observability layer's zero-overhead contract: running with tracing
and metrics both enabled must reproduce the fixture bit-for-bit, as
must the sanitizer and trace replay (the ``vector`` legs, after the
backend ids of ``tests/machine/workloads.py``). Every leg runs the
processor's one cycle loop. Every pinned run's Figure 12 breakdown
must also partition its total cycles exactly.

Regenerate deliberately after an intentional timing change:

    PYTHONPATH=src:. python tests/machine/test_golden_stats.py
"""

import dataclasses
import json
import os

import pytest

from repro.apps import (
    fft,
    filter2d,
    igraph,
    microbench,
    rijndael,
    sort,
    spmv,
    stencil,
)
from repro.config.presets import all_configs
from repro.machine.replay import TraceStore
from tests.machine.workloads import run_replayed

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_stats.json")

FFT_N = 16

#: App name -> small pinned workload. Sizes are frozen with the fixture:
#: changing one is a fixture regeneration, never a silent drift.
APPS = {
    "FFT 2D": lambda cfg: fft.run(cfg, n=FFT_N),
    "Rijndael": lambda cfg: rijndael.run(cfg, blocks_per_lane=2, repeats=1),
    "Sort": lambda cfg: sort.run(cfg, n=128, repeats=1),
    "Filter": lambda cfg: filter2d.run(cfg, height=16, width=16, repeats=1),
    "IG_SML": lambda cfg: igraph.run(cfg, dataset="IG_SML", nodes=128,
                                     strips_to_run=1),
    "IG_SCL": lambda cfg: igraph.run(cfg, dataset="IG_SCL", nodes=128,
                                     strips_to_run=1),
    "IG_DMS": lambda cfg: igraph.run(cfg, dataset="IG_DMS", nodes=128,
                                     strips_to_run=1),
    "IG_DCS": lambda cfg: igraph.run(cfg, dataset="IG_DCS", nodes=128,
                                     strips_to_run=1),
    "SpMV_CSR": lambda cfg: spmv.run(cfg, fmt="csr", rows=64, cols=64,
                                     strips_to_run=2),
    "SpMV_CSC": lambda cfg: spmv.run(cfg, fmt="csc", rows=64, cols=64,
                                     strips_to_run=2),
    "Stencil_STAR": lambda cfg: stencil.run(cfg, pattern="star"),
    "Stencil_BOX": lambda cfg: stencil.run(cfg, pattern="box"),
}

PRESETS = ("Base", "ISRF1", "ISRF4", "Cache")

#: Fixture key of the microbenchmark table.
MICRO_KEY = "Microbench"
MICRO_CYCLES = 600

#: Label -> Figure 17/18 point: sub-arrays {1,4} x address FIFO {1,8},
#: and cross-lane ports per bank {1,4} x comm occupancy {0,0.6}.
MICROBENCH = {
    **{
        f"fig17 sub={sub} fifo={fifo}": (
            microbench.inlane_random_read_throughput,
            {"subarrays": sub, "fifo_entries": fifo},
        )
        for sub in (1, 4) for fifo in (1, 8)
    },
    **{
        f"fig18 ports={ports} occ={occ}": (
            microbench.crosslane_random_read_throughput,
            {"ports_per_bank": ports, "comm_occupancy": occ},
        )
        for ports in (1, 4) for occ in (0.0, 0.6)
    },
}


def fingerprint(stats) -> dict:
    """The timing-relevant slice of ProgramStats, JSON-stable."""
    return {
        "total_cycles": stats.total_cycles,
        "memory_stall_cycles": stats.memory_stall_cycles,
        "idle_cycles": stats.idle_cycles,
        "offchip_words": stats.offchip_words,
        "kernel_runs": [
            {
                "kernel_name": run.kernel_name,
                "ii": run.ii,
                "depth": run.depth,
                "iterations": run.iterations,
                "useful_iterations": run.useful_iterations,
                "total_cycles": run.total_cycles,
                "srf_stall_cycles": run.srf_stall_cycles,
                "startup_cycles": run.startup_cycles,
                "sequential_words": run.sequential_words,
                "inlane_words": run.inlane_words,
                "crosslane_words": run.crosslane_words,
                "indexed_write_words": run.indexed_write_words,
                "lanes": run.lanes,
            }
            for run in stats.kernel_runs
        ],
    }


def assert_exact_breakdown(stats) -> None:
    """Figure 12's categories are non-negative and sum to the run."""
    assert all(run.overhead_cycles >= 0 for run in stats.kernel_runs)
    assert sum(stats.breakdown().values()) == stats.total_cycles


def run_microbench(label: str, monkeypatch) -> dict:
    """One microbenchmark point: its result plus the SRF's own stats."""
    built = []
    srf_cls = microbench.StreamRegisterFile

    def recording(config):
        srf = srf_cls(config)
        built.append(srf)
        return srf

    monkeypatch.setattr(microbench, "StreamRegisterFile", recording)
    fn, kwargs = MICROBENCH[label]
    try:
        result = fn(cycles=MICRO_CYCLES, **kwargs)
    finally:
        monkeypatch.undo()
    [srf] = built
    return {
        "result": dataclasses.asdict(result),
        "srf": dataclasses.asdict(srf.stats),
        "address_network": dataclasses.asdict(srf.address_network.stats),
        "return_network": dataclasses.asdict(srf.return_network.stats),
    }


def capture() -> dict:
    out = {}
    for app, runner in APPS.items():
        out[app] = {}
        for name, config in all_configs().items():
            result = runner(config).require_verified()
            out[app][name] = fingerprint(result.stats)
    patcher = pytest.MonkeyPatch()
    out[MICRO_KEY] = {
        label: run_microbench(label, patcher) for label in MICROBENCH
    }
    return out


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def trace_store(tmp_path_factory):
    """One store for every replaying leg: an app records once per
    functional config and each later leg re-times that recording."""
    return TraceStore(str(tmp_path_factory.mktemp("traces")))


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("app", sorted(APPS))
class TestGoldenStats:
    def test_matches_fixture(self, golden, app, preset):
        config = all_configs()[preset]
        stats = APPS[app](config).require_verified().stats
        assert_exact_breakdown(stats)
        assert fingerprint(stats) == golden[app][preset]

    def test_observability_is_inert(self, golden, app, preset):
        """Trace + metrics on must not move a single cycle."""
        config = all_configs()[preset].replace(trace=True, metrics=True)
        result = APPS[app](config).require_verified()
        assert fingerprint(result.stats) == golden[app][preset]

    def test_sanitizer_is_inert(self, golden, app, preset):
        """Per-cycle invariant checks must not move a single cycle."""
        config = all_configs()[preset].replace(sanitize=True)
        result = APPS[app](config).require_verified()
        assert fingerprint(result.stats) == golden[app][preset]

    def test_vector_backend_is_inert(self, golden, trace_store, app,
                                     preset):
        """Trace replay is a pure simulation-speed knob: kernel data
        from a recording, with no interpreter, must reproduce the
        *executed* fixture bit-for-bit, not merely be self-consistent."""
        result = run_replayed(APPS[app], all_configs()[preset],
                              trace_store, app)
        assert fingerprint(result.stats) == golden[app][preset]

    def test_vector_backend_with_observability_is_inert(
            self, golden, trace_store, app, preset):
        """Trace + metrics on a replayed run must not move a single
        cycle either."""
        config = all_configs()[preset].replace(trace=True, metrics=True)
        result = run_replayed(APPS[app], config, trace_store, app)
        assert fingerprint(result.stats) == golden[app][preset]


@pytest.mark.parametrize("label", sorted(MICROBENCH))
def test_microbench_matches_fixture(golden, label, monkeypatch):
    """Figure 17/18 points drive the SRF with no kernels or memory
    system, so this pins arbitration, completions and both cross-lane
    networks on their own."""
    assert run_microbench(label, monkeypatch) == golden[MICRO_KEY][label]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(capture(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"regenerated {GOLDEN_PATH}")
