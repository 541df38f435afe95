"""Shared small-but-real workloads and run modes for machine-level suites.

Every kernel family (FFT butterflies, Rijndael carry chains, sort merge
networks, filter rows, all four Table 4 index-distribution datasets,
sparse gather/scatter and banded stencils) at CI-friendly sizes. The
replay, run-mode equivalence and chaos suites run them on every Table 2
preset.

A workload runs in one of two run modes, which must produce
bit-identical stats and outputs. Parametrized suites name them by the
backend ids they were first written for, so their test ids stay stable:
the **backend** is the kernel data source — ``"scalar"``: the
interpreter evaluates every iteration; ``"vector"``: a trace recorded
by an earlier execution supplies it (:mod:`repro.machine.replay`).
Either way the processor has one cycle loop, which ticks every
component once per cycle.
"""

from repro.apps import fft, filter2d, igraph, rijndael, sort, spmv, stencil
from repro.machine import replay

PRESETS = ("Base", "ISRF1", "ISRF4", "Cache")

BACKENDS = ("scalar", "vector")

RUNNERS = {
    "fft": lambda cfg: fft.run(cfg, n=16),
    "rijndael": lambda cfg: rijndael.run(cfg, blocks_per_lane=2),
    "sort": lambda cfg: sort.run(cfg, n=256),
    "filter": lambda cfg: filter2d.run(cfg, height=16, width=32),
    "ig_sml": lambda cfg: igraph.run(cfg, dataset="IG_SML", nodes=128,
                                     strips_to_run=2),
    "ig_dms": lambda cfg: igraph.run(cfg, dataset="IG_DMS", nodes=128,
                                     strips_to_run=2),
    "ig_dcs": lambda cfg: igraph.run(cfg, dataset="IG_DCS", nodes=128,
                                     strips_to_run=2),
    "ig_scl": lambda cfg: igraph.run(cfg, dataset="IG_SCL", nodes=128,
                                     strips_to_run=2),
    "spmv_csr": lambda cfg: spmv.run(cfg, fmt="csr", rows=64, cols=64,
                                     strips_to_run=2),
    "spmv_csc": lambda cfg: spmv.run(cfg, fmt="csc", rows=64, cols=64,
                                     strips_to_run=2),
    "stencil_star": lambda cfg: stencil.run(cfg, pattern="star"),
    "stencil_box": lambda cfg: stencil.run(cfg, pattern="box"),
}


def run_replayed(runner, config, store, benchmark: str):
    """Run ``runner`` re-timed from a trace in ``store``; verified.

    On a trace miss the run is recorded first (a full execution), so the
    returned result always comes from a replaying run.
    """
    config = config.replace(timing_source="replay")
    with replay.session(store, benchmark, config, "test") as sess:
        result = runner(config).require_verified()
    if sess.mode == "replay":
        return result
    with replay.session(store, benchmark, config, "test") as sess:
        result = runner(config).require_verified()
        assert sess.mode == "replay"
    return result


def run_mode(runner, config, backend: str, store, benchmark: str):
    """Run ``runner`` on ``config`` in one run mode; verified."""
    if backend == "vector":
        return run_replayed(runner, config, store, benchmark)
    return runner(config).require_verified()
