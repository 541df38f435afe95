"""Experiment runners: one function per table/figure of the paper.

Every function returns plain data (lists/dicts) plus a rendered text
table, so the pytest-benchmark harness under ``benchmarks/`` can both
time the experiment and print the same rows/series the paper reports.

Workload sizes are selected by a *scale*:

=========  =====================================================
``small``  seconds per experiment — CI-friendly default
``medium`` tens of seconds — tighter statistics
``paper``  the paper's exact workload sizes (64x64 FFT, 4096-way
           sort, 256x256 filter, Table 4 strips) — minutes
=========  =====================================================

Set the ``REPRO_SCALE`` environment variable to override the default.
The *shapes* under study are size-independent; absolute cycle counts
are not comparable to the Imagine testbed either way (see DESIGN.md).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro import observe
from repro.apps import (
    fft, filter2d, igraph, microbench, rijndael, sort, spmv, stencil,
)
from repro.apps.common import AppResult
from repro.area.energy import EnergyModel
from repro.area.floorplan import DieModel
from repro.area.sram import SrfAreaModel
from repro.config.presets import all_configs, base_config, isrf4_config
from repro.harness.report import render_grid, render_table
from repro.harness.resultcache import config_fingerprint
from repro.kernel.resources import ClusterResources
from repro.kernel.scheduler import ModuloScheduler
from repro.machine import replay

SCALES = {
    "small": dict(fft_n=16, rijndael_blocks=4, sort_n=512,
                  filter_size=(32, 32), ig_nodes=384, ig_strips=2,
                  spmv_shape=(96, 96, 6), spmv_strips=2,
                  stencil_size=(16, 32)),
    "medium": dict(fft_n=32, rijndael_blocks=8, sort_n=1024,
                   filter_size=(64, 64), ig_nodes=768, ig_strips=3,
                   spmv_shape=(192, 192, 8), spmv_strips=3,
                   stencil_size=(32, 64)),
    "paper": dict(fft_n=64, rijndael_blocks=16, sort_n=4096,
                  filter_size=(256, 256), ig_nodes=4096, ig_strips=4,
                  spmv_shape=(512, 512, 10), spmv_strips=4,
                  stencil_size=(64, 128)),
}

#: Figure 11/12 benchmark order, as in the paper. The sparse suite is
#: deliberately NOT in this tuple: the paper figures enumerate exactly
#: the paper's eight applications, and the sparse/stencil workloads get
#: their own ``sparse``/``locality`` experiments below.
BENCHMARKS = (
    "FFT 2D", "Rijndael", "Sort", "Filter",
    "IG_SML", "IG_DMS", "IG_DCS", "IG_SCL",
)

#: The ISSUE-10 sparse & stencil workload suite (own experiments).
SPARSE_BENCHMARKS = ("SpMV_CSR", "SpMV_CSC", "Stencil_STAR", "Stencil_BOX")

_run_cache = {}

#: Optional on-disk cache (see :mod:`repro.harness.resultcache`),
#: installed by the CLI / parallel runner via :func:`set_result_cache`.
_result_cache = None

#: On-disk store of recorded kernel traces (see
#: :mod:`repro.machine.replay`), installed by the CLI via
#: :func:`set_trace_store`. Without one, every benchmark executes.
_trace_store = None


def default_scale() -> str:
    scale = os.environ.get("REPRO_SCALE", "small")
    if scale not in SCALES:
        raise ValueError(f"unknown REPRO_SCALE {scale!r}")
    return scale


def clear_cache() -> None:
    _run_cache.clear()


def set_result_cache(cache) -> None:
    """Install (or with None, remove) a disk cache behind run_benchmark."""
    global _result_cache
    _result_cache = cache


def set_trace_store(store) -> None:
    """Install (or with None, remove) the replay trace store."""
    global _trace_store
    _trace_store = store


#: Explicit trace output path (CLI ``--trace-path``); overrides the
#: default.
_trace_path = None

#: Default trace export filename of the ``trace`` experiment.
DEFAULT_TRACE_PATH = "repro-trace.json"


def set_trace_path(path: "str | None") -> None:
    """Install (or with None, remove) the trace experiment output path."""
    global _trace_path
    _trace_path = path


def trace_output_path() -> str:
    """Where the ``trace`` experiment writes its Perfetto JSON: the CLI's
    ``--trace-path``, else :data:`DEFAULT_TRACE_PATH`."""
    if _trace_path is not None:
        return _trace_path
    return DEFAULT_TRACE_PATH


def run_benchmark(name: str, config, scale: str) -> AppResult:
    """Run (and cache) one benchmark on one machine configuration."""
    # Key on a fingerprint of every config field: the config *name*
    # alone would alias derived variants (separation sweeps or
    # timing_source toggles), and repr() would miss any field declared
    # with repr=False.
    key = (name, config_fingerprint(config), scale)
    if key in _run_cache:
        return _run_cache[key]
    if _result_cache is not None:
        cached = _result_cache.get(name, config, scale)
        if cached is not None:
            _run_cache[key] = cached
            return cached
    if _trace_store is not None and config.timing_source == "replay":
        # Record the kernel trace on the first run of a functional
        # config; replay it on every later one (including under
        # different timing-only parameters). The trace is saved only
        # after the result verified — an unverified run publishes
        # nothing.
        with replay.session(_trace_store, name, config, scale):
            result = _simulate(name, config, scale)
    else:
        result = _simulate(name, config, scale)
    _run_cache[key] = result
    if _result_cache is not None:
        _result_cache.put(name, config, scale, result)
    return result


def _simulate(name: str, config, scale: str) -> AppResult:
    """Simulate one benchmark fresh and verify it (no caches)."""
    params = SCALES[scale]
    if name == "FFT 2D":
        result = fft.run(config, n=params["fft_n"])
    elif name == "Rijndael":
        result = rijndael.run(
            config, blocks_per_lane=params["rijndael_blocks"]
        )
    elif name == "Sort":
        result = sort.run(config, n=params["sort_n"])
    elif name == "Filter":
        height, width = params["filter_size"]
        result = filter2d.run(config, height=height, width=width)
    elif name.startswith("IG_"):
        result = igraph.run(config, dataset=name, nodes=params["ig_nodes"],
                            strips_to_run=params["ig_strips"])
    elif name.startswith("SpMV_"):
        # "SpMV_CSR@clustered" selects a non-default index ordering; the
        # suffix keeps run_benchmark's (name, config, scale) cache keys
        # distinct across the locality sweep's variants.
        fmt, _, ordering = name[len("SpMV_"):].partition("@")
        rows, cols, avg_nnz = params["spmv_shape"]
        result = spmv.run(config, fmt=fmt.lower(), rows=rows, cols=cols,
                          avg_nnz=avg_nnz, ordering=ordering or "sorted",
                          strips_to_run=params["spmv_strips"])
    elif name.startswith("Stencil_"):
        height, width = params["stencil_size"]
        result = stencil.run(config, pattern=name[len("Stencil_"):].lower(),
                             height=height, width=width)
    else:
        raise ValueError(f"unknown benchmark {name!r}")
    result.require_verified()
    return result


def _work_units(result: AppResult) -> float:
    """Per-benchmark work normaliser (IG strips differ between configs;
    the sparse suite normalises per nonzero / per pixel)."""
    details = result.details
    for key in ("edges_processed", "nnz_processed", "pixels_processed"):
        if key in details:
            return float(details[key])
    return 1.0


# ----------------------------------------------------------------------
# Figure 11: off-chip memory traffic normalised to Base
# ----------------------------------------------------------------------
def figure11(scale: "str | None" = None) -> dict:
    scale = scale or default_scale()
    configs = all_configs()
    rows = []
    data = {}
    for name in BENCHMARKS:
        base = run_benchmark(name, configs["Base"], scale)
        base_traffic = base.offchip_words / _work_units(base)
        row = [name]
        for config_name in ("ISRF4", "Cache"):
            result = run_benchmark(name, configs[config_name], scale)
            normalised = (
                result.offchip_words / _work_units(result)
            ) / base_traffic
            label = "ISRF" if config_name == "ISRF4" else "Cache"
            data[(name, label)] = normalised
            row.append(normalised)
        rows.append(row)
    text = render_table(
        "Figure 11: off-chip memory traffic normalised to Base",
        ["benchmark", "ISRF", "Cache"], rows,
    )
    return {"data": data, "rows": rows, "text": text}


# ----------------------------------------------------------------------
# Figure 12: execution-time breakdown normalised to Base
# ----------------------------------------------------------------------
def figure12(scale: "str | None" = None) -> dict:
    scale = scale or default_scale()
    configs = all_configs()
    rows = []
    data = {}
    for name in BENCHMARKS:
        base = run_benchmark(name, configs["Base"], scale)
        base_time = base.cycles / _work_units(base)
        for config_name, config in configs.items():
            result = run_benchmark(name, config, scale)
            unit = _work_units(result)
            breakdown = result.stats.breakdown()
            scale_factor = 1.0 / unit / base_time
            entry = {
                "loop": breakdown["kernel_loop_body"] * scale_factor,
                "srf_stall": breakdown["srf_stall"] * scale_factor,
                "mem_stall": breakdown["memory_stall"] * scale_factor,
                "overhead": (breakdown["kernel_overheads"]
                             + breakdown["idle"]) * scale_factor,
            }
            entry["total"] = result.cycles / unit / base_time
            data[(name, config_name)] = entry
            rows.append([name, config_name, entry["loop"],
                         entry["srf_stall"], entry["mem_stall"],
                         entry["overhead"], entry["total"]])
    text = render_table(
        "Figure 12: execution time normalised to Base "
        "(loop body / SRF stall / memory stall / overheads)",
        ["benchmark", "config", "loop", "srf", "mem", "ovh", "total"],
        rows,
    )
    return {"data": data, "rows": rows, "text": text}


def speedup(name: str, config_name: str = "ISRF4",
            scale: "str | None" = None) -> float:
    """Base-relative speedup of one benchmark (per unit of work)."""
    scale = scale or default_scale()
    configs = all_configs()
    base = run_benchmark(name, configs["Base"], scale)
    other = run_benchmark(name, configs[config_name], scale)
    return (base.cycles / _work_units(base)) / (
        other.cycles / _work_units(other)
    )


# ----------------------------------------------------------------------
# Figure 13: sustained SRF bandwidth demands (ISRF4 main loops)
# ----------------------------------------------------------------------
_FIG13_KERNELS = {
    "FFT 2D": ("FFT 2D", "fft_col"),
    "Rijndael": ("Rijndael", "rijndael_isrf"),
    "Sort1": ("Sort", "sort1"),
    "Sort2": ("Sort", "sort2"),
    "Filter": ("Filter", "filter"),
    "IG_SML": ("IG_SML", "igraph_isrf"),
    "IG_SCL": ("IG_SCL", "igraph_isrf"),
    "IG_DMS": ("IG_DMS", "igraph_isrf"),
    "IG_DCS": ("IG_DCS", "igraph_isrf"),
}


def figure13(scale: "str | None" = None) -> dict:
    scale = scale or default_scale()
    config = isrf4_config()
    rows = []
    data = {}
    for label, (bench, prefix) in _FIG13_KERNELS.items():
        result = run_benchmark(bench, config, scale)
        runs = [r for r in result.stats.kernel_runs
                if r.kernel_name.startswith(prefix)]
        cycles = sum(r.total_cycles for r in runs) or 1
        lanes = runs[0].lanes if runs else 8
        seq = sum(r.sequential_words for r in runs) / cycles / lanes
        inlane = sum(r.inlane_words + r.indexed_write_words
                     for r in runs) / cycles / lanes
        cross = sum(r.crosslane_words for r in runs) / cycles / lanes
        data[label] = {"sequential": seq, "inlane": inlane,
                       "crosslane": cross}
        rows.append([label, seq, cross, inlane])
    text = render_table(
        "Figure 13: sustained SRF bandwidth (words/cycle/cluster, ISRF4)",
        ["kernel", "sequential", "cross-lane idx", "in-lane idx"], rows,
    )
    return {"data": data, "rows": rows, "text": text}


# ----------------------------------------------------------------------
# Figure 14: static schedule length vs address-data separation
# ----------------------------------------------------------------------
def _figure14_kernels() -> dict:
    """The seven kernels of Figure 14 (IGraph1/2 are cross-lane)."""
    from repro.apps import aes
    from repro.apps.fft import Fft2dBenchmark
    from repro.apps.filter2d import FilterBenchmark
    from repro.apps.igraph import IgBenchmark, TABLE4
    from repro.apps.rijndael import build_isrf_kernel
    from repro.apps.sort import build_inlane_merge_kernel

    cfg = isrf4_config()
    fft_bench = Fft2dBenchmark(cfg, n=16)
    filter_bench = FilterBenchmark(cfg, height=16, width=32)
    round_keys = aes.expand_key(bytes(range(16)))
    ig1 = IgBenchmark(cfg, TABLE4["IG_SML"], nodes=128)
    ig2 = IgBenchmark(cfg, TABLE4["IG_SCL"], nodes=128)
    return {
        "FFT2D": (fft_bench.col_kernel, "inlane"),
        "Rijndael": (build_isrf_kernel(round_keys, (0, 0, 0, 0)), "inlane"),
        "Sort1": (build_inlane_merge_kernel(4, "sort1"), "inlane"),
        "Sort2": (build_inlane_merge_kernel(64, "sort2"), "inlane"),
        "Filter": (filter_bench.kernel, "inlane"),
        "IGraph1": (ig1.edge_kernel, "crosslane"),
        "IGraph2": (ig2.edge_kernel, "crosslane"),
    }


def figure14(separations=(2, 4, 6, 8, 10, 12, 16, 20, 24)) -> dict:
    scheduler = ModuloScheduler(ClusterResources())
    kernels = _figure14_kernels()
    data = {}
    for name, (kernel, kind) in kernels.items():
        series = {}
        for sep in separations:
            if kind == "inlane" and sep > 10:
                continue
            inlane = sep if kind == "inlane" else 6
            cross = sep if kind == "crosslane" else 20
            schedule = scheduler.schedule(
                kernel, inlane_separation=inlane, crosslane_separation=cross
            )
            series[sep] = schedule.loop_length
        first = series[min(series)]
        data[name] = {sep: ii / first for sep, ii in series.items()}
    cols = list(separations)
    values = {
        (name, sep): (f"{data[name][sep]:.2f}" if sep in data[name] else "-")
        for name in kernels for sep in cols
    }
    text = render_grid(
        "Figure 14: static schedule (loop) length vs addr-data separation "
        "(normalised to smallest separation)",
        "kernel", list(kernels), "sep", cols, values,
    )
    return {"data": data, "text": text}


# ----------------------------------------------------------------------
# Figures 15/16: kernel execution time vs separation (machine runs)
# ----------------------------------------------------------------------
_FIG15_KERNELS = {
    "FFT2D": ("FFT 2D", "fft_col"),
    "Rijndael": ("Rijndael", "rijndael_isrf"),
    "Filter": ("Filter", "filter"),
    "Sort1": ("Sort", "sort1"),
    "Sort2": ("Sort", "sort2"),
}


def _kernel_time(result: AppResult, prefix: str) -> float:
    runs = [r for r in result.stats.kernel_runs
            if r.kernel_name.startswith(prefix)]
    total = sum(r.total_cycles for r in runs)
    return total / max(1, len(runs))


def figure15(separations=(2, 4, 6, 8, 10),
             scale: "str | None" = None) -> dict:
    scale = scale or default_scale()
    data = {name: {} for name in _FIG15_KERNELS}
    for sep in separations:
        config = isrf4_config(inlane_addr_data_separation=sep)
        for name, (bench, prefix) in _FIG15_KERNELS.items():
            result = run_benchmark(bench, config, scale)
            data[name][sep] = _kernel_time(result, prefix)
    normalised = {
        name: {sep: v / series[separations[0]]
               for sep, v in series.items()}
        for name, series in data.items()
    }
    values = {
        (name, sep): f"{normalised[name][sep]:.3f}"
        for name in data for sep in separations
    }
    text = render_grid(
        "Figure 15: in-lane kernel execution time vs separation "
        "(normalised to smallest separation)",
        "kernel", list(data), "sep", list(separations), values,
    )
    return {"data": normalised, "raw": data, "text": text}


def figure16(separations=(4, 8, 12, 16, 20, 24),
             scale: "str | None" = None) -> dict:
    scale = scale or default_scale()
    series = {"IGraph1": "IG_SML", "IGraph2": "IG_SCL"}
    data = {name: {} for name in series}
    for sep in separations:
        config = isrf4_config(crosslane_addr_data_separation=sep)
        for name, bench in series.items():
            result = run_benchmark(bench, config, scale)
            data[name][sep] = _kernel_time(result, "igraph_isrf")
    normalised = {
        name: {sep: v / s[separations[0]] for sep, v in s.items()}
        for name, s in data.items()
    }
    values = {
        (name, sep): f"{normalised[name][sep]:.3f}"
        for name in data for sep in separations
    }
    text = render_grid(
        "Figure 16: cross-lane kernel execution time vs separation "
        "(normalised to smallest separation)",
        "kernel", list(data), "sep", list(separations), values,
    )
    return {"data": normalised, "raw": data, "text": text}


# ----------------------------------------------------------------------
# Figures 17/18: SRF throughput microbenchmarks
# ----------------------------------------------------------------------
def figure17(subarrays=(1, 2, 4, 8), fifo_sizes=(1, 2, 4, 6, 8),
             cycles: int = 1500) -> dict:
    data = {}
    for s in subarrays:
        for f in fifo_sizes:
            result = microbench.inlane_random_read_throughput(
                subarrays=s, fifo_entries=f, cycles=cycles
            )
            data[(s, f)] = result.words_per_cycle_per_lane
    values = {k: f"{v:.2f}" for k, v in data.items()}
    text = render_grid(
        "Figure 17: in-lane indexed throughput (words/cycle/lane)",
        "sub-arrays", list(subarrays), "FIFO", list(fifo_sizes), values,
    )
    return {"data": data, "text": text}


def figure18(ports=(1, 2, 4), occupancies=(0.0, 0.2, 0.4, 0.6, 0.8),
             cycles: int = 1500) -> dict:
    data = {}
    for p in ports:
        for occ in occupancies:
            result = microbench.crosslane_random_read_throughput(
                ports_per_bank=p, comm_occupancy=occ, cycles=cycles
            )
            data[(p, occ)] = result.words_per_cycle_per_lane
    values = {k: f"{v:.3f}" for k, v in data.items()}
    text = render_grid(
        "Figure 18: cross-lane indexed throughput (words/cycle/lane)",
        "ports/bank", list(ports), "comm%", list(occupancies), values,
    )
    return {"data": data, "text": text}


# ----------------------------------------------------------------------
# Tables and §4.6 quantities
# ----------------------------------------------------------------------
def table3() -> dict:
    configs = all_configs()
    rows = []
    for name, cfg in configs.items():
        rows.append([
            name, cfg.lanes, cfg.srf_bytes // 1024,
            cfg.peak_sequential_srf_words_per_cycle,
            cfg.inlane_indexed_bandwidth or "-",
            cfg.crosslane_indexed_bandwidth or "-",
            cfg.cache_bytes // 1024 if cfg.has_cache else "-",
        ])
    text = render_table(
        "Table 3: machine parameters",
        ["config", "lanes", "SRF KB", "seq w/cyc", "in-lane w/c/l",
         "x-lane w/c/l", "cache KB"], rows,
    )
    return {"rows": rows, "text": text}


def table4() -> dict:
    rows = []
    for name, ds in igraph.TABLE4.items():
        rows.append([
            name, ds.flops_per_neighbor, ds.avg_degree,
            ds.base_strip_edges, ds.isrf_strip_edges,
            round(ds.isrf_strip_edges / ds.base_strip_edges, 2),
        ])
    text = render_table(
        "Table 4: IG dataset parameters (strip size = neighbour records "
        "per kernel invocation)",
        ["dataset", "FP ops/nbr", "avg degree", "Base strip", "ISRF strip",
         "ratio"], rows,
    )
    return {"rows": rows, "text": text}


def area_overheads() -> dict:
    model = SrfAreaModel()
    die = DieModel(model)
    rows = []
    for entry in die.report():
        rows.append([
            entry.variant,
            f"{entry.srf_overhead * 100:.1f}%",
            f"{entry.die_overhead * 100:.2f}%",
        ])
    cache = die.cache_overhead()
    rows.append([
        cache.variant, f"{cache.srf_overhead * 100:.0f}%",
        f"{cache.die_overhead * 100:.1f}%",
    ])
    text = render_table(
        "Section 4.6: area overheads over the sequential SRF "
        f"(sequential SRF = {model.sequential().total_mm2:.2f} mm^2, "
        f"die = {die.die_area_mm2:.0f} mm^2)",
        ["variant", "SRF overhead", "die overhead"], rows,
    )
    return {"rows": rows, "text": text,
            "overheads": model.overhead_report()}


def energy_comparison(scale: "str | None" = None) -> dict:
    """Per-benchmark energy: Base vs ISRF4, from measured access counts.

    Applies the §4.4 per-access energies to each run's off-chip words
    and SRF words. The paper's argument — an indexed SRF access costs
    4x a sequential word but 50x less than a DRAM word, so moving
    lookups on-chip is a large energy win wherever it cuts traffic —
    falls out per benchmark.
    """
    scale = scale or default_scale()
    configs = all_configs()
    model = EnergyModel()

    def run_energy(result: AppResult) -> float:
        stats = result.stats
        seq_words = sum(r.sequential_words for r in stats.kernel_runs)
        idx_words = sum(
            r.inlane_words + r.crosslane_words + r.indexed_write_words
            for r in stats.kernel_runs
        )
        return (
            stats.offchip_words * model.dram_word_nj
            + seq_words * model.sequential_word_nj
            + idx_words * model.indexed_word_nj
        ) / _work_units(result)

    rows = []
    data = {}
    for name in BENCHMARKS:
        base = run_energy(run_benchmark(name, configs["Base"], scale))
        isrf = run_energy(run_benchmark(name, configs["ISRF4"], scale))
        data[name] = (base, isrf, isrf / base)
        rows.append([name, base, isrf, isrf / base])
    text = render_table(
        "Energy per unit of work (nJ, from §4.4 access energies): "
        "Base vs ISRF4",
        ["benchmark", "Base nJ", "ISRF4 nJ", "ratio"], rows,
    )
    return {"data": data, "rows": rows, "text": text}


def energy_table() -> dict:
    model = EnergyModel()
    rows = [
        ["sequential SRF access (per word)", model.sequential_word_nj],
        ["indexed SRF access (per word)", model.indexed_word_nj],
        ["off-chip DRAM access (per word)", model.dram_word_nj],
        ["indexed-vs-sequential ratio", model.indexed_word_nj
         / model.sequential_word_nj],
        ["DRAM-vs-indexed ratio", model.indexed_vs_dram_ratio],
    ]
    text = render_table(
        "Section 4.4: access energies (nJ; paper: ~0.1 nJ indexed vs "
        "~5 nJ DRAM)",
        ["quantity", "value"], rows,
    )
    return {"rows": rows, "text": text}


# ----------------------------------------------------------------------
# Observability: exported Base vs ISRF4 execution trace
# ----------------------------------------------------------------------
def trace(scale: "str | None" = None) -> dict:
    """Run FFT 2D on Base and ISRF4 with tracing on and export the
    combined Chrome ``trace_event`` / Perfetto JSON, next to each run's
    exact Figure 12 cycle breakdown.

    Unlike the figure experiments this never goes through the benchmark
    result cache: a cache hit would skip the simulation and produce no
    events, so the runs are always simulated fresh. The export is staged
    next to its output file (:func:`repro.store.atomic.staging_path`) and
    renamed into place atomically; the parallel runner removes a worker's
    staging file if the worker dies mid-export.
    """
    scale = scale or default_scale()
    params = SCALES[scale]
    path = trace_output_path()
    rows = []
    with observe.collect() as collected:
        for config in (base_config(trace=True), isrf4_config(trace=True)):
            result = fft.run(config, n=params["fft_n"])
            result.require_verified()
            rows.append([config.name, result.cycles,
                         *result.stats.breakdown().values()])
    tracers = collected.tracers()
    payload = observe.chrome_trace(tracers)
    phase_counts = observe.validate_chrome_trace(payload)
    observe.write_trace(payload, path)
    events = sum(len(tracer) for tracer in tracers.values())
    text = render_table(
        f"Trace: FFT 2D on Base vs ISRF4 ({events} events -> {path}; "
        "load in https://ui.perfetto.dev)",
        ["config", "cycles", "loop", "srf stall", "mem stall", "overhead",
         "idle"], rows,
    )
    return {
        "rows": rows,
        "trace_path": path,
        "events": events,
        "phase_counts": phase_counts,
        "dropped_events": {
            label: tracer.dropped_events
            for label, tracer in tracers.items()
        },
        "text": text,
    }


@dataclass
class HeadlineClaim:
    benchmark: str
    speedup: float
    traffic_ratio: float


def headline(scale: "str | None" = None) -> dict:
    """The abstract's claims: 1.03x-4.1x speedups, up to 95% traffic cut."""
    scale = scale or default_scale()
    configs = all_configs()
    claims = []
    for name in BENCHMARKS:
        base = run_benchmark(name, configs["Base"], scale)
        isrf = run_benchmark(name, configs["ISRF4"], scale)
        s = (base.cycles / _work_units(base)) / (
            isrf.cycles / _work_units(isrf))
        t = (isrf.offchip_words / _work_units(isrf)) / (
            base.offchip_words / _work_units(base))
        claims.append(HeadlineClaim(name, s, t))
    rows = [[c.benchmark, f"{c.speedup:.2f}x", f"{c.traffic_ratio:.3f}"]
            for c in claims]
    text = render_table(
        "Headline: ISRF4 vs Base (paper: speedups 1.03x-4.1x, traffic "
        "reductions up to 95%)",
        ["benchmark", "speedup", "traffic vs Base"], rows,
    )
    return {"claims": claims, "rows": rows, "text": text}


# ----------------------------------------------------------------------
# Sparse & stencil workload suite (ISSUE 10)
# ----------------------------------------------------------------------
def sparse(scale: "str | None" = None) -> dict:
    """The sparse/stencil suite on every preset, normalised per unit.

    SpMV rows report cycles and off-chip words per *nonzero* (the
    format-independent unit of sparse work), the stencils per output
    pixel. Every cell is a fully verified simulation — the scipy/NumPy
    functional references inside :mod:`repro.apps.spmv` and
    :mod:`repro.apps.stencil` checked the results word for word.
    """
    scale = scale or default_scale()
    configs = all_configs()
    rows = []
    data = {}
    for name in SPARSE_BENCHMARKS:
        unit = "nnz" if name.startswith("SpMV") else "pixel"
        for config_name, config in configs.items():
            result = run_benchmark(name, config, scale)
            work = _work_units(result)
            entry = {
                "cycles_per_unit": result.cycles / work,
                "offchip_per_unit": result.offchip_words / work,
                "unit": unit,
            }
            data[(name, config_name)] = entry
            rows.append([
                name, config_name, unit,
                f"{entry['cycles_per_unit']:.2f}",
                f"{entry['offchip_per_unit']:.3f}",
            ])
    text = render_table(
        "Sparse suite: SpMV (CSR/CSC) and 2D stencils on every preset "
        "(verified against scipy/NumPy references)",
        ["benchmark", "config", "unit", "cycles/unit", "offchip w/unit"],
        rows,
    )
    return {"data": data, "rows": rows, "text": text}


#: Locality-sweep presets: indexed SRF vs the no-indexing baselines.
_LOCALITY_CONFIGS = ("Base", "ISRF4", "Cache")


def locality(scale: "str | None" = None) -> dict:
    """Index-locality sweep: SpMV_CSR under three column orderings.

    The same matrix sparsity (rows, nnz/row, empty rows, duplicates)
    is regenerated with ``sorted``, ``random`` and ``clustered`` column
    index orderings (see :data:`repro.apps.spmv.ORDERINGS`), and each
    variant runs on Base, ISRF4 and Cache. The ISRF4/Base cycle ratio
    per ordering is the experiment's point: the indexed SRF's bank
    conflicts make it *ordering-sensitive* where the Base gather
    pipeline is indifferent — the tradeoff ISSUE 10 asks RESULTS.txt
    to exhibit.
    """
    scale = scale or default_scale()
    configs = all_configs()
    rows = []
    data = {}
    for ordering in spmv.ORDERINGS:
        name = f"SpMV_CSR@{ordering}"
        cycles = {}
        for config_name in _LOCALITY_CONFIGS:
            result = run_benchmark(name, configs[config_name], scale)
            cycles[config_name] = result.cycles / _work_units(result)
        ratio = cycles["ISRF4"] / cycles["Base"]
        data[ordering] = dict(cycles, isrf_vs_base=ratio)
        rows.append([
            ordering,
            f"{cycles['Base']:.2f}", f"{cycles['ISRF4']:.2f}",
            f"{cycles['Cache']:.2f}", f"{ratio:.3f}",
        ])
    text = render_table(
        "Locality sweep: SpMV CSR cycles/nnz by column-index ordering "
        "(ISRF4/Base ratio exposes indexed-bank ordering sensitivity)",
        ["ordering", "Base", "ISRF4", "Cache", "ISRF4/Base"], rows,
    )
    return {"data": data, "rows": rows, "text": text}


# ----------------------------------------------------------------------
# Static analysis gate: verifier + program analyzer + sanitizer smoke
# ----------------------------------------------------------------------
def check(scale: "str | None" = None) -> dict:
    """Static analysis of every benchmark program on every preset.

    Runs the kernel verifier and the stream-program analyzer (see
    :mod:`repro.analyze`) over the same steady-state program chains the
    figure experiments execute, without simulating a cycle, then runs
    one short FFT simulation on ISRF4 with ``sanitize=True`` so the
    cycle-level invariant checks get exercised end to end. Any
    error-level finding fails the experiment — this is the harness face
    of the ``python -m repro.analyze`` CI gate.
    """
    from repro.analyze.diagnostics import Severity
    from repro.analyze.driver import check_everything
    from repro.errors import AnalysisError

    scale = scale or default_scale()
    params = SCALES[scale]
    reports = check_everything()
    rows = []
    failures = []
    for report in reports:
        errors = report.errors
        warnings = report.warnings
        notes = report.by_severity(Severity.INFO)
        rows.append([
            report.subject, "FAIL" if errors else "ok",
            len(errors), len(warnings), len(notes),
        ])
        failures.extend(d.describe() for d in errors)

    sanitized = isrf4_config(sanitize=True)
    result = fft.run(sanitized, n=params["fft_n"])
    result.require_verified()
    rows.append([
        f"sanitizer smoke (FFT 2D on {sanitized.name})", "ok",
        0, 0, result.cycles,
    ])

    if failures:
        raise AnalysisError(
            f"static analysis found {len(failures)} error(s):\n"
            + "\n".join(f"  {line}" for line in failures)
        )
    text = render_table(
        "Check: static analysis over every app x preset, plus a "
        "sanitizer-enabled smoke simulation (last row: cycles column "
        "holds the simulated cycle count)",
        ["subject", "status", "errors", "warnings", "notes"], rows,
    )
    return {"rows": rows, "failures": failures, "text": text}
