"""The benchmark's workloads and the code that runs one point of them.

A *point* is one simulation (one app on one machine config, or one SRF
microbenchmark setting) or one Figure 14 schedule sweep. Points are
plain JSON-able dicts, so the parent process can hand any list of them
to a worker process::

    {"label": "FFT 2D/Base",            # unique within a workload
     "call": "repro.apps.fft:run",      # public entry point
     "preset": "Base",                  # machine preset, or None
     "config": {},                      # MachineConfig overrides
     "kwargs": {"n": 16},               # sizes, passed explicitly
     "bench": "FFT 2D"}                 # trace-store name (replay)

Every point runs at ``SCALES["small"]`` sizes. The workload seed is
added to the callee's own default ``seed`` argument, so seed 0
reproduces the datasets behind RESULTS.txt.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import inspect
import json
from collections import Counter

from repro.apps.common import AppResult
from repro.apps.microbench import ThroughputResult
from repro.config import presets
from repro.core.srf import StreamRegisterFile
from repro.errors import ExecutionError
from repro.harness.figures import BENCHMARKS, SCALES, SPARSE_BENCHMARKS
from repro.machine import replay
from repro.memory.controller import MemoryController

SCALE = "small"

PRESETS = {
    "Base": presets.base_config,
    "ISRF1": presets.isrf1_config,
    "ISRF4": presets.isrf4_config,
    "Cache": presets.cache_config,
}

#: The workloads, in run order (why each exists: BENCHMARK.json).
WORKLOADS = ("apps_all", "sep_sweep", "sep_replay", "srf_micro")

FIG15_BENCHMARKS = ("FFT 2D", "Rijndael", "Filter", "Sort")
FIG15_SEPARATIONS = (2, 4, 6, 8, 10)
FIG16_BENCHMARKS = ("IG_SML", "IG_SCL")
FIG16_SEPARATIONS = (4, 8, 12, 16, 20, 24)
FIG17_SUBARRAYS = (1, 2, 4, 8)
FIG17_FIFOS = (1, 2, 4, 6, 8)
FIG18_PORTS = (1, 2, 4)
FIG18_OCCUPANCIES = (0.0, 0.2, 0.4, 0.6, 0.8)
MICRO_CYCLES = 1500


def app_call(name: str) -> tuple:
    """``(call, kwargs)`` of one app at small scale (as the harness)."""
    p = SCALES[SCALE]
    if name == "FFT 2D":
        return "repro.apps.fft:run", {"n": p["fft_n"]}
    if name == "Rijndael":
        return "repro.apps.rijndael:run", {
            "blocks_per_lane": p["rijndael_blocks"]}
    if name == "Sort":
        return "repro.apps.sort:run", {"n": p["sort_n"]}
    if name == "Filter":
        height, width = p["filter_size"]
        return "repro.apps.filter2d:run", {"height": height, "width": width}
    if name.startswith("IG_"):
        return "repro.apps.igraph:run", {
            "dataset": name, "nodes": p["ig_nodes"],
            "strips_to_run": p["ig_strips"]}
    if name.startswith("SpMV_"):
        rows, cols, avg_nnz = p["spmv_shape"]
        return "repro.apps.spmv:run", {
            "fmt": name[len("SpMV_"):].lower(), "rows": rows, "cols": cols,
            "avg_nnz": avg_nnz, "strips_to_run": p["spmv_strips"]}
    if name.startswith("Stencil_"):
        height, width = p["stencil_size"]
        return "repro.apps.stencil:run", {
            "pattern": name[len("Stencil_"):].lower(),
            "height": height, "width": width}
    raise ValueError(f"unknown app {name!r}")


def app_point(name: str, preset: str, label: str, **config) -> dict:
    call, kwargs = app_call(name)
    return {"label": label, "call": call, "preset": preset,
            "config": config, "kwargs": kwargs, "bench": name}


def _sweep_points(timing_source: str) -> list:
    points = []
    for name in FIG15_BENCHMARKS:
        for sep in FIG15_SEPARATIONS:
            points.append(app_point(
                name, "ISRF4", f"fig15 {name} sep={sep}",
                inlane_addr_data_separation=sep, timing_source=timing_source))
    for name in FIG16_BENCHMARKS:
        for sep in FIG16_SEPARATIONS:
            points.append(app_point(
                name, "ISRF4", f"fig16 {name} sep={sep}",
                crosslane_addr_data_separation=sep,
                timing_source=timing_source))
    return points


def workload_points(workload: str) -> list:
    """The point list of one named workload, in run order."""
    if workload == "apps_all":
        return [app_point(name, preset, f"{name}/{preset}")
                for name in BENCHMARKS + SPARSE_BENCHMARKS
                for preset in PRESETS]
    if workload == "sep_sweep":
        fig14 = {"label": "fig14", "call": "repro.harness.figures:figure14",
                 "preset": None, "config": {}, "kwargs": {}, "bench": None}
        return _sweep_points("execute") + [fig14]
    if workload == "sep_replay":
        return _sweep_points("replay")
    if workload == "srf_micro":
        micro = "repro.apps.microbench:"
        points = [
            {"label": f"fig17 sub={s} fifo={f}",
             "call": micro + "inlane_random_read_throughput",
             "preset": None, "config": {}, "bench": None,
             "kwargs": {"subarrays": s, "fifo_entries": f,
                        "cycles": MICRO_CYCLES}}
            for s in FIG17_SUBARRAYS for f in FIG17_FIFOS
        ]
        points += [
            {"label": f"fig18 ports={p} occ={o}",
             "call": micro + "crosslane_random_read_throughput",
             "preset": None, "config": {}, "bench": None,
             "kwargs": {"ports_per_bank": p, "comm_occupancy": o,
                        "cycles": MICRO_CYCLES}}
            for p in FIG18_PORTS for o in FIG18_OCCUPANCIES
        ]
        return points
    raise ValueError(f"unknown workload {workload!r}")


def resolve(call: str):
    """The function a point calls, looked up now (so wrappers apply)."""
    module, _, attr = call.partition(":")
    return getattr(importlib.import_module(module), attr)


@dataclasses.dataclass
class Prepared:
    """One point with its config built and its seed applied."""

    point: dict
    config: object
    kwargs: dict


def prepare(point: dict, seed: int) -> Prepared:
    """Build the point's config and final arguments (set-up work)."""
    kwargs = dict(point["kwargs"])
    params = inspect.signature(resolve(point["call"])).parameters
    if "seed" in params:
        kwargs["seed"] = params["seed"].default + seed
    config = None
    if point["preset"] is not None:
        config = PRESETS[point["preset"]](**point["config"])
    return Prepared(point, config, kwargs)


def run_point(prepared: Prepared, store) -> object:
    """Run one point and check its output; returns the outcome.

    Simulations must pass their own functional verification against an
    independent reference; microbenchmarks a sanity check. Replay-mode
    points record into / replay from ``store`` exactly as the harness
    does: the trace is saved only after the result verified.
    """
    fn = resolve(prepared.point["call"])
    config = prepared.config
    if config is None:
        outcome = fn(**prepared.kwargs)
        if isinstance(outcome, ThroughputResult) and not (
                outcome.completed <= outcome.issued
                and outcome.words_per_cycle_per_lane > 0):
            raise ExecutionError(f"implausible microbenchmark {outcome}")
        return outcome
    if config.timing_source == "replay":
        with replay.session(store, prepared.point["bench"], config, SCALE):
            return fn(config, **prepared.kwargs).require_verified()
    return fn(config, **prepared.kwargs).require_verified()


def outcome_digest(outcome) -> str:
    """sha256 of everything the model computed for one point."""
    if isinstance(outcome, AppResult):
        payload = dataclasses.asdict(outcome.stats)
    elif dataclasses.is_dataclass(outcome):
        payload = dataclasses.asdict(outcome)
    else:
        payload = outcome["data"]  # figure14
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def combined_digest(digests: list) -> str:
    """One digest over a pass's ``(label, digest)`` pairs, in order."""
    text = "".join(f"{label}\t{digest}\n" for label, digest in digests)
    return hashlib.sha256(text.encode()).hexdigest()


class Capture:
    """Records every SRF and memory controller built while installed.

    The simulated machine statistics of a point live on those objects;
    hooking their constructors reads them without touching the apps.
    """

    def __init__(self):
        self.srfs = []
        self.controllers = []

    @contextlib.contextmanager
    def installed(self):
        originals = []
        for cls, sink in ((StreamRegisterFile, self.srfs),
                          (MemoryController, self.controllers)):
            init = cls.__init__

            def hooked(obj, *args, _init=init, _sink=sink, **kwargs):
                _init(obj, *args, **kwargs)
                _sink.append(obj)

            originals.append((cls, init))
            cls.__init__ = hooked
        try:
            yield self
        finally:
            for cls, init in originals:
                cls.__init__ = init

    def take_counts(self, outcome) -> Counter:
        """Simulated counts of the point just run; clears the capture."""
        counts = Counter()
        if isinstance(outcome, AppResult):
            stats = outcome.stats
            counts["model.cycles"] += stats.total_cycles
            counts["model.loop_cycles"] += stats.kernel_loop_body_cycles
            counts["model.srf_stall_cycles"] += stats.srf_stall_cycles
            counts["model.mem_stall_cycles"] += stats.memory_stall_cycles
            counts["model.overhead_cycles"] += stats.kernel_overhead_cycles
            counts["model.idle_cycles"] += stats.idle_cycles
            counts["model.kernel_invocations"] += len(stats.kernel_runs)
        elif isinstance(outcome, ThroughputResult):
            counts["model.cycles"] += outcome.cycles
        for srf in self.srfs:
            s = srf.stats
            counts["srf.cycles"] += s.cycles
            counts["srf.seq_words"] += s.sequential_words
            counts["srf.inlane_words"] += s.inlane_grants
            counts["srf.crosslane_words"] += s.crosslane_grants
            counts["srf.idx_write_words"] += s.indexed_write_grants
            counts["srf.blocked_heads"] += s.blocked_heads
            xbar = srf.return_network.stats
            counts["xbar.words_delivered"] += xbar.words_delivered
            counts["xbar.deferred_word_cycles"] += xbar.deferred_word_cycles
        for controller in self.controllers:
            counts["mem.offchip_words"] += controller.stats.offchip_words
            counts["dram.row_hits"] += controller.dram.stats.row_hits
            counts["dram.row_misses"] += controller.dram.stats.row_misses
            if controller.cache is not None:
                counts["cache.hits"] += controller.cache.stats.hits
                counts["cache.misses"] += controller.cache.stats.misses
        self.srfs.clear()
        self.controllers.clear()
        return counts


def ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def derived_ratios(counts: dict) -> dict:
    """The useful-outcome ratios of a workload's summed counts."""
    grants = (counts.get("srf.inlane_words", 0)
              + counts.get("srf.crosslane_words", 0)
              + counts.get("srf.idx_write_words", 0))
    return {
        "srf.grant_ratio": ratio(grants, counts.get("srf.blocked_heads", 0)),
        "dram.row_hit_ratio": ratio(counts.get("dram.row_hits", 0),
                                    counts.get("dram.row_misses", 0)),
        "cache.hit_ratio": ratio(counts.get("cache.hits", 0),
                                 counts.get("cache.misses", 0)),
    }
