"""The repo benchmark: host time of the simulator, end to end and per layer.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace 0|1] [--json PATH]

Each workload is a list of points (see ``points.py``). Every pass of a
workload runs in a fresh single-threaded worker process (``worker.py``),
one process at a time, with every ``REPRO_*`` variable removed. Untraced
passes of the selected workloads are interleaved (pass 1 of each, then
pass 2, ...) until each workload has spent ``--seconds``; they give the
end-to-end metrics. One traced pass per workload gives the per-layer
host times (``layers.py``). ``--trace 0`` runs only the untraced passes,
``--trace 1`` one untraced and one traced pass; the default runs both.

Every host time is in *reference seconds*: measured seconds rescaled by
a calibration probe timed between points (``calibrate.py``), so that
the drifting speed of a shared host cancels out. The measured seconds
are in the ``--json`` report too. The ``model.*``/``srf.*``/... counts
are simulated and must repeat exactly. The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. Exit status:
0 when every point verified and every determinism check held, 1
otherwise, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKER = pathlib.Path(__file__).resolve().parent / "worker.py"

DEFAULT_SECONDS = 25
#: Set-up-only worker launches per workload, on top of the passes.
PROBES = 5
#: A worker that runs longer than this is killed and its pass failed.
PASS_TIMEOUT_S = 150

#: End-to-end metric -> unit (all from the untraced passes).
END_TO_END = {
    "wall_s": "s",
    "sim_mcycles_per_s": "Mcycles/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Also reported, but not gated: per-point percentiles jump between
#: clusters of point times from seed to seed (up to 21% quartile spread
#: over ten seeds on sep_sweep), and failed_frac is 0 on a sound run.
UNGATED = {
    "point_s_p50": "s",
    "point_s_p75": "s",
    "failed_frac": "fraction",
}

#: Simulated count -> unit (summed over a pass's points).
MODEL_COUNTS = {
    "model.cycles": "cycles",
    "model.loop_cycles": "cycles",
    "model.srf_stall_cycles": "cycles",
    "model.mem_stall_cycles": "cycles",
    "model.overhead_cycles": "cycles",
    "model.idle_cycles": "cycles",
    "model.kernel_invocations": "count",
    "srf.seq_words": "words",
    "srf.inlane_words": "words",
    "srf.crosslane_words": "words",
    "srf.idx_write_words": "words",
    "srf.blocked_heads": "count",
    "srf.grant_ratio": "fraction",
    "xbar.words_delivered": "words",
    "xbar.deferred_word_cycles": "cycles",
    "mem.offchip_words": "words",
    "dram.row_hits": "count",
    "dram.row_misses": "count",
    "dram.row_hit_ratio": "fraction",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "fraction",
}


def worker_env(workdir: str) -> dict:
    """The parent's environment, hermetic and single-threaded.

    Bytecode goes to a cache of this invocation: the first worker
    compiles, the rest import warm, whatever the checkout or the
    environment held before.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=os.path.join(workdir, "pycache"))
    return env


def spawn(request: dict) -> dict:
    """Run one worker to completion; its reply plus ``elapsed_s``.

    A worker that crashes or times out yields ``{"crashed": reason}``.
    """
    start = time.monotonic()
    request = dict(request, spawn_t=start)
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, env=worker_env(request["workdir"]),
        text=True)
    try:
        out, _ = proc.communicate(json.dumps(request), timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {PASS_TIMEOUT_S} s",
                "elapsed_s": time.monotonic() - start}
    finally:
        if proc.poll() is None:  # timed out or interrupted
            proc.kill()
            proc.wait()
    elapsed = time.monotonic() - start
    if proc.returncode != 0 or not out.strip():
        return {"crashed": f"worker exited with status {proc.returncode}",
                "elapsed_s": elapsed}
    reply = json.loads(out.splitlines()[-1])
    reply["elapsed_s"] = elapsed
    return reply


class WorkloadRun:
    """Everything measured for one workload in one invocation."""

    def __init__(self, name: str, point_list: "list | None" = None):
        import points

        self.name = name
        self.point_list = point_list
        self.size = len(point_list or points.workload_points(name))
        self.probes = []
        self.passes = []
        self.traced = []

    def request(self, seed: int, workdir: str, trace: bool = False,
                setup_only: bool = False) -> dict:
        return {"workload": self.name, "points": self.point_list,
                "seed": seed, "trace": trace, "setup_only": setup_only,
                "workdir": workdir}

    def wants_pass(self, seconds: float) -> bool:
        """Another untraced pass fits the budget (the first always does)."""
        if not self.passes:
            return True
        if any("crashed" in p for p in self.passes):
            return False
        spent = [p["elapsed_s"] for p in self.passes]
        return sum(spent) + statistics.median(spent) <= seconds


def run_workloads(runs: list, seed: int, seconds: float, trace: "int | None",
                  workdir: str) -> None:
    """Fill each run's probes, untraced passes and traced passes."""
    if trace != 1:
        for run in runs:
            run.probes = [spawn(run.request(seed, workdir, setup_only=True))
                          for _ in range(PROBES)]
        active = list(runs)
        while active:
            for run in list(active):
                run.passes.append(spawn(run.request(seed, workdir)))
                if not run.wants_pass(seconds):
                    active.remove(run)
    else:
        for run in runs:
            run.passes.append(spawn(run.request(seed, workdir)))
    if trace != 0:
        for run in runs:
            run.traced.append(spawn(run.request(seed, workdir, trace=True)))


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def quartiles(values: list) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1], "n": len(values)}


def summarize(run: WorkloadRun) -> dict:
    """Metrics, checks and failures of one workload's passes."""
    problems = []
    attempted = failed = 0
    for reply in run.passes + run.traced:
        if "crashed" in reply:
            attempted += run.size
            failed += run.size
            problems.append(f"{run.name}: {reply['crashed']}")
            continue
        for record in reply["points"]:
            attempted += 1
            if record["error"] is not None:
                failed += 1
                problems.append(
                    f"{run.name}: {record['label']}: {record['error']}")
    for reply in run.probes:
        if "crashed" in reply:
            problems.append(f"{run.name}: set-up probe: {reply['crashed']}")
    good = [p for p in run.passes if "crashed" not in p]
    traced = [p for p in run.traced if "crashed" not in p]
    everything = good + traced
    digests = sorted({p["digest"] for p in everything})
    if len(digests) > 1:
        problems.append(f"{run.name}: stats digest differs between passes")
    counts = [p["counts"] for p in everything]
    if any(c != counts[0] for c in counts):
        problems.append(f"{run.name}: simulated counts differ between passes")

    summary = {
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": problems, "digest": digests[0] if digests else None,
        "point_digests": ({r["label"]: r["digest"]
                           for r in everything[0]["points"]}
                          if everything else {}),
        "samples": {}, "metrics": {},
    }
    if good:
        probes = [p for p in run.probes if "crashed" not in p]
        samples = {
            "wall_s": [p["ref_wall_s"] for p in good],
            "sim_mcycles_per_s": [
                p["counts"].get("model.cycles", 0) / p["ref_wall_s"] / 1e6
                for p in good],
            "point_s": [r["ref_s"] for p in good for r in p["points"]],
            "setup_s": [p["ref_setup_s"] for p in good + probes],
            "peak_rss_mb": [p["peak_rss_mb"] for p in good],
            "measured_wall_s": [p["wall_s"] for p in good],
            "measured_setup_s": [p["setup_s"] for p in good + probes],
        }
        summary["samples"] = samples
        stats = {name: quartiles(v) for name, v in samples.items()}
        summary["stats"] = stats
        point_stats = quartiles(samples["point_s"])
        values = {
            "wall_s": stats["wall_s"]["median"],
            "sim_mcycles_per_s": stats["sim_mcycles_per_s"]["median"],
            "point_s_p50": point_stats["median"],
            "point_s_p75": point_stats["q3"],
            "setup_s": stats["setup_s"]["median"],
            "peak_rss_mb": stats["peak_rss_mb"]["median"],
            "failed_frac": summary["failed_frac"],
        }
        summary["metrics"].update(
            {name: {"value": values[name], "unit": unit}
             for name, unit in {**END_TO_END, **UNGATED}.items()})
    if everything:
        summary["metrics"].update(model_metrics(everything[0]["counts"]))
    if traced and good:
        summary["metrics"].update(layer_metrics(
            traced[0], statistics.median(samples["wall_s"])))
    return summary


def model_metrics(counts: dict) -> dict:
    import points

    values = dict(counts)
    values.update(points.derived_ratios(counts))
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in MODEL_COUNTS.items()}


def layer_metrics(traced: dict, untraced_wall_s: float) -> dict:
    """Per-layer self time, share and calls of one traced pass."""
    import layers

    wall = traced["ref_wall_s"]
    scale = wall / traced["wall_s"]
    report = traced["layers"]
    metrics = {}
    for name in layers.LAYER_NAMES:
        self_s = report["self_s"][name] * scale
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
        metrics[f"{name}.share"] = {"value": self_s / wall,
                                    "unit": "fraction"}
        metrics[f"{name}.calls"] = {"value": report["calls"][name],
                                    "unit": "count"}
    span_calls = report["span_calls"]
    counts = traced["counts"]
    srf_cycles = counts.get("srf.cycles", 0)
    invocations = counts.get("model.kernel_invocations", 0)
    metrics["trace_overhead"] = {
        "value": wall / untraced_wall_s - 1, "unit": "fraction"}
    metrics["processor.ticked_frac"] = {
        "value": (span_calls.get(layers.SRF_TICK, 0) / srf_cycles
                  if srf_cycles else 0.0),
        "unit": "fraction"}
    metrics["replay.replayed_frac"] = {
        "value": (span_calls.get(layers.REPLAYED, 0) / invocations
                  if invocations else 0.0),
        "unit": "fraction"}
    return metrics


def replay_check(summaries: dict) -> list:
    """sep_replay must reproduce sep_sweep's stats on every shared point."""
    sweep = summaries.get("sep_sweep", {}).get("point_digests")
    replayed = summaries.get("sep_replay", {}).get("point_digests")
    if not sweep or not replayed:
        return []
    return [f"sep_replay: {label}: replay digest differs from execute"
            for label, digest in replayed.items()
            if sweep.get(label) != digest]


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def result_line(summaries: dict, trace: "int | None", correct: bool) -> dict:
    """The final stdout line: the metrics the trace mode selects."""
    import layers

    if trace == 0:
        names = list(END_TO_END)
    else:
        names = [f"{layer}.{m}" for layer in layers.LAYER_NAMES
                 for m in ("self_s", "share", "calls")]
        names += ["trace_overhead", "processor.ticked_frac",
                  "replay.replayed_frac"] + list(MODEL_COUNTS)
        if trace is None:
            names = list(END_TO_END) + names
    metrics = {}
    for workload, summary in summaries.items():
        prefix = "" if len(summaries) == 1 else f"{workload}/"
        for name in names:
            if name in summary["metrics"]:
                metrics[prefix + name] = summary["metrics"][name]
    return {"correct": correct,
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": metrics}


def print_report(summaries: dict, problems: list) -> None:
    for workload, summary in summaries.items():
        print(f"== {workload}: {summary['attempted']} points attempted, "
              f"stats digest {summary['digest']}")
        stats = summary.get("stats", {})
        if stats:
            print(f"  measured (not rescaled): pass wall median "
                  f"{stats['measured_wall_s']['median']:.4g} s, set-up "
                  f"median {stats['measured_setup_s']['median']:.4g} s")
        for name, entry in summary["metrics"].items():
            spread = ""
            base = name if name in stats else (
                "point_s" if name.startswith("point_s") else None)
            if base in stats:
                s = stats[base]
                spread = (f"  [min {s['min']:.4g} max {s['max']:.4g} "
                          f"n {s['n']}]")
            print(f"  {name:34s} {entry['value']:>14.6g} {entry['unit']}"
                  f"{spread}")
    for problem in problems:
        print(f"FAILED: {problem}")


def main(argv: "list | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the simulator's host time end to end and "
                    "per layer.")
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="added to every app's default input seed")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="untraced measuring budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: untraced passes only; 1: traced pass "
                             "(plus one untraced); default: both")
    parser.add_argument("--json", metavar="PATH",
                        help="write the full report here")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: simulator sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import points

    names = args.workload or list(points.WORKLOADS)
    unknown = [n for n in names if n not in points.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; "
                     f"choose from {list(points.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    runs = [WorkloadRun(name) for name in dict.fromkeys(names)]
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        run_workloads(runs, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another invocation is still using it
    return finish(runs, args.seed, args.seconds, args.trace, args.json)


def finish(runs: list, seed: int, seconds: float, trace: "int | None",
           json_path: "str | None") -> int:
    """Summarize, print, write the report; the exit status."""
    summaries = {run.name: summarize(run) for run in runs}
    problems = [p for s in summaries.values() for p in s["problems"]]
    problems += replay_check(summaries)
    correct = not problems
    print_report(summaries, problems)
    if json_path:
        report = {"seed": seed, "seconds": seconds, "trace": trace,
                  "correct": correct, "problems": problems,
                  "workloads": summaries}
        pathlib.Path(json_path).write_text(json.dumps(report, indent=1))
    print(json.dumps(result_line(summaries, trace, correct)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
