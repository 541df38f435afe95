"""Measure the trace-replay timing mode on a real config sweep.

Runs a Figure 15-style address/data separation sweep (every benchmark x
N timing-only variants of the ISRF4 machine) three ways and reports
honest wall-clock numbers:

    execute   every sweep point functionally executed (the old way)
    record    one recording run per benchmark (the one-off trace cost)
    replay    every sweep point re-timed from the recorded traces

All sweep points of one benchmark share a functional trace key (the
swept fields are timing-only), so replay touches the kernel interpreter
zero times. Replayed stats are checked bit-identical against the
executed ones at every sweep point; a mismatch is a hard failure.

    PYTHONPATH=src python tools/replay_sweep.py              # full grid
    PYTHONPATH=src python tools/replay_sweep.py --smoke      # CI subset
    PYTHONPATH=src python tools/replay_sweep.py --json out.json

The replay/execute speedup is bounded by Amdahl's law: replay removes
only functional kernel execution (~20-25% of a sweep point's runtime at
small scale), while the cycle-accurate timing model — the whole point
of a timing sweep — still runs in full. Expect ~1.2-1.4x on the sweep
body, not a headline multiplier; the repo benchmark's ``sep_replay``
workload (``bench/run.py``) tracks the replayed sweep's host time.
"""

import argparse
import json
import sys
import tempfile
import time

from repro.config.presets import isrf4_config
from repro.harness import figures
from repro.machine.replay import TraceStore
from repro.machine import replay

#: Swept timing-only field values (Figure 15's in-lane separations).
SEPARATIONS = (2, 4, 6, 8, 10)
SMOKE_SEPARATIONS = (2, 8)
SMOKE_BENCHMARKS = ("FFT 2D", "IG_SML")


def sweep_configs(separations, timing_source):
    return [
        isrf4_config(
            inlane_addr_data_separation=sep, timing_source=timing_source
        )
        for sep in separations
    ]


def run_sweep(benchmarks, configs, scale, store=None):
    """One full sweep pass; returns (seconds, {(bench, i): stats})."""
    stats = {}
    start = time.perf_counter()
    for bench in benchmarks:
        for index, config in enumerate(configs):
            if store is not None:
                with replay.session(store, bench, config, scale) as sess:
                    result = figures._simulate(bench, config, scale)
                if sess.mode != "replay":
                    raise SystemExit(
                        f"{bench}: expected a trace hit at sweep point "
                        f"{index} but recorded instead"
                    )
            else:
                result = figures._simulate(bench, config, scale)
            stats[(bench, index)] = result.stats
    return time.perf_counter() - start, stats


def run_record(benchmarks, config, scale, store):
    """Record one trace per benchmark; returns seconds."""
    start = time.perf_counter()
    for bench in benchmarks:
        with replay.session(store, bench, config, scale) as sess:
            figures._simulate(bench, config, scale)
        if sess.mode != "record":
            raise SystemExit(f"{bench}: trace unexpectedly already stored")
    return time.perf_counter() - start


def measure(benchmarks, separations, scale) -> dict:
    execute_configs = sweep_configs(separations, "execute")
    replay_configs = sweep_configs(separations, "replay")
    with tempfile.TemporaryDirectory() as trace_dir:
        store = TraceStore(trace_dir)
        execute_s, executed = run_sweep(
            benchmarks, execute_configs, scale
        )
        record_s = run_record(benchmarks, replay_configs[0], scale, store)
        replay_s, replayed = run_sweep(
            benchmarks, replay_configs, scale, store=store
        )
    mismatched = [
        f"{bench} @ separation {separations[index]}"
        for (bench, index), stats in executed.items()
        if stats != replayed[(bench, index)]
    ]
    if mismatched:
        raise SystemExit(
            "replayed stats differ from executed stats: "
            + ", ".join(mismatched)
        )
    return {
        "scale": scale,
        "benchmarks": len(benchmarks),
        "sweep_points": len(benchmarks) * len(separations),
        "execute_s": round(execute_s, 3),
        "record_s": round(record_s, 3),
        "replay_s": round(replay_s, 3),
        "speedup": round(execute_s / replay_s, 3),
        "bit_identical": True,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced grid for CI (2 benchmarks x 2 "
                             "separations), same bit-identical check")
    parser.add_argument("--json", metavar="PATH",
                        help="also dump the measurements as JSON")
    args = parser.parse_args()
    benchmarks = SMOKE_BENCHMARKS if args.smoke else figures.BENCHMARKS
    separations = SMOKE_SEPARATIONS if args.smoke else SEPARATIONS
    scale = figures.default_scale()
    print(f"# replay sweep ({len(benchmarks)} benchmarks x "
          f"{len(separations)} separations, scale: {scale})")
    report = measure(benchmarks, separations, scale)
    print(f"execute sweep : {report['execute_s']:8.3f} s "
          f"({report['sweep_points']} points)")
    print(f"record pass   : {report['record_s']:8.3f} s "
          f"({report['benchmarks']} traces, one-off)")
    print(f"replay sweep  : {report['replay_s']:8.3f} s "
          f"({report['sweep_points']} points)")
    print(f"replay/execute speedup: {report['speedup']:.3f}x "
          "(stats bit-identical)")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
