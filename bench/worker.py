"""One benchmark pass in a fresh process.

``run.py`` starts this script once per pass, with a JSON request on
stdin, and reads one JSON reply from stdout::

    request: {"workload": "apps_all", "points": null | [point, ...],
              "seed": 0, "trace": false, "setup_only": false,
              "spawn_t": <time.monotonic() just before the spawn>,
              "workdir": "<scratch directory inside the checkout>"}

Set-up (imports plus every point's config) is timed from ``spawn_t``;
``CLOCK_MONOTONIC`` is system-wide, so the two processes' readings
compare. A point that raises is recorded as failed and the pass goes
on. Every time is reported twice: as measured, and rescaled to
reference seconds by the calibration probe (``calibrate.py``).
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Probes timed right after set-up, to rescale the set-up time.
SETUP_PROBES = 3


def run_pass(prepared: list, workdir: str, probe, tracer=None) -> dict:
    """Run prepared points in order; the pass's measurements.

    ``probe`` is timed between points (its time is in no measurement);
    each point's ``ref_s`` rescales its seconds by the mean of the probe
    times just before and after it.
    """
    import points
    from calibrate import to_reference
    from repro.machine.replay import TraceStore

    capture = points.Capture()
    records = []
    counts = {}
    tmp = tempfile.mkdtemp(prefix="pass-", dir=workdir)
    try:
        store = TraceStore(tmp)
        before = probe.seconds()
        with capture.installed():
            for item in prepared:
                t0 = time.perf_counter()
                error = digest = None
                try:
                    outcome = points.run_point(item, store)
                except Exception as exc:  # a failed point; the pass goes on
                    error = f"{type(exc).__name__}: {exc}"
                    point_counts = {}
                    capture.take_counts(None)
                else:
                    digest = points.outcome_digest(outcome)
                    point_counts = capture.take_counts(outcome)
                seconds = time.perf_counter() - t0
                after = probe.seconds()
                records.append({
                    "label": item.point["label"], "seconds": seconds,
                    "ref_s": to_reference(seconds, (before + after) / 2),
                    "error": error, "digest": digest,
                })
                before = after
                for name, value in point_counts.items():
                    counts[name] = counts.get(name, 0) + value
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    wall_s = sum(r["seconds"] for r in records)
    reply = {"wall_s": wall_s,
             "ref_wall_s": sum(r["ref_s"] for r in records),
             "points": records, "counts": counts,
             "digest": points.combined_digest(
                 [(r["label"], r["digest"]) for r in records])}
    if tracer is not None:
        reply["layers"] = tracer.report(wall_s)
    return reply


def serve(request: dict) -> dict:
    """Set up, then (unless ``setup_only``) run one pass."""
    import layers
    import points
    from calibrate import Probe, to_reference

    point_list = request["points"]
    if point_list is None:
        point_list = points.workload_points(request["workload"])
    prepared = [points.prepare(p, request["seed"]) for p in point_list]
    setup_s = time.monotonic() - request["spawn_t"]
    probe = Probe()
    speed = statistics.median(probe.seconds() for _ in range(SETUP_PROBES))
    reply = {"setup_s": setup_s, "ref_setup_s": to_reference(setup_s, speed)}
    if not request["setup_only"]:
        if request["trace"]:
            tracer = layers.LayerTracer()
            with tracer.installed():
                reply.update(run_pass(prepared, request["workdir"], probe,
                                      tracer))
        else:
            reply.update(run_pass(prepared, request["workdir"], probe))
    reply["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return reply


def main() -> int:
    # One CPU for the whole process: eight passes of one workload took
    # 5.1-6.7 s when free to migrate between CPUs, 4.9-5.1 s pinned.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[-1:])
    request = json.loads(sys.stdin.read())
    # Anything the simulator prints goes to stderr; stdout is the reply.
    reply_stream, sys.stdout = sys.stdout, sys.stderr
    reply = serve(request)
    reply_stream.write(json.dumps(reply) + "\n")
    reply_stream.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
