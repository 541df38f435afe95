"""Chaos gate for the crash-consistent sweep engine.

Proves the durability story end to end: a harness sweep that is
SIGKILLed at random points — with torn-write and ENOSPC faults injected
into the durable store — and then resumed converges to results
bit-identical to an uninterrupted run, with zero journaled completions
lost or re-executed, no orphan worker processes or ``.tmp`` staging
files left behind, and every injected tear caught by the store.

    PYTHONPATH=src python tools/chaos_sweep.py              # full gate
    PYTHONPATH=src python tools/chaos_sweep.py --smoke      # CI subset
    PYTHONPATH=src python tools/chaos_sweep.py --json out.json

Procedure:

1. **Reference run** — the selected experiments run uninterrupted in a
   fresh cache directory; the structured ``--json`` payload is the
   ground truth.
2. **Chaos runs** — up to ``--kills`` harness processes are launched
   against a second fresh cache directory (always with ``--resume``,
   which is idempotent), each SIGKILLed after a random delay drawn from
   a seeded RNG. ``REPRO_STORE_CHAOS`` injects deterministic torn
   writes and ENOSPC failures into every store put. After each kill
   the tool asserts no worker survived its parent (scanned via a
   marker variable in ``/proc/*/environ`` — no psutil needed).
3. **Final run** — one more ``--resume`` run must finish with exit 0.
4. **Audit** — the final payload's ``experiments`` block must equal
   the reference bit-for-bit; the sweep journal must contain no
   ``launch`` after a ``done`` for the same experiment and at most one
   ``done`` per experiment; ``fsck`` of both stores must report zero
   ``.tmp`` files, checksum failures only when torn commits were
   injected, and — when they were — at least one checksum failure or
   quarantined entry, so a run whose tears never landed cannot pass.

Exit status 0 when every gate holds, 1 otherwise.
"""

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import uuid

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.errors import ConfigurationError  # noqa: E402
from repro.harness.sweep import SWEEP_JOURNAL_NAME  # noqa: E402
from repro.store.chaos import CHAOS_ENV, parse_chaos  # noqa: E402
from repro.store.durable import DurableStore  # noqa: E402
from repro.store.journal import Journal  # noqa: E402

#: Marker env var planted in every chaos-run harness process (and
#: inherited by its forked workers) so orphans are findable in /proc.
MARKER_ENV = "REPRO_CHAOS_MARK"

#: Experiments exercised by the gate. ``fig11``/``fig12`` simulate for
#: several seconds each at small scale, so kills land mid-execution;
#: the analytic ones exercise the serve-from-journal path.
FULL_EXPERIMENTS = ["area", "energy", "fig11", "fig12"]
SMOKE_EXPERIMENTS = ["area", "energy", "fig11"]


def log(message):
    print(f"[chaos] {message}", flush=True)


def harness_env(marker=None, store_chaos=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.setdefault("REPRO_SCALE", "small")
    env.pop(CHAOS_ENV, None)
    if store_chaos:
        env[CHAOS_ENV] = store_chaos
    if marker:
        env[MARKER_ENV] = marker
    return env


def harness_command(experiments, cache_dir, json_path, jobs):
    # --json validates its directory up front, before the harness
    # creates the cache dir the payload lives in.
    os.makedirs(cache_dir, exist_ok=True)
    return [
        sys.executable, "-m", "repro.harness", *experiments,
        "--cache-dir", cache_dir, "--jobs", str(jobs),
        "--resume", "--json", json_path,
    ]


def marked_pids(marker):
    """PIDs whose environment carries ``marker`` (self excluded)."""
    needle = f"{MARKER_ENV}={marker}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                if needle in handle.read():
                    found.append(int(entry))
        except OSError:
            continue
    return found


def wait_no_orphans(marker, grace_s=10.0):
    """All marker-carrying processes must exit within the grace window.

    PDEATHSIG delivery is asynchronous, so a just-killed parent's
    workers may linger for a scheduling quantum; anything alive past
    the grace window is a real orphan.
    """
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        leftover = marked_pids(marker)
        if not leftover:
            return []
        time.sleep(0.1)
    return marked_pids(marker)


def comparable_payload(payload):
    """The bit-identity surface: results only, not wall-clock."""
    return {"scale": payload.get("scale"),
            "experiments": payload.get("experiments")}


def audit_journal(journal_path, experiments):
    """Re-execution audit from the raw record stream.

    Returns a list of violation strings; empty means the journal obeys
    the contract (no launch after done, at most one done per name).
    """
    records, dropped = Journal(journal_path).read()
    violations = []
    done = set()
    done_counts = {}
    for record in records:
        event = record.get("event")
        name = record.get("name")
        if event == "sweep":
            done = set()
            done_counts = {}
        elif event == "done":
            done_counts[name] = done_counts.get(name, 0) + 1
            done.add(name)
        elif event == "launch" and name in done:
            violations.append(
                f"launch of {name!r} after its done record "
                "(journaled completion re-executed)"
            )
    for name, count in done_counts.items():
        if count > 1:
            violations.append(
                f"{count} done records for {name!r} (duplicate execution)"
            )
    missing = [n for n in experiments if n not in done]
    if missing:
        violations.append(f"no done record for: {', '.join(missing)}")
    if dropped:
        log(f"note: journal reader dropped {dropped} torn trailing "
            "record(s) — tolerated by design")
    return violations


def audit_stores(cache_dir, torn=0.0):
    """Fsck every durable store under the cache dir.

    No staging file may remain: opening a store sweeps the staging
    files of dead writers, and every harness process has exited by
    now, so one left over is a leak.

    Checksum-failing entries at rest are expected only when torn
    commits were injected (``torn`` > 0): the draws are deterministic
    per key, so the same keys are torn on every put and their entries
    legitimately stay on disk — the read path quarantines them and
    recomputes, which the bit-identity gate already proves. With tears
    injected, some store must show a checksum failure or a quarantined
    entry, or the gate injected nothing and proved nothing.
    """
    violations = []
    report = {}
    stores = [("results", cache_dir, ".pkl")]
    traces_dir = os.path.join(cache_dir, "traces")
    if os.path.isdir(traces_dir):
        stores.append(("traces", traces_dir, ".trace.gz"))
    for label, directory, suffix in stores:
        health = DurableStore(directory, suffix=suffix).fsck()
        report[label] = health
        log(f"{label} store: {health['entries']} entries, "
            f"{health['checksum_failures']} torn at rest, "
            f"{health['quarantined']} quarantined, {health['tmp']} .tmp")
        if health["tmp"]:
            violations.append(
                f"{label}: {health['tmp']} .tmp staging file(s) left "
                "behind"
            )
        if health["checksum_failures"] and not torn:
            violations.append(
                f"{label}: {health['checksum_failures']} entries fail "
                "their checksum with no torn commits injected"
            )
    detected = sum(health["checksum_failures"] + health["quarantined"]
                   for health in report.values())
    if torn and not detected:
        violations.append(
            f"torn={torn:g} was injected but no store shows a checksum "
            "failure or a quarantined entry: the gate tore nothing"
        )
    return violations, report


def run_to_completion(experiments, cache_dir, jobs, marker,
                      store_chaos=None, timeout=900):
    json_path = os.path.join(cache_dir, "payload.json")
    proc = subprocess.run(
        harness_command(experiments, cache_dir, json_path, jobs),
        env=harness_env(marker=marker, store_chaos=store_chaos),
        cwd=REPO, capture_output=True, text=True, timeout=timeout,
    )
    payload = None
    if os.path.exists(json_path):
        with open(json_path) as handle:
            payload = json.load(handle)
    return proc, payload


def chaos_kill_round(experiments, cache_dir, jobs, marker, delay_s,
                     store_chaos):
    """One kill round: launch with --resume, SIGKILL after delay_s.

    Returns (killed, orphans): whether the process was still alive at
    kill time, and any marker-carrying PIDs that outlived it.
    """
    json_path = os.path.join(cache_dir, "payload.json")
    proc = subprocess.Popen(
        harness_command(experiments, cache_dir, json_path, jobs),
        env=harness_env(marker=marker, store_chaos=store_chaos),
        cwd=REPO, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        proc.wait(timeout=delay_s)
        killed = False
    except subprocess.TimeoutExpired:
        proc.kill()  # SIGKILL: no cleanup handlers run, by design
        proc.wait()
        killed = True
    orphans = wait_no_orphans(marker)
    return killed, orphans


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="SIGKILL/fault-injection gate for resumable sweeps"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="CI subset: fewer experiments and kills")
    parser.add_argument("--kills", type=int, default=None,
                        help="number of kill rounds (default 5; smoke 2)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="harness worker processes (default 2)")
    parser.add_argument("--seed", type=int, default=1234,
                        help="RNG seed for kill delays (default 1234)")
    parser.add_argument("--min-delay", type=float, default=None,
                        help="minimum kill delay in seconds "
                             "(default 1.0; smoke 0.5)")
    parser.add_argument("--max-delay", type=float, default=None,
                        help="maximum kill delay in seconds "
                             "(default 6.0; smoke 3.0)")
    parser.add_argument("--store-chaos", default="seed=7,enospc=0.05,torn=0.2",
                        help="REPRO_STORE_CHAOS spec for chaos runs "
                             "('' disables fault injection)")
    parser.add_argument("--keep", action="store_true",
                        help="keep the scratch directory for inspection")
    parser.add_argument("--json", default=None,
                        help="write a structured gate report to PATH")
    args = parser.parse_args(argv)
    try:
        chaos = parse_chaos(args.store_chaos)
    except ConfigurationError as exc:
        parser.error(str(exc))

    experiments = SMOKE_EXPERIMENTS if args.smoke else FULL_EXPERIMENTS
    kills = args.kills if args.kills is not None else (2 if args.smoke
                                                      else 5)
    # The smoke subset finishes in a few seconds, so kills must land
    # earlier to interrupt anything at all.
    if args.min_delay is None:
        args.min_delay = 0.5 if args.smoke else 1.0
    if args.max_delay is None:
        args.max_delay = 3.0 if args.smoke else 6.0
    rng = random.Random(args.seed)
    scratch = tempfile.mkdtemp(prefix="chaos-sweep-")
    ref_cache = os.path.join(scratch, "ref-cache")
    chaos_cache = os.path.join(scratch, "chaos-cache")
    failures = []
    report = {"experiments": experiments, "kills_requested": kills,
              "seed": args.seed, "store_chaos": args.store_chaos,
              "rounds": []}

    try:
        # ---- 1. reference run (no faults, uninterrupted) -------------
        log(f"reference run: {' '.join(experiments)}")
        ref_marker = uuid.uuid4().hex
        proc, ref_payload = run_to_completion(
            experiments, ref_cache, args.jobs, ref_marker
        )
        if proc.returncode != 0 or ref_payload is None:
            log(proc.stderr.strip() or proc.stdout.strip())
            log(f"FAIL: reference run exited {proc.returncode}")
            return 1
        reference = comparable_payload(ref_payload)

        # ---- 2. kill rounds ------------------------------------------
        marker = uuid.uuid4().hex
        completed_early = False
        for round_index in range(kills):
            delay = rng.uniform(args.min_delay, args.max_delay)
            killed, orphans = chaos_kill_round(
                experiments, chaos_cache, args.jobs, marker, delay,
                args.store_chaos or None,
            )
            round_info = {"round": round_index + 1,
                          "delay_s": round(delay, 3), "killed": killed,
                          "orphans": orphans}
            report["rounds"].append(round_info)
            log(f"round {round_index + 1}/{kills}: delay {delay:.2f}s, "
                f"{'SIGKILLed' if killed else 'finished first'}, "
                f"orphans: {orphans or 'none'}")
            if orphans:
                failures.append(
                    f"round {round_index + 1}: orphan worker PIDs "
                    f"{orphans} survived their parent's SIGKILL"
                )
            if not killed:
                completed_early = True
                break
        report["completed_early"] = completed_early

        # ---- 3. final resume to completion ---------------------------
        log("final resume run")
        proc, chaos_payload = run_to_completion(
            experiments, chaos_cache, args.jobs, marker,
            store_chaos=args.store_chaos or None,
        )
        leftover = wait_no_orphans(marker)
        if leftover:
            failures.append(f"final run left orphan PIDs {leftover}")
        if proc.returncode != 0 or chaos_payload is None:
            log(proc.stderr.strip() or proc.stdout.strip())
            failures.append(
                f"final resume run exited {proc.returncode}"
            )
        else:
            # ---- 4a. bit-identity ------------------------------------
            resumed = comparable_payload(chaos_payload)
            if resumed != reference:
                failures.append(
                    "resumed results differ from the uninterrupted "
                    "reference run"
                )
                for name in reference["experiments"]:
                    if (resumed["experiments"].get(name)
                            != reference["experiments"][name]):
                        log(f"  mismatch in experiment {name!r}")
            report["store_stats"] = chaos_payload.get("store", {})

        # ---- 4b. journal audit ---------------------------------------
        journal_path = os.path.join(chaos_cache, SWEEP_JOURNAL_NAME)
        if os.path.exists(journal_path):
            violations = audit_journal(journal_path, experiments)
            failures.extend(violations)
            report["journal_violations"] = violations
        else:
            failures.append("no sweep journal was written")

        # ---- 4c. store fsck ------------------------------------------
        store_violations, store_report = audit_stores(
            chaos_cache, torn=chaos.torn if chaos is not None else 0.0
        )
        failures.extend(store_violations)
        report["store_audit"] = store_report

    finally:
        if args.keep:
            log(f"scratch kept at {scratch}")
        else:
            shutil.rmtree(scratch, ignore_errors=True)

    report["failures"] = failures
    report["ok"] = not failures
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        log(f"wrote {args.json}")
    if failures:
        for failure in failures:
            log(f"FAIL: {failure}")
        return 1
    log("PASS: killed-and-resumed sweep is bit-identical to the "
        "reference, with no re-execution, orphans, or tmp files")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
