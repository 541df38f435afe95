"""Compare two sets of benchmark reports (parent vs change).

    python3 bench/compare.py A1.json A2.json ... -- B1.json B2.json ...
                             [--json OUT]

Each file is a ``bench/run.py --json`` report; a side should hold at
least three invocations. For every workload and end-to-end metric this
prints each side's median and quartiles and a verdict, with the bound
taken from ``BENCHMARK.json``:

* ``unresolved`` -- side A's own spread (q3 - q1, as a share of its
  median) exceeds the bound, and not every B run beats every A run;
* ``worse`` -- B's median is worse than A's by more than the bound;
* ``better`` -- B wins at least 9/10 of all (A, B) pairs and the
  medians differ by more than A's quartile spread;
* ``unchanged`` -- otherwise.

``failed_frac`` may not increase at all. Simulated counts and stats
digests must be identical across every file. Per-layer shares and self
times (traced reports) are printed side by side without a verdict.
Exit status: 1 on any ``worse`` verdict or simulated difference, 2 on
usage errors, else 0.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

from run import MODEL_COUNTS, quartiles

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_bounds(path: pathlib.Path = ROOT / "BENCHMARK.json") -> dict:
    """End-to-end metric -> ``(better, bound)`` from the benchmark file."""
    spec = json.loads(path.read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def verdict(a: list, b: list, better: str, bound: float) -> str:
    """The guide's rule for one metric on one workload."""
    sign = 1 if better == "lower" else -1
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa["median"], qb["median"]
    iqr_a = qa["q3"] - qa["q1"]
    b_wins_all = all(sign * (y - x) < 0 for x in a for y in b)
    if iqr_a > bound * abs(med_a):
        return "better" if b_wins_all else "unresolved"
    if sign * (med_b - med_a) > bound * abs(med_a):
        return "worse"
    wins = sum(sign * (y - x) < 0 for x in a for y in b)
    if (wins >= 0.9 * len(a) * len(b) and sign * (med_b - med_a) < 0
            and abs(med_b - med_a) > iqr_a):
        return "better"
    return "unchanged"


def simulated(report: dict, workload: str) -> dict:
    """What must repeat exactly: the digest and every simulated count."""
    summary = report["workloads"][workload]
    values = {"digest": summary["digest"]}
    for name in MODEL_COUNTS:
        if name in summary["metrics"]:
            values[name] = summary["metrics"][name]["value"]
    return values


def compare(side_a: list, side_b: list, bounds: dict) -> dict:
    """Per-workload verdicts, layer medians and simulated checks."""
    workloads = [w for w in side_a[0]["workloads"]
                 if all(w in r["workloads"] for r in side_a + side_b)]
    result = {"workloads": {}, "regression": False}
    for workload in workloads:
        def values(side, name):
            return [r["workloads"][workload]["metrics"][name]["value"]
                    for r in side
                    if name in r["workloads"][workload]["metrics"]]

        rows = {}
        for name, (better, bound) in bounds.items():
            a, b = values(side_a, name), values(side_b, name)
            if not a or not b:
                continue
            rows[name] = {"a": quartiles(a), "b": quartiles(b),
                          "verdict": verdict(a, b, better, bound)}
        fa = [r["workloads"][workload]["failed_frac"] for r in side_a]
        fb = [r["workloads"][workload]["failed_frac"] for r in side_b]
        rows["failed_frac"] = {
            "a": quartiles(fa), "b": quartiles(fb),
            "verdict": "worse" if max(fb) > max(fa) else "unchanged"}

        layers = {}
        for name in side_a[0]["workloads"][workload]["metrics"]:
            if name.endswith((".share", ".self_s")):
                a, b = values(side_a, name), values(side_b, name)
                if a and b:
                    layers[name] = {"a": statistics.median(a),
                                    "b": statistics.median(b)}

        sims = [simulated(r, workload) for r in side_a + side_b]
        differing = sorted({k for s in sims for k in s
                            if any(t.get(k) != s.get(k) for t in sims)})
        result["workloads"][workload] = {
            "end_to_end": rows, "layers": layers,
            "simulated": sims[0], "simulated_differs": differing,
        }
        if differing or any(r["verdict"] == "worse" for r in rows.values()):
            result["regression"] = True
    return result


def print_result(result: dict) -> None:
    for workload, entry in result["workloads"].items():
        print(f"== {workload}")
        print(f"  {'metric':20s} {'A median':>11s} {'[q1, q3]':>23s} "
              f"{'B median':>11s} {'[q1, q3]':>23s}  verdict")
        for name, row in entry["end_to_end"].items():
            a, b = row["a"], row["b"]
            print(f"  {name:20s} {a['median']:11.5g} "
                  f"[{a['q1']:10.5g}, {a['q3']:10.5g}] {b['median']:11.5g} "
                  f"[{b['q1']:10.5g}, {b['q3']:10.5g}]  {row['verdict']}"
                  f"  (n {a['n']}/{b['n']})")
        for name, row in entry["layers"].items():
            print(f"  {name:34s} {row['a']:10.4g} -> {row['b']:10.4g}")
        if entry["simulated_differs"]:
            print("  SIMULATED RESULTS DIFFER: "
                  + ", ".join(entry["simulated_differs"]))
        else:
            print(f"  simulated counts and digest identical "
                  f"(digest {entry['simulated']['digest']})")


def main(argv: "list | None" = None) -> int:
    parser = argparse.ArgumentParser(
        usage="compare.py A.json... -- B.json... [--json PATH]",
        description="Compare benchmark reports of a parent (A) and a "
                    "change (B).")
    parser.add_argument("--json", metavar="PATH",
                        help="write the comparison here")
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv.count("--") != 1:
        parser.error("separate the two sides with --")
    cut = argv.index("--")
    args, paths_a = parser.parse_known_args(argv[:cut])
    more, paths_b = parser.parse_known_args(argv[cut + 1:])
    args.json = more.json or args.json
    if not paths_a or not paths_b:
        parser.error("each side needs at least one report")
    if any(p.startswith("-") for p in paths_a + paths_b):
        parser.error("unknown option among the reports")
    try:
        side_a = [json.loads(pathlib.Path(p).read_text()) for p in paths_a]
        side_b = [json.loads(pathlib.Path(p).read_text()) for p in paths_b]
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read report: {exc}")
    result = compare(side_a, side_b, load_bounds())
    print_result(result)
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(result, indent=1))
    return 1 if result["regression"] else 0


if __name__ == "__main__":
    sys.exit(main())
