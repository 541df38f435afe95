"""Tests of the benchmark itself: ``python -m pytest bench -q``.

They drive the runner with tiny point lists, so the whole file takes
seconds, not the minutes of a real benchmark run.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import points  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

FFT = points.app_point("FFT 2D", "ISRF4", "fft")
MICRO = {"label": "micro", "preset": None, "config": {}, "bench": None,
         "call": "repro.apps.microbench:crosslane_random_read_throughput",
         "kwargs": {"cycles": 200}}
BAD = dict(FFT, label="bad", kwargs=dict(FFT["kwargs"], no_such_arg=1))


def sweep_points(timing_source: str) -> list:
    return [points.app_point("FFT 2D", "ISRF4", f"fft sep={sep}",
                             inlane_addr_data_separation=sep,
                             timing_source=timing_source)
            for sep in (2, 4)]


@pytest.fixture
def one_probe(monkeypatch):
    monkeypatch.setattr(run, "PROBES", 1)


def bench_run(tmp_path, runs, trace=0):
    run.run_workloads(runs, seed=0, seconds=1e-3, trace=trace,
                      workdir=str(tmp_path))
    return {r.name: run.summarize(r) for r in runs}


# -- layer attribution -------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


CLOCK = FakeClock()


class Outer:
    def run(self):
        CLOCK.now += 1.0
        Inner().work()
        Inner().work()
        CLOCK.now += 2.0


class Inner:
    def work(self):
        CLOCK.now += 0.5
        leaf()


def leaf():
    CLOCK.now += 0.25


def test_self_times_partition_nested_fake_layers():
    fake = {"outer": [(__name__, "Outer", "run")],
            "inner": [(__name__, "Inner", "work")],
            "leaf": [(__name__, None, "leaf")]}
    original = Inner.work
    tracer = layers.LayerTracer(fake, clock=CLOCK)
    with tracer.installed():
        assert Inner.work is not original
        Outer().run()
    assert Inner.work is original
    assert dict(tracer.self_s) == {"outer": 3.0, "inner": 1.0, "leaf": 0.5}
    assert tracer.layer_calls == {"outer": 1, "inner": 2, "leaf": 2}
    wall = CLOCK.now + 0.125  # time outside every span
    report = tracer.report(wall)
    assert report["self_s"][layers.REMAINDER] == pytest.approx(0.125)
    assert sum(report["self_s"].values()) == pytest.approx(wall)


def test_self_times_partition_real_points(tmp_path):
    prepared = [points.prepare(p, 0) for p in (FFT, MICRO)]
    tracer = layers.LayerTracer()
    with tracer.installed():
        reply = worker.run_pass(prepared, str(tmp_path),
                                calibrate.Probe(), tracer)
    assert all(r["error"] is None for r in reply["points"])
    self_s = reply["layers"]["self_s"]
    assert set(self_s) == set(layers.LAYER_NAMES)
    assert sum(self_s.values()) == pytest.approx(reply["wall_s"], abs=1e-3)
    assert all(v >= 0 for v in self_s.values())
    # The apps spans are the roots: all but the loop's own work is inside.
    inside = sum(v for k, v in self_s.items() if k != layers.REMAINDER)
    assert inside == pytest.approx(
        sum(r["seconds"] for r in reply["points"]), abs=5e-3)
    for layer in ("apps", "kernel.interpreter", "core.srf",
                  "memory.controller", "machine.processor"):
        assert self_s[layer] > 0, layer


# -- failures and hermetic runs ----------------------------------------
def test_failing_point_fails_the_run(tmp_path, one_probe, capsys):
    runs = [run.WorkloadRun("custom", [BAD, MICRO])]
    run.run_workloads(runs, seed=0, seconds=1e-3, trace=0,
                      workdir=str(tmp_path))
    assert run.finish(runs, 0, 1e-3, 0, None) == 1
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)
    summary = run.summarize(runs[0])
    assert summary["failed_frac"] == 0.5
    assert "no_such_arg" in summary["problems"][0]


def test_repro_env_does_not_reach_the_worker(tmp_path, one_probe,
                                             monkeypatch):
    def in_process_digest():
        outcome = points.run_point(points.prepare(FFT, 0), None)
        return points.outcome_digest(outcome)

    clean = in_process_digest()
    overlays = {"REPRO_BACKEND": "vector", "REPRO_SCALE": "paper",
                "REPRO_TRACE": "metrics=1"}
    for name, value in overlays.items():
        monkeypatch.setenv(name, value)
    # The overlays do change results when they reach the simulator ...
    assert in_process_digest() != clean
    # ... but not in the benchmark's workers.
    summary = bench_run(tmp_path, [run.WorkloadRun("custom", [FFT])])
    assert summary["custom"]["point_digests"] == {"fft": clean}


def test_replay_must_match_execute(tmp_path, one_probe):
    runs = [run.WorkloadRun("sep_sweep", sweep_points("execute")),
            run.WorkloadRun("sep_replay", sweep_points("replay"))]
    summaries = bench_run(tmp_path, runs)
    assert summaries["sep_replay"]["point_digests"] == (
        summaries["sep_sweep"]["point_digests"])
    assert run.replay_check(summaries) == []
    summaries["sep_replay"]["point_digests"]["fft sep=4"] = "0" * 64
    assert run.replay_check(summaries) == [
        "sep_replay: fft sep=4: replay digest differs from execute"]


def test_result_line_matches_benchmark_json(tmp_path, one_probe):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summaries = bench_run(
        tmp_path, [run.WorkloadRun("custom", [FFT, MICRO])], trace=None)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        line = run.result_line(summaries, trace, True)
        assert list(line["metrics"]) == [m["name"] for m in spec[key]]
        for m in spec[key]:
            entry = line["metrics"][m["name"]]
            assert entry["unit"] == m["unit"]
            assert isinstance(entry["value"], (int, float))
    assert all(line["metrics"][m["name"]]["value"] > 0
               for m in spec["end_to_end"]
               for line in [run.result_line(summaries, 0, True)])


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "srf_micro",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# -- compare.py --------------------------------------------------------
BOUNDS = {"wall_s": ("lower", 0.1), "sim_mcycles_per_s": ("higher", 0.1)}


@pytest.mark.parametrize("a, b, better, expected", [
    ([10.0, 10.1, 9.9, 10.0], [10.05, 9.95, 10.0, 10.1], "lower",
     "unchanged"),
    ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "lower", "worse"),
    ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "lower", "better"),
    ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "higher", "better"),
    # A's own spread exceeds the bound: only a clean sweep decides.
    ([8.0, 12.0, 9.0, 11.0], [12.5, 13.0, 12.6, 12.7], "lower",
     "unresolved"),
    ([8.0, 12.0, 9.0, 11.0], [7.0, 7.5, 7.2, 7.1], "lower", "better"),
    # Within the bound but winning too few pairs: not a gain.
    ([10.0, 10.1, 9.9, 10.0], [9.95, 10.05, 9.9, 10.0], "lower",
     "unchanged"),
])
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, 0.1) == expected


def fake_report(wall, cycles=1000, failed_frac=0.0, digest="d"):
    metrics = {"wall_s": {"value": wall, "unit": "s"},
               "sim_mcycles_per_s": {"value": cycles / wall / 1e6,
                                     "unit": "Mcycles/s"},
               "model.cycles": {"value": cycles, "unit": "cycles"},
               "core.srf.share": {"value": 0.4, "unit": "fraction"}}
    return {"workloads": {"w": {"metrics": metrics, "digest": digest,
                                "failed_frac": failed_frac}}}


def test_compare_flags_regressions_and_model_changes(tmp_path, capsys):
    a = [fake_report(w) for w in (10.0, 10.1, 9.9)]
    same = compare.compare(a, [fake_report(w) for w in (10.0, 10.05, 9.95)],
                           BOUNDS)
    assert not same["regression"]
    rows = same["workloads"]["w"]["end_to_end"]
    assert {r["verdict"] for r in rows.values()} == {"unchanged"}
    assert same["workloads"]["w"]["layers"]["core.srf.share"] == {
        "a": 0.4, "b": 0.4}

    slower = compare.compare(a, [fake_report(w) for w in (12.0, 12.1, 12.2)],
                             BOUNDS)
    assert slower["regression"]
    assert slower["workloads"]["w"]["end_to_end"]["wall_s"]["verdict"] == (
        "worse")

    failing = compare.compare(a, [fake_report(10.0, failed_frac=0.01)] * 3,
                              BOUNDS)
    assert failing["regression"]
    assert failing["workloads"]["w"]["end_to_end"]["failed_frac"][
        "verdict"] == "worse"

    remodelled = compare.compare(a, [fake_report(10.0, cycles=999)] * 3,
                                 BOUNDS)
    assert remodelled["regression"]
    assert remodelled["workloads"]["w"]["simulated_differs"] == [
        "model.cycles"]

    files = []
    for i, report in enumerate(a + [fake_report(10.0, digest="e")]):
        path = tmp_path / f"r{i}.json"
        path.write_text(json.dumps(report))
        files.append(str(path))
    assert compare.main(files[:2] + ["--"] + files[2:3]) == 0
    assert compare.main(files[:2] + ["--"] + files[3:]) == 1
    assert "SIMULATED RESULTS DIFFER: digest" in capsys.readouterr().out
    with pytest.raises(SystemExit) as usage:
        compare.main(files)
    assert usage.value.code == 2
