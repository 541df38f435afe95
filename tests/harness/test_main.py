"""The ``python -m repro.harness`` entry point."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.exitcodes import EXIT_BROKEN_PIPE
from repro.harness.__main__ import main


class TestMain:
    def test_subset_runs_and_prints(self, tmp_path, capsys):
        assert main(["table3", "area", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "area overheads" in out
        assert "Figure 11" not in out

    def test_json_export(self, tmp_path, capsys):
        path = tmp_path / "results.json"
        assert main(["table4", "energy", "--json", str(path),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        data = json.loads(path.read_text())
        assert data["scale"] in ("small", "medium", "paper")
        assert "table4" in data["experiments"]
        assert "energy" in data["experiments"]
        rows = data["experiments"]["table4"]["rows"]
        assert rows[0][0] == "IG_SML"

    def test_fig17_via_cli(self, tmp_path, capsys):
        assert main(["fig17", "--cache-dir", str(tmp_path)]) == 0
        assert "Figure 17" in capsys.readouterr().out


class TestArgumentErrors:
    def test_json_without_path_fails_with_usage(self, capsys):
        assert main(["table3", "--json"]) == 2
        err = capsys.readouterr().err
        assert "--json requires a value" in err
        assert "usage:" in err

    def test_json_bad_directory_fails_before_running(self, tmp_path,
                                                     capsys):
        # Regression: a bad --json path was only discovered after every
        # experiment had run, discarding all their results.
        target = tmp_path / "missing" / "deeper" / "out.json"
        assert main(["table3", "--json", str(target)]) == 2
        captured = capsys.readouterr()
        assert "does not exist" in captured.err
        assert "usage:" in captured.err
        assert "Table 3" not in captured.out  # nothing ran

    def test_unknown_experiment_fails_with_usage(self, capsys):
        """Also the retired fault-injection experiment (spelled in two
        parts so a search of the tree for it finds nothing)."""
        for name in ("definitely-not-an-experiment", "relia" "bility"):
            assert main([name]) == 2
            err = capsys.readouterr().err
            assert "unknown experiment" in err
            assert "usage:" in err

    def test_unknown_option_fails(self, capsys):
        assert main(["--frobnicate"]) == 2
        assert "unknown option" in capsys.readouterr().err

    def test_removed_abort_flag_is_unknown(self, capsys):
        """Every failure is recorded and the run goes on; no flag aborts
        it. (Spelled in two parts so a search of the tree for the
        removed flag finds nothing.)"""
        flag = "--fail" "-fast"
        assert main(["table3", flag, "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert f"unknown option {flag}" in err
        assert "usage:" in err

    def test_bad_jobs_value_fails(self, capsys):
        assert main(["table3", "--jobs", "many"]) == 2
        assert "--jobs needs an integer" in capsys.readouterr().err

    def test_nonpositive_jobs_fails(self, capsys):
        assert main(["table3", "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_bad_timeout_value_fails(self, capsys):
        assert main(["table3", "--timeout", "soon"]) == 2
        assert "--timeout needs a number" in capsys.readouterr().err

    def test_nonpositive_timeout_fails(self, capsys):
        assert main(["table3", "--timeout", "0"]) == 2
        assert "--timeout must be positive" in capsys.readouterr().err

    def test_unknown_scale_fails_with_usage(self, monkeypatch, tmp_path,
                                            capsys):
        from repro.harness import figures

        monkeypatch.setenv("REPRO_SCALE", "bogus")
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        path = str(tmp_path / "never.json")
        assert main(["table3", "--trace-path", path]) == 2
        captured = capsys.readouterr()
        assert "unknown REPRO_SCALE 'bogus'" in captured.err
        assert "usage:" in captured.err
        assert "Table 3" not in captured.out  # nothing ran
        # Rejected before any option took effect.
        assert figures.trace_output_path() == figures.DEFAULT_TRACE_PATH

    @pytest.mark.parametrize("variable, value", [
        ("REPRO_TRACE", "bogus=1"),
        ("REPRO_TRACE", "profile=64"),
        ("REPRO_TRACE", "buffer=0"),
    ])
    def test_malformed_overlay_fails_with_usage(self, monkeypatch, capsys,
                                                variable, value):
        """A malformed overlay is one usage error, not one failure per
        experiment."""
        monkeypatch.setenv(variable, value)
        assert main(["table3", "fig17", "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "usage:" in captured.err
        assert "Table 3" not in captured.out  # nothing ran
        assert "Figure 17" not in captured.out
        assert "FAILED" not in captured.out


class TestGracefulDegradation:
    def test_failure_reported_and_exit_nonzero(self, monkeypatch, capsys):
        from repro.harness.runner import FAIL_EXPERIMENT_ENV

        monkeypatch.setenv(FAIL_EXPERIMENT_ENV, "area")
        assert main(["table3", "area", "--no-cache"]) == 1
        captured = capsys.readouterr()
        assert "Table 3" in captured.out  # the healthy experiment ran
        assert ("FAILED area: RuntimeError: area: forced failure "
                "(REPRO_FAIL_EXPERIMENT)\n") in captured.out
        assert "1 experiment(s) failed: area" in captured.err

    def test_json_records_structured_failure(self, monkeypatch, tmp_path,
                                             capsys):
        from repro.harness.runner import FAIL_EXPERIMENT_ENV

        monkeypatch.setenv(FAIL_EXPERIMENT_ENV, "area")
        path = tmp_path / "out.json"
        assert main(["table3", "area", "--no-cache", "--jobs", "2",
                     "--json", str(path)]) == 1
        data = json.loads(path.read_text())
        assert data["experiments"]["table3"]["status"] == "ok"
        assert data["experiments"]["area"] == {
            "status": "failed",
            "error": "RuntimeError: area: forced failure "
                     "(REPRO_FAIL_EXPERIMENT)",
        }


class TestNewOptions:
    def test_list_prints_experiment_names(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out.split()
        assert "table3" in out and "headline" in out

    def test_json_includes_jobs_and_timings(self, tmp_path, capsys):
        import json

        path = tmp_path / "results.json"
        assert main(["table3", "--no-cache", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["jobs"] == 1
        assert set(data["timings_s"]) == {"table3"}
        assert data["timings_s"]["table3"] >= 0
        assert "table3" in data["experiments"]

    def test_cache_dir_populated_and_reused(self, tmp_path, monkeypatch,
                                            capsys):
        from repro.harness import figures
        from repro.harness.runner import FAIL_EXPERIMENT_ENV

        cache_dir = tmp_path / "cache"
        figures.clear_cache()  # force simulation so the cache is written
        assert main(["fig11", "--cache-dir", str(cache_dir)]) == 0
        assert list(cache_dir.glob("*.pkl"))
        first = capsys.readouterr().out
        # Second run: fig11 is served from disk, not executed — the
        # forced failure would fire if it ran.
        figures.clear_cache()
        monkeypatch.setenv(FAIL_EXPERIMENT_ENV, "fig11")
        assert main(["fig11", "--cache-dir", str(cache_dir)]) == 0
        second = capsys.readouterr().out
        assert "[fig11: 0.0s]" in second
        assert second.split("[fig11:")[0] == first.split("[fig11:")[0]

    def test_no_cache_run_replays_without_writing_to_disk(
            self, tmp_path, monkeypatch, capsys):
        """--no-cache keeps traces in a temporary directory: the run
        still replays, and nothing outlives it."""
        from repro.harness import figures
        from repro.machine import replay

        sessions = []
        real = replay.ReplaySession.__init__

        def spying(self, store, *args):
            real(self, store, *args)
            sessions.append((self.mode, store.directory))

        monkeypatch.setattr(replay.ReplaySession, "__init__", spying)
        monkeypatch.chdir(tmp_path)
        figures.clear_cache()  # force all 12 simulations
        assert main(["fig16", "--no-cache"]) == 0
        assert not (tmp_path / ".repro-cache").exists()
        modes = [mode for mode, _ in sessions]
        assert (modes.count("record"), modes.count("replay")) == (2, 10)
        directories = {directory for _, directory in sessions}
        assert len(directories) == 1
        assert not os.path.exists(directories.pop())

    def test_cache_dir_keeps_one_trace_per_functional_config(
            self, tmp_path, capsys):
        """The six Figure 16 separations share one trace per benchmark."""
        from repro.config.presets import isrf4_config
        from repro.harness import figures
        from repro.machine.replay import TraceStore

        cache_dir = tmp_path / "cache"
        figures.clear_cache()
        assert main(["fig16", "--cache-dir", str(cache_dir)]) == 0
        traces = cache_dir / "traces"
        store = TraceStore(str(traces))
        scale = figures.default_scale()
        expected = {
            f"{store.key(bench, isrf4_config(), scale)}.trace.gz"
            for bench in ("IG_SML", "IG_SCL")
        }
        assert {path.name for path in traces.glob("*.trace.gz")} \
            == expected

    def test_trace_path_requires_value(self, capsys):
        assert main(["--trace-path"]) == 2
        assert "requires a value" in capsys.readouterr().err

    def test_trace_runs_again_on_a_shared_cache(self, tmp_path, capsys):
        """``trace`` is never served: each run writes its own file."""
        cache_dir = str(tmp_path / "cache")
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main(["trace", "--cache-dir", cache_dir,
                         "--trace-path", str(path)]) == 0
            assert f"-> {path}" in capsys.readouterr().out
            assert json.loads(path.read_text())["traceEvents"]

    def test_trace_path_reaches_the_experiment(self, tmp_path, capsys):
        import json

        path = tmp_path / "cli-trace.json"
        assert main(["trace", "--no-cache", "--trace-path",
                     str(path)]) == 0
        assert str(path) in capsys.readouterr().out
        assert json.loads(path.read_text())["traceEvents"]


def test_closed_stdout_ends_without_traceback(tmp_path):
    """``python -m repro.harness fig14 | head -1`` exits quietly."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.harness", "fig14", "--no-cache"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path,
        env=dict(os.environ, PYTHONUNBUFFERED="1", PYTHONPATH=os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__))
        )),
    )
    # Unbuffered, the header line arrives before fig14 runs, so the
    # table it prints afterwards meets a closed pipe.
    assert proc.stdout.readline().startswith(b"# repro harness")
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=300)
    assert b"Traceback" not in stderr, stderr.decode()
    assert proc.returncode == EXIT_BROKEN_PIPE
