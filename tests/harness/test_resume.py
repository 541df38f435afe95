"""Serving stored experiments, one execution per failure, orphan
reaping."""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.errors import SweepInterrupted
from repro.harness import resultcache, runner
from repro.harness.resultcache import ResultCache
from repro.harness.runner import failed, run_many
from repro.store.chaos import CHAOS_ENV

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")


def install_fakes(monkeypatch, log_path, spec):
    """Replace the experiment registry with logging fakes.

    ``spec`` maps name -> callable or None (None = succeed). Every
    execution appends the experiment name to ``log_path`` — an on-disk
    side effect, so executions inside forked workers are counted too.
    """
    registry = {}
    for name, behaviour in spec.items():
        def fake(name=name, behaviour=behaviour):
            with open(log_path, "a") as handle:
                handle.write(name + "\n")
            if behaviour is not None:
                behaviour()
            return {"text": f"{name} output", "value": len(name)}
        registry[name] = fake
    monkeypatch.setattr(runner, "EXPERIMENTS", registry)


def executions(log_path):
    try:
        with open(log_path) as handle:
            return [line.strip() for line in handle if line.strip()]
    except OSError:
        return []


class TestResume:
    """A rerun with the same cache directory serves what is stored."""

    def test_completed_sweep_resumes_as_pure_replay(self, tmp_path,
                                                    monkeypatch):
        log = tmp_path / "log"
        cache = str(tmp_path / "cache")
        install_fakes(monkeypatch, log, {"expa": None, "expb": None})
        first, _ = run_many(["expa", "expb"], cache_dir=cache)
        assert executions(log) == ["expa", "expb"]
        served, timings = run_many(["expa", "expb"], cache_dir=cache)
        assert executions(log) == ["expa", "expb"]  # nothing re-ran
        assert served == first
        assert timings == {"expa": 0.0, "expb": 0.0}

    def test_isolated_resume_counts_via_disk(self, tmp_path,
                                             monkeypatch):
        """Fork-based workers re-execute nothing on a rerun either."""
        log = tmp_path / "log"
        cache = str(tmp_path / "cache")
        install_fakes(monkeypatch, log, {"expa": None, "expb": None})
        first, _ = run_many(["expa", "expb"], jobs=2, cache_dir=cache)
        ran = executions(log)
        assert sorted(ran) == ["expa", "expb"]
        served, timings = run_many(["expa", "expb"], jobs=2,
                                   cache_dir=cache)
        assert executions(log) == ran
        assert served == first
        assert timings == {"expa": 0.0, "expb": 0.0}

    def test_interrupted_sweep_resumes_where_it_left_off(
            self, tmp_path, monkeypatch):
        log = tmp_path / "log"
        cache = str(tmp_path / "cache")

        def interrupt():
            raise KeyboardInterrupt

        install_fakes(monkeypatch, log,
                      {"expa": None, "expb": interrupt, "expc": None})
        with pytest.raises(SweepInterrupted) as info:
            run_many(["expa", "expb", "expc"], cache_dir=cache)
        assert "rerun to continue" in str(info.value)
        assert "text" in info.value.results["expa"]
        # Heal expb and rerun: expa must be served, not re-executed.
        install_fakes(monkeypatch, log,
                      {"expa": None, "expb": None, "expc": None})
        results, timings = run_many(["expa", "expb", "expc"],
                                    cache_dir=cache)
        assert executions(log) == ["expa", "expb", "expb", "expc"]
        assert all("text" in results[n] for n in ("expa", "expb", "expc"))
        assert timings["expa"] == 0.0

    def test_stale_journal_restarted_not_served(self, tmp_path,
                                                monkeypatch):
        """A result stored under another REPRO_SCALE is not served."""
        log = tmp_path / "log"
        cache = str(tmp_path / "cache")
        install_fakes(monkeypatch, log, {"expa": None})
        monkeypatch.setenv("REPRO_SCALE", "small")
        run_many(["expa"], cache_dir=cache)
        monkeypatch.setenv("REPRO_SCALE", "medium")
        run_many(["expa"], cache_dir=cache)
        assert executions(log) == ["expa", "expa"]
        # Each scale keeps its own entry: both are served from now on.
        run_many(["expa"], cache_dir=cache)
        monkeypatch.setenv("REPRO_SCALE", "small")
        run_many(["expa"], cache_dir=cache)
        assert executions(log) == ["expa", "expa"]

    def test_result_from_other_code_not_served(self, tmp_path,
                                               monkeypatch):
        log = tmp_path / "log"
        cache = str(tmp_path / "cache")
        install_fakes(monkeypatch, log, {"expa": None})
        run_many(["expa"], cache_dir=cache)
        monkeypatch.setattr(resultcache, "code_fingerprint",
                            lambda: "edited source tree")
        run_many(["expa"], cache_dir=cache)
        assert executions(log) == ["expa", "expa"]

    def test_failed_experiments_are_retried_on_resume(self, tmp_path,
                                                      monkeypatch):
        """Only completions are stored; failures run again."""
        log = tmp_path / "log"
        cache = str(tmp_path / "cache")

        def boom():
            raise ValueError("deterministic failure")

        install_fakes(monkeypatch, log, {"expa": None, "expb": boom})
        results, _ = run_many(["expa", "expb"], cache_dir=cache)
        assert failed(results["expb"])
        install_fakes(monkeypatch, log, {"expa": None, "expb": None})
        results, _ = run_many(["expa", "expb"], cache_dir=cache)
        assert executions(log) == ["expa", "expb", "expb"]
        assert "text" in results["expb"]

    def test_trace_always_runs(self, tmp_path, monkeypatch):
        log = tmp_path / "log"
        cache = str(tmp_path / "cache")
        install_fakes(monkeypatch, log, {"trace": None, "expa": None})
        for _ in range(2):
            run_many(["trace", "expa"], cache_dir=cache)
        assert executions(log) == ["trace", "expa", "trace"]
        assert runner.ALWAYS_RUN == ("trace",)

    def test_no_cache_serves_nothing(self, tmp_path, monkeypatch):
        log = tmp_path / "log"
        install_fakes(monkeypatch, log, {"expa": None})
        run_many(["expa"], cache_dir=str(tmp_path / "cache"))
        for jobs in (1, 2):
            run_many(["expa"], jobs=jobs)
        assert executions(log) == ["expa"] * 3

    def test_cleared_cache_executes_again(self, tmp_path, monkeypatch):
        log = tmp_path / "log"
        cache = str(tmp_path / "cache")
        install_fakes(monkeypatch, log, {"expa": None})
        run_many(["expa"], cache_dir=cache)
        assert ResultCache(cache).clear() == 1
        run_many(["expa"], cache_dir=cache)
        assert executions(log) == ["expa", "expa"]

    def test_unpicklable_result_is_not_stored(self, tmp_path,
                                              monkeypatch):
        log = tmp_path / "log"
        cache = str(tmp_path / "cache")

        def unpicklable():
            with open(log, "a") as handle:
                handle.write("expa\n")
            return {"text": "expa output", "callback": lambda: None}

        monkeypatch.setattr(runner, "EXPERIMENTS", {"expa": unpicklable})
        for _ in range(2):
            results, _ = run_many(["expa"], cache_dir=cache)
            assert results["expa"]["text"] == "expa output"
        assert executions(log) == ["expa", "expa"]
        assert ResultCache(cache).stats()["entries"] == 0

    def test_torn_entry_quarantined_and_recomputed(self, tmp_path,
                                                   monkeypatch):
        log = tmp_path / "log"
        cache = str(tmp_path / "cache")
        install_fakes(monkeypatch, log, {"expa": None})
        monkeypatch.setenv(CHAOS_ENV, "seed=3,torn=1.0")
        first, _ = run_many(["expa"], cache_dir=cache)
        monkeypatch.delenv(CHAOS_ENV)
        again, _ = run_many(["expa"], cache_dir=cache)
        assert executions(log) == ["expa", "expa"]
        assert again == first
        assert ResultCache(cache).quarantine_count() == 1
        # The recomputed result was stored whole: now it is served.
        run_many(["expa"], cache_dir=cache)
        assert executions(log) == ["expa", "expa"]


class TestExperimentKey:
    """What may and may not change a stored experiment's key."""

    def key(self, tmp_path, name="fig11"):
        return ResultCache(str(tmp_path)).experiment_key(name)

    def test_changes_with_code_fingerprint(self, tmp_path, monkeypatch):
        before = self.key(tmp_path)
        monkeypatch.setattr(resultcache, "code_fingerprint",
                            lambda: "other source tree")
        assert self.key(tmp_path) != before

    def test_changes_with_name(self, tmp_path):
        assert self.key(tmp_path, "fig11") != self.key(tmp_path, "fig12")

    @pytest.mark.parametrize("variable, value", [
        ("REPRO_SCALE", "medium"),
        ("REPRO_FAULTS", "seed=7,srf=24"),
        ("REPRO_TRACE", "metrics=2"),
    ])
    def test_changes_with_result_affecting_overlay(
            self, tmp_path, monkeypatch, variable, value):
        monkeypatch.delenv(variable, raising=False)
        before = self.key(tmp_path)
        monkeypatch.setenv(variable, value)
        assert self.key(tmp_path) != before

    @pytest.mark.parametrize("variable, value", [
        ("REPRO_CACHE_DIR", "/elsewhere"),
        (CHAOS_ENV, "seed=3,torn=1.0"),
    ])
    def test_ignores_other_overlays(self, tmp_path, monkeypatch,
                                    variable, value):
        monkeypatch.delenv(variable, raising=False)
        before = self.key(tmp_path)
        monkeypatch.setenv(variable, value)
        assert self.key(tmp_path) == before


class TestOneExecutionPerFailure:
    """A failure is recorded after one execution; a rerun retries it."""

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("error", [ValueError, OSError, RuntimeError])
    def test_failure_recorded_after_one_execution(self, tmp_path,
                                                  monkeypatch, jobs,
                                                  error):
        log = tmp_path / "log"

        def boom():
            raise error("boom")

        install_fakes(monkeypatch, log, {"expa": boom})
        results, _ = run_many(["expa"], jobs=jobs)
        assert results["expa"] == {"status": "failed",
                                   "error": f"{error.__name__}: boom"}
        assert executions(log) == ["expa"]

    def test_hung_experiment_is_launched_once(self, tmp_path,
                                              monkeypatch):
        log = tmp_path / "log"
        install_fakes(monkeypatch, log,
                      {"expa": lambda: time.sleep(3600)})
        results, _ = run_many(["expa"], timeout=1.0)
        assert results["expa"] == {"status": "failed",
                                   "error": "timed out after 1s"}
        assert executions(log) == ["expa"]


class TestOrphanReaping:
    """Satellite regression: draining a sweep leaves no processes.

    The parent receives SIGTERM mid-sweep; workers — and the
    grandchildren they spawned — must all be gone afterwards. Checked
    via a marker environment variable scanned in ``/proc/*/environ``
    (no psutil available, none needed).
    """

    SCRIPT = textwrap.dedent("""
        import subprocess, sys, time
        sys.path.insert(0, sys.argv[1])
        from repro.harness import runner

        def spawner():
            subprocess.Popen(["sleep", "300"])  # a grandchild
            time.sleep(300)
            return {"text": "unreachable"}

        runner.EXPERIMENTS = {"spawna": spawner, "spawnb": spawner}
        print("ready", flush=True)
        try:
            runner.run_many(["spawna", "spawnb"], jobs=2)
        except BaseException as exc:
            print(f"drained: {type(exc).__name__}", flush=True)
    """)

    @staticmethod
    def marked_pids(token):
        needle = f"REPRO_ORPHAN_MARK={token}".encode()
        found = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/environ", "rb") as handle:
                    if needle in handle.read():
                        found.append(int(entry))
            except OSError:
                continue
        return found

    def test_sigterm_drain_leaves_no_orphans(self, tmp_path):
        token = f"orphan-test-{os.getpid()}-{time.time_ns()}"
        env = dict(os.environ)
        env["REPRO_ORPHAN_MARK"] = token
        proc = subprocess.Popen(
            [sys.executable, "-c", self.SCRIPT, SRC],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "ready"
            # Let both workers start and spawn their grandchildren.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if len(self.marked_pids(token)) >= 3:  # parent + workers
                    break
                time.sleep(0.05)
            time.sleep(0.3)
            proc.send_signal(signal.SIGTERM)
            assert "drained: SweepInterrupted" in proc.stdout.read()
            proc.wait(timeout=15)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        # Everything carrying the marker must exit promptly.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if not self.marked_pids(token):
                return
            time.sleep(0.1)
        leftover = self.marked_pids(token)
        for pid in leftover:  # clean up before failing loudly
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        pytest.fail(f"orphan processes survived the drain: {leftover}")
