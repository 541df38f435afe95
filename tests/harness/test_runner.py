"""The experiment registry, parallel runner, and on-disk result cache."""

import dataclasses
import os

import pytest

from repro.config.machine import MachineConfig
from repro.config.presets import isrf4_config
from repro.harness import figures
from repro.harness.resultcache import ResultCache, config_fingerprint
from repro.harness.runner import (
    FAIL_EXPERIMENT_ENV,
    HANG_EXPERIMENT_ENV,
    ExperimentError,
    experiment_names,
    failed,
    run_experiment,
    run_many,
)


class TestRegistry:
    def test_names_in_report_order(self):
        names = experiment_names()
        assert names[0] == "check"  # the static-analysis gate runs first
        assert names[1] == "table3"
        assert names[-1] == "trace"
        assert "headline" in names
        assert "fig11" in names and "fig18" in names

    def test_run_experiment_returns_result_dict(self):
        result = run_experiment("table3")
        assert "text" in result

    def test_unknown_experiment_raises(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("nope")


class TestRunMany:
    def test_serial_run_returns_results_and_timings(self):
        results, timings = run_many(["area", "table3"])
        assert list(results) == ["area", "table3"]
        assert set(timings) == {"area", "table3"}
        assert all(t >= 0 for t in timings.values())
        assert "text" in results["area"]

    def test_unknown_name_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown experiments: nope"):
            run_many(["table3", "nope"])

    def test_parallel_run_matches_serial(self):
        serial, _ = run_many(["table3", "area"], jobs=1)
        parallel, timings = run_many(["table3", "area"], jobs=2)
        assert list(parallel) == ["table3", "area"]
        assert parallel["table3"]["text"] == serial["table3"]["text"]
        assert parallel["area"]["text"] == serial["area"]["text"]
        assert set(timings) == {"table3", "area"}


class TestGracefulDegradation:
    def test_serial_failure_keeps_other_results(self, monkeypatch):
        monkeypatch.setenv(FAIL_EXPERIMENT_ENV, "area")
        results, timings = run_many(["table3", "area"])
        assert "text" in results["table3"]
        assert failed(results["area"])
        assert results["area"]["attempts"] == 1
        assert "forced failure" in results["area"]["error"]
        assert set(timings) == {"table3", "area"}

    def test_serial_fail_fast_raises(self, monkeypatch):
        monkeypatch.setenv(FAIL_EXPERIMENT_ENV, "table3")
        with pytest.raises(ExperimentError, match="table3"):
            run_many(["table3", "area"], fail_fast=True)

    def test_isolated_failure_is_retried_then_recorded(self, monkeypatch):
        monkeypatch.setenv(FAIL_EXPERIMENT_ENV, "area")
        results, _ = run_many(["table3", "area"], jobs=2)
        assert "text" in results["table3"]
        assert failed(results["area"])
        assert results["area"]["attempts"] == 2

    def test_worker_crash_is_isolated(self, monkeypatch):
        # A worker dying outright (not an exception it can report) must
        # still leave the other experiments' results intact.
        monkeypatch.setenv(FAIL_EXPERIMENT_ENV, "area")
        monkeypatch.setattr(
            "repro.harness.runner._apply_test_hooks",
            lambda name: name == "area" and os._exit(17),
        )
        results, _ = run_many(["table3", "area"], jobs=2)
        assert "text" in results["table3"]
        assert failed(results["area"])
        assert "worker crashed" in results["area"]["error"]

    def test_hang_is_killed_by_timeout(self, monkeypatch):
        monkeypatch.setenv(HANG_EXPERIMENT_ENV, "area")
        results, _ = run_many(["table3", "area"], jobs=2, timeout=1.0)
        assert "text" in results["table3"]
        assert failed(results["area"])
        assert "timed out" in results["area"]["error"]
        assert results["area"]["attempts"] == 2

    def test_isolated_fail_fast_raises(self, monkeypatch):
        monkeypatch.setenv(FAIL_EXPERIMENT_ENV, "table3")
        with pytest.raises(ExperimentError, match="table3"):
            run_many(["table3", "area"], jobs=2, fail_fast=True)

    def test_crashed_workers_staged_trace_is_swept(self, monkeypatch,
                                                   tmp_path):
        # A worker that dies mid-export leaves <out>.<exp>.trace.tmp in
        # the cache dir; the runner must sweep exactly the failed
        # experiment's leftovers and spare everyone else's.
        from repro.observe import STAGING_SUFFIX

        orphan = tmp_path / f"out.json.area{STAGING_SUFFIX}"
        other = tmp_path / f"out.json.table3{STAGING_SUFFIX}"
        orphan.write_text("partial")
        other.write_text("partial")
        monkeypatch.setenv(FAIL_EXPERIMENT_ENV, "area")
        results, _ = run_many(["table3", "area"], jobs=2,
                              cache_dir=str(tmp_path))
        assert failed(results["area"])
        assert not orphan.exists()
        assert other.exists()

    def test_staged_trace_swept_without_cache_dir(self, monkeypatch,
                                                  tmp_path):
        # Regression: the sweep only ran when a cache directory was
        # configured, but under --no-cache the trace experiment stages
        # next to its output file — a crashed worker's leftovers were
        # never cleaned up there.
        from repro.observe import STAGING_SUFFIX

        monkeypatch.setattr(figures, "_trace_path",
                            str(tmp_path / "out.json"))
        orphan = tmp_path / f"out.json.area{STAGING_SUFFIX}"
        other = tmp_path / f"out.json.table3{STAGING_SUFFIX}"
        orphan.write_text("partial")
        other.write_text("partial")
        monkeypatch.setenv(FAIL_EXPERIMENT_ENV, "area")
        results, _ = run_many(["area"], jobs=2, cache_dir=None)
        assert failed(results["area"])
        assert not orphan.exists()
        assert other.exists()  # only the failed experiment's are swept

    def test_serial_fail_fast_carries_consistent_results(self,
                                                         monkeypatch):
        # Regression: the serial runner raised before recording the
        # failing experiment's timing, so results and timings disagreed.
        monkeypatch.setenv(FAIL_EXPERIMENT_ENV, "area")
        with pytest.raises(ExperimentError) as info:
            run_many(["table3", "area"], fail_fast=True)
        exc = info.value
        assert exc.experiment == "area"
        assert "text" in exc.results["table3"]
        assert failed(exc.results["area"])
        assert set(exc.timings) == set(exc.results)
        assert all(t >= 0 for t in exc.timings.values())

    def test_isolated_fail_fast_carries_consistent_results(self,
                                                           monkeypatch):
        monkeypatch.setenv(FAIL_EXPERIMENT_ENV, "area")
        with pytest.raises(ExperimentError) as info:
            run_many(["table3", "area"], jobs=2, fail_fast=True)
        exc = info.value
        assert failed(exc.results["area"])
        assert set(exc.timings) == set(exc.results)
        assert "area" in exc.timings

    def test_failed_predicate(self):
        assert failed({"status": "failed", "error": "x", "attempts": 2})
        assert not failed({"text": "fine"})
        assert not failed("not even a dict")


class TestCodeFingerprintMemo:
    def test_second_cache_does_no_source_tree_io(self, monkeypatch,
                                                 tmp_path):
        # Regression: every ResultCache() re-walked and re-hashed the
        # whole source tree — per worker process, per experiment. The
        # fingerprint is memoized per process now.
        from repro import fingerprint

        first = fingerprint.code_fingerprint()  # warm the memo

        def boom(*_args, **_kwargs):
            raise AssertionError("re-walked the source tree")

        monkeypatch.setattr(fingerprint, "_compute_code_fingerprint", boom)
        assert fingerprint.code_fingerprint() == first
        cache = ResultCache(str(tmp_path))  # would raise without the memo
        assert cache.key("a", isrf4_config(), "small")


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        config = isrf4_config()
        assert cache.get("FFT 2D", config, "small") is None
        payload = {"anything": "picklable"}
        cache.put("FFT 2D", config, "small", payload)
        assert cache.get("FFT 2D", config, "small") == payload

    def test_key_distinguishes_config_and_scale(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = isrf4_config()
        assert cache.key("a", config, "small") != cache.key("a", config,
                                                            "medium")
        assert cache.key("a", config, "small") != cache.key("b", config,
                                                            "small")
        variant = config.replace(fast_forward=False)
        assert cache.key("a", config, "small") != cache.key("a", variant,
                                                            "small")
        sanitized = config.replace(sanitize=True)
        assert cache.key("a", config, "small") != cache.key("a", sanitized,
                                                            "small")

    def test_key_sees_repr_hidden_fields(self, tmp_path):
        """Regression: keys were built from ``repr(config)``, which
        silently drops any field declared with ``repr=False`` — two
        different configs aliased to the same cache entry. The key must
        fingerprint every dataclass field."""

        @dataclasses.dataclass(frozen=True)
        class HiddenKnobConfig(MachineConfig):
            hidden_knob: int = dataclasses.field(default=0, repr=False)

        plain = HiddenKnobConfig()
        knobbed = HiddenKnobConfig(hidden_knob=1)
        assert repr(plain) == repr(knobbed)  # repr cannot tell them apart
        assert config_fingerprint(plain) != config_fingerprint(knobbed)
        cache = ResultCache(str(tmp_path))
        assert (cache.key("a", plain, "small")
                != cache.key("a", knobbed, "small"))

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = isrf4_config()
        cache.put("x", config, "small", [1, 2, 3])
        path = cache._path(cache.key("x", config, "small"))
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert cache.get("x", config, "small") is None

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = isrf4_config()
        cache.put("x", config, "small", 1)
        cache.put("y", config, "small", 2)
        assert cache.clear() == 2
        assert cache.get("x", config, "small") is None

    def test_unpicklable_result_leaves_no_temp_file(self, tmp_path):
        # Regression: a pickling failure used to leak the .tmp file.
        cache = ResultCache(str(tmp_path))
        config = isrf4_config()
        cache.put("x", config, "small", lambda: None)  # unpicklable
        assert not list(tmp_path.glob("*.tmp"))
        assert not list(tmp_path.glob("*.pkl"))
        assert cache.get("x", config, "small") is None

    def test_corrupt_entry_is_quarantined_not_reparsed(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = isrf4_config()
        cache.put("x", config, "small", [1])
        path = cache._path(cache.key("x", config, "small"))
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        assert cache.get("x", config, "small") is None
        assert not os.path.exists(path)  # moved aside, not left in place
        assert os.path.exists(path + ".bad")
        # A later put recreates the entry cleanly.
        cache.put("x", config, "small", [2])
        assert cache.get("x", config, "small") == [2]

    def test_clear_counts_only_real_entries(self, tmp_path):
        # Regression: leftover .tmp files used to inflate the count.
        cache = ResultCache(str(tmp_path))
        config = isrf4_config()
        cache.put("x", config, "small", 1)
        (tmp_path / "leftover.tmp").write_bytes(b"")
        (tmp_path / "stale.pkl.bad").write_bytes(b"garbage")
        assert cache.clear() == 1
        # Debris is deleted regardless: nothing is left behind.
        assert list(tmp_path.iterdir()) == []

    def test_run_benchmark_uses_installed_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        figures.set_result_cache(cache)
        try:
            config = isrf4_config()
            figures.clear_cache()
            first = figures.run_benchmark("FFT 2D", config, "small")
            # A fresh in-memory cache must hit the disk entry and return
            # an equal (deserialised) result without re-simulating.
            figures.clear_cache()
            second = figures.run_benchmark("FFT 2D", config, "small")
            assert second.stats == first.stats
            assert cache.get("FFT 2D", config, "small") is not None
        finally:
            figures.set_result_cache(None)
            figures.clear_cache()
