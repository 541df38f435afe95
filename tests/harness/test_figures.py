"""Harness experiment runners (the cheap, simulation-light ones)."""

import os

import pytest

from repro.harness import figures
from repro.harness.resultcache import ResultCache


class TestScales:
    def test_known_scales(self):
        for scale in ("small", "medium", "paper"):
            assert scale in figures.SCALES
        assert figures.SCALES["paper"]["fft_n"] == 64
        assert figures.SCALES["paper"]["sort_n"] == 4096
        assert figures.SCALES["paper"]["filter_size"] == (256, 256)

    def test_default_scale_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert figures.default_scale() == "small"
        monkeypatch.setenv("REPRO_SCALE", "medium")
        assert figures.default_scale() == "medium"
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            figures.default_scale()

    def test_unknown_benchmark_rejected(self):
        from repro.config import base_config

        with pytest.raises(ValueError):
            figures.run_benchmark("nope", base_config(), "small")


class TestStaticExperiments:
    def test_table3(self):
        result = figures.table3()
        assert len(result["rows"]) == 4
        assert "Table 3" in result["text"]

    def test_table4(self):
        result = figures.table4()
        names = [row[0] for row in result["rows"]]
        assert names == ["IG_SML", "IG_SCL", "IG_DMS", "IG_DCS"]

    def test_area_overheads(self):
        result = figures.area_overheads()
        assert 0.09 < result["overheads"]["ISRF1"] < 0.13

    def test_energy_table(self):
        result = figures.energy_table()
        assert "5.000" in result["text"]

    def test_figure14_shapes(self):
        result = figures.figure14(separations=(2, 6, 10))
        data = result["data"]
        assert data["Rijndael"][10] > data["Rijndael"][2]
        assert data["Filter"][10] == pytest.approx(data["Filter"][2])

    def test_figure17_small(self):
        result = figures.figure17(subarrays=(1, 4), fifo_sizes=(8,),
                                  cycles=400)
        assert result["data"][(4, 8)] > result["data"][(1, 8)]

    def test_figure18_small(self):
        result = figures.figure18(ports=(1, 2), occupancies=(0.0,),
                                  cycles=400)
        assert result["data"][(2, 0.0)] > result["data"][(1, 0.0)]


class TestBenchmarkCache:
    def test_run_benchmark_caches(self):
        from repro.config import isrf4_config

        figures.clear_cache()
        cfg = isrf4_config()
        first = figures.run_benchmark("Sort", cfg, "small")
        second = figures.run_benchmark("Sort", cfg, "small")
        assert first is second
        figures.clear_cache()


class TestTraceExperiment:
    def test_trace_writes_valid_chrome_json(self, tmp_path):
        import json

        from repro import observe

        path = tmp_path / "out.json"
        figures.set_trace_path(str(path))
        try:
            result = figures.trace()
        finally:
            figures.set_trace_path(None)
        assert result["trace_path"] == str(path)
        assert result["events"] > 0
        payload = json.loads(path.read_text())
        counts = observe.validate_chrome_trace(payload)
        assert counts["B"] > 0 and counts["B"] == counts["E"]
        # One table row per machine, with its exact cycle breakdown.
        labels = {row[0] for row in result["rows"]}
        assert labels == {"Base", "ISRF4"}
        assert all(row[1] > 0 for row in result["rows"])
        assert os.listdir(tmp_path) == ["out.json"]  # no staging file

    def test_trace_stages_next_to_its_target(self, tmp_path, monkeypatch):
        """The export is renamed within the target's directory, never
        from the result-cache directory: a rename cannot cross
        filesystems, and the cache and --trace-path may sit on two."""
        target = tmp_path / "out" / "trace.json"
        target.parent.mkdir()
        renames = []
        real_replace = os.replace

        def spy(source, destination):
            renames.append((str(source), str(destination)))
            real_replace(source, destination)

        monkeypatch.setattr(os, "replace", spy)
        figures.set_result_cache(ResultCache(str(tmp_path / "cache")))
        figures.set_trace_path(str(target))
        try:
            figures.trace()
        finally:
            figures.set_trace_path(None)
            figures.set_result_cache(None)
        staged = [source for source, destination in renames
                  if destination == str(target)]
        assert len(staged) == 1
        assert os.path.dirname(staged[0]) == str(target.parent)
        assert target.exists()

    def test_trace_rows_partition_their_cycles(self, tmp_path):
        """loop + srf stall + mem stall + overhead + idle == cycles,
        with no part negative: the table is exact, not sampled."""
        figures.set_trace_path(str(tmp_path / "out.json"))
        try:
            rows = figures.trace()["rows"]
        finally:
            figures.set_trace_path(None)
        for _config, cycles, *parts in rows:
            assert len(parts) == 5
            assert all(part >= 0 for part in parts)
            assert sum(parts) == cycles

    def test_trace_path_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert figures.trace_output_path() == figures.DEFAULT_TRACE_PATH
        monkeypatch.setenv("REPRO_TRACE", "path=env.json")
        assert figures.trace_output_path() == "env.json"
        figures.set_trace_path("cli.json")
        try:
            assert figures.trace_output_path() == "cli.json"
        finally:
            figures.set_trace_path(None)
