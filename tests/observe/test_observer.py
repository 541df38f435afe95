"""The env overlay, the processor's tracer hand-off, its metrics
snapshot, and the collect() hook."""

import dataclasses

import pytest

from repro.apps.fft import Fft2dBenchmark
from repro.apps.common import steady_state_run
from repro.config.presets import all_configs, base_config, isrf4_config
from repro.errors import ConfigurationError
from repro.machine.processor import StreamProcessor
from repro.observe import (
    Collection,
    Tracer,
    TRACE_ENV,
    collect,
    trace_overrides_from_env,
)
from repro.observe.events import RING_EVENTS


class TestEnvOverlay:
    def test_unset_or_empty_is_inert(self):
        assert trace_overrides_from_env({}) == {}
        assert trace_overrides_from_env({TRACE_ENV: "  "}) == {}

    @pytest.mark.parametrize("bare", ["1", "true", "ON", "Yes"])
    def test_bare_values_enable_tracing_only(self, bare):
        assert trace_overrides_from_env({TRACE_ENV: bare}) == {
            "trace": True
        }

    def test_full_spec_maps_to_config_fields(self):
        spec = {TRACE_ENV: "trace=1,metrics=2"}
        assert trace_overrides_from_env(spec) == {
            "trace": True,
            "metrics": True,
        }
        spec = {TRACE_ENV: "trace=0,metrics=1"}
        assert trace_overrides_from_env(spec) == {
            "trace": False,
            "metrics": True,
        }

    @pytest.mark.parametrize("bad", ["bogus", "trace", "trace=",
                                     "metrics=two", "nope=1",
                                     "profile=64", "buffer=64",
                                     "path=x.json"])
    def test_bad_entries_raise(self, bad):
        with pytest.raises(ConfigurationError):
            trace_overrides_from_env({TRACE_ENV: bad})

    def test_presets_pick_up_the_overlay(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, "trace=1,metrics=1")
        config = base_config()
        assert config.trace and config.metrics
        # Explicit overrides still win over the environment.
        assert base_config(metrics=False).metrics is False

    def test_bad_overlay_fails_preset_construction(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, "garbage")
        with pytest.raises(ConfigurationError):
            base_config()


class TestTracerHandOff:
    def test_untraced_machine_has_no_tracer(self):
        processor = StreamProcessor(base_config(metrics=True))
        assert processor.tracer is None
        assert processor.srf.tracer is None
        assert processor.controller.tracer is None

    def test_traced_machine_shares_one_tracer(self):
        config = isrf4_config(trace=True)
        processor = StreamProcessor(config)
        tracer = processor.tracer
        assert isinstance(tracer, Tracer)
        assert processor.srf.tracer is tracer
        assert processor.controller.tracer is tracer
        assert tracer.clock_hz == config.clock_hz
        assert tracer.capacity == RING_EVENTS


def component_stats(processor) -> dict:
    """``<component>.<field>`` over every component stats dataclass."""
    components = {
        "srf": processor.srf.stats,
        "address_network": processor.srf.address_network.stats,
        "return_network": processor.srf.return_network.stats,
        "memory": processor.controller.stats,
        "dram": processor.controller.dram.stats,
    }
    if processor.controller.cache is not None:
        components["cache"] = processor.controller.cache.stats
    return {
        f"{component}.{name}": value
        for component, stats in components.items()
        for name, value in dataclasses.asdict(stats).items()
    }


class TestMetricsSnapshot:
    @pytest.mark.parametrize("preset", sorted(all_configs()))
    def test_snapshot_is_the_component_stats(self, preset):
        config = all_configs()[preset].replace(metrics=True)
        bench = Fft2dBenchmark(config, n=16)
        stats = steady_state_run(bench.proc, bench.build_program)
        assert stats.metrics == component_stats(bench.proc)
        assert stats.metrics["srf.cycles"] == bench.proc.cycle
        assert (any(name.startswith("cache.") for name in stats.metrics)
                == config.has_cache)

    def test_default_run_has_no_metrics(self):
        bench = Fft2dBenchmark(base_config(), n=16)
        assert steady_state_run(bench.proc, bench.build_program).metrics == {}


class TestCollect:
    def test_processors_built_inside_collect_are_captured(self):
        with collect() as collected:
            base = StreamProcessor(base_config(trace=True))
            isrf4 = StreamProcessor(isrf4_config(trace=True))
        assert collected.entries == [
            ("Base", base.tracer), ("ISRF4", isrf4.tracer)
        ]
        assert collected.tracers() == {
            "Base": base.tracer, "ISRF4": isrf4.tracer
        }
        # Machines created after the block are no longer captured.
        StreamProcessor(base_config(trace=True))
        assert len(collected.entries) == 2

    def test_untraced_processors_register_nothing(self):
        with collect() as collected:
            StreamProcessor(base_config(metrics=True))
        assert collected.entries == []

    def test_duplicate_machine_labels_are_disambiguated(self):
        collection = Collection()
        for _ in range(3):
            collection.entries.append(("Base", Tracer(4)))
        assert list(collection.tracers()) == ["Base", "Base#2", "Base#3"]
