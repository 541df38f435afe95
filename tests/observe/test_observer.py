"""Observer construction, env overlay, and the collect() hook."""

import pytest

from repro.config.presets import base_config, isrf4_config
from repro.errors import ConfigurationError
from repro.observe import (
    Collection,
    Observer,
    Tracer,
    TRACE_ENV,
    collect,
    trace_overrides_from_env,
    trace_path_from_env,
)


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
        spec = {TRACE_ENV: "trace=1,metrics=2,buffer=4096,path=out.json"}
        assert trace_overrides_from_env(spec) == {
            "trace": True,
            "metrics_level": 2,
            "trace_buffer_events": 4096,
        }
        # The path is the trace experiment's, not a config field.
        assert trace_path_from_env(spec) == "out.json"
        assert trace_path_from_env({}) is None

    def test_path_leaves_every_config_untouched(self, monkeypatch):
        from repro.harness.resultcache import config_fingerprint

        plain = base_config()
        monkeypatch.setenv(TRACE_ENV, "path=elsewhere.json")
        assert base_config() == plain
        assert config_fingerprint(base_config()) == config_fingerprint(plain)

    @pytest.mark.parametrize("bad", ["bogus", "trace", "trace=",
                                     "metrics=two", "nope=1",
                                     "profile=64"])
    def test_bad_entries_raise(self, bad):
        with pytest.raises(ConfigurationError):
            trace_overrides_from_env({TRACE_ENV: bad})

    def test_presets_pick_up_the_overlay(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, "trace=1,metrics=1")
        config = base_config()
        assert config.trace and config.metrics_level == 1
        # Explicit overrides still win over the environment.
        assert base_config(metrics_level=2).metrics_level == 2

    def test_bad_overlay_fails_preset_construction(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, "garbage")
        with pytest.raises(ConfigurationError):
            base_config()


class TestObserverFromConfig:
    def test_default_config_builds_nothing(self):
        assert Observer.from_config(base_config()) is None

    def test_each_knob_enables_its_facility(self):
        traced = Observer.from_config(base_config(trace=True))
        assert traced.tracer is not None and traced.metrics is None
        assert traced.machine == "Base"

        metered = Observer.from_config(base_config(metrics_level=2))
        assert metered.metrics is not None and metered.tracer is None

    def test_tracer_inherits_buffer_and_clock(self):
        config = isrf4_config(trace=True, trace_buffer_events=128)
        observer = Observer.from_config(config)
        assert observer.tracer.capacity == 128
        assert observer.tracer.clock_hz == config.clock_hz


class TestCollect:
    def test_processors_built_inside_collect_are_captured(self):
        from repro.machine.processor import StreamProcessor

        with collect() as collected:
            StreamProcessor(base_config(trace=True))
            StreamProcessor(isrf4_config(trace=True))
        assert [o.machine for o in collected.observers] == [
            "Base", "ISRF4"
        ]
        # Observers created after the block are no longer captured.
        StreamProcessor(base_config(trace=True))
        assert len(collected.observers) == 2

    def test_untraced_processors_register_nothing(self):
        from repro.machine.processor import StreamProcessor

        with collect() as collected:
            StreamProcessor(base_config())
        assert collected.observers == []

    def test_duplicate_machine_labels_are_disambiguated(self):
        collection = Collection()
        for _ in range(3):
            collection.observers.append(
                Observer(tracer=Tracer(4), machine="Base")
            )
        assert list(collection.tracers()) == ["Base", "Base#2", "Base#3"]
