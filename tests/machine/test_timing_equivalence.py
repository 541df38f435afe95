"""Cycle-loop equivalence on every app and preset.

The processor's cycle loop runs one of two ways (timing engines in the
ids of ``tests/machine/workloads.py``): by default it fast-forwards
across provably inert cycles (DESIGN §4b, the ``object`` id), and with
``fast_forward=False`` it steps every cycle (the ``columnar`` id), the
per-cycle reference path. Fast-forwarding is a pure simulation-speed
knob: for every benchmark application and every Table 2 machine
configuration it must produce bit-identical ``ProgramStats`` AND
bit-identical application outputs, in direct execution and in
trace-replay timing mode. These tests enforce that on real workloads —
and enforce that the fast path actually *engages*, so a run that never
skips a cycle can never fake an equivalence pass.

``tests/fuzz/test_timing_engine.py`` covers randomly generated programs.
"""

import dataclasses

import pytest

from repro.apps import fft
from repro.config.machine import MachineConfig
from repro.config.presets import REPLAY_ENV, all_configs, base_config
from repro.errors import ConfigurationError
from repro.machine import StreamProcessor, replay
from repro.machine.replay import TraceStore
from tests.machine.workloads import PRESETS, RUNNERS


def full_stats(stats) -> dict:
    """Every ProgramStats field, recursively — nothing exempted."""
    return dataclasses.asdict(stats)


@pytest.fixture
def skip_log(monkeypatch):
    """Record the length of every fast-forward window a run takes."""
    skips = []
    real = StreamProcessor._fast_forward_window

    def recording(self, *args):
        skip = real(self, *args)
        if skip > 0:
            skips.append(skip)
        return skip

    monkeypatch.setattr(StreamProcessor, "_fast_forward_window", recording)
    return skips


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("app", sorted(RUNNERS))
def test_engines_bit_identical(app, preset, skip_log):
    """Same full ProgramStats and same outputs from both cycle loops."""
    config = all_configs()[preset]
    fast = RUNNERS[app](config).require_verified()
    # Engagement: a run that skipped nothing would "pass" trivially.
    assert skip_log
    del skip_log[:]
    stepped = RUNNERS[app](
        config.replace(fast_forward=False)
    ).require_verified()
    assert skip_log == []
    assert full_stats(fast.stats) == full_stats(stepped.stats)
    assert fast.details == stepped.details


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("app", sorted(RUNNERS))
def test_engines_bit_identical_in_replay(app, preset, tmp_path):
    """Record once, then replay under both cycle loops: identical stats.

    Replay mode drives the executor from recorded kernel data instead
    of the interpreter, so the fast-forward windows meet kernels on a
    different data path than in direct execution.
    """
    store = TraceStore(str(tmp_path))
    config = all_configs()[preset].replace(timing_source="replay")
    with replay.session(store, app, config, "test") as sess:
        recorded = RUNNERS[app](config).require_verified()
        assert sess.mode == "record"
    with replay.session(store, app, config, "test") as sess:
        fast = RUNNERS[app](config).require_verified()
        assert sess.mode == "replay"
    stepped_cfg = config.replace(fast_forward=False)
    with replay.session(store, app, stepped_cfg, "test") as sess:
        stepped = RUNNERS[app](stepped_cfg).require_verified()
        assert sess.mode == "replay"
    assert full_stats(fast.stats) == full_stats(stepped.stats)
    assert full_stats(recorded.stats) == full_stats(stepped.stats)


class TestSelection:
    """Cycle-loop and timing-source selection: config fields, env."""

    def test_default_engine_is_object(self):
        assert MachineConfig().fast_forward is True
        assert base_config().fast_forward is True
        assert StreamProcessor(base_config()).config.fast_forward is True

    def test_columnar_selected_when_eligible(self, skip_log):
        """fast_forward=False steps every cycle on every preset."""
        for name, config in all_configs().items():
            stepped = fft.run(config.replace(fast_forward=False), n=16)
            assert skip_log == [], name
            fast = fft.run(config, n=16)
            assert skip_log, name
            del skip_log[:]
            assert stepped.cycles == fast.cycles, name

    def test_unknown_engine_rejected(self):
        # A truthy string must not silently select the fast path.
        with pytest.raises(ConfigurationError, match="fast_forward"):
            MachineConfig(fast_forward="no").validate()

    def test_env_overlay(self, monkeypatch):
        """REPRO_REPLAY overlays every preset and leaves the cycle loop
        alone."""
        monkeypatch.setenv(REPLAY_ENV, "1")
        for name, config in all_configs().items():
            assert config.timing_source == "replay", name
            assert config.fast_forward is True, name
        # Explicit overrides still win over the environment.
        assert base_config(
            timing_source="execute"
        ).timing_source == "execute"
        monkeypatch.setenv(REPLAY_ENV, "warp9")
        with pytest.raises(ConfigurationError):
            base_config()

    def test_blank_env_is_ignored(self, monkeypatch):
        monkeypatch.setenv(REPLAY_ENV, "")
        assert base_config().timing_source == "execute"


#: Knobs that hook the cycle loop, each of which fast-forward windows
#: and trace replay must honour exactly as per-cycle execution does.
INELIGIBLE = {
    "faults": dict(fault_seed=7, fault_srf_flips=2, fault_horizon=2_000),
    "sanitize": dict(sanitize=True),
    "trace": dict(trace=True),
    "metrics": dict(metrics_level=1),
    "per_cycle": dict(fast_forward=False),
}

#: One setting per hook that the machine cannot honour.
INVALID = {
    "faults": dict(fault_srf_flips=2),  # flips need a fault_seed
    "sanitize": dict(sanitize="off"),
    "trace": dict(trace=True, trace_buffer_events=0),
    "metrics": dict(metrics_level=3),
    "per_cycle": dict(fast_forward="no"),
}


class TestFallback:
    """Replay's fallback matrix and the hooks' validation, edge by edge."""

    @pytest.mark.parametrize("feature", sorted(INELIGIBLE))
    def test_ineligible_configs_fall_back(self, feature, tmp_path):
        """Faulted configs fall back from replay to execution (nothing
        is recorded); every other hook replays. Either way the second
        run reproduces the first bit for bit."""
        store = TraceStore(str(tmp_path))
        config = all_configs()["ISRF4"].replace(
            timing_source="replay", **INELIGIBLE[feature]
        )
        with replay.session(store, "fft", config, "test") as sess:
            first = fft.run(config, n=16, repeats=1)
        assert (sess.bundle.programs == []) == (feature == "faults")
        with replay.session(store, "fft", config, "test") as sess:
            second = fft.run(config, n=16, repeats=1)
        # A faulted run consulting this (empty) recording would have
        # raised ReplayError on the program-count mismatch.
        assert sess.replaying
        assert full_stats(first.stats) == full_stats(second.stats)

    @pytest.mark.parametrize("feature", sorted(INELIGIBLE))
    def test_direct_construction_refused(self, feature):
        """A machine is never built half-configured: constructing it
        from an unvalidated config with a bad hook setting raises."""
        config = MachineConfig(name="ISRF4", **INVALID[feature])
        with pytest.raises(ConfigurationError):
            StreamProcessor(config)

    def test_faulted_columnar_run_matches_object(self, skip_log):
        """A faulted run stepped every cycle reproduces the
        fast-forwarded faulted stats exactly."""
        faulted = all_configs()["ISRF4"].replace(**INELIGIBLE["faults"])
        fast = fft.run(faulted, n=16, repeats=1)
        assert skip_log
        stepped = fft.run(faulted.replace(fast_forward=False), n=16,
                          repeats=1)
        assert fast.stats.faults.injected > 0
        assert full_stats(fast.stats) == full_stats(stepped.stats)

    def test_eligibility_reasons_are_distinct(self):
        """Each refusal names what was wrong with it."""
        reasons = set()
        for overrides in INVALID.values():
            with pytest.raises(ConfigurationError) as excinfo:
                MachineConfig(**overrides).validate()
            reasons.add(str(excinfo.value))
        assert len(reasons) == len(INVALID)
