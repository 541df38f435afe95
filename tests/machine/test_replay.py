"""Trace-replay timing mode: bit-identical stats, honest invalidation.

The contract of :mod:`repro.machine.replay` is exact: a run re-timed
from a recorded trace must produce :class:`ProgramStats` bit-identical
to a functionally executed run, for every app on every Table 2 preset.
The store tests pin the invalidation rules: timing-only config fields
share traces, functional fields split them, and stale or corrupt
bundles are quarantined rather than replayed.
"""

import gzip
import pickle

import pytest

from repro.config.presets import all_configs, base_config, isrf4_config
from repro.errors import ConfigurationError, ReplayError
from repro.machine import replay
from repro.machine.replay import (
    TRACE_FORMAT_VERSION,
    InvocationTrace,
    TraceBundle,
    TraceStore,
    functional_fingerprint,
)
from tests.machine.test_golden_stats import fingerprint
from tests.machine.workloads import PRESETS, RUNNERS


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("app", sorted(RUNNERS))
def test_replay_bit_identical(app, preset, tmp_path):
    """Record once, replay once: same stats fingerprint, same outputs.

    The recording run is itself a fully executed run (recording is
    passive), so comparing it against the replaying run compares
    executed stats against replayed stats.
    """
    store = TraceStore(str(tmp_path))
    config = all_configs()[preset].replace(timing_source="replay")
    with replay.session(store, app, config, "test") as sess:
        recorded = RUNNERS[app](config).require_verified()
        first_mode = sess.mode
    with replay.session(store, app, config, "test") as sess:
        replayed = RUNNERS[app](config).require_verified()
        assert sess.mode == "replay"
    assert first_mode == "record"
    assert fingerprint(recorded.stats) == fingerprint(replayed.stats)


def test_trace_shared_across_timing_variants(tmp_path):
    """One recording re-times every timing-only sweep point exactly.

    ISRF1 and ISRF4 differ only in indexed bandwidths, and the Figure
    15/16 address/data separations are timing-only too, so a trace
    recorded once on ISRF4 must replay on ISRF1 and at in-lane and
    cross-lane separations — each with ProgramStats equal to a fresh
    executing run.
    """
    store = TraceStore(str(tmp_path))
    configs = all_configs()
    recorder = configs["ISRF4"]
    variants = (
        configs["ISRF1"],
        recorder.replace(inlane_addr_data_separation=2),
        recorder.replace(inlane_addr_data_separation=8),
        recorder.replace(crosslane_addr_data_separation=4),
        recorder.replace(crosslane_addr_data_separation=24),
    )
    for app in ("fft", "ig_sml"):
        with replay.session(store, app, recorder, "test") as sess:
            RUNNERS[app](recorder).require_verified()
            assert sess.mode == "record"
        for variant in variants:
            with replay.session(store, app, variant, "test") as sess:
                replayed = RUNNERS[app](variant).require_verified()
                assert sess.mode == "replay"
            executed = RUNNERS[app](
                variant.replace(timing_source="execute")
            ).require_verified()
            assert replayed.stats == executed.stats, (app, variant)


def test_replay_config_without_session_executes_normally():
    """timing_source="replay" is inert outside a session (no store)."""
    config = isrf4_config(timing_source="replay")
    result = RUNNERS["fft"](config).require_verified()
    executed = RUNNERS["fft"](
        isrf4_config(timing_source="execute")
    ).require_verified()
    assert fingerprint(result.stats) == fingerprint(executed.stats)


class TestConfigValidation:
    def test_timing_source_validated(self):
        with pytest.raises(ConfigurationError, match="timing_source"):
            base_config(timing_source="psychic")

    def test_replay_env_overlay(self, monkeypatch):
        """Replay is the default; no environment variable selects it."""
        for value in ("execute", "0", "maybe"):
            monkeypatch.setenv("REPRO_REPLAY", value)
            for name, config in all_configs().items():
                assert config.timing_source == "replay", (value, name)
            # An explicit override still wins.
            assert base_config(
                timing_source="execute"
            ).timing_source == "execute"


class TestFunctionalFingerprint:
    def test_timing_only_fields_share_a_key(self, tmp_path):
        store = TraceStore(str(tmp_path))
        reference = isrf4_config()
        for variant in (
            isrf4_config(clock_hz=2e9),
            isrf4_config(inlane_addr_data_separation=12),
            isrf4_config(sanitize=True),
            isrf4_config(dram_latency_cycles=200),
            all_configs()["ISRF1"],
        ):
            assert store.key("b", variant, "s") == \
                store.key("b", reference, "s")

    def test_functional_fields_split_keys(self, tmp_path):
        store = TraceStore(str(tmp_path))
        reference = base_config()
        for variant in (
            base_config(lanes=4),
            base_config(has_cache=True),
            base_config(srf_bytes=64 * 1024),
            isrf4_config(),
        ):
            assert store.key("b", variant, "s") != \
                store.key("b", reference, "s")

    def test_benchmark_and_scale_split_keys(self, tmp_path):
        store = TraceStore(str(tmp_path))
        config = base_config()
        assert store.key("a", config, "s") != store.key("b", config, "s")
        assert store.key("a", config, "s") != store.key("a", config, "t")

    def test_blacklist_must_name_real_fields(self, monkeypatch):
        monkeypatch.setattr(
            replay, "TIMING_ONLY_FIELDS", frozenset({"name", "warp_core"})
        )
        with pytest.raises(ReplayError, match="warp_core"):
            functional_fingerprint(base_config())


class TestTraceStore:
    def test_missing_bundle_is_none(self, tmp_path):
        store = TraceStore(str(tmp_path))
        assert store.load("b", base_config(), "s") is None

    def test_corrupt_bundle_quarantined(self, tmp_path):
        store = TraceStore(str(tmp_path))
        config = base_config()
        key = store.key("b", config, "s")
        path = store._path(key)
        (tmp_path / f"{key}.trace.gz").write_bytes(b"not gzip at all")
        assert store.load("b", config, "s") is None
        assert not (tmp_path / f"{key}.trace.gz").exists()
        assert (tmp_path / f"{key}.trace.gz.bad").exists()
        # Re-recording over a quarantined entry works.
        store.save(key, TraceBundle(TRACE_FORMAT_VERSION, "b", "s"))
        assert store.load("b", config, "s") is not None
        assert path.endswith(".trace.gz")

    def test_wrong_version_quarantined(self, tmp_path):
        store = TraceStore(str(tmp_path))
        config = base_config()
        key = store.key("b", config, "s")
        stale = TraceBundle(TRACE_FORMAT_VERSION + 1, "b", "s")
        with gzip.open(store._path(key), "wb") as handle:
            pickle.dump(stale, handle)
        assert store.load("b", config, "s") is None
        assert (tmp_path / f"{key}.trace.gz.bad").exists()

    def test_unverified_run_saves_nothing(self, tmp_path):
        store = TraceStore(str(tmp_path))
        config = base_config(timing_source="replay")
        with pytest.raises(RuntimeError, match="boom"):
            with replay.session(store, "b", config, "s"):
                raise RuntimeError("boom")
        assert store.load("b", config, "s") is None
        assert replay.active_session() is None

    def test_sessions_do_not_nest(self, tmp_path):
        store = TraceStore(str(tmp_path))
        config = base_config(timing_source="replay")
        with replay.session(store, "b", config, "s"):
            with pytest.raises(ReplayError, match="nest"):
                with replay.session(store, "b", config, "s"):
                    pass


class TestMismatchDetection:
    def test_program_shape_mismatch_raises(self, tmp_path):
        store = TraceStore(str(tmp_path))
        config = base_config(timing_source="replay")
        key = store.key("b", config, "s")
        store.save(key, TraceBundle(TRACE_FORMAT_VERSION, "b", "s"))
        with pytest.raises(ReplayError, match="recorded programs"):
            with replay.session(store, "b", config, "s"):
                RUNNERS["fft"](config)

    def test_invocation_mismatch_raises(self):
        inv = _FakeInvocation("k", 8, [])
        trace = InvocationTrace("k", iterations=4, op_kinds=())
        program_trace = replay.ProgramTrace("p", 1, {0: trace})
        with pytest.raises(ReplayError, match="does not match"):
            replay.invocation_replay(program_trace, 0, inv)

    def test_missing_invocation_raises(self):
        inv = _FakeInvocation("k", 8, [])
        program_trace = replay.ProgramTrace("p", 1, {})
        with pytest.raises(ReplayError, match="no recorded trace"):
            replay.invocation_replay(program_trace, 0, inv)


class _FakeKernel:
    def __init__(self, ops):
        self._ops = ops

    def stream_ops(self, *kinds):
        wanted = set(kinds)
        return [op for op in self._ops if op.kind in wanted]


class _FakeInvocation:
    def __init__(self, name, iterations, ops):
        self.name = name
        self.iterations = iterations
        self.kernel = _FakeKernel(ops)
