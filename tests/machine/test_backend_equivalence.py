"""Kernel-data-source equivalence across every app and preset.

A running kernel gets its per-iteration stream data from one of two
backends (``MachineConfig.timing_source``): the scalar
:class:`~repro.kernel.KernelInterpreter` evaluates every iteration
(``"execute"``), or a trace recorded by an earlier execution supplies
it with no interpreter at all (``"replay"``, :mod:`repro.machine.replay`;
the ``vector`` backend id of ``tests/machine/workloads.py``). The choice
is a pure simulation-speed knob: for every benchmark application and
every Table 2 machine configuration both must produce bit-identical
``ProgramStats`` — every field, not just the fingerprint — AND
bit-identical application outputs. ``tests/machine/test_replay.py`` pins
the trace store's keying and invalidation rules; ``tests/fuzz`` covers
randomly generated programs.
"""

import dataclasses

import pytest

from repro.apps import fft
from repro.config.machine import MachineConfig
from repro.config.presets import all_configs, base_config
from repro.errors import ConfigurationError
from repro.machine import executor as executor_mod
from repro.machine import replay
from repro.machine.replay import TraceStore
from tests.machine.workloads import PRESETS, RUNNERS


def record_then_replay(store, benchmark, runner, config):
    """The recording (executing) run and the replaying run, verified."""
    config = config.replace(timing_source="replay")
    with replay.session(store, benchmark, config, "test") as sess:
        executed = runner(config).require_verified()
        assert sess.mode == "record"
    with replay.session(store, benchmark, config, "test") as sess:
        replayed = runner(config).require_verified()
        assert sess.mode == "replay"
    return executed, replayed


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("app", sorted(RUNNERS))
def test_backends_bit_identical(app, preset, tmp_path):
    """Same full ProgramStats and same outputs from both backends."""
    executed, replayed = record_then_replay(
        TraceStore(str(tmp_path)), app, RUNNERS[app], all_configs()[preset]
    )
    assert dataclasses.asdict(executed.stats) == \
        dataclasses.asdict(replayed.stats)
    assert executed.details == replayed.details


def test_vector_engine_actually_used(tmp_path, monkeypatch):
    """The equivalence above must not pass vacuously: a replaying run
    takes every kernel's data from the trace and never builds the
    interpreter."""
    store = TraceStore(str(tmp_path))
    config = all_configs()["ISRF4"].replace(timing_source="replay")
    with replay.session(store, "fft", config, "test"):
        fft.run(config, n=16).require_verified()

    def forbidden(*args, **kwargs):
        raise AssertionError("replaying run built the interpreter")

    monkeypatch.setattr(executor_mod, "KernelInterpreter", forbidden)
    with replay.session(store, "fft", config, "test") as sess:
        fft.run(config, n=16).require_verified()
        assert sess.mode == "replay"


def test_scalar_backend_never_builds_vector_engine(tmp_path, monkeypatch):
    """An executing run ignores even an active session: it neither
    records nor reads a trace."""

    def forbidden(*args, **kwargs):
        raise AssertionError("executing run touched the trace")

    monkeypatch.setattr(replay, "begin_invocation_record", forbidden)
    monkeypatch.setattr(replay, "invocation_replay", forbidden)
    config = all_configs()["ISRF4"].replace(timing_source="execute")
    with replay.session(TraceStore(str(tmp_path)), "fft", config,
                        "test") as sess:
        fft.run(config, n=16).require_verified()
    assert sess.bundle.programs == []


def test_default_backend_is_scalar(monkeypatch):
    """Replay is the default timing source, but with no session open a
    default run still executes every kernel on the interpreter."""
    assert MachineConfig().timing_source == "replay"
    assert base_config().timing_source == "replay"
    assert replay.active_session() is None
    built = []
    real = executor_mod.KernelInterpreter

    def counting(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(executor_mod, "KernelInterpreter", counting)
    fft.run(all_configs()["ISRF4"], n=16).require_verified()
    assert built, "default run never engaged the interpreter"


def test_backend_env_overlay(monkeypatch):
    """No environment variable selects the backend: every preset
    defaults to replay, and only an explicit override changes it."""
    for value in ("execute", "warp9"):
        monkeypatch.setenv("REPRO_REPLAY", value)
        for name, config in all_configs().items():
            assert config.timing_source == "replay", (value, name)
        assert base_config(
            timing_source="execute"
        ).timing_source == "execute"


def test_unknown_backend_rejected():
    with pytest.raises(ConfigurationError):
        MachineConfig(timing_source="simd").validate()


class TestMetricsAcrossBackends:
    """The backend knob must not perturb the metrics: they count what
    the machine did, so executing and replaying the kernels must leave
    every metric bit-stable."""

    def test_metrics_identical_across_backends(self, tmp_path):
        """Every metric at the deepest level reads the same whether the
        kernels execute or replay (the golden fingerprints leave
        ``metrics`` out, so only this pins it)."""
        store = TraceStore(str(tmp_path))
        config = all_configs()["ISRF4"].replace(
            metrics_level=2, timing_source="replay"
        )
        with replay.session(store, "fft", config, "test") as sess:
            executed = fft.run(config, n=16, repeats=1)
            assert sess.mode == "record"
        with replay.session(store, "fft", config, "test") as sess:
            replayed = fft.run(config, n=16, repeats=1)
            assert sess.mode == "replay"
        assert executed.stats.metrics
        assert executed.stats.metrics == replayed.stats.metrics
