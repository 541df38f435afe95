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
import os

import pytest

from repro.apps import fft
from repro.config.machine import MachineConfig
from repro.config.presets import REPLAY_ENV, all_configs, base_config
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
    config = all_configs()["ISRF4"]
    with replay.session(TraceStore(str(tmp_path)), "fft", config,
                        "test") as sess:
        fft.run(config, n=16).require_verified()
    assert sess.bundle.programs == []


def test_default_backend_is_scalar(monkeypatch):
    assert MachineConfig().timing_source == "execute"
    assert base_config().timing_source == "execute"
    built = []
    real = executor_mod.KernelInterpreter

    def counting(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(executor_mod, "KernelInterpreter", counting)
    fft.run(all_configs()["ISRF4"], n=16).require_verified()
    assert built, "default run never engaged the interpreter"


def test_backend_env_overlay(monkeypatch):
    monkeypatch.setenv(REPLAY_ENV, "replay")
    assert base_config().timing_source == "replay"
    # Explicit overrides still win over the environment.
    assert base_config(
        timing_source="execute"
    ).timing_source == "execute"
    monkeypatch.setenv(REPLAY_ENV, "warp9")
    with pytest.raises(ConfigurationError):
        base_config()


def test_unknown_backend_rejected():
    with pytest.raises(ConfigurationError):
        MachineConfig(timing_source="simd").validate()
    assert os.environ.get(REPLAY_ENV) in (None, "")  # test hygiene


class TestSeedStability:
    """The backend knob must not perturb any seeded machinery.

    Fault schedules are drawn from ``fault_seed`` and metrics count
    what the machine did; switching backends must leave both
    bit-stable, or reliability results would silently depend on a pure
    simulation-speed setting.
    """

    FLIPS = dict(fault_seed=13, fault_srf_flips=12, fault_dram_flips=12,
                 fault_horizon=2_000)

    def test_fault_plan_identical_across_backends(self):
        from repro.faults import FaultPlan

        executed_cfg = all_configs()["ISRF4"].replace(**self.FLIPS)
        replay_cfg = executed_cfg.replace(timing_source="replay")
        executed_plan = FaultPlan.from_config(executed_cfg)
        replay_plan = FaultPlan.from_config(replay_cfg)
        for domain in ("srf_flips", "dram_flips", "crossbar_drops",
                       "memory_delays"):
            assert (getattr(executed_plan, domain)
                    == getattr(replay_plan, domain))

    def test_faulted_runs_identical_and_fall_back(self, tmp_path):
        """Faulted replay-mode runs fall back to execution (bit flips
        change functional data, so a trace cannot stand in for them)
        and therefore match the executing backend — bit-exactly."""
        executed_cfg = all_configs()["ISRF4"].replace(**self.FLIPS)
        replay_cfg = executed_cfg.replace(timing_source="replay")
        executed = fft.run(executed_cfg, n=16, repeats=1)
        with replay.session(TraceStore(str(tmp_path)), "fft", replay_cfg,
                            "test") as sess:
            fallback = fft.run(replay_cfg, n=16, repeats=1)
        assert sess.bundle.programs == []
        assert executed.stats.faults.injected > 0
        assert executed.stats == fallback.stats

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
