"""The four machine configurations of paper Table 2.

========  ==========================================================
Config    Description (paper Table 2)
========  ==========================================================
Base      Sequential SRF backed by off-chip DRAM.
ISRF1     Indexed SRF, one in-lane indexed word/cycle/lane (no
          sub-banking used for indexing) plus cross-lane indexing.
ISRF4     Indexed SRF, up to 4 in-lane indexed words/cycle/lane
          (4 sub-arrays per lane) plus cross-lane indexing.
Cache     Sequential SRF backed by an on-chip cache and DRAM.
========  ==========================================================

All four share the Table 3 common parameters: 8 lanes, 1 GHz,
32 GFLOPs peak, 9.14 GB/s DRAM, 128 KB SRF, 32 words/cycle peak
sequential SRF bandwidth, 3-cycle sequential SRF latency and 8-word
stream buffers.
"""

from __future__ import annotations

import os

from repro.config.machine import MachineConfig, SrfMode
from repro.errors import ConfigurationError
from repro.faults.plan import fault_overrides_from_env
from repro.observe.observer import trace_overrides_from_env

#: Environment variable overlaying the timing source
#: (:attr:`MachineConfig.timing_source`) onto every preset — how the
#: harness CLI's ``--replay`` flag reaches forked worker processes.
REPLAY_ENV = "REPRO_REPLAY"


def replay_overrides_from_env() -> dict:
    """Timing-source override from ``REPRO_REPLAY``, empty when unset.

    ``1``/``replay`` select trace-replay timing, ``0``/``execute``
    explicitly select functional execution (useful to countermand a
    value exported by a wrapper script).
    """
    value = os.environ.get(REPLAY_ENV)
    if value is None or value == "":
        return {}
    if value in ("1", "replay"):
        return {"timing_source": "replay"}
    if value in ("0", "execute"):
        return {"timing_source": "execute"}
    raise ConfigurationError(
        f"{REPLAY_ENV}={value!r}: expected 1/replay or 0/execute"
    )


def _finish(cfg: MachineConfig, overrides: dict) -> MachineConfig:
    """Apply env overrides, then explicit ones, and validate.

    The ``REPRO_FAULTS`` environment variable (see
    :func:`repro.faults.fault_overrides_from_env`) overlays fault/
    protection knobs onto every preset, so the whole harness can run
    under injected faults without touching any call site; explicit
    keyword overrides still win. ``REPRO_TRACE`` (see
    :func:`repro.observe.trace_overrides_from_env`) does the same for
    the observability knobs, and ``REPRO_REPLAY`` for the timing source
    (:attr:`MachineConfig.timing_source`).
    """
    merged = {
        **fault_overrides_from_env(),
        **trace_overrides_from_env(),
        **replay_overrides_from_env(),
        **overrides,
    }
    return cfg.replace(**merged) if merged else _validated(cfg)


def base_config(**overrides: object) -> MachineConfig:
    """Sequential-only SRF backed by off-chip DRAM (paper ``Base``)."""
    cfg = MachineConfig(name="Base", srf_mode=SrfMode.SEQUENTIAL_ONLY)
    return _finish(cfg, overrides)


def isrf1_config(**overrides: object) -> MachineConfig:
    """Indexed SRF with 1 word/cycle/lane in-lane bandwidth (``ISRF1``)."""
    cfg = MachineConfig(
        name="ISRF1",
        srf_mode=SrfMode.INDEXED,
        inlane_indexed_bandwidth=1,
        crosslane_indexed_bandwidth=1,
    )
    return _finish(cfg, overrides)


def isrf4_config(**overrides: object) -> MachineConfig:
    """Indexed SRF with 4 words/cycle/lane in-lane bandwidth (``ISRF4``)."""
    cfg = MachineConfig(
        name="ISRF4",
        srf_mode=SrfMode.INDEXED,
        inlane_indexed_bandwidth=4,
        crosslane_indexed_bandwidth=1,
    )
    return _finish(cfg, overrides)


def cache_config(**overrides: object) -> MachineConfig:
    """Sequential SRF backed by a 128 KB on-chip cache (``Cache``)."""
    cfg = MachineConfig(
        name="Cache",
        srf_mode=SrfMode.SEQUENTIAL_ONLY,
        has_cache=True,
    )
    return _finish(cfg, overrides)


def all_configs() -> dict:
    """All four paper configurations keyed by name, in Table 2 order."""
    configs = [base_config(), isrf1_config(), isrf4_config(), cache_config()]
    return {cfg.name: cfg for cfg in configs}


def _validated(cfg: MachineConfig) -> MachineConfig:
    cfg.validate()
    return cfg
