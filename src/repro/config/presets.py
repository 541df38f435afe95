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

from repro.config.machine import MachineConfig, SrfMode
from repro.observe.observer import trace_overrides_from_env


def _finish(cfg: MachineConfig, overrides: dict) -> MachineConfig:
    """Apply env overrides, then explicit ones, and validate.

    The ``REPRO_TRACE`` environment variable (see
    :func:`repro.observe.trace_overrides_from_env`) overlays the
    observability knobs onto every preset, so the whole harness can run
    traced without touching any call site; explicit keyword overrides
    still win.
    """
    merged = {**trace_overrides_from_env(), **overrides}
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
