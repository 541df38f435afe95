"""Process-technology constants for the area/energy model.

The paper estimates overheads "using a modified version of the Cacti 3.0
models and custom floorplans" in a 0.13 µm technology (§4.4, §4.6).
This module provides the handful of per-component constants a
CACTI-style structural model needs. Absolute values are approximations
of 0.13 µm-era SRAM design practice; the experiments of Section 4.6
depend on the *relative* composition (which structures each SRF variant
adds), not on the absolute mm².
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Technology:
    """0.13 µm-class technology parameters."""

    name: str = "cmos13"
    #: Feature size in micrometres.
    feature_um: float = 0.13
    #: 6T SRAM cell area in square micrometres (~120 F^2).
    cell_area_um2: float = 2.03
    #: Area of one row-decoder slice (per decoded row), µm².
    decoder_area_per_row_um2: float = 88.0
    #: Predecoder block per sub-array, µm².
    predecoder_area_um2: float = 1800.0
    #: Local wordline driver per row per sub-array, µm².
    wordline_driver_per_row_um2: float = 18.0
    #: Sense amplifier + write driver per bit-column, µm².
    sense_amp_per_column_um2: float = 115.0
    #: One 2:1 column-mux stage per bit column, µm².
    column_mux_stage_per_column_um2: float = 7.0
    #: Wire pitch (metal 3/4 routing) in micrometres.
    wire_pitch_um: float = 0.62
    #: Address width in bits routed to decoders.
    address_bits: int = 12
    #: Crossbar switch-point area per crossing wire pair, µm².
    crossbar_crosspoint_um2: float = 28.0

    # -- energy (used by repro.area.energy) -----------------------------
    #: Energy per word of a sequential block SRF access, nanojoules.
    seq_access_energy_per_word_nj: float = 0.025
    #: Ratio of indexed single-word access energy to sequential per-word
    #: energy ("approximately 4x ... due to increased column
    #: multiplexing", §4.4).
    indexed_energy_ratio: float = 4.0
    #: Energy of one off-chip DRAM word access, nanojoules (~5 nJ, §4.4).
    dram_access_energy_nj: float = 5.0
    #: Energy of one on-chip cache word access, nanojoules.
    cache_access_energy_nj: float = 0.15


CMOS13 = Technology()
