"""CACTI-3.0-style structural SRAM area model.

Models an SRF built the way Figures 6 and 7 of the paper draw it: N
banks, each of ``s`` sub-arrays with a hierarchical bitline structure.
Area is composed from named structures (cells, decoders, predecoders,
wordline drivers, sense amplifiers, column muxes, address wiring), so
the *difference* between SRF variants is exactly the set of structures
each organisation adds:

========== ==============================================================
Variant    Extra structures over the sequential-only SRF
========== ==============================================================
ISRF1      A dedicated row decoder per bank (the shared one no longer
           suffices when every lane may access a different row) plus
           per-bank address distribution.
ISRF4      ISRF1 plus per-sub-array predecode/row-decode and an 8:1
           column multiplexer per sub-array with interleaved global
           bitlines (Figure 7).
Cross-lane ISRF4 plus the dedicated inter-lane address network and a
           network port per bank for data returns (Figure 8c).
========== ==============================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.area.technology import CMOS13, Technology
from repro.config.machine import WORD_BYTES, MachineConfig
from repro.errors import ConfigurationError


def subarray_geometry(bits: int) -> tuple:
    """(rows, columns) of a roughly square sub-array with 2^k columns."""
    if bits <= 0:
        raise ConfigurationError("sub-array must hold at least one bit")
    columns = 1 << max(0, round(math.log2(math.sqrt(bits))))
    columns = min(columns, bits)
    rows = max(1, bits // columns)
    return rows, columns


@dataclass
class AreaBreakdown:
    """Area of one SRF organisation by structure, in square micrometres."""

    components: dict

    @property
    def total_um2(self) -> float:
        return sum(self.components.values())

    @property
    def total_mm2(self) -> float:
        return self.total_um2 / 1e6

    def overhead_over(self, baseline: "AreaBreakdown") -> float:
        """Fractional area overhead relative to ``baseline``."""
        return self.total_um2 / baseline.total_um2 - 1.0


class SrfAreaModel:
    """Computes :class:`AreaBreakdown` objects for the four SRF variants."""

    def __init__(self, config: "MachineConfig | None" = None,
                 technology: Technology = CMOS13):
        from repro.config.presets import base_config

        self.config = config or base_config()
        self.tech = technology
        word_bits = WORD_BYTES * 8
        self.banks = self.config.lanes
        self.subarrays = self.config.subarrays_per_bank
        self.subarray_bits = self.config.subarray_words * word_bits
        self.rows, self.columns = subarray_geometry(self.subarray_bits)
        self.rows_per_bank = self.rows * self.subarrays

    # ------------------------------------------------------------------
    def _common_components(self) -> dict:
        """Structures shared by every organisation."""
        t = self.tech
        cells = (
            self.banks * self.subarrays * self.subarray_bits
            * t.cell_area_um2
        )
        sense = (
            self.banks * self.subarrays * self.columns
            * t.sense_amp_per_column_um2
        )
        wordline = (
            self.banks * self.subarrays * self.rows
            * t.wordline_driver_per_row_um2
        )
        # Sequential access reads a wide block: one 2:1 column-mux stage.
        seq_mux = (
            self.banks * self.subarrays * self.columns
            * t.column_mux_stage_per_column_um2
        )
        return {
            "cells": cells,
            "sense_amps": sense,
            "wordline_drivers": wordline,
            "sequential_column_mux": seq_mux,
        }

    def sequential(self) -> AreaBreakdown:
        """The conventional sequential-only SRF (Figure 6)."""
        t = self.tech
        parts = self._common_components()
        # All banks access the same row: a single shared row decoder.
        parts["shared_row_decoder"] = (
            self.rows_per_bank * t.decoder_area_per_row_um2
        )
        return AreaBreakdown(parts)

    def isrf1(self) -> AreaBreakdown:
        """In-lane indexing, one word/cycle/lane (per-bank decoders)."""
        t = self.tech
        parts = self._common_components()
        parts["per_bank_row_decoders"] = (
            self.banks * self.rows_per_bank * t.decoder_area_per_row_um2
        )
        parts["per_bank_address_wiring"] = self._bank_address_wiring()
        return AreaBreakdown(parts)

    def isrf4(self) -> AreaBreakdown:
        """Sub-array indexing: up to s one-word accesses/bank (Figure 7)."""
        t = self.tech
        parts = self.isrf1().components
        parts["subarray_predecoders"] = (
            self.banks * self.subarrays * t.predecoder_area_um2
        )
        # The wide (8:1) per-sub-array column mux for single-word access:
        # log2(columns/word) extra 2:1 stages beyond the sequential mux.
        word_bits = WORD_BYTES * 8
        extra_stages = max(
            0, int(math.log2(max(1, self.columns // word_bits))) - 1
        )
        parts["indexed_column_mux"] = (
            self.banks * self.subarrays * self.columns
            * t.column_mux_stage_per_column_um2 * extra_stages
        )
        parts["subarray_address_wiring"] = (
            self._bank_address_wiring() * (self.subarrays - 1) * 0.25
        )
        return AreaBreakdown(parts)

    def crosslane(self) -> AreaBreakdown:
        """ISRF4 plus the cross-lane address/data networks (Figure 8c)."""
        t = self.tech
        parts = self.isrf4().components
        span_um = math.sqrt(self.sequential().total_um2)
        address_wires = self.banks * t.address_bits
        parts["address_network"] = (
            address_wires * t.wire_pitch_um * span_um
            + self.banks * self.banks * t.address_bits
            * t.crossbar_crosspoint_um2
        )
        # One additional network port per SRF bank for data returns.
        word_bits = WORD_BYTES * 8
        parts["bank_network_ports"] = (
            self.banks * word_bits * t.wire_pitch_um * span_um * 0.04
            + self.banks * 2000.0
        )
        return AreaBreakdown(parts)

    # ------------------------------------------------------------------
    def _bank_address_wiring(self) -> float:
        """Address distribution wiring across the bank array."""
        t = self.tech
        span_um = math.sqrt(
            self.banks * self.subarrays * self.subarray_bits
            * t.cell_area_um2
        )
        return self.banks * t.address_bits * t.wire_pitch_um * span_um * 0.5

    def overhead_report(self) -> dict:
        """Fractional overheads over the sequential SRF (paper §4.6)."""
        base = self.sequential()
        return {
            "ISRF1": self.isrf1().overhead_over(base),
            "ISRF4": self.isrf4().overhead_over(base),
            "ISRF4+crosslane": self.crosslane().overhead_over(base),
        }
