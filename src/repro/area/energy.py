"""Access-energy model (paper §4.4).

"Indexed single-word accesses in our design consume approximately 4x
the energy per word in the SRAM array compared to sequential stream
accesses due to increased column multiplexing. However, the estimated
energy consumed by an indexed SRF access at approximately 0.1 nJ in a
0.13 µm technology is still an order of magnitude lower than the ~5 nJ
required for an off-chip DRAM access."

This module exposes those per-access energies and integrates them over
simulation statistics so benchmarks can report energy alongside cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.area.technology import CMOS13, Technology
from repro.core.srf import SrfStats
from repro.memory.dram import DramStats


@dataclass
class EnergyReport:
    """Energy consumed by one run, in nanojoules, by component."""

    srf_sequential_nj: float
    srf_indexed_nj: float
    dram_nj: float

    @property
    def total_nj(self) -> float:
        return self.srf_sequential_nj + self.srf_indexed_nj + self.dram_nj


class EnergyModel:
    """Per-access energies and stat integration."""

    def __init__(self, technology: Technology = CMOS13):
        self.tech = technology

    @property
    def sequential_word_nj(self) -> float:
        """Energy per word of a sequential block access."""
        return self.tech.seq_access_energy_per_word_nj

    @property
    def indexed_word_nj(self) -> float:
        """Energy per indexed single-word access (~4x sequential/word)."""
        return (
            self.tech.seq_access_energy_per_word_nj
            * self.tech.indexed_energy_ratio
        )

    @property
    def dram_word_nj(self) -> float:
        """Energy per off-chip DRAM word access (~5 nJ)."""
        return self.tech.dram_access_energy_nj

    @property
    def indexed_vs_dram_ratio(self) -> float:
        """How much cheaper an indexed SRF access is than DRAM."""
        return self.dram_word_nj / self.indexed_word_nj

    def protection_energy_ratio(self, protection: str) -> float:
        """Per-access energy multiplier of a word-protection scheme.

        Check bits add ``check_bits/32`` of bit-storage/sensing energy
        plus an encode/check logic term per check bit (parity ~1.05x,
        SEC-DED ~1.36x an unprotected access).
        """
        from repro.faults.protection import PROTECTION_CHECK_BITS

        if protection not in PROTECTION_CHECK_BITS:
            raise ValueError(
                f"unknown protection {protection!r} "
                f"(known: {', '.join(PROTECTION_CHECK_BITS)})"
            )
        check_bits = PROTECTION_CHECK_BITS[protection]
        if check_bits == 0:
            return 1.0
        return (
            1.0 + check_bits / 32.0
            + check_bits * self.tech.protection_logic_energy_per_check_bit
        )

    def report(self, srf_stats: SrfStats, dram_stats: DramStats) -> EnergyReport:
        """Integrate per-access energies over run statistics."""
        return EnergyReport(
            srf_sequential_nj=(
                srf_stats.sequential_words * self.sequential_word_nj
            ),
            srf_indexed_nj=srf_stats.indexed_words * self.indexed_word_nj,
            dram_nj=dram_stats.total_words * self.dram_word_nj,
        )
