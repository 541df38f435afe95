"""Machine configuration for the simulated stream processor.

:class:`MachineConfig` captures every parameter from Table 3 of the paper
("Machine parameters") plus the implementation knobs exposed by the
parameter studies in Section 5.4 (address/data separation, sub-arrays per
bank, address-FIFO size, cross-lane network ports per SRF bank).

The four machine configurations of Table 2 (Base, ISRF1, ISRF4, Cache) are
constructed by :mod:`repro.config.presets`.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Bytes in one machine word. The paper uses a 32-bit word throughout.
WORD_BYTES = 4

#: Where the timing model gets each kernel iteration's stream-access
#: details (see :attr:`MachineConfig.timing_source`).
TIMING_SOURCES = ("execute", "replay")

#: Lower bounds that :meth:`MachineConfig.validate` enforces. Counts and
#: rates must be positive; so must the SRF access latencies, since an
#: SRF access completes on a later cycle than its grant (the completion
#: calendar has already drained the grant cycle). Other latencies,
#: penalties and separations may be zero. The ``cache_*`` fields are
#: checked only on a machine with a cache.
POSITIVE = "positive"
NON_NEGATIVE = "non-negative"
LOWER_BOUNDS = {
    "lanes": POSITIVE,
    "clock_hz": POSITIVE,
    "alus_per_cluster": POSITIVE,
    "dividers_per_cluster": POSITIVE,
    "srf_bytes": POSITIVE,
    "words_per_lane_access": POSITIVE,
    "subarrays_per_bank": POSITIVE,
    "srf_sequential_latency": POSITIVE,
    "stream_buffer_words": POSITIVE,
    "address_fifo_words": POSITIVE,
    "inlane_indexed_bandwidth": NON_NEGATIVE,
    "crosslane_indexed_bandwidth": NON_NEGATIVE,
    "inlane_indexed_latency": POSITIVE,
    "crosslane_indexed_latency": POSITIVE,
    "crosslane_ports_per_bank": POSITIVE,
    "inlane_addr_data_separation": NON_NEGATIVE,
    "crosslane_addr_data_separation": NON_NEGATIVE,
    "dram_bandwidth_bytes_per_s": POSITIVE,
    "dram_latency_cycles": NON_NEGATIVE,
    "dram_banks": POSITIVE,
    "dram_row_words": POSITIVE,
    "dram_row_miss_penalty": NON_NEGATIVE,
    "cache_bytes": POSITIVE,
    "cache_associativity": POSITIVE,
    "cache_banks": POSITIVE,
    "cache_bandwidth_bytes_per_s": POSITIVE,
    "cache_line_words": POSITIVE,
    "cache_hit_latency": NON_NEGATIVE,
}


class SrfMode(enum.Enum):
    """How the SRF may be accessed in a given machine configuration."""

    #: Sequential block access only (Base and Cache configurations).
    SEQUENTIAL_ONLY = "sequential"
    #: Sequential plus indexed access (ISRF1 / ISRF4 configurations).
    INDEXED = "indexed"


@dataclass(frozen=True)
class MachineConfig:
    """Full parameter set of one simulated machine (paper Tables 2 and 3).

    Instances are immutable; use :meth:`replace` to derive variants for
    parameter sweeps.
    """

    name: str = "base"
    srf_mode: SrfMode = SrfMode.SEQUENTIAL_ONLY

    # --- Processor organisation (Table 3, top block) -------------------
    #: Number of lanes (SRF bank + compute cluster pairs).
    lanes: int = 8
    #: System clock in Hz; used to convert bandwidths to words/cycle.
    clock_hz: float = 1e9
    #: Fully pipelined ALUs per cluster (add + multiply capable).
    alus_per_cluster: int = 4
    #: Unpipelined dividers per cluster.
    dividers_per_cluster: int = 1

    # --- SRF organisation (Section 4, Table 3) --------------------------
    #: Total SRF capacity in bytes (128 KB in the paper).
    srf_bytes: int = 128 * 1024
    #: Words accessed per lane per sequential SRF block access (m).
    words_per_lane_access: int = 4
    #: SRAM sub-arrays per SRF bank (s). Determines peak in-lane indexed
    #: bandwidth for ISRF4-style machines.
    subarrays_per_bank: int = 4
    #: Sequential SRF access latency in cycles.
    srf_sequential_latency: int = 3
    #: Stream buffer capacity in words, per lane per stream.
    stream_buffer_words: int = 8

    # --- Indexed access (Table 3, middle block) ------------------------
    #: Address FIFO capacity in words, per lane per indexed stream.
    address_fifo_words: int = 8
    #: Peak in-lane indexed SRF bandwidth in words/cycle/cluster.
    #: 1 for ISRF1, ``subarrays_per_bank`` for ISRF4. 0 disables.
    inlane_indexed_bandwidth: int = 0
    #: Peak cross-lane indexed SRF bandwidth in words/cycle/cluster.
    crosslane_indexed_bandwidth: int = 0
    #: In-lane indexed SRF latency (cycles, conflict-free).
    inlane_indexed_latency: int = 4
    #: Cross-lane indexed SRF latency (cycles, conflict-free).
    crosslane_indexed_latency: int = 6
    #: Cross-lane network ports per SRF bank (Figure 18 study).
    crosslane_ports_per_bank: int = 1
    #: Static scheduler separation between indexed-address issue and data
    #: read, in cycles (Section 5.1: 6 in-lane, 20 cross-lane).
    inlane_addr_data_separation: int = 6
    crosslane_addr_data_separation: int = 20
    #: Cross-lane address network topology: "crossbar" (the paper's
    #: implementation, §4.5) or "ring" (the sparse alternative of §7).
    crosslane_network: str = "crossbar"
    #: Multiplex cross-lane index traffic onto the inter-cluster network
    #: instead of a dedicated address network — §4.5's conclusion:
    #: "multiplexing both types of inter-lane traffic over a single
    #: network instead of two dedicated networks is the preferred design
    #: option, particularly given the high area cost of the networks."
    #: When True, explicit comm cycles also block cross-lane index
    #: injection.
    shared_interlane_network: bool = False
    #: Local indexed arbitration policy: "round_robin" (the paper's
    #: choice) or "occupancy" (a stall-aware arbiter prioritising the
    #: fullest address FIFOs — §5.4 found such arbiters worth <10%).
    indexed_arbitration: str = "round_robin"

    # --- Simulation knobs (not machine parameters) ----------------------
    #: Where the timing model gets each kernel iteration's stream-access
    #: details. "replay" (the default) acts only inside a caller's
    #: :func:`repro.machine.replay.session`: the first run of a
    #: *functional* configuration executes and records a trace, and
    #: later runs re-drive the full timing model (processor, SRF
    #: arbitration, crossbar, DRAM) from it without re-executing the
    #: kernels. Outside a session it executes. "execute" evaluates every
    #: kernel functionally and never records or replays: the reference
    #: the equivalence suites compare against. Stats are bit-identical
    #: either way.
    timing_source: str = "replay"
    #: Debug mode: assert cycle-level machine invariants (SRF occupancy
    #: conservation, stream-buffer credit balance, address-FIFO head
    #: coherence, crossbar budget bounds) every simulated cycle, raising
    #: :class:`repro.errors.SanitizerError` with a forensic report on the
    #: first violation. Inert when off — like trace, a disabled machine
    #: carries no sanitizer state and stats are bit-identical.
    sanitize: bool = False

    # --- Observability (repro.observe) -----------------------------------
    #: Record structured trace events (Chrome trace_event export). Off by
    #: default: a disabled machine carries no tracer at all, and observed
    #: runs are bit-identical to unobserved ones — observation never
    #: alters timing or control flow.
    trace: bool = False
    #: Copy the components' stats into ``ProgramStats.metrics`` at the
    #: end of each program (a snapshot; nothing is probed mid-run).
    metrics: bool = False

    # --- Memory system (Table 3) ----------------------------------------
    #: Peak off-chip DRAM bandwidth in bytes/second (9.14 GB/s).
    dram_bandwidth_bytes_per_s: float = 9.14e9
    #: Minimum latency of a DRAM access in cycles.
    dram_latency_cycles: int = 100
    #: Number of DRAM banks (row-buffer locality model).
    dram_banks: int = 8
    #: DRAM row size in words.
    dram_row_words: int = 512
    #: Extra cycles charged when an access misses the open row of a bank.
    dram_row_miss_penalty: int = 24

    # --- Cache (Cache configuration only; Table 3 bottom block) --------
    has_cache: bool = False
    cache_bytes: int = 128 * 1024
    cache_associativity: int = 4
    cache_banks: int = 4
    #: Peak cache bandwidth in bytes/second (16 GB/s).
    cache_bandwidth_bytes_per_s: float = 16e9
    #: Cache line size in words (short lines per vector-cache studies).
    cache_line_words: int = 2
    cache_hit_latency: int = 8

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def srf_words(self) -> int:
        """Total SRF capacity in words."""
        return self.srf_bytes // WORD_BYTES

    @property
    def bank_words(self) -> int:
        """SRF words per bank (one bank per lane)."""
        return self.srf_words // self.lanes

    @property
    def subarray_words(self) -> int:
        """SRF words per sub-array."""
        return self.bank_words // self.subarrays_per_bank

    @property
    def sequential_block_words(self) -> int:
        """Words moved by one sequential SRF access (N x m)."""
        return self.lanes * self.words_per_lane_access

    @property
    def peak_sequential_srf_words_per_cycle(self) -> int:
        """Peak sequential SRF bandwidth in words/cycle (32 in the paper)."""
        return self.sequential_block_words

    @property
    def dram_words_per_cycle(self) -> float:
        """Peak DRAM bandwidth expressed in words per processor cycle."""
        return self.dram_bandwidth_bytes_per_s / self.clock_hz / WORD_BYTES

    @property
    def cache_words_per_cycle(self) -> float:
        """Peak cache bandwidth expressed in words per processor cycle."""
        return self.cache_bandwidth_bytes_per_s / self.clock_hz / WORD_BYTES

    @property
    def peak_flops_per_cycle(self) -> int:
        """Peak compute: one op per pipelined ALU per cycle (32 GFLOPs)."""
        return self.lanes * self.alus_per_cluster

    @property
    def supports_indexing(self) -> bool:
        """True when the SRF accepts indexed accesses (ISRF machines)."""
        return self.srf_mode is SrfMode.INDEXED

    @property
    def cache_lines(self) -> int:
        """Total number of cache lines."""
        return self.cache_bytes // (self.cache_line_words * WORD_BYTES)

    @property
    def cache_sets(self) -> int:
        """Number of cache sets (lines / associativity)."""
        return self.cache_lines // self.cache_associativity

    # ------------------------------------------------------------------
    def replace(self, **changes: object) -> "MachineConfig":
        """Return a validated copy with ``changes`` applied."""
        cfg = dataclasses.replace(self, **changes)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent parameters."""
        for field in dataclasses.fields(self):
            # A truthy string such as "no" must not silently switch a
            # flag on. (Annotations are strings under the __future__
            # import.)
            if field.type == "bool" and not isinstance(
                    getattr(self, field.name), bool):
                raise ConfigurationError(f"{field.name} must be True or False")
        for name, bound in LOWER_BOUNDS.items():
            if name.startswith("cache_") and not self.has_cache:
                continue
            value = getattr(self, name)
            # Written so that NaN, which compares false, is rejected.
            if not (value > 0 if bound == POSITIVE else value >= 0):
                raise ConfigurationError(f"{name} must be {bound}, got {value}")
        if self.srf_bytes % (self.lanes * WORD_BYTES):
            raise ConfigurationError(
                "SRF capacity must divide evenly across lanes"
            )
        if self.bank_words % self.subarrays_per_bank:
            raise ConfigurationError(
                "bank capacity must divide evenly across sub-arrays"
            )
        if self.stream_buffer_words < self.words_per_lane_access:
            raise ConfigurationError(
                "stream buffers must hold at least one SRF block per lane"
            )
        if self.supports_indexing:
            if self.inlane_indexed_bandwidth <= 0:
                raise ConfigurationError(
                    "indexed machines need inlane_indexed_bandwidth >= 1"
                )
            if self.inlane_indexed_bandwidth > self.subarrays_per_bank:
                raise ConfigurationError(
                    "in-lane indexed bandwidth cannot exceed sub-arrays/bank"
                )
        if self.has_cache:
            if self.cache_bytes % (self.cache_line_words * WORD_BYTES):
                raise ConfigurationError(
                    "cache capacity must be a whole number of lines"
                )
            if self.cache_lines % self.cache_associativity:
                raise ConfigurationError(
                    "cache lines must divide evenly into sets"
                )
            if self.cache_sets % self.cache_banks:
                raise ConfigurationError(
                    "cache sets must divide evenly across banks"
                )
        if self.crosslane_network not in ("crossbar", "ring"):
            raise ConfigurationError(
                f"unknown cross-lane network {self.crosslane_network!r}"
            )
        if self.indexed_arbitration not in ("round_robin", "occupancy"):
            raise ConfigurationError(
                f"unknown arbitration policy {self.indexed_arbitration!r}"
            )
        if self.timing_source not in TIMING_SOURCES:
            raise ConfigurationError(
                f"unknown timing_source {self.timing_source!r} "
                f"(known: {', '.join(TIMING_SOURCES)})"
            )
