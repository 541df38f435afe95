"""Tests for MachineConfig validation and derived quantities."""

import dataclasses

import pytest

from repro.apps import fft
from repro.config import MachineConfig, SrfMode, WORD_BYTES
from repro.config.presets import all_configs, isrf4_config
from repro.errors import ConfigurationError


class TestDerivedQuantities:
    def test_srf_words_128kb(self):
        cfg = MachineConfig()
        assert cfg.srf_words == 128 * 1024 // WORD_BYTES == 32768

    def test_bank_words_divide_across_lanes(self):
        cfg = MachineConfig()
        assert cfg.bank_words == 32768 // 8 == 4096

    def test_subarray_words(self):
        cfg = MachineConfig()
        assert cfg.subarray_words == 4096 // 4 == 1024

    def test_sequential_block_is_n_by_m(self):
        cfg = MachineConfig()
        assert cfg.sequential_block_words == 8 * 4 == 32

    def test_peak_sequential_bandwidth_words_per_cycle(self):
        # Table 3: peak sequential SRF bandwidth 32 words/cycle (128 GB/s).
        cfg = MachineConfig()
        assert cfg.peak_sequential_srf_words_per_cycle == 32

    def test_dram_words_per_cycle_matches_9_14_gbps(self):
        cfg = MachineConfig()
        assert cfg.dram_words_per_cycle == pytest.approx(9.14e9 / 1e9 / 4)

    def test_cache_words_per_cycle_matches_16_gbps(self):
        cfg = MachineConfig(has_cache=True)
        assert cfg.cache_words_per_cycle == pytest.approx(4.0)

    def test_peak_flops_32(self):
        # Table 3: 32 GFLOPs peak at 1 GHz = 32 ops/cycle.
        assert MachineConfig().peak_flops_per_cycle == 32

    def test_cache_geometry(self):
        cfg = MachineConfig(has_cache=True)
        assert cfg.cache_lines == 128 * 1024 // 8 == 16384
        assert cfg.cache_sets == 16384 // 4 == 4096


class TestValidation:
    def test_default_config_is_valid(self):
        MachineConfig().validate()

    def test_zero_lanes_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(lanes=0).validate()

    def test_uneven_srf_split_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(lanes=7).validate()

    def test_indexed_mode_requires_bandwidth(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(srf_mode=SrfMode.INDEXED).validate()

    def test_indexed_bandwidth_capped_by_subarrays(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(
                srf_mode=SrfMode.INDEXED,
                inlane_indexed_bandwidth=8,
                subarrays_per_bank=4,
            ).validate()

    def test_stream_buffer_must_hold_a_block(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(stream_buffer_words=2).validate()

    @pytest.mark.parametrize("field", [
        "srf_sequential_latency", "inlane_indexed_latency",
        "crosslane_indexed_latency",
    ])
    def test_srf_latency_below_one_rejected(self, field):
        # A completion due in its own grant cycle would land in a
        # calendar bucket the SRF already drained that cycle.
        with pytest.raises(ConfigurationError, match=field):
            MachineConfig(**{field: 0}).validate()
        MachineConfig(**{field: 1}).validate()

    @pytest.mark.parametrize("field", [
        f.name for f in dataclasses.fields(MachineConfig)
        if isinstance(f.default, bool)
    ])
    def test_truthy_string_flag_rejected(self, field):
        # "no" is truthy: a flag set to it must not silently switch on.
        with pytest.raises(ConfigurationError, match=field):
            MachineConfig(**{field: "no"}).validate()

    @pytest.mark.parametrize("preset, field, value", [
        ("ISRF4", "inlane_addr_data_separation", -3),
        ("Cache", "cache_bandwidth_bytes_per_s", 0),
        ("Cache", "cache_banks", 0),
        ("Cache", "cache_associativity", 0),
        ("Cache", "cache_line_words", 0),
        ("Base", "clock_hz", 0),
        ("Base", "dram_bandwidth_bytes_per_s", float("nan")),
        ("Base", "alus_per_cluster", 0),
        ("ISRF4", "crosslane_ports_per_bank", 0),
        ("Base", "dram_latency_cycles", -5),
        ("Cache", "cache_hit_latency", -3),
        ("Base", "dram_row_miss_penalty", -100),
    ])
    def test_value_below_its_bound_rejected(self, preset, field, value):
        # Each of these used to validate, then deadlock, divide by zero
        # or run to completion with meaningless cycles.
        with pytest.raises(ConfigurationError, match=field):
            all_configs()[preset].replace(**{field: value})

    def test_cache_fields_unchecked_without_a_cache(self):
        MachineConfig(cache_banks=0, cache_hit_latency=-1).validate()

    @pytest.mark.parametrize("separation", [0, 1])
    def test_small_separations_run(self, separation):
        config = isrf4_config(
            inlane_addr_data_separation=separation,
            crosslane_addr_data_separation=separation,
        )
        fft.run(config, n=16).require_verified()

    def test_cache_set_bank_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(has_cache=True, cache_banks=3).validate()

    def test_replace_validates(self):
        cfg = MachineConfig()
        with pytest.raises(ConfigurationError):
            cfg.replace(lanes=0)

    def test_replace_returns_new_config(self):
        cfg = MachineConfig()
        other = cfg.replace(lanes=4)
        assert other.lanes == 4
        assert cfg.lanes == 8

    def test_config_is_frozen(self):
        cfg = MachineConfig()
        with pytest.raises(Exception):
            cfg.lanes = 4
