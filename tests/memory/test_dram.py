"""DRAM bandwidth and row-buffer locality model."""

import random

import pytest

from repro.config import base_config
from repro.errors import MemorySystemError
from repro.memory.dram import DramModel


def make_dram(**overrides):
    return DramModel(base_config(**overrides))


def sustained_words(dram, addr_stream, cycles):
    """Words transferred when offering addresses continuously."""
    it = iter(addr_stream)
    pending = next(it)
    moved = 0
    for _ in range(cycles):
        dram.begin_cycle()
        while dram.try_access(pending, is_write=False):
            moved += 1
            pending = next(it)
    return moved


class TestBandwidth:
    def test_sequential_achieves_near_peak(self):
        dram = make_dram()
        cycles = 2000
        moved = sustained_words(dram, iter(range(10**9)), cycles)
        peak = base_config().dram_words_per_cycle * cycles
        assert moved >= 0.95 * peak

    def test_random_is_substantially_slower_than_sequential(self):
        rng = random.Random(7)
        dram = make_dram()
        span = 1 << 22  # far larger than open rows can cover
        random_stream = (rng.randrange(span) for _ in range(10**9))
        cycles = 2000
        moved = sustained_words(dram, random_stream, cycles)
        peak = base_config().dram_words_per_cycle * cycles
        assert moved <= 0.5 * peak

    def test_small_table_gathers_stay_fast(self):
        # A Rijndael-sized table spans few rows; its rows stay open, so
        # random lookups into it approach streaming bandwidth.
        rng = random.Random(7)
        dram = make_dram()
        table_words = 1024  # two 512-word rows
        stream = (rng.randrange(table_words) for _ in range(10**9))
        cycles = 2000
        moved = sustained_words(dram, stream, cycles)
        peak = base_config().dram_words_per_cycle * cycles
        assert moved >= 0.9 * peak

    def test_budget_does_not_accumulate_unbounded(self):
        dram = make_dram()
        for _ in range(10_000):  # long idle period
            dram.begin_cycle()
        dram.begin_cycle()
        moved = 0
        while dram.try_access(moved, False):
            moved += 1
        assert moved <= 5 * base_config().dram_words_per_cycle + 1


def recover(dram, cycles=10):
    """Accrue enough budget to absorb a prior row-miss charge."""
    for _ in range(cycles):
        dram.begin_cycle()


class TestRowBuffer:
    def test_hits_and_misses_counted(self):
        dram = make_dram()
        recover(dram)
        assert dram.try_access(0, False)   # miss (cold row)
        recover(dram)
        assert dram.try_access(1, False)   # hit (same row)
        assert dram.stats.row_misses == 1
        assert dram.stats.row_hits == 1

    def test_reset_rows_forces_misses(self):
        dram = make_dram()
        recover(dram)
        assert dram.try_access(0, False)
        dram.reset_rows()
        recover(dram)
        assert dram.try_access(1, False)
        assert dram.stats.row_misses == 2

    def test_read_write_words_tracked(self):
        dram = make_dram()
        recover(dram)
        assert dram.try_access(0, False)
        recover(dram)
        assert dram.try_access(0, True)
        assert dram.stats.read_words == 1
        assert dram.stats.write_words == 1
        assert dram.stats.total_words == 2

    def test_miss_charge_delays_next_access(self):
        dram = make_dram()
        dram.begin_cycle()
        assert dram.try_access(0, False)  # cold miss eats several cycles
        dram.begin_cycle()
        assert not dram.try_access(1, False)

    def test_charge_allows_overdraft(self):
        dram = make_dram()
        dram.begin_cycle()
        dram.charge(0, False)
        dram.charge(1, False)  # no budget left, still accounted
        assert dram.stats.total_words == 2

    def test_negative_address_rejected(self):
        dram = make_dram()
        dram.begin_cycle()
        with pytest.raises(Exception):
            dram.try_access(-1, False)


class TestAccessRun:
    """``access_run`` is ``try_access`` over a run of words, in one call."""

    @pytest.mark.parametrize("is_write", [False, True])
    def test_matches_per_word_try_access(self, is_write):
        rng = random.Random(3)
        # Row hits and misses across every bank.
        addrs = [rng.randrange(16 * 512) for _ in range(400)]
        run = make_dram()
        word = make_dram()
        cursor = 0
        for _ in range(5000):
            if cursor == len(addrs):
                break
            run.begin_cycle()
            word.begin_cycle()
            moved = run.access_run(addrs, cursor, len(addrs), is_write)
            expected = 0
            while (cursor + expected < len(addrs)
                   and word.try_access(addrs[cursor + expected], is_write)):
                expected += 1
            assert moved == expected
            assert run._credit == word._credit
            cursor += moved
        assert cursor == len(addrs)
        assert run.stats == word.stats
        assert run._open_rows == word._open_rows
        assert run.stats.row_misses > 8  # the run saw row misses

    def test_stops_at_the_run_end(self):
        dram = make_dram()
        for _ in range(10):
            dram.begin_cycle()  # credit capped at 4 cycles' worth
        assert dram.access_run([0, 1, 2, 3], 1, 3, False) == 2

    def test_negative_address_rejected(self):
        dram = make_dram()
        dram.begin_cycle()
        with pytest.raises(MemorySystemError, match="negative DRAM address"):
            dram.access_run([-1], 0, 1, False)
