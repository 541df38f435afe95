"""Off-chip DRAM timing model.

The paper's machines see 9.14 GB/s of peak DRAM bandwidth (Table 3).
Sequential stream loads and stores approach that peak, while gathers and
scatters with poor locality fall well short — this gap is what makes the
Base configuration memory-bound on Rijndael's table lookups and on the
2D FFT's rotation through memory, and it is modelled here with a classic
open-row (row-buffer) policy:

* the data bus supplies ``words_per_cycle`` words of *cost budget* per
  cycle (a fractional credit accumulator);
* each word access costs 1 budget unit when it hits its bank's open row;
* a row miss additionally charges the activate/precharge time, amortised
  over the bank-level parallelism: ``row_miss_penalty * words_per_cycle /
  banks`` budget units.

Banks are interleaved at row granularity, so a small lookup table spans
few rows and keeps them open (high hit rate), while wide random traffic
thrashes rows. Sequential bursts miss once per row.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.machine import MachineConfig
from repro.errors import MemorySystemError


@dataclass
class DramStats:
    """Traffic and locality counters."""

    word_accesses: int = 0
    row_hits: int = 0
    row_misses: int = 0
    read_words: int = 0
    write_words: int = 0

    @property
    def total_words(self) -> int:
        return self.read_words + self.write_words

    @property
    def row_hit_rate(self) -> float:
        if not self.word_accesses:
            return 0.0
        return self.row_hits / self.word_accesses


class DramModel:
    """Credit-based DRAM bandwidth with per-bank open-row state.

    Use :meth:`begin_cycle` once per simulated cycle, then
    :meth:`access_run` for each run of words the memory controller wants
    to move (or :meth:`try_access` for one word); they stop when this
    cycle's budget is exhausted.
    """

    def __init__(self, config: MachineConfig):
        self.words_per_cycle = config.dram_words_per_cycle
        self.banks = config.dram_banks
        self.row_words = config.dram_row_words
        self.latency = config.dram_latency_cycles
        if self.words_per_cycle <= 0:
            raise MemorySystemError("DRAM bandwidth must be positive")
        #: Extra budget charged on a row miss (activate/precharge time
        #: amortised over bank-level parallelism).
        self.row_miss_cost = (
            config.dram_row_miss_penalty * self.words_per_cycle / self.banks
        )
        self._open_rows = [None] * self.banks
        self._credit = 0.0
        #: Budget never accumulates beyond one cycle's worth times this,
        #: so idle periods cannot bank unbounded bandwidth.
        self._max_credit = 4.0 * self.words_per_cycle
        self.stats = DramStats()

    def begin_cycle(self) -> None:
        """Accrue one cycle of bus budget."""
        self._credit = min(self._credit + self.words_per_cycle, self._max_credit)

    def can_access(self) -> bool:
        """Whether the bus has budget for another access this cycle.

        Budget may be driven (slightly) negative by a single multi-word
        charge such as a cache-line fill; the debt is repaid from future
        cycles, which keeps sustained throughput exact while keeping the
        per-access code simple.
        """
        return self._credit > 0.0

    def try_access(self, addr: int, is_write: bool) -> bool:
        """Attempt to move one word; returns False if budget is exhausted.

        A successful call updates row-buffer state, budget, and stats.
        """
        if self._credit <= 0.0:
            return False
        self.charge(addr, is_write)
        return True

    def access_run(self, addrs: list, start: int, stop: int,
                   is_write: bool) -> int:
        """Move ``addrs[start:stop]`` in order while the budget lasts.

        The same as calling :meth:`try_access` on each word until one
        returns False (same row-buffer updates and float operations);
        returns the number of words moved.
        """
        credit = self._credit
        open_rows = self._open_rows
        row_words = self.row_words
        banks = self.banks
        miss_cost = 1.0 + self.row_miss_cost
        misses = 0
        index = start
        while index < stop and credit > 0.0:
            addr = addrs[index]
            if addr < 0:
                raise MemorySystemError(f"negative DRAM address {addr}")
            row = addr // row_words
            bank = row % banks
            if open_rows[bank] == row:
                credit -= 1.0
            else:
                open_rows[bank] = row
                credit -= miss_cost
                misses += 1
            index += 1
        self._credit = credit
        moved = index - start
        stats = self.stats
        stats.row_hits += moved - misses
        stats.row_misses += misses
        stats.word_accesses += moved
        if is_write:
            stats.write_words += moved
        else:
            stats.read_words += moved
        return moved

    def charge(self, addr: int, is_write: bool) -> None:
        """Unconditionally account one word access (overdraft allowed).

        Used for indivisible multi-word transfers (cache-line fills and
        writebacks) once they have been admitted: the bus debt simply
        delays subsequent accesses, which keeps sustained bandwidth exact.
        """
        if addr < 0:
            raise MemorySystemError(f"negative DRAM address {addr}")
        row = addr // self.row_words
        bank = row % self.banks
        cost = 1.0
        if self._open_rows[bank] == row:
            self.stats.row_hits += 1
        else:
            self.stats.row_misses += 1
            self._open_rows[bank] = row
            cost += self.row_miss_cost
        self._credit -= cost
        self.stats.word_accesses += 1
        if is_write:
            self.stats.write_words += 1
        else:
            self.stats.read_words += 1

    def reset_rows(self) -> None:
        """Close all open rows (e.g. between benchmark phases)."""
        self._open_rows = [None] * self.banks
