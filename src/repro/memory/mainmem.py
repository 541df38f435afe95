"""Functional main (off-chip) memory.

Word-addressed backing store for everything that lives outside the SRF.
Benchmarks allocate named arrays here and the stream memory operations of
:mod:`repro.memory.controller` move data between this store and the SRF.
Timing is *not* modelled here — that is :class:`repro.memory.dram.DramModel`'s
job; this class only guarantees that the bytes a benchmark computes are
the bytes the simulated machine actually moved.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MemorySystemError


@dataclass(frozen=True)
class MemoryRegion:
    """A named allocation of main memory."""

    name: str
    base: int
    words: int

    @property
    def end(self) -> int:
        return self.base + self.words

    def addr(self, offset: int) -> int:
        """Absolute word address of ``offset`` within the region."""
        if not 0 <= offset < self.words:
            raise MemorySystemError(
                f"{self.name}: offset {offset} outside region of {self.words}"
            )
        return self.base + offset


class MainMemory:
    """Sparse, word-granular main memory with a bump allocator.

    The address space is effectively unbounded (DRAM capacity is never
    the constraint in the paper's experiments); addresses are handed out
    row-aligned so that distinct arrays never share a DRAM row, keeping
    row-locality effects attributable to the access pattern itself.
    """

    def __init__(self, row_words: int = 512):
        if row_words <= 0:
            raise MemorySystemError("row_words must be positive")
        self.row_words = row_words
        self._words = {}
        self._next_base = 0
        self._regions = {}

    def allocate(self, words: int, name: str) -> MemoryRegion:
        """Allocate a row-aligned region of ``words`` words."""
        if words <= 0:
            raise MemorySystemError(f"{name}: allocation must be positive")
        if name in self._regions:
            raise MemorySystemError(f"region name {name!r} already in use")
        base = self._next_base
        rows = (words + self.row_words - 1) // self.row_words
        self._next_base += rows * self.row_words
        region = MemoryRegion(name, base, words)
        self._regions[name] = region
        return region

    def region(self, name: str) -> MemoryRegion:
        try:
            return self._regions[name]
        except KeyError:
            raise MemorySystemError(f"no region named {name!r}") from None

    def read(self, addr: int):
        """Read one word (uninitialised memory reads as 0)."""
        if addr < 0:
            raise MemorySystemError(f"negative memory address {addr}")
        return self._words.get(addr, 0)

    def write(self, addr: int, value) -> None:
        if addr < 0:
            raise MemorySystemError(f"negative memory address {addr}")
        self._words[addr] = value

    def read_words(self, addrs) -> list:
        """Read the word at each of ``addrs``, in order."""
        if addrs and min(addrs) < 0:
            raise MemorySystemError(f"negative memory address {min(addrs)}")
        words = self._words
        return [words.get(addr, 0) for addr in addrs]

    def write_words(self, addrs, values) -> None:
        """Write ``values[j]`` to ``addrs[j]``, in order."""
        if addrs and min(addrs) < 0:
            raise MemorySystemError(f"negative memory address {min(addrs)}")
        words = self._words
        for addr, value in zip(addrs, values):
            words[addr] = value

    def read_range(self, base: int, count: int) -> list:
        return self.read_words(range(base, base + count))

    def write_range(self, base: int, values) -> None:
        values = list(values)
        self.write_words(range(base, base + len(values)), values)

    def load_region(self, region: MemoryRegion, values) -> None:
        """Initialise a region's contents from a sequence."""
        values = list(values)
        if len(values) > region.words:
            raise MemorySystemError(
                f"{region.name}: {len(values)} values exceed region size "
                f"{region.words}"
            )
        self.write_range(region.base, values)

    def dump_region(self, region: MemoryRegion) -> list:
        """Read back a whole region."""
        return self.read_range(region.base, region.words)
