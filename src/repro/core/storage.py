"""SRF backing storage and stream allocation.

:class:`SrfStorage` holds the actual word values of the SRF, addressed
either globally or per ``(lane, bank_local)`` via :class:`SrfGeometry`.
Two clients move words in and out of it: the kernel executor, once per
kernel stream access when it issues the access, and the memory
controller, once per stream memory op when it issues the op. The SRF's
timing model never touches it.

:class:`SrfAllocator` hands out block-aligned regions of the global SRF
address space, the way the Imagine stream scheduler assigns SRF space to
streams. Benchmarks allocate their working set once and reuse it across
outer-loop iterations (strip-mined execution, paper Section 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.geometry import SrfGeometry
from repro.errors import SrfAccessError, SrfAllocationError


@dataclass(frozen=True)
class SrfAllocation:
    """A contiguous, block-aligned region of global SRF address space."""

    name: str
    base: int
    words: int

    @property
    def end(self) -> int:
        """One past the last word of the region."""
        return self.base + self.words


class SrfAllocator:
    """First-fit allocator over the global SRF word space.

    Allocations are rounded up to whole ``N x m`` blocks because a
    sequential SRF access always moves a full block; this mirrors how
    stream base addresses are block-aligned in hardware.
    """

    def __init__(self, geometry: SrfGeometry):
        self._geometry = geometry
        self._regions: list = []  # sorted list of SrfAllocation

    @property
    def allocated_words(self) -> int:
        """Total words currently allocated (including alignment padding)."""
        return sum(region.words for region in self._regions)

    @property
    def free_words(self) -> int:
        """Words not currently allocated."""
        return self._geometry.total_words - self.allocated_words

    def allocate(self, words: int, name: str = "stream") -> SrfAllocation:
        """Allocate ``words`` of SRF space, rounded up to whole blocks."""
        if words <= 0:
            raise SrfAllocationError(f"{name}: allocation must be positive")
        block = self._geometry.block_words
        size = ((words + block - 1) // block) * block
        cursor = 0
        for position, region in enumerate(self._regions):
            if region.base - cursor >= size:
                allocation = SrfAllocation(name, cursor, size)
                self._regions.insert(position, allocation)
                return allocation
            cursor = region.end
        if self._geometry.total_words - cursor >= size:
            allocation = SrfAllocation(name, cursor, size)
            self._regions.append(allocation)
            return allocation
        raise SrfAllocationError(
            f"{name}: cannot allocate {size} words "
            f"({self.free_words} free of {self._geometry.total_words})"
        )

    def free(self, allocation: SrfAllocation) -> None:
        """Return a region to the free pool."""
        try:
            self._regions.remove(allocation)
        except ValueError:
            raise SrfAllocationError(
                f"{allocation.name}: not an active allocation"
            ) from None

    def reset(self) -> None:
        """Free every allocation."""
        self._regions.clear()


class SrfStorage:
    """Word-granular functional contents of the SRF.

    Words hold arbitrary Python values (floats, ints, or small tuples for
    packed records); only the kernel interpreter interprets them.
    """

    def __init__(self, geometry: SrfGeometry):
        self._geometry = geometry
        self._words = [0] * geometry.total_words
        # Mapping factors inlined into the lane accessors, which sit on
        # the per-word hot path of indexed access.
        self._lanes = geometry.lanes
        self._bank_words = geometry.bank_words
        self._lane_stride = geometry.words_per_lane_access
        self._block_words = geometry.block_words

    @property
    def geometry(self) -> SrfGeometry:
        return self._geometry

    # -- global addressing ---------------------------------------------
    def read(self, global_addr: int):
        """Read the word at a global SRF address."""
        self._check(global_addr)
        return self._words[global_addr]

    def write(self, global_addr: int, value) -> None:
        """Write the word at a global SRF address."""
        self._check(global_addr)
        self._words[global_addr] = value

    def read_range(self, base: int, count: int) -> list:
        """Read ``count`` consecutive global words starting at ``base``."""
        if count < 0:
            raise SrfAccessError("negative read_range count")
        self._check(base)
        if count:
            self._check(base + count - 1)
        return self._words[base : base + count]

    def write_range(self, base: int, values) -> None:
        """Write consecutive global words starting at ``base``."""
        values = list(values)
        if values:
            self._check(base)
            self._check(base + len(values) - 1)
            self._words[base : base + len(values)] = values

    # -- bank-local addressing -------------------------------------------
    def read_lane(self, lane: int, bank_local: int):
        """Read one word of a lane's bank by bank-local address."""
        if not (0 <= lane < self._lanes and 0 <= bank_local < self._bank_words):
            self._geometry.join(lane, bank_local)  # raises the precise error
        m = self._lane_stride
        super_block, offset = divmod(bank_local, m)
        return self._words[super_block * self._block_words + lane * m + offset]

    def write_lane(self, lane: int, bank_local: int, value) -> None:
        """Write one word of a lane's bank by bank-local address."""
        if not (0 <= lane < self._lanes and 0 <= bank_local < self._bank_words):
            self._geometry.join(lane, bank_local)  # raises the precise error
        m = self._lane_stride
        super_block, offset = divmod(bank_local, m)
        self._words[super_block * self._block_words + lane * m + offset] = value

    def _check(self, addr: int) -> None:
        if not 0 <= addr < len(self._words):
            raise SrfAccessError(
                f"SRF address {addr} out of range [0,{len(self._words)})"
            )
