"""Physical geometry of the stream register file SRAM.

The SRF of an N-lane stream processor (paper Figure 6) is built from N
banks, one per lane. Each bank holds ``bank_words`` words and is composed
of ``s`` sub-arrays. A sequential SRF access moves one *block* of
``N x m`` logically contiguous words — ``m`` consecutive words in every
lane — out of a single sub-array per bank. Indexed accesses (Figure 7)
read or write single words, and two indexed accesses conflict when they
target the same sub-array of the same bank in the same cycle.

Two address spaces are used throughout the library:

* **global word addresses** ``0 .. srf_words-1``: the linear space seen by
  the stream allocator and by sequential block transfers;
* **bank-local word addresses** ``0 .. bank_words-1``: the space seen by a
  single lane's indexed accesses.

The mapping stripes each ``N x m``-word block across all lanes, ``m``
words per lane, so a sequential block access touches every bank once:

``global = super_block * (N*m) + lane * m + offset``

where ``bank_local = super_block * m + offset``.  Within a bank,
consecutive ``m``-word groups are interleaved across sub-arrays
(``sub_array = (bank_local // m) % s``) so that a sequential block stays
inside one sub-array while fine-grained indexed accesses spread across
sub-arrays — the property the ISRF4 design of Section 4.2 relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SrfAccessError, SrfError


@dataclass(frozen=True)
class SrfGeometry:
    """Address arithmetic for an SRF with ``lanes`` banks of ``s`` sub-arrays.

    Parameters mirror the paper's notation: ``lanes`` is N,
    ``words_per_lane_access`` is m, and ``subarrays_per_bank`` is s.
    """

    lanes: int
    bank_words: int
    words_per_lane_access: int
    subarrays_per_bank: int

    def __post_init__(self) -> None:
        # Derived quantities, cached because address arithmetic sits on
        # the per-word hot path of the simulator.
        #: Total SRF capacity in words across all banks.
        object.__setattr__(self, "total_words", self.lanes * self.bank_words)
        #: Words moved by one sequential SRF access (N x m).
        object.__setattr__(
            self, "block_words", self.lanes * self.words_per_lane_access
        )
        #: Capacity of one sub-array in words.
        object.__setattr__(
            self, "subarray_words",
            self.bank_words // self.subarrays_per_bank,
        )

    # ------------------------------------------------------------------
    # Global <-> bank-local mapping
    # ------------------------------------------------------------------
    def split(self, global_addr: int) -> tuple:
        """Map a global word address to ``(lane, bank_local_addr)``."""
        self._check_global(global_addr)
        m = self.words_per_lane_access
        super_block, rem = divmod(global_addr, self.block_words)
        lane, offset = divmod(rem, m)
        return lane, super_block * m + offset

    def join(self, lane: int, bank_local: int) -> int:
        """Map ``(lane, bank_local_addr)`` back to a global word address."""
        if not 0 <= lane < self.lanes:
            raise SrfAccessError(f"lane {lane} out of range [0,{self.lanes})")
        self._check_local(bank_local)
        m = self.words_per_lane_access
        super_block, offset = divmod(bank_local, m)
        return super_block * self.block_words + lane * m + offset

    def lane_of(self, global_addr: int) -> int:
        """Lane (bank) holding a global word address."""
        return self.split(global_addr)[0]

    def subarray_of(self, bank_local: int) -> int:
        """Sub-array within a bank holding a bank-local word address."""
        self._check_local(bank_local)
        m = self.words_per_lane_access
        return (bank_local // m) % self.subarrays_per_bank

    # ------------------------------------------------------------------
    # Block helpers for sequential access
    # ------------------------------------------------------------------
    def block_of(self, global_addr: int) -> int:
        """Index of the N x m block containing a global address."""
        self._check_global(global_addr)
        return global_addr // self.block_words

    def block_base(self, block: int) -> int:
        """First global word address of block ``block``."""
        base = block * self.block_words
        self._check_global(base)
        return base

    def check_block_aligned(self, base: int, stream: str,
                            error: type = SrfError) -> None:
        """Raise ``error`` naming ``stream`` unless ``base`` starts a
        block, as every SRF stream must: its port moves whole blocks."""
        if base % self.block_words:
            raise error(
                f"{stream}: SRF base {base} is not aligned to a "
                f"{self.block_words}-word block"
            )

    def blocks_spanned(self, base: int, length: int) -> int:
        """Number of N x m blocks touched by ``length`` words at ``base``."""
        if length <= 0:
            return 0
        first = self.block_of(base)
        last = self.block_of(base + length - 1)
        return last - first + 1

    # ------------------------------------------------------------------
    def _check_global(self, addr: int) -> None:
        if not 0 <= addr < self.total_words:
            raise SrfAccessError(
                f"global SRF address {addr} out of range [0,{self.total_words})"
            )

    def _check_local(self, addr: int) -> None:
        if not 0 <= addr < self.bank_words:
            raise SrfAccessError(
                f"bank-local SRF address {addr} out of range "
                f"[0,{self.bank_words})"
            )
