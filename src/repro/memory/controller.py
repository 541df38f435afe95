"""The stream memory controller.

Executes :class:`~repro.memory.ops.StreamMemoryOp` transfers cycle by
cycle, mediating between three rate-limited resources:

* DRAM bus budget and row-buffer locality (:class:`DramModel`);
* optional on-chip cache bandwidth (``Cache`` configuration);
* the SRF port, which memory streams share with kernel streams via their
  own stream-buffer ports (paper §4.3) — modelled by registering each
  active op with the SRF arbiter as a sequential requester.

An op's words move once, when :meth:`MemoryController.issue` copies
them between :class:`MainMemory` and SRF storage; the rest of the op is
timed by counts alone. This is exact because ``python -m repro.analyze``
rejects as ``srf-race`` or ``mem-race`` any task that could see the
words in between. A bounded per-op staging count (the memory-side
stream buffer) lets a stalled SRF port throttle DRAM fetches and vice
versa, exactly the decoupling the paper relies on to overlap memory
transfers with kernel execution.

Each cycle's transfer round is one pass over the active ops in issue
order. A ready op moves as many words as its staging room and the
bandwidth allow: a non-cached op charges its run of addresses to DRAM
in one :meth:`DramModel.access_run` call, and a cached op makes one
cache access per word. Since a refusal is final within a cycle, this
moves the same words in the same order as moving one word at a time
and restarting from the oldest op. An SRF grant moves one block of the
op's stream between the staging buffer and the SRF side.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.cache import BankedCache
from repro.config.machine import MachineConfig
from repro.core.srf import StreamRegisterFile
from repro.errors import MemorySystemError
from repro.memory.dram import DramModel
from repro.memory.mainmem import MainMemory
from repro.memory.ops import StreamMemoryOp


@dataclass
class MemoryStats:
    """Aggregate controller statistics."""

    ops_completed: int = 0
    offchip_words: int = 0
    cache_hit_words: int = 0
    busy_cycles: int = 0


class _ActiveOp:
    """Runtime state of one in-flight stream memory operation.

    The op is its own SRF-port client: it implements the same
    ``wants_grant``/``on_grant`` protocol as kernel
    :class:`~repro.core.srf.SequentialPort` objects, so the single SRF
    port arbitrates between kernel and memory streams uniformly. Each
    grant moves one block of the op's block-aligned SRF stream between
    the SRF and the staging buffer; the words themselves moved at issue.
    """

    #: Staging (memory-side stream buffer) capacity in words: two full
    #: SRF blocks of decoupling per op.
    STAGING_BLOCKS = 2

    def __init__(self, op: StreamMemoryOp, block_words: int,
                 issue_cycle: int, ready_cycle: int, cached: bool):
        self.op = op
        self.into_srf = op.into_srf
        self.addrs = op.mem_addrs
        self.words = len(op.mem_addrs)
        #: Whether the words go through the cache (a cacheable op on a
        #: machine with one).
        self.cached = cached
        self.issue_cycle = issue_cycle
        self.ready_cycle = ready_cycle
        self.mem_cursor = 0  # words moved on the DRAM/cache side
        self.srf_cursor = 0  # words moved through the SRF port
        #: Words between the two sides: read from memory and not yet
        #: granted into the SRF (loads), or granted out of the SRF and
        #: not yet written to memory (stores).
        self.staged = 0
        self.block_words = block_words
        self.staging_capacity = self.STAGING_BLOCKS * block_words
        #: Words of the next block, kept by :meth:`on_grant`.
        self._width = min(block_words, self.words)

    def wants_grant(self) -> bool:
        if self.srf_cursor >= self.words:
            return False
        if self.into_srf:
            return self.staged >= self._width
        return self.staging_capacity - self.staged >= self._width

    def on_grant(self, cycle: int) -> int:
        width = self._width
        if self.into_srf:
            self.staged -= width
        else:
            self.staged += width
        self.srf_cursor += width
        self._width = min(self.block_words, self.words - self.srf_cursor)
        return width

    @property
    def done(self) -> bool:
        """Every word has reached its destination side.

        A load is done when its last block is granted into the SRF and a
        store when its last word is written to memory: with block-aligned
        streams each side's words are the op's, so the other side and the
        staging buffer are then necessarily finished too.
        """
        if self.into_srf:
            return self.srf_cursor >= self.words
        return self.mem_cursor >= self.words


class MemoryController:
    """Cycle-steppable controller for all stream memory traffic.

    ``issue`` starts an op (moving its words and registering it with the
    SRF port); ``tick`` advances DRAM/cache transfers by one cycle;
    ``is_complete`` reports completion for the machine's stream-op
    dependency tracking.
    """

    def __init__(self, config: MachineConfig, srf: StreamRegisterFile,
                 memory: MainMemory):
        self.config = config
        self.srf = srf
        self.memory = memory
        self.dram = DramModel(config)
        self.cache = BankedCache(config) if config.has_cache else None
        self._cache_credit = 0.0
        self._active = []
        self._completed = {}
        self.stats = MemoryStats()
        #: Event tracer (repro.observe) the processor hands a traced
        #: machine's controller; each stream memory op becomes an async
        #: span on the ``memory`` track, paired by ``op_id`` (async
        #: because transfers overlap). None when disabled.
        self.tracer = None

    # ------------------------------------------------------------------
    def issue(self, op: StreamMemoryOp, cycle: int) -> None:
        """Begin executing a stream memory op at ``cycle``.

        ``cacheable`` is a hint: on machines without a cache it simply
        degrades to a plain DRAM access pattern. The op's SRF stream must
        start on a block boundary, since the port moves whole blocks.
        This is the only place the op's words move.
        """
        geometry = self.srf.geometry
        srf_base = op.srf.base
        geometry.check_block_aligned(
            srf_base, op.describe(), MemorySystemError
        )
        storage = self.srf.storage
        if op.into_srf:
            storage.write_range(srf_base, self.memory.read_words(op.mem_addrs))
        else:
            self.memory.write_words(
                op.mem_addrs, storage.read_range(srf_base, op.words)
            )
        cached = self.cache is not None and op.cacheable
        ready = cycle + (
            self.cache.hit_latency if cached
            else self.config.dram_latency_cycles
        )
        active = _ActiveOp(op, geometry.block_words, cycle, ready, cached)
        self._active.append(active)
        self.srf.attach_port(active)
        if self.tracer is not None:
            self.tracer.async_begin(
                "memory", op.describe(), cycle, event_id=op.op_id,
                words=op.words, into_srf=op.into_srf,
                cacheable=op.cacheable,
            )

    def is_complete(self, op_id: int) -> bool:
        return op_id in self._completed

    @property
    def busy(self) -> bool:
        return bool(self._active)

    @property
    def completed_ops(self) -> int:
        """Total stream memory ops retired so far (monotonic)."""
        return len(self._completed)

    # ------------------------------------------------------------------
    def next_event_cycle(self, cycle: int) -> "int | None":
        """No caller; kept because bench/layers.py wraps it by name
        (ROADMAP item 8)."""
        raise NotImplementedError("every cycle ticks the controller")

    def fast_forward(self, cycles: int) -> None:
        """No caller; kept because bench/layers.py wraps it by name
        (ROADMAP item 8)."""
        raise NotImplementedError("every cycle ticks the controller")

    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        """Advance DRAM/cache transfers by one cycle."""
        self.dram.begin_cycle()
        if self.cache is not None:
            self._cache_credit = min(
                self._cache_credit + self.cache.words_per_cycle,
                4.0 * self.cache.words_per_cycle,
            )
        if not self._active:
            return
        self.stats.busy_cycles += 1
        self._transfer_round(cycle)
        self._retire(cycle)

    def _transfer_round(self, cycle: int) -> None:
        """Advance the memory side of active ops, oldest op first.

        The stream controller drains its command queue in issue order,
        so the oldest transfer gets the full remaining bus — this is
        what lets a dependent kernel start as early as possible while
        later (prefetch) transfers fill leftover bandwidth.

        Each ready op advances its memory-side cursor until its staging
        buffer or the bandwidth refuses the next word. A refusal is final
        for the cycle: staging changes only at SRF grants, which come
        after this tick; DRAM and cache credit only fall; and a cache
        fill that could make a later probe hit needs the DRAM credit the
        refusal proved spent. So one pass in issue order moves the same
        words in the same order as restarting from the oldest op after
        every word.
        """
        for active in self._active:  # issue order
            cursor = active.mem_cursor
            if cycle < active.ready_cycle or cursor >= active.words:
                continue
            # Staging room: free slots for a load, staged words for a
            # store.
            if active.into_srf:
                room = active.staging_capacity - active.staged
            else:
                room = active.staged
            stop = min(cursor + room, active.words)
            if stop <= cursor:
                continue
            if active.cached:
                moved = self._move_cached(active, cursor, stop)
            else:
                moved = self.dram.access_run(
                    active.addrs, cursor, stop, not active.into_srf
                )
                self.stats.offchip_words += moved
            if not moved:
                continue
            if active.into_srf:
                active.staged += moved
            else:
                active.staged -= moved
            active.mem_cursor = cursor + moved

    def _move_cached(self, active: _ActiveOp, cursor: int, stop: int) -> int:
        """Access ``active``'s words ``cursor..stop-1`` through the cache,
        one at a time, until cache credit runs out or a miss finds no
        DRAM credit for its fill; returns the number accessed."""
        cache = self.cache
        dram = self.dram
        stats = self.stats
        addrs = active.addrs
        is_write = not active.into_srf
        credit = self._cache_credit
        index = cursor
        while index < stop and credit > 0.0:
            addr = addrs[index]
            if not dram.can_access() and not cache.probe(addr):
                break  # a miss needs DRAM budget for the fill
            result = cache.access(addr, is_write)
            credit -= 1.0
            if result.hit:
                stats.cache_hit_words += 1
            else:
                for k in range(result.dram_read_words):
                    dram.charge(result.fill_base + k, False)
                for k in range(result.dram_writeback_words):
                    dram.charge(result.writeback_base + k, True)
                stats.offchip_words += result.dram_words
            index += 1
        self._cache_credit = credit
        return index - cursor

    def _retire(self, cycle: int) -> None:
        finished = [a for a in self._active if a.done]
        for active in finished:
            self._active.remove(active)
            self.srf.close_sequential(active)
            self._completed[active.op.op_id] = cycle
            self.stats.ops_completed += 1
            if self.tracer is not None:
                self.tracer.async_end(
                    "memory", active.op.describe(), cycle,
                    event_id=active.op.op_id,
                )

    # ------------------------------------------------------------------
    def inflight_report(self) -> list:
        """Human-readable lines for each active op (deadlock forensics)."""
        lines = []
        for active in self._active:
            direction = "mem->SRF" if active.into_srf else "SRF->mem"
            lines.append(
                f"{active.op.describe()} ({direction}): issued cycle "
                f"{active.issue_cycle}, ready cycle {active.ready_cycle}, "
                f"{active.mem_cursor}/{active.words} words moved, "
                f"{active.staged} staged, {active.srf_cursor}/{active.words} "
                "through the SRF port"
            )
        return lines

    @property
    def offchip_traffic_words(self) -> int:
        """Total words moved on the off-chip interface so far."""
        return self.dram.stats.total_words
