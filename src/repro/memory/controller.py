"""The stream memory controller.

Executes :class:`~repro.memory.ops.StreamMemoryOp` transfers cycle by
cycle, mediating between three rate-limited resources:

* DRAM bus budget and row-buffer locality (:class:`DramModel`);
* optional on-chip cache bandwidth (``Cache`` configuration);
* the SRF port, which memory streams share with kernel streams via their
  own stream-buffer ports (paper §4.3) — modelled by registering a
  :class:`MemoryPort` per active op with the SRF arbiter.

Data staged between DRAM and the SRF lives in a bounded per-op staging
buffer (the memory-side stream buffer), so a stalled SRF port throttles
DRAM fetches and vice versa, exactly the decoupling the paper relies on
to overlap memory transfers with kernel execution.

Each cycle's transfer round is one pass over the active ops in issue
order. A ready op moves as many words as its staging room and the
bandwidth allow: a non-cached op charges its run of addresses to DRAM
in one :meth:`DramModel.access_run` call, and a cached op makes one
cache access per word. Since a refusal is final within a cycle, this
moves the same words in the same order as moving one word at a time
and restarting from the oldest op. The SRF port moves whole blocks
between the staging buffer and SRF storage when it is granted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.cache import BankedCache
from repro.config.machine import MachineConfig
from repro.core.srf import StreamRegisterFile
from repro.errors import MemorySystemError
from repro.memory.dram import (
    DramModel,
    accrue_credit,
    idle_cycles_until_positive,
)
from repro.memory.mainmem import MainMemory
from repro.memory.ops import StreamMemoryOp


@dataclass
class MemoryStats:
    """Aggregate controller statistics."""

    ops_completed: int = 0
    offchip_words: int = 0
    cache_hit_words: int = 0
    busy_cycles: int = 0


class MemoryPort:
    """SRF-port adapter for one active memory stream op.

    Implements the same ``wants_grant``/``on_grant`` protocol as kernel
    :class:`~repro.core.srf.SequentialPort` objects, so the single SRF
    port arbitrates between kernel and memory streams uniformly. Each
    grant moves one block of the op's block-aligned SRF stream between
    storage and the op's staging buffer.
    """

    def __init__(self, op: "_ActiveOp", srf: StreamRegisterFile):
        self._op = op
        self._storage = srf.storage
        self._into_srf = op.into_srf
        self._base = op.op.srf.base
        self.block_words = srf.geometry.block_words
        self._total_blocks = srf.geometry.blocks_spanned(self._base, op.words)
        self._blocks_done = 0
        #: Words of the next block, kept by :meth:`on_grant`.
        self._width = min(self.block_words, op.words)

    def wants_grant(self) -> bool:
        if self._blocks_done >= self._total_blocks:
            return False
        if self._into_srf:
            return len(self._op.staging) >= self._width
        return (self._op.staging_capacity - len(self._op.staging)
                >= self._width)

    def on_grant(self, cycle: int) -> int:
        op = self._op
        width = self._width
        base = self._base + op.srf_cursor
        if self._into_srf:
            self._storage.write_range(base, op.unstage(width))
        else:
            op.staging.extend(self._storage.read_range(base, width))
        self._blocks_done += 1
        op.srf_cursor += width
        self._width = min(self.block_words, op.words - op.srf_cursor)
        return width


class _ActiveOp:
    """Runtime state of one in-flight stream memory operation."""

    #: Staging (memory-side stream buffer) capacity in words: two full
    #: SRF blocks of decoupling per op.
    STAGING_BLOCKS = 2

    def __init__(self, op: StreamMemoryOp, srf: StreamRegisterFile,
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
        #: Words between the two sides, oldest first: read from memory
        #: and not yet granted into the SRF (loads), or granted out of
        #: the SRF and not yet written to memory (stores).
        self.staging = []
        self.port = MemoryPort(self, srf)
        self.staging_capacity = self.STAGING_BLOCKS * self.port.block_words

    def unstage(self, count: int) -> list:
        """Take the ``count`` oldest staged words."""
        values = self.staging[:count]
        del self.staging[:count]
        return values

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

    ``issue`` starts an op (registering its SRF port); ``tick`` advances
    DRAM/cache transfers by one cycle; ``is_complete`` reports
    completion for the machine's stream-op dependency tracking.
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
        # Observability (repro.observe); None when disabled.
        self._tracer = None
        self._ops_counter = None

    # ------------------------------------------------------------------
    # Observability (repro.observe)
    # ------------------------------------------------------------------
    def install_observer(self, observer) -> None:
        """Attach an :class:`repro.observe.Observer`; None is a no-op.

        Each stream memory op becomes an async trace span on the
        ``memory`` track (async because transfers overlap), paired by
        ``op_id``. The metrics registry sees the controller and DRAM
        aggregates via providers and, at any level, a live counter of
        issued ops used by the trace/metrics reconciliation tests.
        """
        if observer is None:
            return
        self._tracer = observer.tracer
        self.dram.install_observer(observer)
        if observer.metrics is not None:
            observer.metrics.add_provider(self._metrics_provider)
            self._ops_counter = observer.metrics.counter("memory.ops_issued")

    def _metrics_provider(self) -> dict:
        s = self.stats
        return {
            "memory.ops_completed": s.ops_completed,
            "memory.offchip_words": s.offchip_words,
            "memory.cache_hit_words": s.cache_hit_words,
            "memory.busy_cycles": s.busy_cycles,
        }

    # ------------------------------------------------------------------
    def issue(self, op: StreamMemoryOp, cycle: int) -> None:
        """Begin executing a stream memory op at ``cycle``.

        ``cacheable`` is a hint: on machines without a cache it simply
        degrades to a plain DRAM access pattern. The op's SRF stream must
        start on a block boundary, since the port moves whole blocks.
        """
        block_words = self.srf.geometry.block_words
        if op.srf.base % block_words:
            raise MemorySystemError(
                f"{op.describe()}: SRF base {op.srf.base} is not aligned "
                f"to a {block_words}-word block"
            )
        cached = self.cache is not None and op.cacheable
        ready = cycle + (
            self.cache.hit_latency if cached
            else self.config.dram_latency_cycles
        )
        active = _ActiveOp(op, self.srf, cycle, ready, cached)
        self._active.append(active)
        self.srf.attach_port(active.port)
        if self._tracer is not None:
            self._tracer.async_begin(
                "memory", op.describe(), cycle, event_id=op.op_id,
                words=op.words, into_srf=op.into_srf,
                cacheable=op.cacheable,
            )
        if self._ops_counter is not None:
            self._ops_counter.add()

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
    # Fast-forward support
    # ------------------------------------------------------------------
    def next_event_cycle(self, cycle: int) -> "int | None":
        """Earliest cycle at which :meth:`tick` could change state.

        Returns ``cycle`` itself when the upcoming tick may do real work
        (a retirement is pending, or a ready transfer can move a word),
        a future cycle when every active op is waiting out a fixed
        latency or a bandwidth-credit refill, and ``None`` when any
        remaining activity is driven purely from the SRF side (or there
        is none). Callers may skip the intervening cycles provided they
        route them through :meth:`fast_forward` so credit accrual and
        busy accounting stay bit-identical to per-cycle stepping.
        """
        nxt = None
        for active in self._active:
            if active.done:
                return cycle  # retirement pending at the next tick
            if active.mem_cursor >= active.words:
                continue  # progress now comes through the SRF port
            if active.ready_cycle > cycle:
                candidate = active.ready_cycle
            else:
                wait = self._transfer_stall_cycles(active)
                if wait is None:
                    continue  # blocked on the SRF side, not on memory
                if wait == 0:
                    return cycle
                candidate = cycle + wait
            if nxt is None or candidate < nxt:
                nxt = candidate
        return nxt

    def _transfer_stall_cycles(self, active: _ActiveOp) -> "int | None":
        """Cycles before ``active`` could move its next word, or None.

        Mirrors the refusals of :meth:`_transfer_round` without side
        effects. ``None`` means the op waits on SRF-port progress (its
        stream-buffer staging), which the SRF reports separately; an
        integer means the op is bandwidth-bound and unblocks after that
        many credit-accrual cycles.
        """
        if active.into_srf:
            if len(active.staging) >= active.staging_capacity:
                return None
        elif not active.staging:
            return None
        if active.cached:
            step = self.cache.words_per_cycle
            wait = idle_cycles_until_positive(
                self._cache_credit, step, 4.0 * step
            )
            if not self.cache.probe(active.addrs[active.mem_cursor]):
                wait = max(wait, self.dram.cycles_until_can_access())
            return wait
        return self.dram.cycles_until_can_access()

    def fast_forward(self, cycles: int) -> None:
        """Apply ``cycles`` ticks of counter-only bookkeeping in bulk.

        Only valid when :meth:`next_event_cycle` reported no possible
        state change for the whole window: accrues DRAM/cache bandwidth
        credit exactly as ``cycles`` calls to :meth:`tick` would and
        charges busy-cycle accounting, without scanning transfers.
        """
        self.dram.accrue_idle_cycles(cycles)
        if self.cache is not None:
            step = self.cache.words_per_cycle
            self._cache_credit = accrue_credit(
                self._cache_credit, step, 4.0 * step, cycles
            )
        if self._active:
            self.stats.busy_cycles += cycles

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
        """Move words for active ops, oldest op first.

        The stream controller drains its command queue in issue order,
        so the oldest transfer gets the full remaining bus — this is
        what lets a dependent kernel start as early as possible while
        later (prefetch) transfers fill leftover bandwidth.

        Each ready op moves words until its staging buffer or the
        bandwidth refuses the next one. A refusal is final for the
        cycle: staging changes only at SRF grants, which come after this
        tick; DRAM and cache credit only fall; and a cache fill that
        could make a later probe hit needs the DRAM credit the refusal
        proved spent. So one pass in issue order moves the same words
        in the same order as restarting from the oldest op after every
        word.
        """
        for active in self._active:  # issue order
            cursor = active.mem_cursor
            if cycle < active.ready_cycle or cursor >= active.words:
                continue
            # Staging room: free slots for a load, staged words for a
            # store.
            if active.into_srf:
                room = active.staging_capacity - len(active.staging)
            else:
                room = len(active.staging)
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
            # Functional transfer.
            addrs = active.addrs[cursor : cursor + moved]
            if active.into_srf:
                active.staging.extend(self.memory.read_words(addrs))
            else:
                self.memory.write_words(addrs, active.unstage(moved))
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
            self.srf.detach_port(active.port)
            active.port = None  # the port points back at its op
            self._completed[active.op.op_id] = cycle
            self.stats.ops_completed += 1
            if self._tracer is not None:
                self._tracer.async_end(
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
                f"{len(active.staging)} staged"
            )
        return lines

    @property
    def offchip_traffic_words(self) -> int:
        """Total words moved on the off-chip interface so far."""
        return self.dram.stats.total_words
