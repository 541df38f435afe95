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


def _accrual_cycles_until_positive(credit: float, step: float,
                                   cap: float) -> int:
    """Idle cycles before a per-cycle ``min(credit + step, cap)`` refill
    lifts ``credit`` above zero (0 = the very next accrual suffices)."""
    accruals = 0
    while True:
        credit = min(credit + step, cap)
        accruals += 1
        if credit > 0.0:
            return accruals - 1


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
    port arbitrates between kernel and memory streams uniformly.
    """

    def __init__(self, op: "_ActiveOp", srf: StreamRegisterFile):
        self._op = op
        self._srf = srf
        self._into_srf = op.op.into_srf
        geometry = srf.geometry
        self.block_words = geometry.block_words
        self._total_blocks = geometry.blocks_spanned(
            op.op.srf.base, op.op.words
        )
        self._blocks_done = 0

    @property
    def srf_done(self) -> bool:
        return self._blocks_done >= self._total_blocks

    def _block_window(self) -> tuple:
        base = self._op.op.srf.base + self._blocks_done * self.block_words
        width = min(
            self.block_words,
            self._op.op.words - self._blocks_done * self.block_words,
        )
        return base, width

    def wants_grant(self) -> bool:
        if self._blocks_done >= self._total_blocks:
            return False
        _base, width = self._block_window()
        if self._into_srf:
            return self._op.staged_available() >= width
        return self._op.staging_space() >= width

    def on_grant(self, cycle: int) -> int:
        base, width = self._block_window()
        if self._into_srf:
            values = self._op.consume_staged(width)
            self._srf.storage.write_range(base, values)
        else:
            values = self._srf.filter_words(
                self._srf.storage.read_range(base, width)
            )
            self._op.stage(values)
        self._blocks_done += 1
        return width


class _ActiveOp:
    """Runtime state of one in-flight stream memory operation."""

    #: Staging (memory-side stream buffer) capacity in words: two full
    #: SRF blocks of decoupling per op.
    STAGING_BLOCKS = 2

    def __init__(self, op: StreamMemoryOp, srf: StreamRegisterFile,
                 issue_cycle: int, ready_cycle: int):
        self.op = op
        self.into_srf = op.into_srf
        self.issue_cycle = issue_cycle
        self.ready_cycle = ready_cycle
        self.mem_cursor = 0  # words moved on the DRAM/cache side
        self._staging = []
        self._staging_consumed = 0
        self.port = MemoryPort(self, srf)
        self.staging_capacity = self.STAGING_BLOCKS * self.port.block_words
        self.complete_cycle = None

    # -- staging buffer ---------------------------------------------------
    def staged_available(self) -> int:
        return len(self._staging) - self._staging_consumed

    def staging_space(self) -> int:
        return self.staging_capacity - self.staged_available()

    def stage(self, values) -> None:
        self._staging.extend(values)

    def consume_staged(self, count: int) -> list:
        start = self._staging_consumed
        if self.staged_available() < count:
            raise MemorySystemError(f"{self.op.describe()}: staging underrun")
        self._staging_consumed += count
        values = self._staging[start : start + count]
        if self._staging_consumed >= 4 * self.staging_capacity:
            del self._staging[: self._staging_consumed]
            self._staging_consumed = 0
        return values

    # -- progress ----------------------------------------------------------
    @property
    def mem_done(self) -> bool:
        return self.mem_cursor >= self.op.words

    @property
    def done(self) -> bool:
        if self.into_srf:
            return self.mem_done and self.port.srf_done
        return self.port.srf_done and self.mem_done and (
            self.staged_available() == 0
        )


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
        self._round_robin = 0
        self._completed = {}
        self.stats = MemoryStats()
        # Fault injection (repro.faults); both None when disabled.
        self._dram_injector = None
        self._delay_schedule = None
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
    # Fault injection (repro.faults)
    # ------------------------------------------------------------------
    def install_faults(self, injector=None, delay_schedule=None) -> None:
        """Attach a DRAM-word bit-flip injector and/or a response-delay
        schedule (:class:`repro.faults.BitFlipInjector` /
        :class:`repro.faults.DelaySchedule`)."""
        self._dram_injector = injector
        self._delay_schedule = delay_schedule

    def _filter_dram(self, value):
        injector = self._dram_injector
        if injector is None or not injector.armed:
            return value
        return injector.filter(value)

    # ------------------------------------------------------------------
    def issue(self, op: StreamMemoryOp, cycle: int) -> None:
        """Begin executing a stream memory op at ``cycle``.

        ``cacheable`` is a hint: on machines without a cache it simply
        degrades to a plain DRAM access pattern.
        """
        ready = cycle + (
            self.cache.hit_latency
            if self.cache is not None and op.cacheable
            else self.config.dram_latency_cycles
        )
        if self._delay_schedule is not None:
            # Faulted memory part: responses issued after a delay event's
            # cycle arrive late by the event's duration.
            ready += self._delay_schedule.extra_latency(cycle)
        active = _ActiveOp(op, self.srf, cycle, ready)
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
            if active.mem_done:
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

        Mirrors the gating of :meth:`_move_one_word` without side
        effects. ``None`` means the op waits on SRF-port progress (its
        stream-buffer staging), which the SRF reports separately; an
        integer means the op is bandwidth-bound and unblocks after that
        many credit-accrual cycles.
        """
        op = active.op
        if active.into_srf:
            if active.staging_space() <= 0:
                return None
        elif active.staged_available() <= 0:
            return None
        if op.cacheable and self.cache is not None:
            wait = _accrual_cycles_until_positive(
                self._cache_credit,
                self.cache.words_per_cycle,
                4.0 * self.cache.words_per_cycle,
            )
            addr = op.mem_addrs[active.mem_cursor]
            if not self.cache.probe(addr):
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
            credit = self._cache_credit
            step = self.cache.words_per_cycle
            cap = 4.0 * step
            for _ in range(cycles):
                if credit == cap:
                    break
                credit = min(credit + step, cap)
            self._cache_credit = credit
        if self._active:
            self.stats.busy_cycles += cycles

    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        """Advance DRAM/cache transfers by one cycle."""
        if self._dram_injector is not None:
            self._dram_injector.advance(cycle)
        self.dram.begin_cycle()
        if self.cache is not None:
            self._cache_credit = min(
                self._cache_credit + self.cache.words_per_cycle,
                4.0 * self.cache.words_per_cycle,
            )
        if self._active:
            self.stats.busy_cycles += 1
        self._transfer_round(cycle)
        self._retire(cycle)

    def _transfer_round(self, cycle: int) -> None:
        """Move words for active ops, oldest op first.

        The stream controller drains its command queue in issue order,
        so the oldest transfer gets the full remaining bus — this is
        what lets a dependent kernel start as early as possible while
        later (prefetch) transfers fill leftover bandwidth.
        """
        progressing = True
        while progressing:
            progressing = False
            for active in self._active:  # issue order
                if cycle < active.ready_cycle or active.mem_done:
                    continue
                if self._move_one_word(active):
                    progressing = True
                    break

    def _move_one_word(self, active: _ActiveOp) -> bool:
        """Try to move the next word of ``active`` on the memory side."""
        op = active.op
        into_srf = active.into_srf
        if into_srf:
            if active.staging_space() <= 0:
                return False
        elif active.staged_available() <= 0:
            return False
        addr = op.mem_addrs[active.mem_cursor]
        is_write = not into_srf
        if op.cacheable and self.cache is not None:
            if self._cache_credit <= 0.0:
                return False
            if not self.cache.probe(addr) and not self.dram.can_access():
                return False  # a miss needs DRAM budget for the fill
            result = self.cache.access(addr, is_write)
            self._cache_credit -= 1.0
            if result.hit:
                self.stats.cache_hit_words += 1
            else:
                for k in range(result.dram_read_words):
                    self.dram.charge(result.fill_base + k, False)
                for k in range(result.dram_writeback_words):
                    self.dram.charge(result.writeback_base + k, True)
                self.stats.offchip_words += result.dram_words
        else:
            if not self.dram.try_access(addr, is_write):
                return False
            self.stats.offchip_words += 1
        # Functional transfer.
        if into_srf:
            active.stage([self._filter_dram(self.memory.read(addr))])
        else:
            value = active.consume_staged(1)[0]
            self.memory.write(addr, value)
        active.mem_cursor += 1
        return True

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
                f"{active.mem_cursor}/{active.op.words} words moved, "
                f"{active.staged_available()} staged"
            )
        return lines

    @property
    def offchip_traffic_words(self) -> int:
        """Total words moved on the off-chip interface so far."""
        return self.dram.stats.total_words
