"""Property: the memory controller's transfer round matches a per-word
reference.

``MemoryController._transfer_round`` makes one pass over the active ops
in issue order, and each ready op moves as many words as its staging
buffer and the bandwidth allow. :class:`PerWordController` keeps the
loop that pass replaced: move one word, then restart from the oldest
op, until no op can move. The pass is exact only because a refusal is
final within a cycle, so both must move the same words in the same
order.

Both controllers, each with its own SRF and main memory, run the same
random ops on the Base and Cache configurations: 1–5 loads, stores,
gathers or scatters of 1–300 words, gather/scatter addresses over 1–16
DRAM rows, cacheable or not, issued at random cycles. Ops may overlap
in main memory, so the final contents also pin the order of the words.
Every cycle the two must agree on which ops are complete and on each
active op's memory-side cursor; at the end, on the memory, DRAM and
cache stats, the bandwidth credits, main memory and SRF storage.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.config import base_config, cache_config
from repro.core.descriptors import StreamDescriptor, StreamKind
from repro.core.srf import StreamRegisterFile
from repro.memory import (
    MainMemory,
    MemoryController,
    gather_op,
    load_op,
    scatter_op,
    store_op,
)
from tests.fuzz.strategies import FUZZ_EXAMPLES

#: Main memory the ops address: 16 DRAM rows of 512 words.
ROWS = 16
CYCLE_LIMIT = 50_000


class PerWordController(MemoryController):
    """The per-word transfer loop: one word per call, restarting from
    the oldest op after every word."""

    def _transfer_round(self, cycle: int) -> None:
        progressing = True
        while progressing:
            progressing = False
            for active in self._active:  # issue order
                if (cycle < active.ready_cycle
                        or active.mem_cursor >= active.words):
                    continue
                if self._move_one_word(active):
                    progressing = True
                    break

    def _move_one_word(self, active) -> bool:
        into_srf = active.into_srf
        if into_srf:
            if len(active.staging) >= active.staging_capacity:
                return False
        elif not active.staging:
            return False
        addr = active.addrs[active.mem_cursor]
        is_write = not into_srf
        if active.cached:
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
        if into_srf:
            active.staging.append(self.memory.read(addr))
        else:
            self.memory.write(addr, active.unstage(1)[0])
        active.mem_cursor += 1
        return True


@st.composite
def op_specs(draw):
    return {
        "kind": draw(st.sampled_from(("load", "store", "gather", "scatter"))),
        "words": draw(st.integers(1, 300)),
        "rows": draw(st.integers(1, ROWS)),
        "cacheable": draw(st.booleans()),
        "issue": draw(st.integers(0, 300)),
        "seed": draw(st.integers(0, 2**16)),
    }


def _machine(config, controller_class):
    srf = StreamRegisterFile(config)
    memory = MainMemory(row_words=config.dram_row_words)
    region = memory.allocate(ROWS * config.dram_row_words, "table")
    memory.load_region(region, [10**6 + i for i in range(region.words)])
    return srf, memory, controller_class(config, srf, memory), region


def _op(spec, index, srf, region, row_words):
    """Op ``index`` of ``spec``, with its own SRF stream."""
    words = spec["words"]
    name = f"s{index}"
    alloc = srf.allocator.allocate(words, name)
    rng = random.Random(spec["seed"])
    into_srf = spec["kind"] in ("load", "gather")
    kind = (StreamKind.SEQUENTIAL_READ if into_srf
            else StreamKind.SEQUENTIAL_WRITE)
    desc = StreamDescriptor(name, kind, alloc.base, words)
    if not into_srf:
        srf.storage.write_range(
            alloc.base, [index * 1000 + j for j in range(words)]
        )
    cacheable = spec["cacheable"]
    if spec["kind"] in ("load", "store"):
        offset = rng.randrange(region.words - words + 1)
        build = load_op if into_srf else store_op
        return build(desc, region, offset, words, cacheable=cacheable)
    first = rng.randrange(ROWS - spec["rows"] + 1) * row_words
    span = spec["rows"] * row_words
    offsets = [first + rng.randrange(span) for _ in range(words)]
    build = gather_op if into_srf else scatter_op
    return build(desc, region, offsets, cacheable=cacheable)


def _progress(controller, ops):
    """Completed op indices and each active op's memory-side cursor."""
    index = {op.op_id: i for i, op in enumerate(ops)}
    return (
        {i for i, op in enumerate(ops) if controller.is_complete(op.op_id)},
        {index[a.op.op_id]: a.mem_cursor for a in controller._active},
    )


@settings(max_examples=FUZZ_EXAMPLES)
@given(cache=st.booleans(), specs=st.lists(op_specs(), min_size=1, max_size=5))
def test_transfer_round_matches_per_word_reference(cache, specs):
    config = cache_config() if cache else base_config()
    machines = [_machine(config, MemoryController),
                _machine(config, PerWordController)]
    ops = [
        [_op(spec, i, srf, region, config.dram_row_words)
         for i, spec in enumerate(specs)]
        for srf, _memory, _controller, region in machines
    ]
    last_issue = max(spec["issue"] for spec in specs)
    for cycle in range(CYCLE_LIMIT):
        for (srf, _memory, controller, _region), machine_ops in zip(
            machines, ops
        ):
            for spec, op in zip(specs, machine_ops):
                if spec["issue"] == cycle:
                    controller.issue(op, cycle)
            controller.tick(cycle)
            srf.tick(cycle)
        (done, cursors), (ref_done, ref_cursors) = (
            _progress(controller, machine_ops)
            for (_s, _m, controller, _r), machine_ops in zip(machines, ops)
        )
        assert done == ref_done, f"cycle {cycle}"
        assert cursors == ref_cursors, f"cycle {cycle}"
        if cycle >= last_issue and len(done) == len(specs):
            break
    else:
        raise AssertionError(f"ops still active after {CYCLE_LIMIT} cycles")

    (srf, memory, controller, _r), (ref_srf, ref_memory, ref, _rr) = machines
    assert controller.stats == ref.stats
    assert controller.dram.stats == ref.dram.stats
    assert controller.dram._credit == ref.dram._credit
    assert controller._cache_credit == ref._cache_credit
    if cache:
        assert controller.cache.stats == ref.cache.stats
    assert memory._words == ref_memory._words
    assert srf.storage._words == ref_srf.storage._words
