"""Stream memory controller: loads, stores, gathers, scatters, cache path."""

import pytest

from repro.config import base_config, cache_config
from repro.core.descriptors import StreamDescriptor, StreamKind
from repro.core.srf import StreamRegisterFile
from repro.errors import MemorySystemError
from repro.memory import (
    MainMemory,
    MemoryController,
    gather_op,
    load_op,
    scatter_op,
    store_op,
)


def make_machine(config=None):
    config = config or base_config()
    srf = StreamRegisterFile(config)
    memory = MainMemory(row_words=config.dram_row_words)
    controller = MemoryController(config, srf, memory)
    return srf, memory, controller


def run_until_complete(srf, controller, op, limit=5000):
    controller.issue(op, 0)
    for cycle in range(limit):
        controller.tick(cycle)
        srf.tick(cycle)
        if controller.is_complete(op.op_id):
            return cycle
    raise AssertionError(f"{op.describe()} did not complete in {limit} cycles")


class TestLoadStore:
    def test_load_moves_data_into_srf(self):
        srf, memory, controller = make_machine()
        region = memory.allocate(64, "input")
        memory.load_region(region, list(range(64)))
        alloc = srf.allocator.allocate(64, "s")
        desc = StreamDescriptor("s", StreamKind.SEQUENTIAL_READ, alloc.base, 64)
        run_until_complete(srf, controller, load_op(desc, region))
        assert srf.storage.read_range(alloc.base, 64) == list(range(64))

    def test_store_moves_data_out_of_srf(self):
        srf, memory, controller = make_machine()
        region = memory.allocate(64, "output")
        alloc = srf.allocator.allocate(64, "s")
        srf.storage.write_range(alloc.base, [i * 2 for i in range(64)])
        desc = StreamDescriptor("s", StreamKind.SEQUENTIAL_WRITE, alloc.base, 64)
        run_until_complete(srf, controller, store_op(desc, region))
        assert memory.read_range(region.base, 64) == [i * 2 for i in range(64)]

    def test_load_respects_dram_latency(self):
        srf, memory, controller = make_machine()
        region = memory.allocate(32, "input")
        alloc = srf.allocator.allocate(32, "s")
        desc = StreamDescriptor("s", StreamKind.SEQUENTIAL_READ, alloc.base, 32)
        cycle = run_until_complete(srf, controller, load_op(desc, region))
        assert cycle >= base_config().dram_latency_cycles

    def test_bandwidth_bound_duration(self):
        # 1024 words at ~2.285 words/cycle needs >= ~448 cycles.
        srf, memory, controller = make_machine()
        region = memory.allocate(1024, "input")
        alloc = srf.allocator.allocate(1024, "s")
        desc = StreamDescriptor(
            "s", StreamKind.SEQUENTIAL_READ, alloc.base, 1024
        )
        cycle = run_until_complete(srf, controller, load_op(desc, region))
        minimum = 1024 / base_config().dram_words_per_cycle
        assert cycle >= minimum
        assert cycle <= 2.0 * minimum + base_config().dram_latency_cycles

    def test_offchip_traffic_counts_words(self):
        srf, memory, controller = make_machine()
        region = memory.allocate(96, "input")
        alloc = srf.allocator.allocate(96, "s")
        desc = StreamDescriptor("s", StreamKind.SEQUENTIAL_READ, alloc.base, 96)
        run_until_complete(srf, controller, load_op(desc, region))
        assert controller.offchip_traffic_words == 96


    def test_misaligned_srf_base_rejected(self):
        # The port moves whole blocks from the stream's base, so a
        # stream starting mid-block would straddle a block boundary.
        srf, memory, controller = make_machine()
        region = memory.allocate(32, "input")
        alloc = srf.allocator.allocate(64, "s")
        desc = StreamDescriptor(
            "s", StreamKind.SEQUENTIAL_READ, alloc.base + 4, 32
        )
        with pytest.raises(MemorySystemError, match="load:s: SRF base"):
            controller.issue(load_op(desc, region), 0)
        assert not controller.busy


class TestGatherScatter:
    def test_gather_collects_arbitrary_addresses(self):
        srf, memory, controller = make_machine()
        region = memory.allocate(128, "table")
        memory.load_region(region, [i * 10 for i in range(128)])
        alloc = srf.allocator.allocate(32, "g")
        desc = StreamDescriptor("g", StreamKind.SEQUENTIAL_READ, alloc.base, 32)
        offsets = [(7 * i) % 128 for i in range(32)]
        run_until_complete(srf, controller, gather_op(desc, region, offsets))
        expected = [off * 10 for off in offsets]
        assert srf.storage.read_range(alloc.base, 32) == expected

    def test_scatter_distributes_to_arbitrary_addresses(self):
        srf, memory, controller = make_machine()
        region = memory.allocate(128, "out")
        alloc = srf.allocator.allocate(32, "s")
        srf.storage.write_range(alloc.base, [100 + i for i in range(32)])
        desc = StreamDescriptor("s", StreamKind.SEQUENTIAL_WRITE, alloc.base, 32)
        offsets = [(11 * i) % 128 for i in range(32)]
        run_until_complete(srf, controller, scatter_op(desc, region, offsets))
        for j, off in enumerate(offsets):
            assert memory.read(region.addr(off)) == 100 + j

    def test_gather_out_of_region_rejected(self):
        srf, memory, controller = make_machine()
        region = memory.allocate(16, "table")
        alloc = srf.allocator.allocate(32, "g")
        desc = StreamDescriptor("g", StreamKind.SEQUENTIAL_READ, alloc.base, 4)
        with pytest.raises(MemorySystemError):
            gather_op(desc, region, [0, 1, 2, 16])

    def test_scattered_random_traffic_is_slower_per_word(self):
        srf, memory, controller = make_machine()
        big = memory.allocate(1 << 16, "big")
        seq_alloc = srf.allocator.allocate(512, "seq")
        seq_desc = StreamDescriptor(
            "seq", StreamKind.SEQUENTIAL_READ, seq_alloc.base, 512
        )
        seq_cycles = run_until_complete(
            srf, controller, load_op(seq_desc, big, 0, 512)
        )
        srf2, memory2, controller2 = make_machine()
        big2 = memory2.allocate(1 << 16, "big")
        g_alloc = srf2.allocator.allocate(512, "g")
        g_desc = StreamDescriptor(
            "g", StreamKind.SEQUENTIAL_READ, g_alloc.base, 512
        )
        offsets = [(i * 7919) % (1 << 16) for i in range(512)]
        gather_cycles = run_until_complete(
            srf2, controller2, gather_op(g_desc, big2, offsets)
        )
        assert gather_cycles > 1.5 * seq_cycles


class TestConcurrency:
    def test_oldest_op_gets_priority(self):
        # The stream controller drains transfers in issue order: the
        # older load finishes at (nearly) full bandwidth, the younger
        # one fills leftover bandwidth and finishes afterwards.
        srf, memory, controller = make_machine()
        r1 = memory.allocate(512, "a")
        r2 = memory.allocate(512, "b")
        a1 = srf.allocator.allocate(512, "sa")
        a2 = srf.allocator.allocate(512, "sb")
        d1 = StreamDescriptor("sa", StreamKind.SEQUENTIAL_READ, a1.base, 512)
        d2 = StreamDescriptor("sb", StreamKind.SEQUENTIAL_READ, a2.base, 512)
        op1, op2 = load_op(d1, r1), load_op(d2, r2)
        controller.issue(op1, 0)
        controller.issue(op2, 0)
        done = {}
        for cycle in range(5000):
            controller.tick(cycle)
            srf.tick(cycle)
            for op in (op1, op2):
                if controller.is_complete(op.op_id) and op.op_id not in done:
                    done[op.op_id] = cycle
            if len(done) == 2:
                break
        assert len(done) == 2
        single_op_time = 512 / base_config().dram_words_per_cycle
        assert done[op1.op_id] < done[op2.op_id]
        # op1 is barely slowed by op2's presence.
        assert done[op1.op_id] <= 1.5 * single_op_time + 150
        # Both together still finish in roughly 2x the single-op time.
        assert done[op2.op_id] <= 2.5 * single_op_time + 150


class TestCachePath:
    def test_cacheable_reuse_cuts_offchip_traffic(self):
        config = cache_config()
        srf, memory, controller = make_machine(config)
        table = memory.allocate(256, "table")
        memory.load_region(table, list(range(256)))
        total_offchip = []
        for round_index in range(2):
            alloc = srf.allocator.allocate(256, f"g{round_index}")
            desc = StreamDescriptor(
                f"g{round_index}", StreamKind.SEQUENTIAL_READ, alloc.base, 256
            )
            op = gather_op(desc, table, list(range(256)), cacheable=True)
            controller.issue(op, 0)
            for cycle in range(5000):
                controller.tick(cycle)
                srf.tick(cycle)
                if controller.is_complete(op.op_id):
                    break
            total_offchip.append(controller.offchip_traffic_words)
        first_round = total_offchip[0]
        second_round = total_offchip[1] - total_offchip[0]
        assert second_round == 0  # everything hit in cache
        assert first_round >= 256

    def test_non_cacheable_bypasses_cache(self):
        config = cache_config()
        srf, memory, controller = make_machine(config)
        region = memory.allocate(64, "input")
        alloc = srf.allocator.allocate(64, "s")
        desc = StreamDescriptor("s", StreamKind.SEQUENTIAL_READ, alloc.base, 64)
        run_until_complete(srf, controller, load_op(desc, region, cacheable=False))
        assert controller.cache.stats.accesses == 0
