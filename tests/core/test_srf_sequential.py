"""Sequential SRF access through stream buffers (paper Section 4.3).

The port times a stream by word counts: the kernel executor moves the
words themselves at issue (``tests/machine/test_functional_access.py``
checks where they come from and land), so these tests see counts,
grants and drain state.
"""

import pytest

from repro.config import base_config, isrf4_config
from repro.core import SrfArray
from repro.core.descriptors import StreamDescriptor, StreamKind
from repro.core.srf import StreamRegisterFile
from repro.errors import SrfError
from repro.kernel import KernelBuilder
from repro.machine import KernelInvocation, StreamProcessor, StreamProgram


def make_srf():
    return StreamRegisterFile(base_config())


def run_cycles(srf, start, count):
    for cycle in range(start, start + count):
        srf.tick(cycle)
    return start + count


class TestSequentialRead:
    def test_block_arrives_after_pipeline_latency(self):
        srf = make_srf()
        region = srf.allocator.allocate(32, "in")
        desc = StreamDescriptor(
            "in", StreamKind.SEQUENTIAL_READ, region.base, length_records=32
        )
        port = srf.open_sequential(desc)
        assert not port.can_pop()
        srf.tick(0)  # grant cycle
        assert not port.can_pop()  # latency is 3 cycles
        run_cycles(srf, 1, 3)
        assert port.can_pop()
        # The block brings m = 4 words per lane, one per SIMD pop.
        assert port.occupancy == 4
        port.pop_simd()
        port.pop_simd()
        assert port.occupancy == 2

    def test_whole_stream_transfers_in_order(self):
        srf = make_srf()
        words = 96  # three blocks
        region = srf.allocator.allocate(words, "in")
        desc = StreamDescriptor(
            "in", StreamKind.SEQUENTIAL_READ, region.base, length_records=words
        )
        port = srf.open_sequential(desc)
        pops = []
        for cycle in range(60):
            srf.tick(cycle)
            while port.can_pop():
                port.pop_simd()
                pops.append(cycle)
        # Each lane takes 4 words of every block, the blocks in order.
        assert len(pops) == 12
        assert srf.stats.sequential_grants == 3
        assert port.drained

    def test_stats_count_words(self):
        srf = make_srf()
        region = srf.allocator.allocate(64, "in")
        desc = StreamDescriptor(
            "in", StreamKind.SEQUENTIAL_READ, region.base, length_records=64
        )
        port = srf.open_sequential(desc)
        for cycle in range(20):
            srf.tick(cycle)
            while port.can_pop():
                port.pop_simd()
        assert srf.stats.sequential_words == 64
        assert srf.stats.sequential_grants == 2


class TestSequentialWrite:
    def test_written_data_lands_in_storage(self):
        # A kernel writes 100 * lane + i in iteration i: m = 4 words per
        # lane, one full block. The executor stores each word when it
        # issues the write; the port drains the block in one grant.
        proc = StreamProcessor(base_config())
        b = KernelBuilder("w")
        out_s = b.ostream("out")
        i = b.carry(0, "i")
        b.update(i, b.add(i, b.const(1)))
        b.write(out_s, b.add(b.mul(b.laneid(), b.const(100)), i))
        out = SrfArray(proc.srf, 32, "out")
        prog = StreamProgram("p")
        prog.add_kernel(KernelInvocation(
            b.build(), {"out": out.seq_write()}, iterations=4
        ))
        proc.run_program(prog)
        # Lane 2's words occupy global addresses base+8..base+11.
        assert proc.srf.storage.read_range(out.base + 8, 4) == [
            200, 201, 202, 203,
        ]
        assert proc.srf.stats.sequential_grants == 1
        assert proc.srf.stats.sequential_words == 32

    def test_partial_final_block_needs_flush(self):
        srf = make_srf()
        region = srf.allocator.allocate(32, "out")
        desc = StreamDescriptor(
            "out", StreamKind.SEQUENTIAL_WRITE, region.base, length_records=16
        )
        port = srf.open_sequential(desc)
        port.push_simd()
        port.push_simd()
        srf.tick(0)
        assert not port.drained  # only 2 words/lane buffered, no flush yet
        assert srf.stats.sequential_grants == 0
        port.flush()
        srf.tick(1)
        assert port.drained
        # The partial block drains only the 2 words per lane pushed.
        assert srf.stats.sequential_words == 16

    def test_push_beyond_capacity_raises(self):
        srf = make_srf()
        region = srf.allocator.allocate(320, "out")
        desc = StreamDescriptor(
            "out", StreamKind.SEQUENTIAL_WRITE, region.base, length_records=320
        )
        port = srf.open_sequential(desc)
        for _ in range(8):  # fill the 8-word buffer without ticking
            port.push_simd()
        with pytest.raises(SrfError):
            port.push_simd()


class TestPortArbitration:
    def test_single_port_per_cycle(self):
        # Two ready read ports: only one block moves per cycle.
        srf = make_srf()
        r1 = srf.allocator.allocate(32, "a")
        r2 = srf.allocator.allocate(32, "b")
        p1 = srf.open_sequential(StreamDescriptor(
            "a", StreamKind.SEQUENTIAL_READ, r1.base, 32))
        p2 = srf.open_sequential(StreamDescriptor(
            "b", StreamKind.SEQUENTIAL_READ, r2.base, 32))
        srf.tick(0)
        assert srf.stats.sequential_grants == 1
        srf.tick(1)
        assert srf.stats.sequential_grants == 2
        run_cycles(srf, 2, 4)
        assert p1.can_pop() and p2.can_pop()

    def test_round_robin_is_fair_across_ports(self):
        srf = make_srf()
        regions = [srf.allocator.allocate(128, f"s{i}") for i in range(3)]
        ports = [
            srf.open_sequential(StreamDescriptor(
                f"s{i}", StreamKind.SEQUENTIAL_READ, r.base, 128))
            for i, r in enumerate(regions)
        ]
        for cycle in range(40):
            srf.tick(cycle)
            for port in ports:
                while port.can_pop():
                    port.pop_simd()
        assert all(port.drained for port in ports)

    def test_idle_when_nothing_pending(self):
        srf = make_srf()
        assert srf.idle
        region = srf.allocator.allocate(32, "a")
        port = srf.open_sequential(StreamDescriptor(
            "a", StreamKind.SEQUENTIAL_READ, region.base, 32))
        assert not srf.idle
        for cycle in range(10):
            srf.tick(cycle)
            while port.can_pop():
                port.pop_simd()
        assert srf.idle


class TestIndexedRejection:
    def test_sequential_only_machine_rejects_indexed_streams(self):
        srf = make_srf()
        desc = StreamDescriptor(
            "t", StreamKind.INLANE_INDEXED_READ, 0, length_records=8
        )
        with pytest.raises(SrfError):
            srf.open_indexed(desc)

    def test_indexed_machine_accepts(self):
        srf = StreamRegisterFile(isrf4_config())
        desc = StreamDescriptor(
            "t", StreamKind.INLANE_INDEXED_READ, 0, length_records=8
        )
        srf.open_indexed(desc)
