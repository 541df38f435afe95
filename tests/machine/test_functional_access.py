"""Kernel stream words move once, in the executor, at issue.

``KernelExecutor.functional_seq_read`` / ``functional_seq_write`` and
``functional_idx_read`` / ``functional_idx_write`` are the only place a
kernel's words move between the clusters and SRF storage; the SRF's
ports, address FIFOs and reorder buffers time the accesses by counts
and addresses alone. These tests pin where each word comes from and
lands. (``tests/fuzz/test_address_agreement.py`` checks that the
timing side queues exactly these addresses.)
"""

import pytest

from repro.config import isrf4_config
from repro.core import SrfArray
from repro.core.descriptors import StreamDescriptor, StreamKind
from repro.errors import SrfAccessError, SrfError
from repro.kernel import KernelBuilder
from repro.machine import KernelInvocation, StreamProcessor, StreamProgram
from repro.machine.executor import KernelExecutor

LANES = 8


def executor_for(declare, bind):
    """An ISRF4 executor of a kernel without ops.

    ``declare(builder)`` declares the kernel's streams and ``bind(srf)``
    returns their bindings; the result is ``(executor, streams, srf)``
    with ``streams`` the kernel's streams by name.
    """
    proc = StreamProcessor(isrf4_config())
    builder = KernelBuilder("k")
    declare(builder)
    kernel = builder.build()
    invocation = KernelInvocation(kernel, bind(proc.srf), iterations=0)
    executor = KernelExecutor(
        proc.config, proc.srf, invocation, proc.schedule_kernel(kernel)
    )
    return executor, kernel.streams, proc.srf


class TestSequential:
    def test_read_takes_each_lanes_words_in_block_stripes(self):
        arrays = {}

        def bind(srf):
            arrays["in"] = SrfArray(srf, 96, "in")  # three blocks
            arrays["in"].fill_stream_order(range(96))
            return {"in": arrays["in"].seq_read()}

        executor, streams, _srf = executor_for(
            lambda b: b.istream("in"), bind
        )
        words = [executor.functional_seq_read(streams["in"])
                 for _ in range(12)]
        # Block striping: lane l's first word is stream word l*m.
        assert words[0] == [4 * lane for lane in range(LANES)]
        assert words[1] == [4 * lane + 1 for lane in range(LANES)]
        # Lane 0 takes words 0..3 of every block, i.e. 0..3, 32..35, ...
        assert [word[0] for word in words] == [
            0, 1, 2, 3, 32, 33, 34, 35, 64, 65, 66, 67,
        ]

    def test_write_stores_each_lanes_word_at_issue(self):
        arrays = {}

        def bind(srf):
            arrays["out"] = SrfArray(srf, 32, "out")
            return {"out": arrays["out"].seq_write()}

        executor, streams, srf = executor_for(
            lambda b: b.ostream("out"), bind
        )
        for i in range(2):
            executor.functional_seq_write(
                streams["out"], [100 * lane + i for lane in range(LANES)]
            )
        base = arrays["out"].base
        # Lane 2's words occupy global addresses base+8..base+11; the
        # two written so far are there before any port drains them.
        assert srf.storage.read_range(base + 8, 4) == [200, 201, 0, 0]
        assert srf.storage.read_range(base, 4) == [0, 1, 0, 0]

    def test_write_past_the_srf_raises(self):
        def bind(srf):
            total = srf.geometry.total_words
            return {"out": SrfArray(srf, total, "all").seq_write()}

        executor, streams, srf = executor_for(
            lambda b: b.ostream("out"), bind
        )
        for _ in range(srf.geometry.bank_words):  # every lane's bank, full
            executor.functional_seq_write(streams["out"], [1] * LANES)
        with pytest.raises(SrfAccessError, match="out of range"):
            executor.functional_seq_write(streams["out"], [2] * LANES)
        assert 2 not in srf.storage._words


    def test_access_past_the_streams_blocks_raises(self):
        # A copy kernel runs 8 iterations over a 1-block input (4 words
        # a lane) that an array of 7s follows in the SRF. Its fifth read
        # must fail naming the stream, not read (and copy) the
        # neighbour's words and then stall to the deadlock horizon.
        b = KernelBuilder("copy")
        b.write(b.ostream("out"), b.read(b.istream("in")))
        kernel = b.build()
        proc = StreamProcessor(isrf4_config())
        src = SrfArray(proc.srf, 32, "in")
        src.fill_stream_order(range(32))
        SrfArray(proc.srf, 32, "next").fill_stream_order([7] * 32)
        out = SrfArray(proc.srf, 64, "out")
        prog = StreamProgram("p")
        prog.add_kernel(KernelInvocation(
            kernel, {"in": src.seq_read(), "out": out.seq_write()},
            iterations=8,
        ))
        with pytest.raises(SrfAccessError, match="^in: .*out of range"):
            proc.run_program(prog)
        assert proc.cycle < 1000
        # Lane 0's first four output words are the input's; its fifth
        # (the second block's first word) was never written.
        assert proc.srf.storage.read_range(out.base, 4) == [0, 1, 2, 3]
        assert proc.srf.storage.read_range(out.base + 32, 1) == [0]

    def test_misaligned_stream_does_not_open(self):
        # A copy kernel reads a 32-word stream that starts 4 words into
        # its block. Opened, its port would span 2 blocks and take an
        # extra grant, and lane l would read lane l+1's stripe.
        b = KernelBuilder("copy")
        b.write(b.ostream("out"), b.read(b.istream("in")))
        kernel = b.build()
        proc = StreamProcessor(isrf4_config())
        src = SrfArray(proc.srf, 64, "in")
        src.fill_stream_order(range(64))
        out = SrfArray(proc.srf, 32, "out")
        view = StreamDescriptor(
            "in", StreamKind.SEQUENTIAL_READ, src.base + 4, 32
        )
        prog = StreamProgram("p")
        prog.add_kernel(KernelInvocation(
            kernel, {"in": view, "out": out.seq_write()}, iterations=4,
        ))
        with pytest.raises(
            SrfError, match=rf"^in: SRF base {src.base + 4} is not aligned"
        ):
            proc.run_program(prog)
        assert proc.srf.stats.sequential_grants == 0
        assert proc.srf.storage.read_range(out.base, 32) == [0] * 32


def inlane_table(kind="inlane_read", record_words=1, records=64):
    """Executor with one in-lane indexed stream ``t`` whose lane ``l``
    word ``i`` holds ``l * 1000 + i``."""

    def declare(b):
        method = {"inlane_read": b.idxl_istream,
                  "inlane_write": b.idxl_ostream,
                  "inlane_readwrite": b.idxl_iostream}[kind]
        method("t", record_words=record_words)

    def bind(srf):
        array = SrfArray(srf, records * record_words * LANES, "t")
        array.fill_per_lane([
            [lane * 1000 + i for i in range(records * record_words)]
            for lane in range(LANES)
        ])
        return {"t": getattr(array, kind)(records, record_words)}

    executor, streams, srf = executor_for(declare, bind)
    return executor, streams["t"], srf, executor._indexed["t"].local_base


class TestIndexed:
    def test_inlane_read_is_lane_local(self):
        executor, stream, _srf, _base = inlane_table()
        assert executor.functional_idx_read(stream, [17] * LANES) == [
            lane * 1000 + 17 for lane in range(LANES)
        ]
        indices = [None] * LANES
        indices[3] = 17
        assert executor.functional_idx_read(stream, indices) == (
            [0, 0, 0, 3017, 0, 0, 0, 0]
        )

    def test_crosslane_read_reaches_any_record(self):
        def bind(srf):
            nodes = SrfArray(srf, 256, "nodes")
            nodes.fill_stream_order([10 * i for i in range(256)])
            return {"nodes": nodes.crosslane_read(256)}

        executor, streams, _srf = executor_for(
            lambda b: b.idx_istream("nodes"), bind
        )
        # Record 37 lives in lane (37 // 4) % 8 = 1; read it from lane 6.
        indices = [None] * LANES
        indices[6] = 37
        got = executor.functional_idx_read(streams["nodes"], indices)
        assert got == [0] * 6 + [370, 0]

    def test_multiword_records_read_as_tuples(self):
        executor, stream, _srf, _base = inlane_table(record_words=2)
        assert executor.functional_idx_read(stream, [3] * LANES) == [
            (lane * 1000 + 6, lane * 1000 + 7) for lane in range(LANES)
        ]

    def test_write_lands_at_issue_and_later_reads_see_it(self):
        # A read-write stream's read sees every earlier write of the
        # kernel because the write is already in storage.
        executor, stream, srf, base = inlane_table("inlane_readwrite")
        entries = [None] * LANES
        entries[2] = (5, 42)
        executor.functional_idx_write(stream, entries)
        assert srf.storage.read_lane(2, base + 5) == 42
        assert srf.storage.read_lane(1, base + 5) == 1005  # lane 1 is off
        assert executor.functional_idx_read(stream, [5] * LANES)[1:3] == [
            1005, 42,
        ]

    def test_multiword_write_stores_its_words(self):
        executor, stream, srf, base = inlane_table(
            "inlane_write", record_words=2
        )
        executor.functional_idx_write(
            stream, [(4, ("a", "b"))] + [None] * (LANES - 1)
        )
        assert srf.storage.read_lane(0, base + 8) == "a"
        assert srf.storage.read_lane(0, base + 9) == "b"
        assert srf.storage.read_lane(1, base + 8) == 1008

    @pytest.mark.parametrize("index", [-70, 10**6])
    def test_write_outside_the_bank_raises_and_stores_nothing(self, index):
        executor, stream, srf, _base = inlane_table("inlane_write")
        before = list(srf.storage._words)
        entries = [(0, 7)] * LANES
        entries[5] = (index, 7)
        with pytest.raises(SrfAccessError, match="lane 5 record"):
            executor.functional_idx_write(stream, entries)
        assert srf.storage._words == before


class TestIndexPastTheRecords:
    """An indexed access past its stream's records raises before it
    touches storage, even where the record would still lie inside the
    lane's bank or the SRF: here, in the allocation of 7s that follows
    the stream's 4-record (in-lane) or 32-record (cross-lane) table."""

    @pytest.mark.parametrize("kind", [
        "inlane_read", "inlane_write", "crosslane_read",
    ])
    def test_access_raises_and_leaves_the_neighbour_untouched(self, kind):
        proc = StreamProcessor(isrf4_config())
        table = SrfArray(proc.srf, 32, "table")  # one block
        neighbour = SrfArray(proc.srf, 32, "next")
        neighbour.fill_stream_order([7] * 32)
        out = SrfArray(proc.srf, 32, "out")
        records = 32 if kind == "crosslane_read" else 4
        b = KernelBuilder("probe")
        it = b.carry(0, "it")
        b.update(it, b.add(it, b.const(1)))
        index = b.add(it, b.const(records))  # records, records + 1, ...
        if kind == "inlane_write":
            b.idx_write(b.idxl_ostream("table"), index, b.const(99))
            bindings = {"table": table.inlane_write(records)}
        else:
            stream = (b.idx_istream("table") if kind == "crosslane_read"
                      else b.idxl_istream("table"))
            b.write(b.ostream("out"), b.idx_read(stream, index))
            bindings = {"table": getattr(table, kind)(records),
                        "out": out.seq_write()}
        prog = StreamProgram("p")
        prog.add_kernel(KernelInvocation(b.build(), bindings, iterations=4))
        with pytest.raises(
            SrfAccessError,
            match=rf"^table: lane 0 record index {records} out of range",
        ):
            proc.run_program(prog)
        storage = proc.srf.storage
        assert storage.read_range(neighbour.base, 32) == [7] * 32
        assert storage.read_range(out.base, 32) == [0] * 32
