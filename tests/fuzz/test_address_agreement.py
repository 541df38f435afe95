"""Property: the timing side and the data side agree on every address.

The kernel executor moves a kernel's indexed words at issue, through
``functional_idx_read`` and ``functional_idx_write``, while the SRF
times each access from the ``(target_lane, bank_local_addr)`` words that
``IndexedStream._enqueue`` queues. No value crosses the timing path, so
this is the one check that the sub-array conflict model and the data
use the same addresses: for random descriptors of every indexed kind —
in-lane read, write and read-write, and cross-lane read — with 1- to
4-word records at random block-aligned bases, each record's queued
words must be ``geometry.split`` of exactly the storage indices the
executor reads or writes, word for word.

Storage holds its own index in every word, so a read returns the
indices it read; a write stores fresh markers, and the words that
changed are the indices it wrote.
"""

from hypothesis import given, settings, strategies as st

from repro.config import isrf4_config
from repro.core.descriptors import IndexSpace, StreamDescriptor, StreamKind
from repro.kernel import KernelBuilder
from repro.machine import KernelInvocation, StreamProcessor
from repro.machine.executor import KernelExecutor
from tests.fuzz.strategies import FUZZ_EXAMPLES, LANES

#: Each indexed kind and the builder method that declares it.
KINDS = (
    (StreamKind.INLANE_INDEXED_READ, "idxl_istream"),
    (StreamKind.INLANE_INDEXED_WRITE, "idxl_ostream"),
    (StreamKind.INLANE_INDEXED_READWRITE, "idxl_iostream"),
    (StreamKind.CROSSLANE_INDEXED_READ, "idx_istream"),
)

#: A 4096-word SRF (512 words a bank) keeps the write diff cheap.
SRF_BYTES = 4 * 4096
MAX_ACCESSES = 4


@st.composite
def layouts(draw):
    kind, method = draw(st.sampled_from(KINDS))
    records = draw(st.integers(1, 24))
    index = st.one_of(st.none(), st.integers(0, records - 1))
    accesses = draw(st.lists(
        st.tuples(st.lists(index, min_size=LANES, max_size=LANES),
                  st.booleans()),
        min_size=1, max_size=MAX_ACCESSES,
    ))
    return {
        "kind": kind,
        "method": method,
        "record_words": draw(st.integers(1, 4)),
        "records": records,
        "base_block": draw(st.integers(0, 8)),
        # (per-lane indices, write?) — the flag picks the side of a
        # read-write stream and is ignored by the other kinds.
        "accesses": accesses,
    }


def _executor(spec):
    config = isrf4_config(
        srf_bytes=SRF_BYTES,
        address_fifo_words=MAX_ACCESSES,
        stream_buffer_words=4 * MAX_ACCESSES,
    )
    proc = StreamProcessor(config)
    builder = KernelBuilder("k")
    getattr(builder, spec["method"])("t", record_words=spec["record_words"])
    kernel = builder.build()
    crosslane = spec["kind"].is_crosslane
    descriptor = StreamDescriptor(
        "t", spec["kind"], spec["base_block"] * proc.srf.geometry.block_words,
        length_records=spec["records"], record_words=spec["record_words"],
        index_space=IndexSpace.GLOBAL if crosslane else IndexSpace.PER_LANE,
    )
    invocation = KernelInvocation(kernel, {"t": descriptor}, iterations=0)
    executor = KernelExecutor(
        config, proc.srf, invocation, proc.schedule_kernel(kernel)
    )
    return executor, kernel.streams["t"], executor._indexed["t"], proc.srf


def _read_indices(executor, stream, indices, record_words):
    """Per lane, the storage indices ``functional_idx_read`` reads."""
    got = executor.functional_idx_read(stream, indices)
    return [
        [] if index is None
        else [value] if record_words == 1 else list(value)
        for index, value in zip(indices, got)
    ]


def _written_indices(executor, stream, indices, record_words, words):
    """Per lane, the storage indices ``functional_idx_write`` writes."""
    def marker(lane, word):
        return f"lane {lane} word {word}"

    entries = [
        None if index is None else (index, (
            marker(lane, 0) if record_words == 1
            else tuple(marker(lane, j) for j in range(record_words))
        ))
        for lane, index in enumerate(indices)
    ]
    executor.functional_idx_write(stream, entries)
    changed = {
        words[i]: i for i in range(len(words)) if words[i] != i
    }
    written = [
        [] if index is None
        else [changed.pop(marker(lane, j)) for j in range(record_words)]
        for lane, index in enumerate(indices)
    ]
    assert not changed, f"wrote words no record names: {changed}"
    words[:] = range(len(words))
    return written


@settings(max_examples=FUZZ_EXAMPLES)
@given(spec=layouts())
def test_queued_words_split_the_storage_indices_moved(spec):
    executor, stream, timed, srf = _executor(spec)
    words = srf.storage._words
    words[:] = range(len(words))
    split = srf.geometry.split
    rw = spec["record_words"]
    kind = spec["kind"]
    for indices, write_flag in spec["accesses"]:
        write = kind.is_write and (write_flag or not kind.is_read)
        if write:
            moved = _written_indices(executor, stream, indices, rw, words)
        else:
            moved = _read_indices(executor, stream, indices, rw)
        queued_before = [len(fifo._words) for fifo in timed.fifos]
        issue = timed.issue_writes if write else timed.issue_reads
        assert issue(indices)
        for lane, fifo in enumerate(timed.fifos):
            queued = list(fifo._words)[queued_before[lane]:]
            assert [word[:2] for word in queued] == [
                split(index) for index in moved[lane]
            ], (lane, indices[lane], write)
