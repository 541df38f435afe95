"""Property-based machine-vs-reference agreement over random programs.

Two tiers, both over :mod:`tests.fuzz.strategies` programs (dense and
CSR-shaped sparse index streams):

1. **Data tier** — a machine run in record mode keeps each iteration's
   row, the detail of every data op: exactly what a replaying run later
   feeds the timing model in place of the interpreter. Every row must
   equal the reference interpreter's, with exact Python types.

2. **Machine tier** — three-way agreement: the reference interpreter
   over list-backed streams, the cycle-accurate machine executing the
   program, and the same machine re-timed from the recorded trace must
   all produce identical program outputs and final write-table
   contents; the two machine runs must also produce bit-identical
   ``ProgramStats``, and the executing run's Figure 12 breakdown must
   sum to its total cycles exactly.

One read-write indexed stream program covers the read-modify-write path
that random specs never draw.
"""

import dataclasses
import tempfile

from hypothesis import given, settings

from repro.config import isrf4_config
from repro.core import SrfArray
from repro.kernel import DATA_OP_KINDS, KernelBuilder, KernelInterpreter
from repro.machine import (
    KernelInvocation, StreamProcessor, StreamProgram, replay,
)
from repro.machine.replay import TraceStore
from repro.memory import load_op, store_op
from tests.fuzz.strategies import (
    FUZZ_EXAMPLES, LANES, LUT_RECORDS, WTAB_RECORDS, XLUT_RECORDS,
    assert_same_typed, build_kernel, kernel_specs, make_context,
    program_data, sparse_kernel_specs,
)

#: Machine runs that may consult a replay session.
REPLAY_CONFIG = isrf4_config(timing_source="replay")


def run_on_machine(spec, kernel, streams, config):
    """Run the spec's program on the cycle-accurate machine.

    Returns ``(outputs, final write-table contents or None, stats)``.
    """
    data = program_data(spec)
    iterations = spec["iterations"]
    proc = StreamProcessor(config)
    n = iterations * LANES
    in_arr = SrfArray(proc.srf, n, "in")
    out_arr = SrfArray(proc.srf, n, "out")
    src = proc.memory.allocate(n, "src")
    dst = proc.memory.allocate(n, "dst")
    proc.memory.load_region(src,
                            in_arr.stream_image_per_lane(data["inputs"]))
    bindings = {"in": in_arr.seq_read(), "out": out_arr.seq_write()}
    wtab_arr = None
    if streams["lut"] is not None:
        lut_arr = SrfArray(proc.srf, LUT_RECORDS * LANES, "lut")
        lut_arr.fill_replicated(data["lut"])
        bindings["lut"] = lut_arr.inlane_read(LUT_RECORDS)
    if streams["xlut"] is not None:
        xlut_arr = SrfArray(proc.srf, XLUT_RECORDS, "xlut")
        xlut_arr.fill_stream_order(data["xlut"])
        bindings["xlut"] = xlut_arr.crosslane_read(XLUT_RECORDS)
    if streams["wtab"] is not None:
        wtab_arr = SrfArray(proc.srf, WTAB_RECORDS * LANES, "wtab")
        wtab_arr.fill_per_lane(data["wtab"])
        bindings["wtab"] = (
            wtab_arr.inlane_readwrite(WTAB_RECORDS)
            if streams["wtab"].kind.is_read
            else wtab_arr.inlane_write(WTAB_RECORDS)
        )
    prog = StreamProgram("fuzz")
    t_load = prog.add_memory(load_op(in_arr.seq_read(), src))
    t_kernel = prog.add_kernel(
        KernelInvocation(kernel, bindings, iterations=iterations),
        deps=[t_load],
    )
    prog.add_memory(store_op(out_arr.seq_write(name="st"), dst),
                    deps=[t_kernel])
    stats = proc.run_program(prog)
    outputs = out_arr.per_lane_from_stream_image(
        proc.memory.dump_region(dst), iterations
    )
    tables = None
    if wtab_arr is not None:
        tables = [wtab_arr.read_per_lane(lane, WTAB_RECORDS)
                  for lane in range(LANES)]
    return outputs, tables, stats


def _scaled(spec):
    # Sequential machine streams transfer whole SRF access groups, so
    # round the extent to a multiple of four iterations per lane.
    spec = dict(spec, iterations=spec["iterations"] * 4)
    kernel, streams = build_kernel(spec)
    return spec, kernel, streams


# ----------------------------------------------------------------------
# Data tier
# ----------------------------------------------------------------------
@settings(max_examples=FUZZ_EXAMPLES)
@given(spec=kernel_specs(max_iterations=6))
def test_vector_engine_matches_reference(spec):
    """Row-for-row, type-for-type equality with the interpreter."""
    spec, kernel, streams = _scaled(spec)
    ref_rows = KernelInterpreter(
        kernel, LANES, make_context(spec, streams)
    ).run(spec["iterations"])
    with tempfile.TemporaryDirectory() as directory:
        with replay.session(TraceStore(directory), "fuzz", REPLAY_CONFIG,
                            "test") as sess:
            run_on_machine(spec, kernel, streams, REPLAY_CONFIG)
    [program] = sess.bundle.programs
    [recorded] = program.invocations.values()
    data_ops = kernel.stream_ops(*DATA_OP_KINDS)
    assert len(recorded.rows) == len(ref_rows)
    for iteration, (row, ref_row) in enumerate(zip(recorded.rows, ref_rows)):
        assert len(row) == len(ref_row) == len(data_ops)
        for op, detail, ref_detail in zip(data_ops, row, ref_row):
            assert_same_typed(
                ref_detail, detail,
                f"iter {iteration} op {op.op_id} ({op.kind.name})",
            )


# ----------------------------------------------------------------------
# Machine tier
# ----------------------------------------------------------------------
def _assert_three_way(spec, kernel, streams):
    """Reference, executing machine and replaying machine agree."""
    ref_ctx = make_context(spec, streams)
    KernelInterpreter(kernel, LANES, ref_ctx).run(spec["iterations"])
    with tempfile.TemporaryDirectory() as directory:
        store = TraceStore(directory)
        with replay.session(store, "fuzz", REPLAY_CONFIG, "test") as sess:
            executed = run_on_machine(spec, kernel, streams, REPLAY_CONFIG)
            assert sess.mode == "record"
        with replay.session(store, "fuzz", REPLAY_CONFIG, "test") as sess:
            replayed = run_on_machine(spec, kernel, streams, REPLAY_CONFIG)
            assert sess.mode == "replay"
    expected = ref_ctx.output("out")
    assert executed[0] == expected
    assert replayed[0] == expected
    if streams["wtab"] is not None:
        reference_tables = [ref_ctx.table("wtab", lane)
                            for lane in range(LANES)]
        assert executed[1] == reference_tables
        assert replayed[1] == reference_tables
    # Every program cycle lands in exactly one Figure 12 category. Unlike
    # the apps' runs, a random kernel's overhead may be negative: a
    # kernel retires at its last stream event, so a long-ii kernel with
    # an early stream tail finishes inside ii x iterations.
    stats = executed[2]
    assert sum(stats.breakdown().values()) == stats.total_cycles
    assert dataclasses.asdict(stats) == dataclasses.asdict(replayed[2])


@settings(max_examples=FUZZ_EXAMPLES)
@given(spec=kernel_specs(max_iterations=6))
def test_three_way_agreement(spec):
    _assert_three_way(*_scaled(spec))


@settings(max_examples=FUZZ_EXAMPLES)
@given(spec=sparse_kernel_specs(max_iterations=6))
def test_three_way_agreement_sparse(spec):
    """Same three-way agreement, with CSR-shaped index streams (sorted,
    uniform, power-law clustered, duplicate-heavy, empty-row sentinel
    runs) driving a predicated clamped gather — the sparse apps' access
    idiom under every index locality the suite sweeps."""
    _assert_three_way(*_scaled(spec))


def test_readwrite_streams_fall_back_to_scalar():
    """A read-modify-write through one in-lane read-write indexed
    stream: every read must observe the program-order earlier writes
    to its record, on the machine (executing and replaying) as in the
    reference."""
    b = KernelBuilder("rw")
    in_s = b.istream("in")
    out_s = b.ostream("out")
    table = b.idxl_iostream("wtab")
    index = b.mod(b.read(in_s), b.const(WTAB_RECORDS))
    old = b.idx_read(table, index)
    b.idx_write(table, index, b.add(old, b.const(1)))
    b.write(out_s, old)
    streams = {"in": in_s, "out": out_s, "lut": None, "xlut": None,
               "wtab": table}
    spec = {"iterations": 8, "ops": [], "use_carry": False,
            "carry_init": 0, "data_seed": 7}
    _assert_three_way(spec, b.build(), streams)
