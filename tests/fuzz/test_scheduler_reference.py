"""The modulo scheduler against its previous implementation.

:mod:`tests.kernel.reference_scheduler` keeps the scheduler as it was
before its positive-cycle test became bounded-round and its placement
inputs were computed once per schedule. Both must agree exactly: the
same RecMII, the same schedule (II, slots in program order, depth, comm
slots) or the same ``ScheduleError`` message. Random kernels are drawn
at random separations and capacities; hand-built kernels put every
IDX_ISSUE before every IDX_DATA, so their distance-0 capacity edges run
against program order and the RecMII test must not take program order
for a topological order.
"""

import operator
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.descriptors import StreamKind
from repro.errors import ScheduleError
from repro.kernel import ModuloScheduler, min_ii_recurrence
from repro.kernel.ir import Carry, DependenceEdge, Kernel, KernelStream, Op
from repro.kernel.ops import OpKind
from tests.fuzz.strategies import (
    FUZZ_EXAMPLES, build_kernel, kernel_specs, sparse_kernel_specs,
)
from tests.kernel import reference_scheduler as reference

CAPACITIES = (1, 2, 4, 8, 16)
_separations = st.integers(min_value=1, max_value=24)


def outcome(scheduler, recurrence, kernel, inlane, cross, capacity):
    """One implementation's RecMII and schedule; errors as messages."""
    try:
        bound = recurrence(kernel, inlane, cross, capacity)
    except ScheduleError as exc:
        bound = f"ScheduleError: {exc}"
    try:
        schedule = scheduler.schedule(
            kernel, inlane_separation=inlane, crosslane_separation=cross,
            stream_capacity_words=capacity,
        )
    except ScheduleError as exc:
        return bound, f"ScheduleError: {exc}"
    return bound, (schedule.ii, list(schedule.slots.items()),
                   schedule.depth, schedule.comm_slots)


def assert_matches_reference(kernel, inlane, cross, capacity):
    """Both implementations agree; returns the current one's outcome."""
    args = (kernel, inlane, cross, capacity)
    current = outcome(ModuloScheduler(), min_ii_recurrence, *args)
    assert current == outcome(
        reference.ModuloScheduler(), reference.min_ii_recurrence, *args
    )
    return current


@settings(max_examples=FUZZ_EXAMPLES)
@given(spec=st.one_of(kernel_specs(), sparse_kernel_specs()),
       inlane=_separations, cross=_separations,
       capacity=st.sampled_from(CAPACITIES))
def test_random_kernels_match_reference(spec, inlane, cross, capacity):
    kernel, _streams = build_kernel(spec)
    assert_matches_reference(kernel, inlane, cross, capacity)


def issues_first_kernel(reads: int, carried: bool) -> Kernel:
    """``reads`` lookups into one in-lane stream, all issues first.

    Each lookup's index is the previous one squared, so successive
    issues sit one multiply apart; with a separation of at most that
    latency, every capacity edge ``data_r -> issue_{r+capacity}`` can
    hold and the kernel schedules. With ``carried``, the indices also depend on
    the previous iteration's sum of the looked-up values.
    """
    in_s = KernelStream("in", StreamKind.SEQUENTIAL_READ)
    lut = KernelStream("lut", StreamKind.INLANE_INDEXED_READ)
    out = KernelStream("out", StreamKind.SEQUENTIAL_WRITE)
    index = Op(OpKind.SEQ_READ, stream=in_s)
    ops = [index]
    carries = []
    if carried:
        carry = Carry(0, "acc")
        read = Op(OpKind.CARRY)
        read.carry = carry
        carry.read_op = read
        carries.append(carry)
        index = Op(OpKind.ARITH, (index, read), payload=operator.add)
        ops += [read, index]
    issues = []
    for _ in range(reads):
        issues.append(Op(OpKind.IDX_ISSUE, (index,), stream=lut))
        index = Op(OpKind.MUL, (index, index), payload=operator.mul)
        ops += [issues[-1], index]
    datas = [Op(OpKind.IDX_DATA, (issue,), stream=lut) for issue in issues]
    ops += datas
    total = datas[0]
    for data in datas[1:]:
        total = Op(OpKind.ARITH, (total, data), payload=operator.add)
        ops.append(total)
    ops.append(Op(OpKind.SEQ_WRITE, (total,), stream=out))
    if carried:
        carries[0].update_op = total
    kernel = Kernel("issues_first", ops,
                    {s.name: s for s in (in_s, lut, out)}, carries)
    kernel.validate()
    return kernel


@pytest.mark.parametrize("separation", [1, 2, 4])
@pytest.mark.parametrize("capacity", [1, 2])
@pytest.mark.parametrize("carried", [False, True])
@pytest.mark.parametrize("reads", [2, 3, 4])
def test_issues_first_kernels_match_reference(reads, carried, capacity,
                                              separation):
    kernel = issues_first_kernel(reads, carried)
    position = {op.op_id: place for place, op in enumerate(kernel.ops)}
    backward = [
        edge for edge in kernel.dependence_edges(separation, 20, capacity)
        if edge.distance == 0
        and position[edge.source.op_id] > position[edge.sink.op_id]
    ]
    # The capacity edges data_r -> issue_{r+capacity} of distance 0.
    assert len(backward) == max(0, reads - capacity)
    _bound, schedule = assert_matches_reference(kernel, separation, 20,
                                                capacity)
    assert not isinstance(schedule, str), schedule


def test_unschedulable_kernel_fails_with_the_reference_message():
    # A separation longer than the multiply between two issues leaves
    # data_0 after issue_1 at every II; random draws never fail.
    _bound, schedule = assert_matches_reference(
        issues_first_kernel(2, False), 5, 20, 1
    )
    assert schedule == (
        "ScheduleError: issues_first: no schedule found up to II=4096"
    )


@pytest.mark.parametrize("cycle_latency", [0, 2])
def test_zero_distance_cycle_matches_reference(cycle_latency):
    # Kernels cannot close a cycle of distance-0 edges, so the RecMII
    # test's no-topological-order path is driven by hand. Next to the
    # cycle, a 9-cycle chain closed by a back edge is listed last link
    # first: relaxed in that order it needs a round per link, more than
    # the k + 2 = 3 rounds a topological order would allow.
    a, b = Op(OpKind.ARITH), Op(OpKind.ARITH)
    chain = [Op(OpKind.ARITH) for _ in range(10)]
    edges = [
        DependenceEdge(a, b, cycle_latency, 0),
        DependenceEdge(b, a, 0, 0),
        *(DependenceEdge(chain[i], chain[i + 1], 1, 0)
          for i in reversed(range(9))),
        DependenceEdge(chain[-1], chain[0], 0, 1),
    ]
    kernel = SimpleNamespace(name="cyclic",
                             dependence_edges=lambda *_args: edges)

    def bound(recurrence):
        try:
            return recurrence(kernel, 6, 20)
        except ScheduleError as exc:
            return str(exc)

    assert bound(min_ii_recurrence) == bound(reference.min_ii_recurrence)
    assert bound(min_ii_recurrence) == (
        9 if cycle_latency == 0
        else "cyclic: recurrence cannot be satisfied below II=4096"
    )
