"""Property: the executor's firing table fires a kernel's timed ops in
exactly the order of the event heap it replaced.

The heap held one ``(issue * ii + slot, push order)`` entry per timed op
per issued iteration, pushed in ``timed_stream_ops()`` order as each
iteration issued; each cycle the executor fired the entries whose
virtual time had come, and a refused entry stayed on top, stalling the
cycle. :class:`~repro.machine.executor.KernelExecutor` now fires rows
from :func:`~repro.machine.executor.firing_table` instead. For random
``ii``, slots, iteration counts and refusal points, a probe executor
whose rows drive fake sequential ports must fire the same ops at the
same virtual times, stall on the same cycles, resume at the refused row
and finish on the same cycle as :func:`heap_reference`.
"""

import heapq
import itertools
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.machine.executor import _SEQ_READ, KernelExecutor, firing_table
from tests.fuzz.strategies import FUZZ_EXAMPLES

STEP_LIMIT = 10_000


def heap_reference(slots, ii, iterations, refusals):
    """The heap the table replaced: ``(fired, stalls, steps)``.

    ``fired`` lists ``(vt, op)`` in firing order; the ``k``-th fire
    attempt (from 0) is refused when ``k`` is in ``refusals``.
    """
    heap = []
    sequence = itertools.count()
    vt = issued = attempts = stalls = steps = 0
    fired = []
    while True:
        steps += 1
        while issued < iterations and issued * ii <= vt:
            for op, slot in enumerate(slots):
                heapq.heappush(heap, (issued * ii + slot, next(sequence), op))
            issued += 1
        stalled = False
        while heap and heap[0][0] <= vt:
            attempt = attempts
            attempts += 1
            if attempt in refusals:
                stalled = True
                break
            _due, _seq, op = heapq.heappop(heap)
            fired.append((vt, op))
        if stalled:
            stalls += 1
        else:
            vt += 1
        if issued == iterations and not heap:
            return fired, stalls, steps


class _Port:
    """A sequential read port that logs each pop and refuses the
    attempts the log names."""

    def __init__(self, probe, log, op):
        self.probe = probe
        self.log = log
        self.op = op

    def can_pop(self) -> bool:
        attempt = self.log.attempts
        self.log.attempts += 1
        return attempt not in self.log.refusals

    def pop_simd(self) -> None:
        self.log.fired.append((self.probe._vt, self.op))


class _Probe(KernelExecutor):
    """The executor's own step, issue and firing code, with fake ports
    as the rows' targets and no SRF, streams or interpreter."""

    def __init__(self, slots, ii, iterations, log):
        self.stats = SimpleNamespace(total_cycles=0, srf_stall_cycles=0)
        self.invocation = SimpleNamespace(on_finish=None)
        self.finished = False
        self._startup_remaining = 0
        self._flushed = False
        self._ports = {}
        self._indexed = {}
        rows = [(slot, _SEQ_READ, _Port(self, log, op), op, None)
                for op, slot in enumerate(slots)]
        self._set_firing(rows, ii, iterations)

    def _next_row(self) -> list:
        return []


@st.composite
def schedules(draw):
    ii = draw(st.integers(1, 8))
    slots = draw(st.lists(st.integers(0, 4 * ii + 3), max_size=10))
    iterations = draw(st.integers(0, 12))
    refusals = draw(st.frozensets(st.integers(0, 150), max_size=40))
    return slots, ii, iterations, refusals


def test_table_positions_cover_each_op_once():
    table = firing_table([3, 0, 5, 3, 1], 2)
    assert table == [[1], [2, 0, 3, 4]]


@settings(max_examples=FUZZ_EXAMPLES)
@given(schedules())
def test_table_fires_in_heap_order(case):
    slots, ii, iterations, refusals = case
    log = SimpleNamespace(attempts=0, refusals=refusals, fired=[])
    probe = _Probe(slots, ii, iterations, log)
    steps = 0
    while not probe.finished:
        assert not probe.step(), "a sequential row reported a comm"
        steps += 1
        assert steps < STEP_LIMIT
    fired, stalls, ref_steps = heap_reference(slots, ii, iterations,
                                              refusals)
    assert log.fired == fired
    assert probe.stats.srf_stall_cycles == stalls
    assert steps == ref_steps
    assert not probe._held  # every iteration's details were dropped
