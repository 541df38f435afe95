"""Machine-state sanitizer: detection power and inertness.

(The bit-identical-stats half of the inertness contract lives in
``tests/machine/test_golden_stats.py::test_sanitizer_is_inert``.)
"""

from types import SimpleNamespace

import pytest

from repro.analyze import MachineSanitizer
from repro.apps import fft
from repro.config.presets import base_config, isrf4_config
from repro.core import SrfArray
from repro.errors import DeadlockError, SanitizerError
from repro.kernel.builder import KernelBuilder
from repro.machine import StreamProcessor, StreamProgram
from repro.machine.program import KernelInvocation


class TestInstallation:
    def test_off_by_default_leaves_no_state(self):
        proc = StreamProcessor(isrf4_config())
        assert proc._sanitizer is None

    def test_sanitize_flag_installs_checker(self):
        proc = StreamProcessor(isrf4_config(sanitize=True))
        assert isinstance(proc._sanitizer, MachineSanitizer)

    def test_clean_machine_passes(self):
        proc = StreamProcessor(isrf4_config(sanitize=True))
        proc._sanitizer.check(0)  # must not raise
        assert proc._sanitizer.checks_run == 1

    def test_sanitized_run_completes_and_checks_every_cycle(self):
        config = isrf4_config(sanitize=True)
        result = fft.run(config, n=16).require_verified()
        assert result.verified
        assert result.cycles > 0


class TestAllocatorInvariants:
    def test_misaligned_allocation_detected(self):
        proc = StreamProcessor(base_config(sanitize=True))
        proc.srf.allocator._regions.append(
            SimpleNamespace(base=3, words=5, name="evil")
        )
        with pytest.raises(SanitizerError) as excinfo:
            proc._sanitizer.check(0)
        assert "not block-aligned" in str(excinfo.value)
        assert excinfo.value.report.violations

    def test_overlapping_allocations_detected(self):
        proc = StreamProcessor(base_config(sanitize=True))
        SrfArray(proc.srf, 64, "a")
        block = proc.srf.geometry.block_words
        proc.srf.allocator._regions.append(
            SimpleNamespace(base=0, words=block, name="clash")
        )
        with pytest.raises(SanitizerError, match="overlaps"):
            proc._sanitizer.check(0)

    def test_allocation_beyond_srf_detected(self):
        proc = StreamProcessor(base_config(sanitize=True))
        total = proc.srf.geometry.total_words
        block = proc.srf.geometry.block_words
        proc.srf.allocator._regions.append(
            SimpleNamespace(base=total, words=block, name="beyond")
        )
        with pytest.raises(SanitizerError, match="beyond"):
            proc._sanitizer.check(0)

    def test_report_collects_all_violations_of_the_cycle(self):
        proc = StreamProcessor(base_config(sanitize=True))
        total = proc.srf.geometry.total_words
        block = proc.srf.geometry.block_words
        proc.srf.allocator._regions.append(
            SimpleNamespace(base=3, words=5, name="evil")
        )
        proc.srf.allocator._regions.append(
            SimpleNamespace(base=total, words=block, name="beyond")
        )
        with pytest.raises(SanitizerError) as excinfo:
            proc._sanitizer.check(7)
        report = excinfo.value.report
        assert report.cycle == 7
        assert len(report.violations) >= 2
        assert "sanitizer:" in report.describe()


def _lookup_program(proc):
    """One indexed-lookup kernel, with a hook slot for corruption."""
    b = KernelBuilder("lookup")
    table = b.idxl_istream("table")
    dst = b.ostream("dst")
    it = b.carry(0, "it")
    b.update(it, b.add(it, b.const(1), name="next"))
    b.write(dst, b.idx_read(table, it))
    kernel = b.build()
    table_a = SrfArray(proc.srf, 256, "table")
    out = SrfArray(proc.srf, 256, "out")
    invocation = KernelInvocation(
        kernel,
        {"table": table_a.inlane_read(), "dst": out.seq_write()},
        iterations=8,
    )
    prog = StreamProgram("lookup")
    prog.add_kernel(invocation)
    return prog, invocation


class TestRuntimeDetection:
    def test_corrupted_pending_counter_aborts_the_run(self):
        proc = StreamProcessor(isrf4_config(sanitize=True))
        prog, invocation = _lookup_program(proc)

        def corrupt():
            # After stream binding the indexed stream is registered;
            # skew its O(1) pending-words counter off the ground truth.
            proc.srf._indexed_list[0].pending_words += 1

        invocation.on_start = corrupt
        with pytest.raises(SanitizerError, match="pending_words"):
            proc.run_program(prog)

    def test_sanitizer_catches_it_long_before_the_deadlock_horizon(self):
        # Without the sanitizer the same corruption only surfaces as a
        # deadlock after the full no-progress horizon, with nothing
        # pointing at the broken counter; the sanitizer converts that
        # into an immediate, named invariant violation.
        proc = StreamProcessor(isrf4_config())
        prog, invocation = _lookup_program(proc)

        def corrupt():
            proc.srf._indexed_list[0].pending_words += 1

        invocation.on_start = corrupt
        with pytest.raises(DeadlockError):
            proc.run_program(prog)
        assert proc.cycle > 10_000  # burned the whole horizon first


def _inlane_reads_in_flight(sanitize=True):
    """An ISRF4 machine with in-lane indexed reads granted, not filled."""
    proc = StreamProcessor(isrf4_config(sanitize=sanitize))
    table = SrfArray(proc.srf, 256, "table")
    stream = proc.srf.open_indexed(table.inlane_read())
    for lane in range(proc.srf.geometry.lanes):
        stream.issue_read(lane, lane)
    proc.srf.tick(0)  # grants every lane's read; fills are due later
    return proc, stream


class TestCompletionPipeline:
    def test_granted_reads_pass(self):
        proc, _stream = _inlane_reads_in_flight()
        proc._sanitizer.check(0)  # must not raise

    def test_event_due_in_a_drained_cycle_detected(self):
        # A completion due in the cycle that already drained (what a
        # zero SRF latency would schedule) sits in the calendar until
        # the ring wraps: the sanitizer names it at once.
        proc, _stream = _inlane_reads_in_flight()
        port = SimpleNamespace(deliver_fill=lambda per_lane: None)
        proc.srf.schedule_fill(0, port, [[0]])
        with pytest.raises(SanitizerError, match="due at cycle 0 still"):
            proc._sanitizer.check(0)

    def test_event_beyond_the_calendar_window_detected(self):
        proc, _stream = _inlane_reads_in_flight()
        port = SimpleNamespace(deliver_fill=lambda per_lane: None)
        due = 1 + proc.srf._cal_size
        proc.srf.schedule_fill(due, port, [[0]])
        with pytest.raises(SanitizerError, match="calendar window"):
            proc._sanitizer.check(0)

    def test_in_flight_count_drift_detected(self):
        proc, _stream = _inlane_reads_in_flight()
        proc.srf._cal_count += 1
        with pytest.raises(SanitizerError, match="in-flight count"):
            proc._sanitizer.check(0)


def _two_word_records_queued():
    """An ISRF4 machine with 2-word in-lane records queued, not granted."""
    proc = StreamProcessor(isrf4_config(sanitize=True))
    table = SrfArray(proc.srf, 256, "pairs")
    stream = proc.srf.open_indexed(table.inlane_read(record_words=2))
    assert stream.issue_reads([0, 1, None, 3, 4, 5, 6, 7])
    return proc, stream


class TestAddressFifos:
    def test_queued_records_pass(self):
        proc, _stream = _two_word_records_queued()
        proc._sanitizer.check(0)  # must not raise

    def test_record_counter_drift_detected(self):
        proc, stream = _two_word_records_queued()
        stream.fifos[3].records += 1
        with pytest.raises(SanitizerError, match="record counter"):
            proc._sanitizer.check(0)

    def test_tail_word_that_ends_no_record_detected(self):
        proc, stream = _two_word_records_queued()
        words = stream.fifos[4]._words
        words.append(words.pop()[:4] + (False,))  # clear the last flag
        with pytest.raises(SanitizerError, match="does not end a record"):
            proc._sanitizer.check(0)

    def test_over_capacity_fifo_detected(self):
        proc, stream = _two_word_records_queued()
        fifo = stream.fifos[0]
        extra = fifo.capacity
        fifo._words.extend([(0, 0, None, 0, True)] * extra)
        fifo.records += extra
        stream.pending_words += extra
        with pytest.raises(SanitizerError, match="exceed capacity"):
            proc._sanitizer.check(0)


def _plant_inlane_fill(srf, due, rob, ticket):
    """Queue an in-lane read fill in the completion calendar."""
    slot = due % srf._cal_size
    srf._cal[slot].append((1, rob, ticket, 99))
    srf._cal_due[slot] = due
    srf._cal_count += 1


class TestReorderBuffers:
    def test_due_for_a_filled_slot_detected(self):
        proc, stream = _inlane_reads_in_flight()
        rob = stream.robs[0]
        for cycle in range(1, 1 + proc.config.inlane_indexed_latency):
            proc.srf.tick(cycle)
        assert rob.head_ready()
        # A second fill for the ticket that already filled.
        _plant_inlane_fill(proc.srf, cycle + 1, rob, rob._head_ticket)
        with pytest.raises(SanitizerError, match="not an unfilled"):
            proc._sanitizer.check(cycle)

    def test_due_for_an_unissued_ticket_detected(self):
        proc, stream = _inlane_reads_in_flight()
        _plant_inlane_fill(proc.srf, proc.config.inlane_indexed_latency,
                           stream.robs[3], 17)
        with pytest.raises(SanitizerError, match="ticket 17"):
            proc._sanitizer.check(0)

    def test_overfull_reorder_buffer_detected(self):
        proc, stream = _inlane_reads_in_flight()
        rob = stream.robs[2]
        rob._slots.extend([0.0] * rob.capacity)
        with pytest.raises(SanitizerError, match="exceeds capacity"):
            proc._sanitizer.check(0)


def test_occupancy_report_names_the_next_due_completion():
    proc, _stream = _inlane_reads_in_flight(sanitize=False)
    lanes = proc.srf.geometry.lanes
    due = proc.config.inlane_indexed_latency
    assert (
        f"{lanes} pipelined accesses in flight (next due cycle {due})"
        in proc.srf.occupancy_report()
    )
    for cycle in range(1, due + 1):
        proc.srf.tick(cycle)
    assert not any("pipelined" in line
                   for line in proc.srf.occupancy_report())
