"""Machine-state sanitizer: detection power and inertness.

(The bit-identical-stats half of the inertness contract lives in
``tests/machine/test_golden_stats.py::test_sanitizer_is_inert``.)
"""

from types import SimpleNamespace

import pytest

from repro.analyze import MachineSanitizer
from repro.apps import fft
from repro.config.presets import base_config, isrf4_config
from repro.core import SequentialPort, SrfArray
from repro.core.stream_buffer import UNFILLED
from repro.errors import DeadlockError, SanitizerError
from repro.kernel.builder import KernelBuilder
from repro.machine import StreamProcessor, StreamProgram
from repro.machine.program import KernelInvocation
from repro.memory import store_op


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


def _copy_program(proc):
    """One sequential copy kernel (its input port requests at once),
    with a hook slot for corruption."""
    b = KernelBuilder("copy")
    src = b.istream("src")
    dst = b.ostream("dst")
    b.write(dst, b.add(b.read(src), b.const(1), name="inc"))
    kernel = b.build()
    src_a = SrfArray(proc.srf, 256, "src")
    dst_a = SrfArray(proc.srf, 256, "dst")
    invocation = KernelInvocation(
        kernel, {"src": src_a.seq_read(), "dst": dst_a.seq_write()},
        iterations=8,
    )
    prog = StreamProgram("copy")
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

    def test_stale_request_line_aborts_the_run(self):
        proc = StreamProcessor(isrf4_config(sanitize=True))
        prog, invocation = _lookup_program(proc)

        def corrupt():
            # The output port stops refreshing its request line, so its
            # pushes leave the line low once it wants a grant.
            port, = (p for p in proc.srf._seq_ports
                     if isinstance(p, SequentialPort))
            port.refresh_request = lambda: None

        invocation.on_start = corrupt
        with pytest.raises(SanitizerError, match="request line of "
                           "sequential port 'out'"):
            proc.run_program(prog)

    def test_raised_line_count_drift_aborts_the_run(self):
        proc = StreamProcessor(base_config(sanitize=True))
        prog, invocation = _copy_program(proc)

        def corrupt():
            proc.srf._raised_lines += 1

        invocation.on_start = corrupt
        with pytest.raises(SanitizerError, match="raised-line count"):
            proc.run_program(prog)

    def test_queued_word_count_drift_aborts_the_run(self):
        proc = StreamProcessor(isrf4_config(sanitize=True))
        prog, invocation = _lookup_program(proc)

        def corrupt():
            proc.srf._queued_words += 1

        invocation.on_start = corrupt
        with pytest.raises(SanitizerError, match="queued-word count"):
            proc.run_program(prog)

    def test_return_queue_count_drift_aborts_the_run(self):
        proc = StreamProcessor(isrf4_config(sanitize=True))
        prog, invocation = _lookup_program(proc)

        def corrupt():
            proc.srf.return_network.queued += 1

        invocation.on_start = corrupt
        with pytest.raises(SanitizerError, match="return network: "
                           "queued count"):
            proc.run_program(prog)

    def test_memory_op_request_lines_are_checked(self):
        proc = StreamProcessor(base_config(sanitize=True))
        arr = SrfArray(proc.srf, 64, "a")
        region = proc.memory.allocate(64, "r")
        proc.controller.issue(store_op(arr.seq_write(), region), 0)
        op, = proc.srf._seq_ports
        assert op.requesting  # a store's staging has room at issue
        proc._sanitizer.check(0)  # must not raise
        op.staged = op.staging_capacity  # full staging: no grant wanted
        with pytest.raises(SanitizerError, match="memory op 'store"):
            proc._sanitizer.check(0)


def _inlane_reads_in_flight(sanitize=True):
    """An ISRF4 machine with in-lane indexed reads granted, their words
    not yet arrived."""
    proc = StreamProcessor(isrf4_config(sanitize=sanitize))
    table = SrfArray(proc.srf, 256, "table")
    stream = proc.srf.open_indexed(table.inlane_read())
    for lane in range(proc.srf.geometry.lanes):
        stream.issue_read(lane, lane)
    proc.srf.tick(0)  # grants every lane's read; words arrive later
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
        port = SimpleNamespace(deliver_fill=lambda: None)
        proc.srf.schedule_fill(0, port)
        with pytest.raises(SanitizerError, match="due at cycle 0 still"):
            proc._sanitizer.check(0)

    def test_event_beyond_the_calendar_window_detected(self):
        proc, _stream = _inlane_reads_in_flight()
        port = SimpleNamespace(deliver_fill=lambda: None)
        due = 1 + proc.srf._cal_size
        proc.srf.schedule_fill(due, port)
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
        words.append(words.pop()[:3] + (False,))  # clear the last flag
        with pytest.raises(SanitizerError, match="does not end a record"):
            proc._sanitizer.check(0)

    def test_over_capacity_fifo_detected(self):
        proc, stream = _two_word_records_queued()
        fifo = stream.fifos[0]
        extra = fifo.capacity
        fifo._words.extend([(0, 0, None, True)] * extra)
        fifo.records += extra
        stream.pending_words += extra
        with pytest.raises(SanitizerError, match="exceed capacity"):
            proc._sanitizer.check(0)


def _plant_crosslane_return(srf, due, rob, ticket):
    """Queue a cross-lane return for ``rob``'s ``ticket`` in the
    completion calendar."""
    slot = due % srf._cal_size
    srf._cal[slot].append((2, 0, 0, ticket, rob))
    srf._cal_due[slot] = due
    srf._cal_count += 1


class TestReorderBuffers:
    """A slot holds its word's arrival cycle, or UNFILLED until the
    word is granted (in-lane) or delivered (cross-lane)."""

    def test_granted_reads_are_stamped_with_their_arrival(self):
        proc, stream = _inlane_reads_in_flight()
        due = proc.config.inlane_indexed_latency
        assert [list(rob._slots) for rob in stream.robs] == [[due]] * 8
        proc._sanitizer.check(0)  # must not raise

    def test_return_for_a_filled_slot_detected(self):
        proc, stream = _inlane_reads_in_flight()
        rob = stream.robs[0]
        for cycle in range(1, 1 + proc.config.inlane_indexed_latency):
            proc.srf.tick(cycle)
        assert rob.head_ready(proc.srf._now)
        # A second fill for the ticket that already arrived.
        _plant_crosslane_return(proc.srf, cycle + 1, rob, rob._head_ticket)
        with pytest.raises(SanitizerError, match="not an unfilled"):
            proc._sanitizer.check(cycle)

    def test_queued_word_for_a_filled_slot_detected(self):
        proc, stream = _inlane_reads_in_flight()
        fifo = stream.fifos[1]
        # Re-queue the word lane 1 was granted: it would stamp twice.
        fifo._words.append((1, stream.local_base + 1, 0, True))
        fifo.records += 1
        stream.pending_words += 1
        proc.srf._queued_words += 1
        with pytest.raises(SanitizerError, match="lane 1: queued word for "
                           "ticket 0, not an unfilled"):
            proc._sanitizer.check(0)

    def test_return_for_an_unissued_ticket_detected(self):
        proc, stream = _inlane_reads_in_flight()
        _plant_crosslane_return(proc.srf, 2, stream.robs[3], 17)
        with pytest.raises(SanitizerError, match="ticket 17, which its "
                           "reorder buffer never reserved"):
            proc._sanitizer.check(0)

    def test_unfilled_slot_nothing_will_fill_detected(self):
        proc, stream = _inlane_reads_in_flight()
        ticket = stream.robs[5].reserve()  # reserved, never queued
        with pytest.raises(SanitizerError, match=f"ticket {ticket} is "
                           "neither queued"):
            proc._sanitizer.check(0)

    def test_stamp_beyond_the_inlane_latency_detected(self):
        proc, stream = _inlane_reads_in_flight()
        latest = proc.config.inlane_indexed_latency
        stream.robs[2]._slots[0] = latest + 1
        with pytest.raises(SanitizerError, match=f"arrives at cycle "
                           f"{latest + 1}, beyond"):
            proc._sanitizer.check(0)
        stream.robs[2]._slots[0] = latest
        proc._sanitizer.check(0)  # the latest stamp a grant can write

    def test_overfull_reorder_buffer_detected(self):
        proc, stream = _inlane_reads_in_flight()
        rob = stream.robs[2]
        rob._slots.extend([UNFILLED] * rob.capacity)
        with pytest.raises(SanitizerError, match="exceeds capacity"):
            proc._sanitizer.check(0)


def _corrupt_after_first_grant(proc, corrupt):
    """Make the SRF call ``corrupt(stream)`` once, after the first tick
    that granted an indexed read."""
    tick = proc.srf.tick
    done = []

    def tick_then_corrupt(cycle, comm_busy=False):
        tick(cycle, comm_busy)
        if not done and proc.srf.stats.inlane_grants:
            done.append(cycle)
            corrupt(proc.srf._indexed_list[0])

    proc.srf.tick = tick_then_corrupt


class TestReorderDriftInARun:
    """Each reorder-slot violation aborts a sanitized run."""

    def _run(self, corrupt):
        proc = StreamProcessor(isrf4_config(sanitize=True))
        prog, _invocation = _lookup_program(proc)
        _corrupt_after_first_grant(proc, corrupt)
        proc.run_program(prog)

    def test_clean_run_passes(self):
        self._run(lambda stream: None)

    def test_stamp_pushed_past_the_latency_aborts(self):
        def corrupt(stream):
            rob = next(rob for rob in stream.robs if rob._slots)
            rob._slots[0] += 100

        with pytest.raises(SanitizerError, match="beyond the last ticked"):
            self._run(corrupt)

    def test_lost_stamp_aborts(self):
        # A granted word's slot goes back to unfilled: nothing will ever
        # fill it.
        def corrupt(stream):
            rob = next(rob for rob in stream.robs if rob._slots)
            rob._slots[0] = UNFILLED

        with pytest.raises(SanitizerError, match="neither queued"):
            self._run(corrupt)

    def test_slot_stamped_twice_aborts(self):
        # A granted word is queued again: its grant would stamp a slot
        # that is already stamped.
        def corrupt(stream):
            rob = next(rob for rob in stream.robs if rob._slots)
            fifo = stream.fifos[stream.robs.index(rob)]
            fifo._words.append((fifo.lane, stream.local_base,
                                rob._head_ticket, True))
            fifo.records += 1
            stream.pending_words += 1
            stream.srf._queued_words += 1

        with pytest.raises(SanitizerError, match="not an unfilled"):
            self._run(corrupt)


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
