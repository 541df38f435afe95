"""Fast-forward equivalence: skipping pure-wait cycles in bulk must be
invisible in every statistic the paper's figures are built from."""

import re

import pytest

import repro.machine.processor as processor_module
from repro.apps import fft, sort
from repro.config import base_config
from repro.config.presets import all_configs
from repro.core import SrfArray
from repro.errors import DeadlockError, ExecutionError
from repro.machine import StreamProcessor, StreamProgram
from repro.memory import load_op

CONFIG_NAMES = ("Base", "ISRF1", "ISRF4", "Cache")


def _run_both(app_run, config, **kwargs):
    fast = app_run(config.replace(fast_forward=True), **kwargs)
    slow = app_run(config.replace(fast_forward=False), **kwargs)
    assert fast.verified and slow.verified
    return fast, slow


class TestBitIdenticalStats:
    @pytest.mark.parametrize("config_name", CONFIG_NAMES)
    def test_fft_stats_identical(self, config_name):
        config = all_configs()[config_name]
        fast, slow = _run_both(fft.run, config, n=16, repeats=1)
        assert fast.stats == slow.stats

    @pytest.mark.parametrize("config_name", CONFIG_NAMES)
    def test_sort_stats_identical(self, config_name):
        config = all_configs()[config_name]
        fast, slow = _run_both(sort.run, config, n=256, repeats=1)
        assert fast.stats == slow.stats

    def test_stall_breakdown_identical(self):
        # The categories fast-forward charges in bulk — not just totals.
        config = all_configs()["ISRF4"]
        fast, slow = _run_both(fft.run, config, n=16, repeats=1)
        assert fast.stats.total_cycles == slow.stats.total_cycles
        assert fast.stats.memory_stall_cycles == slow.stats.memory_stall_cycles
        assert fast.stats.idle_cycles == slow.stats.idle_cycles
        assert fast.stats.offchip_words == slow.stats.offchip_words
        assert fast.stats.kernel_runs == slow.stats.kernel_runs


class TestDeadlockNotMasked:
    def _stuck_program(self, proc):
        arr = SrfArray(proc.srf, 64, "a")
        region = proc.memory.allocate(64, "r")
        prog = StreamProgram("stuck")
        # A load depending on a task id that never exists in this run.
        prog.add_memory(load_op(arr.seq_read(), region), deps=[10**9])
        prog.tasks[0].deps = [10**9]
        prog.validate = lambda: None  # bypass static validation
        return prog

    @pytest.mark.parametrize("fast_forward", [True, False])
    def test_configured_limit_aborts(self, fast_forward, monkeypatch):
        monkeypatch.setattr(processor_module, "DEADLOCK_CYCLES", 500)
        config = base_config().replace(fast_forward=fast_forward)
        proc = StreamProcessor(config)
        with pytest.raises(ExecutionError, match="no progress for 500"):
            proc.run_program(self._stuck_program(proc))

    def test_abort_cycle_identical_across_modes(self, monkeypatch):
        # Fast-forward must not skip past the deadlock horizon: a stuck
        # program aborts on exactly the same cycle either way.
        monkeypatch.setattr(processor_module, "DEADLOCK_CYCLES", 400)
        abort_cycles = []
        for fast_forward in (True, False):
            config = base_config().replace(fast_forward=fast_forward)
            proc = StreamProcessor(config)
            with pytest.raises(ExecutionError, match="no progress for 400"):
                proc.run_program(self._stuck_program(proc))
            abort_cycles.append(proc.cycle)
        assert abort_cycles[0] == abort_cycles[1]

    @pytest.mark.parametrize("fast_forward", [True, False])
    def test_abort_raises_deadlock_error_with_report(self, fast_forward,
                                                     monkeypatch):
        monkeypatch.setattr(processor_module, "DEADLOCK_CYCLES", 500)
        config = base_config().replace(fast_forward=fast_forward)
        proc = StreamProcessor(config)
        with pytest.raises(DeadlockError) as excinfo:
            proc.run_program(self._stuck_program(proc))
        error = excinfo.value
        assert isinstance(error, ExecutionError)  # old handlers still work
        assert error.report is not None
        assert error.report.program == "stuck"
        assert error.report.cycle == proc.cycle

    def _multi_stuck_program(self, proc):
        prog = StreamProgram("stuck")
        # Three blocked loads with deliberately unsorted dep lists; the
        # forensics must come out sorted regardless of insertion order.
        for name, deps in (("c", [7 * 10**8, 3 * 10**8]),
                           ("a", [9 * 10**8]),
                           ("b", [5 * 10**8, 1 * 10**8])):
            arr = SrfArray(proc.srf, 64, name)
            region = proc.memory.allocate(64, f"r_{name}")
            prog.add_memory(load_op(arr.seq_read(), region), deps=deps)
        for task, deps in zip(
            prog.tasks,
            ([7 * 10**8, 3 * 10**8], [9 * 10**8], [5 * 10**8, 1 * 10**8]),
        ):
            task.deps = deps
        prog.validate = lambda: None  # bypass static validation
        return prog

    def test_forensics_listings_are_deterministic(self, monkeypatch):
        monkeypatch.setattr(processor_module, "DEADLOCK_CYCLES", 400)
        texts = []
        for _ in range(2):
            proc = StreamProcessor(base_config())
            with pytest.raises(DeadlockError) as excinfo:
                proc.run_program(self._multi_stuck_program(proc))
            report = excinfo.value.report
            # Blocked tasks ordered by task id, deps numerically sorted.
            ids = [task.task_id for task in report.blocked]
            assert ids == sorted(ids)
            for task in report.blocked:
                assert task.missing_deps == sorted(task.missing_deps)
            assert report.srf_occupancy == sorted(report.srf_occupancy)
            assert report.inflight_memory == sorted(report.inflight_memory)
            # Task ids are globally unique across program builds; strip
            # them so the rendered forensics can be compared run to run.
            texts.append(re.sub(r"task \d+", "task N", report.describe()))
        assert texts[0] == texts[1]

    def test_report_names_the_blocked_task_and_its_deps(self, monkeypatch):
        monkeypatch.setattr(processor_module, "DEADLOCK_CYCLES", 500)
        proc = StreamProcessor(base_config())
        with pytest.raises(DeadlockError) as excinfo:
            proc.run_program(self._stuck_program(proc))
        report = excinfo.value.report
        blocked = report.blocked
        assert len(blocked) == 1
        assert blocked[0].name == "load:a"
        assert blocked[0].kind == "memory"
        assert 10**9 in blocked[0].missing_deps
        text = report.describe()
        assert "deadlock forensics" in text
        assert "waiting on: 1000000000" in text
        # The dump reaches the exception message seen by the user.
        assert "waiting on" in str(excinfo.value)
