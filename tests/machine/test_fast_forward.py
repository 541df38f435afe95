"""One cycle loop: every component ticks once per simulated cycle, and
a stuck program aborts exactly on the deadlock horizon."""

import re

import pytest

import repro.machine.processor as processor_module
from repro.apps import fft
from repro.config import base_config
from repro.config.presets import all_configs
from repro.core import SrfArray, StreamRegisterFile
from repro.errors import DeadlockError, ExecutionError
from repro.machine import StreamProcessor, StreamProgram
from repro.memory import MemoryController, load_op

CONFIG_NAMES = ("Base", "ISRF1", "ISRF4", "Cache")


class TestOneCycleLoop:
    @pytest.mark.parametrize("config_name", CONFIG_NAMES)
    def test_every_component_ticks_every_cycle(self, config_name,
                                               monkeypatch):
        """No cycle is skipped: the SRF and the memory controller tick
        once per simulated cycle of a whole FFT 2D run."""
        ticks = {"StreamRegisterFile": 0, "MemoryController": 0}
        for cls in (StreamRegisterFile, MemoryController):
            def tick(self, *args, _real=cls.tick, _name=cls.__name__):
                ticks[_name] += 1
                return _real(self, *args)
            monkeypatch.setattr(cls, "tick", tick)
        result = fft.run(all_configs()[config_name], n=16, repeats=1)
        cycles = result.require_verified().stats.total_cycles
        assert ticks == {"StreamRegisterFile": cycles,
                         "MemoryController": cycles}


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

    def test_configured_limit_aborts(self, monkeypatch):
        monkeypatch.setattr(processor_module, "DEADLOCK_CYCLES", 500)
        proc = StreamProcessor(base_config())
        with pytest.raises(ExecutionError, match="no progress for 500"):
            proc.run_program(self._stuck_program(proc))

    def test_abort_cycle_is_the_horizon(self, monkeypatch):
        # Nothing ever progresses, so the watchdog fires once the cycle
        # count passes the horizon: after the tick of cycle 400, with
        # proc.cycle at 401. The SRF ticked on each of those cycles.
        monkeypatch.setattr(processor_module, "DEADLOCK_CYCLES", 400)
        proc = StreamProcessor(base_config())
        with pytest.raises(ExecutionError, match="no progress for 400"):
            proc.run_program(self._stuck_program(proc))
        assert proc.cycle == 401
        assert proc.srf.stats.cycles == 401

    def test_abort_raises_deadlock_error_with_report(self, monkeypatch):
        monkeypatch.setattr(processor_module, "DEADLOCK_CYCLES", 500)
        proc = StreamProcessor(base_config())
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
