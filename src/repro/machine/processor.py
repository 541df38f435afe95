"""The top-level stream processor simulator.

Ties the substrates together exactly as in Figure 2 / Figure 8 of the
paper: N lanes of SRF bank + compute cluster, a stream memory system
sharing the SRF port, optional cache, and a single kernel
microcontroller. :meth:`StreamProcessor.run_program` executes a
stream-level task graph cycle by cycle:

* ready memory transfers are issued immediately and proceed concurrently
  (latency hiding, §2);
* kernels run one at a time on the cluster array via
  :class:`~repro.machine.executor.KernelExecutor`;
* cycles with no kernel running are charged to *memory stall* when
  transfers are in flight (Figure 12's category), else to idle.

The processor is long-lived: benchmarks allocate SRF space and main
memory once, then run per-strip programs back to back, which is how the
paper's "software pipelined loops" steady state is measured.
"""

from __future__ import annotations

import dataclasses

from repro.config.machine import MachineConfig
from repro.core.srf import StreamRegisterFile
from repro.errors import DeadlockError
from repro.kernel.ir import Kernel
from repro.kernel.resources import ClusterResources
from repro.kernel.schedule import StaticSchedule
from repro.kernel.scheduler import ModuloScheduler
from repro.machine import replay
from repro.machine.diagnostics import build_deadlock_report
from repro.machine.executor import KernelExecutor
from repro.machine.program import StreamProgram
from repro.machine.stats import ProgramStats
from repro.memory.controller import MemoryController
from repro.memory.mainmem import MainMemory
from repro.observe.events import RING_EVENTS, Tracer
from repro.observe.observer import register as _register_tracer

#: A program making no forward progress for this many cycles is declared
#: deadlocked (a bug in the program or the model).
DEADLOCK_CYCLES = 200_000


class StreamProcessor:
    """A complete simulated machine built from a :class:`MachineConfig`."""

    def __init__(self, config: MachineConfig):
        config.validate()
        self.config = config
        self.srf = StreamRegisterFile(config)
        self.memory = MainMemory(row_words=config.dram_row_words)
        self.controller = MemoryController(config, self.srf, self.memory)
        self.scheduler = ModuloScheduler(ClusterResources.from_config(config))
        self.cycle = 0
        self._schedule_cache = {}
        self._install_tracer(config)
        self._install_sanitizer(config)

    def _install_sanitizer(self, config: MachineConfig) -> None:
        """Attach the debug invariant checker (usually None).

        Like the observability layer, a machine built with
        ``sanitize=False`` carries no sanitizer state at all, and a
        sanitized run's stats are bit-identical to an unsanitized one —
        every check is a read-only probe.
        """
        self._sanitizer = None
        if config.sanitize:
            # Imported lazily: repro.analyze is a client of the machine
            # layer everywhere else, and the dependency must not become
            # circular at import time.
            from repro.analyze.sanitize import MachineSanitizer

            self._sanitizer = MachineSanitizer(self.srf)

    def _install_tracer(self, config: MachineConfig) -> None:
        """Hand the SRF and memory controller one tracer (usually None).

        Tracing never changes simulated behaviour: every trace call is a
        read-only probe, and an untraced machine carries no tracer.
        """
        self.tracer = None
        if not config.trace:
            return
        self.tracer = Tracer(RING_EVENTS, clock_hz=config.clock_hz)
        self.srf.tracer = self.tracer
        self.controller.tracer = self.tracer
        _register_tracer(config.name, self.tracer)

    # ------------------------------------------------------------------
    def schedule_kernel(self, kernel: Kernel) -> StaticSchedule:
        """Schedule (and cache) a kernel with this machine's separations.

        The cache keys on the kernel object itself (kernels hash by
        identity), keeping a strong reference for the processor's
        lifetime. Keying on ``id(kernel)`` would silently hand a new
        kernel that reuses a collected kernel's address the *wrong*
        cached schedule.
        """
        key = (
            kernel,
            self.config.inlane_addr_data_separation,
            self.config.crosslane_addr_data_separation,
        )
        if key not in self._schedule_cache:
            self._schedule_cache[key] = self.scheduler.schedule(
                kernel,
                inlane_separation=self.config.inlane_addr_data_separation,
                crosslane_separation=self.config.crosslane_addr_data_separation,
                stream_capacity_words=self.config.stream_buffer_words,
            )
        return self._schedule_cache[key]

    # ------------------------------------------------------------------
    def run_program(self, program: StreamProgram) -> ProgramStats:
        """Execute a stream program to completion; returns its stats.

        One cycle loop: every cycle ticks the memory controller, the
        running kernel (if any) and the SRF once each. Task scans rerun
        only when a completion can have changed readiness.
        """
        program.validate()
        # Trace-replay wiring (repro.machine.replay): when the config
        # selects replay timing and a session is active, this program
        # either records each kernel's stream data or is re-timed from
        # the recorded trace. Invocations correlate by task *index* —
        # task ids are process-global and unstable.
        replay_session = None
        program_trace = None
        task_index = {}
        if self.config.timing_source == "replay":
            replay_session = replay.active_session()
        if replay_session is not None:
            program_trace = replay_session.begin_program(program)
            task_index = {
                t.task_id: i for i, t in enumerate(program.tasks)
            }
        stats = ProgramStats(name=program.name)
        start_cycle = self.cycle
        start_traffic = self.controller.offchip_traffic_words
        limit = DEADLOCK_CYCLES
        tracer = self.tracer
        if tracer is not None:
            tracer.begin(
                "processor", f"program:{program.name}", self.cycle,
                tasks=len(program.tasks),
            )

        completed = set()
        running = None  # (task, executor, srf-stat snapshot)
        mem_waiting = [t for t in program.tasks if not t.is_kernel]
        kernel_waiting = [t for t in program.tasks if t.is_kernel]
        mem_inflight = []  # issued memory tasks not yet complete
        remaining_count = len(program.tasks)
        retired_ops = self.controller.completed_ops
        scan_needed = True
        last_progress_cycle = self.cycle

        while remaining_count:
            progressed = False

            # Readiness only changes when `completed` grows (or at the
            # start), so the dependence scans are event-driven.
            if scan_needed:
                # Issue every ready memory transfer, in program order.
                if mem_waiting:
                    held_back = []
                    for task in mem_waiting:
                        if all(dep in completed for dep in task.deps):
                            self.controller.issue(task.work, self.cycle)
                            mem_inflight.append(task)
                            progressed = True
                        else:
                            held_back.append(task)
                    mem_waiting = held_back
                # Start the next ready kernel (one at a time).
                if running is None:
                    for position, task in enumerate(kernel_waiting):
                        if all(dep in completed for dep in task.deps):
                            schedule = self.schedule_kernel(task.work.kernel)
                            record_to = replay_from = None
                            if program_trace is not None:
                                index = task_index[task.task_id]
                                if replay_session.replaying:
                                    replay_from = replay.invocation_replay(
                                        program_trace, index, task.work
                                    )
                                else:
                                    record_to = (
                                        replay.begin_invocation_record(
                                            program_trace, index, task.work
                                        )
                                    )
                            executor = KernelExecutor(
                                self.config, self.srf, task.work, schedule,
                                record_to=record_to,
                                replay_from=replay_from,
                            )
                            if tracer is not None:
                                tracer.begin(
                                    "processor", f"kernel:{task.work.name}",
                                    self.cycle, ii=schedule.ii,
                                    iterations=task.work.iterations,
                                )
                            running = (task, executor, self._srf_snapshot())
                            del kernel_waiting[position]
                            progressed = True
                            break
                scan_needed = False

            # One machine cycle.
            self.controller.tick(self.cycle)
            comm_busy = False
            if running is not None:
                comm_busy = running[1].step()
            self.srf.tick(self.cycle, comm_busy)
            if self._sanitizer is not None:
                self._sanitizer.check(self.cycle)

            if running is None:
                if self.controller.busy:
                    stats.memory_stall_cycles += 1
                else:
                    stats.idle_cycles += 1

            # Retire finished work.
            if running is not None and running[1].finished:
                task, executor, snapshot = running
                self._finish_kernel(executor, snapshot)
                stats.kernel_runs.append(executor.stats)
                if tracer is not None:
                    tracer.end(
                        "processor", f"kernel:{task.work.name}",
                        self.cycle + 1,
                        srf_stall_cycles=executor.stats.srf_stall_cycles,
                    )
                completed.add(task.task_id)
                remaining_count -= 1
                running = None
                progressed = True
                scan_needed = True
            if mem_inflight and self.controller.completed_ops != retired_ops:
                retired_ops = self.controller.completed_ops
                still_inflight = []
                for task in mem_inflight:
                    if self.controller.is_complete(task.work.op_id):
                        completed.add(task.task_id)
                        remaining_count -= 1
                        progressed = True
                        scan_needed = True
                    else:
                        still_inflight.append(task)
                mem_inflight = still_inflight

            self.cycle += 1
            if progressed:
                last_progress_cycle = self.cycle
            elif self.cycle - last_progress_cycle > limit:
                raise self._deadlock(
                    program, limit, remaining_count,
                    mem_waiting, kernel_waiting, running, completed,
                )

        stats.total_cycles = self.cycle - start_cycle
        stats.offchip_words = (
            self.controller.offchip_traffic_words - start_traffic
        )
        if tracer is not None:
            tracer.end(
                "processor", f"program:{program.name}", self.cycle,
                total_cycles=stats.total_cycles,
            )
        if self.config.metrics:
            stats.metrics = self.metrics_snapshot()
        return stats

    def metrics_snapshot(self) -> dict:
        """Every field of the components' stats, as
        ``<component>.<field>``; cumulative over the machine's life."""
        components = {
            "srf": self.srf.stats,
            "address_network": self.srf.address_network.stats,
            "return_network": self.srf.return_network.stats,
            "memory": self.controller.stats,
            "dram": self.controller.dram.stats,
        }
        if self.controller.cache is not None:
            components["cache"] = self.controller.cache.stats
        return {
            f"{component}.{name}": value
            for component, stats in components.items()
            for name, value in dataclasses.asdict(stats).items()
        }

    def _deadlock(self, program: StreamProgram, limit: int,
                  remaining_count: int, mem_waiting, kernel_waiting,
                  running, completed) -> DeadlockError:
        """Build the watchdog exception, with waiting-on forensics."""
        report = build_deadlock_report(
            program.name, self.cycle,
            mem_waiting=mem_waiting, kernel_waiting=kernel_waiting,
            running=running, completed=completed,
            controller=self.controller, srf=self.srf,
        )
        return DeadlockError(
            f"{program.name}: no progress for {limit} "
            f"cycles ({remaining_count} tasks left)",
            report=report,
        )

    # ------------------------------------------------------------------
    def _srf_snapshot(self) -> tuple:
        s = self.srf.stats
        return (
            s.sequential_words, s.inlane_grants, s.crosslane_grants,
            s.indexed_write_grants,
        )

    def _finish_kernel(self, executor: KernelExecutor, snapshot) -> None:
        s = self.srf.stats
        executor.stats.sequential_words = s.sequential_words - snapshot[0]
        executor.stats.inlane_words = s.inlane_grants - snapshot[1]
        executor.stats.crosslane_words = s.crosslane_grants - snapshot[2]
        executor.stats.indexed_write_words = (
            s.indexed_write_grants - snapshot[3]
        )
