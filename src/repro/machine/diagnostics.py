"""Performance and failure diagnostics.

The paper reasons about its results in terms of *bounds* — memory-bound
Base configurations, SRF-bandwidth-bound ISRF1 kernels, recurrence-bound
sort loops, compute-bound IG datasets. For a kernel's schedule,
:func:`analyze_schedule` reports which resource sets the II and by how
much; where a run's cycles went is counted exactly by
:meth:`~repro.machine.stats.ProgramStats.breakdown`.

It also renders *failure* forensics: when the deadlock watchdog in
:mod:`repro.machine.processor` fires, :func:`build_deadlock_report`
captures what every stuck task is waiting on — unmet dependencies,
in-flight memory operations, SRF occupancy — so the resulting
:class:`repro.errors.DeadlockError` explains itself instead of printing
a bare cycle count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel.ops import ResourceClass
from repro.kernel.resources import ClusterResources, resource_usage
from repro.kernel.schedule import StaticSchedule
from repro.kernel.scheduler import min_ii_recurrence


@dataclass
class BlockedTask:
    """One stream task that cannot proceed, and why."""

    task_id: int
    name: str
    kind: str  # "kernel" | "memory"
    #: Dependency task ids not yet completed.
    missing_deps: list = field(default_factory=list)

    def describe(self) -> str:
        deps = (
            ", ".join(str(d) for d in self.missing_deps)
            if self.missing_deps else "nothing (ready but never started)"
        )
        return f"{self.kind} task {self.task_id} '{self.name}' waiting on: {deps}"


@dataclass
class DeadlockReport:
    """Waiting-on dump attached to a :class:`repro.errors.DeadlockError`."""

    program: str
    cycle: int
    blocked: list = field(default_factory=list)  # of BlockedTask
    #: Description of the kernel on the cluster array, if one is stuck.
    running_kernel: "str | None" = None
    #: Per-op descriptions from MemoryController.inflight_report().
    inflight_memory: list = field(default_factory=list)
    #: Lines from StreamRegisterFile.occupancy_report().
    srf_occupancy: list = field(default_factory=list)

    def describe(self) -> str:
        lines = [f"deadlock forensics for '{self.program}' at cycle {self.cycle}:"]
        if self.running_kernel:
            lines.append(f"  running kernel: {self.running_kernel}")
        if self.blocked:
            lines.append("  blocked tasks:")
            lines.extend(f"    {task.describe()}" for task in self.blocked)
        else:
            lines.append("  blocked tasks: none")
        if self.inflight_memory:
            lines.append("  in-flight memory ops:")
            lines.extend(f"    {entry}" for entry in self.inflight_memory)
        else:
            lines.append("  in-flight memory ops: none")
        if self.srf_occupancy:
            lines.append("  SRF occupancy:")
            lines.extend(f"    {entry}" for entry in self.srf_occupancy)
        return "\n".join(lines)


def build_deadlock_report(program_name: str, cycle: int, *,
                          mem_waiting=(), kernel_waiting=(), running=None,
                          completed=frozenset(), controller=None,
                          srf=None) -> DeadlockReport:
    """Assemble the waiting-on dump for a watchdog abort.

    ``mem_waiting``/``kernel_waiting`` are the processor's unissued task
    lists, ``running`` the (task, executor, snapshot) triple of an active
    kernel, ``completed`` the retired task-id set.

    Every listing is sorted (blocked tasks by task id, dependencies
    numerically, in-flight/occupancy lines lexicographically) so the
    rendered forensics are deterministic and can be golden-tested.
    """
    report = DeadlockReport(program=program_name, cycle=cycle)
    for kind, tasks in (("memory", mem_waiting), ("kernel", kernel_waiting)):
        for task in tasks:
            report.blocked.append(BlockedTask(
                task_id=task.task_id,
                name=task.name,
                kind=kind,
                missing_deps=sorted(
                    d for d in task.deps if d not in completed
                ),
            ))
    report.blocked.sort(key=lambda task: task.task_id)
    if running is not None:
        task, executor, _snapshot = running
        report.running_kernel = (
            f"task {task.task_id} '{task.name}' "
            f"(startup remaining {executor.startup_remaining})"
        )
    if controller is not None:
        report.inflight_memory = sorted(controller.inflight_report())
    if srf is not None:
        report.srf_occupancy = sorted(srf.occupancy_report())
    return report


@dataclass
class KernelBounds:
    """Lower bounds on a kernel's II, by cause."""

    kernel_name: str
    ii: int
    alu_bound: int = 0
    divider_bound: int = 0
    stream_port_bound: int = 0
    #: Per-indexed-stream address-port bound (one access/cycle/stream).
    index_port_bounds: dict = field(default_factory=dict)
    recurrence_bound: int = 0

    @property
    def index_port_bound(self) -> int:
        return max(self.index_port_bounds.values(), default=0)

    @property
    def binding_constraint(self) -> str:
        """The constraint that sets (or comes closest to) the II."""
        candidates = {
            "ALU issue": self.alu_bound,
            "divider": self.divider_bound,
            "stream-buffer ports": self.stream_port_bound,
            "indexed-stream port": self.index_port_bound,
            "loop-carried recurrence": self.recurrence_bound,
        }
        return max(candidates, key=candidates.get)

    def describe(self) -> str:
        lines = [
            f"kernel {self.kernel_name}: II={self.ii}, bound by "
            f"{self.binding_constraint}",
            f"  ALU issue        : {self.alu_bound}",
            f"  divider          : {self.divider_bound}",
            f"  stream ports     : {self.stream_port_bound}",
            f"  index ports      : {self.index_port_bound} "
            f"({', '.join(f'{k}={v}' for k, v in self.index_port_bounds.items()) or '-'})",
            f"  recurrence       : {self.recurrence_bound}",
        ]
        return "\n".join(lines)


def analyze_schedule(schedule: StaticSchedule,
                     resources: "ClusterResources | None" = None
                     ) -> KernelBounds:
    """Decompose a schedule's II into its contributing lower bounds."""
    resources = resources or ClusterResources()
    kernel = schedule.kernel
    bounds = KernelBounds(kernel_name=kernel.name, ii=schedule.ii)
    for key, used in resource_usage(kernel).items():
        if isinstance(key, tuple):
            bound = -(-used // 1)
            bounds.index_port_bounds[key[1]] = bound
            continue
        bound = -(-used // resources.count(key))
        if key is ResourceClass.ALU:
            bounds.alu_bound = bound
        elif key is ResourceClass.DIVIDER:
            bounds.divider_bound = bound
        elif key is ResourceClass.STREAM_PORT:
            bounds.stream_port_bound = bound
    bounds.recurrence_bound = min_ii_recurrence(
        kernel, schedule.inlane_separation, schedule.crosslane_separation,
        schedule.stream_capacity_words,
    )
    return bounds
