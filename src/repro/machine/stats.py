"""Execution statistics in the paper's reporting categories.

Figure 12 breaks benchmark execution time into four components:

* **Kernel loop body** — time in the main (software pipelined) loops;
* **SRF stall** — time stalled waiting for SRF accesses;
* **Memory stall** — time waiting for memory or cache transfers;
* **Kernel overheads** — pre/post-loop code, software-pipeline
  fill/drain, and inter-lane load imbalance.

Figure 13 reports sustained SRF bandwidth per kernel split into
sequential, in-lane indexed, and cross-lane indexed words per cycle per
cluster; Figure 11 reports off-chip traffic. The classes here hold all
of those, per kernel run and per program.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class KernelRunStats:
    """Timing and SRF-traffic breakdown of one kernel invocation."""

    kernel_name: str
    ii: int = 0
    depth: int = 0
    iterations: int = 0
    #: Average useful iterations per lane (== iterations when balanced).
    useful_iterations: float = 0.0
    total_cycles: int = 0
    srf_stall_cycles: int = 0
    startup_cycles: int = 0
    # SRF words moved while this kernel ran (includes concurrent memory
    # stream traffic through the shared SRF port).
    sequential_words: int = 0
    inlane_words: int = 0
    crosslane_words: int = 0
    indexed_write_words: int = 0
    lanes: int = 8

    @property
    def loop_body_cycles(self) -> int:
        """Main-loop time for the *useful* work (Figure 12 category)."""
        return round(self.ii * self.useful_iterations)

    @property
    def imbalance_cycles(self) -> int:
        """Loop cycles spent keeping idle lanes in lockstep."""
        return self.ii * self.iterations - self.loop_body_cycles

    @property
    def overhead_cycles(self) -> int:
        """Everything that is neither loop body nor SRF stall.

        The exact remainder, never clamped: loop body, SRF stall and
        overhead partition ``total_cycles``, so a negative value exposes
        double counting instead of hiding it.
        """
        return (
            self.total_cycles - self.loop_body_cycles - self.srf_stall_cycles
        )

    # -- Figure 13 quantities -------------------------------------------
    def _per_cycle_per_lane(self, words: int) -> float:
        if self.total_cycles == 0:
            return 0.0
        return words / self.total_cycles / self.lanes

    @property
    def sequential_bandwidth(self) -> float:
        return self._per_cycle_per_lane(self.sequential_words)

    @property
    def inlane_bandwidth(self) -> float:
        return self._per_cycle_per_lane(self.inlane_words)

    @property
    def crosslane_bandwidth(self) -> float:
        return self._per_cycle_per_lane(self.crosslane_words)


@dataclass
class ProgramStats:
    """Whole-program (benchmark) statistics."""

    name: str = ""
    total_cycles: int = 0
    #: Cycles with no kernel running, waiting on memory/cache transfers.
    memory_stall_cycles: int = 0
    #: Cycles with no kernel running and no memory transfer in flight
    #: (dependency bubbles; normally ~0).
    idle_cycles: int = 0
    offchip_words: int = 0
    kernel_runs: list = field(default_factory=list)
    #: Snapshot of the machine components' stats at program end,
    #: ``"<component>.<field>" -> value``; empty unless the config sets
    #: ``metrics`` (see
    #: :meth:`~repro.machine.processor.StreamProcessor.metrics_snapshot`).
    metrics: dict = field(default_factory=dict)

    @property
    def kernel_loop_body_cycles(self) -> int:
        return sum(run.loop_body_cycles for run in self.kernel_runs)

    @property
    def srf_stall_cycles(self) -> int:
        return sum(run.srf_stall_cycles for run in self.kernel_runs)

    @property
    def kernel_overhead_cycles(self) -> int:
        return sum(run.overhead_cycles for run in self.kernel_runs)

    def breakdown(self) -> dict:
        """Figure 12's four categories plus idle, in cycles."""
        return {
            "kernel_loop_body": self.kernel_loop_body_cycles,
            "srf_stall": self.srf_stall_cycles,
            "memory_stall": self.memory_stall_cycles,
            "kernel_overheads": self.kernel_overhead_cycles,
            "idle": self.idle_cycles,
        }

    def merge(self, other: "ProgramStats") -> None:
        """Accumulate another program run into this one."""
        self.total_cycles += other.total_cycles
        self.memory_stall_cycles += other.memory_stall_cycles
        self.idle_cycles += other.idle_cycles
        self.offchip_words += other.offchip_words
        self.kernel_runs.extend(other.kernel_runs)
        if other.metrics:
            # Snapshots are cumulative per machine, so the latest
            # merged run carries the most complete view.
            self.metrics = other.metrics
