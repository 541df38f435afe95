"""Machine-level simulation: processor, kernel executor, stream programs."""

from repro.machine.diagnostics import (
    KernelBounds,
    analyze_schedule,
)
from repro.machine.executor import KERNEL_STARTUP_CYCLES, KernelExecutor
from repro.machine.processor import StreamProcessor
from repro.machine.program import KernelInvocation, StreamProgram, StreamTask
from repro.machine.stats import KernelRunStats, ProgramStats

__all__ = [
    "KERNEL_STARTUP_CYCLES",
    "KernelBounds",
    "analyze_schedule",
    "KernelExecutor",
    "KernelInvocation",
    "KernelRunStats",
    "ProgramStats",
    "StreamProcessor",
    "StreamProgram",
    "StreamTask",
]
