"""Shared infrastructure for the benchmark applications (paper §5.2).

Every application exposes ``run(config, **params) -> AppResult`` where
``config`` is one of the Table 2 machine presets. The result carries the
Figure 12 execution-time breakdown, Figure 11 off-chip traffic, Figure
13 per-kernel SRF bandwidths, and a functional-verification flag checked
against an independent reference implementation.

Steady-state measurement follows §5.3 ("benchmarks are executed multiple
times in software pipelined loops"): :func:`steady_state_run` executes
``warmup + measured`` repetitions of a benchmark's per-dataset program
chain and reports only the measured portion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config.machine import MachineConfig
from repro.errors import ExecutionError
from repro.machine.processor import StreamProcessor
from repro.machine.stats import ProgramStats


@dataclass
class AppResult:
    """Outcome of one benchmark on one machine configuration."""

    benchmark: str
    config_name: str
    stats: ProgramStats
    verified: bool
    #: Arbitrary app-specific extras (e.g. dataset parameters).
    details: dict = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.stats.total_cycles

    @property
    def offchip_words(self) -> int:
        return self.stats.offchip_words

    def require_verified(self) -> "AppResult":
        if not self.verified:
            raise ExecutionError(
                f"{self.benchmark} on {self.config_name}: functional "
                "verification FAILED"
            )
        return self


def make_processor(config: MachineConfig) -> StreamProcessor:
    """A fresh machine for one benchmark run."""
    return StreamProcessor(config)


def steady_state_run(processor: StreamProcessor, build_program,
                     repeats: int = 2, warmup: int = 1) -> ProgramStats:
    """Software-pipelined steady-state measurement (paper §5.3).

    ``build_program(rep) -> StreamProgram`` supplies one per-dataset
    (per-strip) program; all ``warmup + repeats`` instances are chained
    into a single task graph and executed as one run, so strip *n+1*'s
    loads overlap strip *n*'s kernels. Apps express double-buffer reuse
    hazards as cross-strip task dependencies (program task ids are
    globally unique). Warmup strips are included in the chain (they fill
    the software pipeline); with two or more measured strips their
    cold-start contribution is marginal and identical across machine
    configurations.
    """
    if repeats <= 0:
        raise ExecutionError("need at least one measured repetition")
    chain = build_program(0)
    for rep in range(1, warmup + repeats):
        chain = chain.then(build_program(rep))
    return processor.run_program(chain)


def accumulator(sums: dict):
    """Kernel payload adding a contribution to ``sums[key]``.

    Negative keys are padding and add nothing; the payload returns 0.0.
    Payloads hold plain state like ``sums``, never the benchmark object:
    a benchmark holds its kernels, so a payload holding the benchmark
    would keep the whole machine alive in a reference cycle after its
    run returns.
    """
    def accumulate(key, contribution) -> float:
        k = int(key)
        if k >= 0:
            sums[k] = sums.get(k, 0.0) + contribution
        return 0.0
    return accumulate
