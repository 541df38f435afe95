"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid or inconsistent machine configuration was supplied."""


class SrfError(ReproError):
    """An illegal stream-register-file operation was attempted."""


class SrfAllocationError(SrfError):
    """SRF space could not be allocated (capacity exceeded / overlap)."""


class SrfAccessError(SrfError):
    """An SRF access fell outside an allocated stream or the array."""


class KernelBuildError(ReproError):
    """A kernel dataflow graph was constructed incorrectly."""


class KernelVerifyError(KernelBuildError):
    """The static kernel IR verifier rejected a dataflow graph.

    Raised by :func:`repro.analyze.verify_kernel` when asked to enforce
    its diagnostics; carries the failing
    :class:`repro.analyze.Diagnostic` list in ``diagnostics``.
    """

    def __init__(self, message: str, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


class AnalysisError(ReproError):
    """The static stream-program analyzer rejected a program.

    Carries the error-level :class:`repro.analyze.Diagnostic` list in
    ``diagnostics``.
    """

    def __init__(self, message: str, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


class ScheduleError(ReproError):
    """The modulo scheduler could not produce a legal schedule."""


class ExecutionError(ReproError):
    """A stream program performed an illegal operation at run time."""


class DeadlockError(ExecutionError):
    """The deadlock watchdog fired: no forward progress for too long.

    Carries a :class:`repro.machine.diagnostics.DeadlockReport` in
    ``report`` (when the processor could build one) whose rendering is
    appended to the message, so the exception text alone names the
    blocked tasks, their unmet dependencies, in-flight memory operations
    and SRF occupancy.
    """

    def __init__(self, message: str, report=None):
        if report is not None:
            message = f"{message}\n{report.describe()}"
        super().__init__(message)
        self.report = report


class SanitizerError(ExecutionError):
    """The machine-state sanitizer found a broken cycle-level invariant.

    Only raised with :attr:`repro.config.MachineConfig.sanitize` on.
    Carries a :class:`repro.analyze.sanitize.SanitizerReport` in
    ``report`` whose rendering is appended to the message, so the
    exception text alone names the violated invariant, the component,
    and the machine state around it.
    """

    def __init__(self, message: str, report=None):
        if report is not None:
            message = f"{message}\n{report.describe()}"
        super().__init__(message)
        self.report = report


class MemorySystemError(ReproError):
    """An illegal memory-system request was issued."""


class StoreError(ReproError):
    """A record cannot be written to a :mod:`repro.store` journal.

    Raised when a journal record would not encode as one line. Store
    entries never raise: a failed put returns False, and a corrupt
    entry is quarantined and reads as a miss.
    """


class SweepInterrupted(ReproError):
    """A harness sweep was stopped by SIGINT/SIGTERM and drained.

    The runner terminated every worker process group, journaled the
    interruption, and re-raised as this error. ``results``/``timings``
    carry everything completed before the drain; the sweep journal
    (when one was configured) allows ``--resume`` to continue exactly
    where the drain stopped.
    """

    def __init__(self, message: str, results=None, timings=None):
        super().__init__(message)
        self.results = dict(results) if results is not None else {}
        self.timings = dict(timings) if timings is not None else {}


class ReplayError(ReproError):
    """A recorded kernel trace does not match the run replaying it.

    Raised by :mod:`repro.machine.replay` when a trace bundle disagrees
    with the program being re-timed — wrong program shape, kernel name,
    iteration count or stream-op signature. Always indicates a stale or
    foreign trace (the store keys should have prevented the pairing),
    never a timing divergence.
    """
