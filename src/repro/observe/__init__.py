"""Zero-overhead-when-disabled observability for the simulator.

Two facilities, both off by default and both inert unless a
:class:`~repro.config.machine.MachineConfig` turns them on:

* :class:`~repro.observe.events.Tracer` — structured begin/end, instant,
  counter and async events with cycle timestamps, exported as Chrome
  ``trace_event`` / Perfetto JSON (``config.trace``). It is the only
  hook that watches the machine while it runs: a disabled machine
  carries no tracer and its hot paths pay one ``is not None`` check;
* ``ProgramStats.metrics`` (``config.metrics``) — a snapshot, taken at
  the end of each program, of the machine components' own stats
  dataclasses, one ``<component>.<field>`` entry per field.

Where the simulated cycles went is not estimated here: the machine
counts Figure 12's categories exactly, and
:meth:`~repro.machine.stats.ProgramStats.breakdown` returns them.
"""

from repro.observe.events import (
    PHASE_ASYNC_BEGIN,
    PHASE_ASYNC_END,
    PHASE_BEGIN,
    PHASE_COUNTER,
    PHASE_END,
    PHASE_INSTANT,
    PHASES,
    TraceEvent,
    Tracer,
)
from repro.observe.export import (
    chrome_trace,
    validate_chrome_trace,
    write_trace,
)
from repro.observe.observer import (
    TRACE_ENV,
    Collection,
    collect,
    register,
    trace_overrides_from_env,
)

__all__ = [
    "PHASES",
    "PHASE_ASYNC_BEGIN",
    "PHASE_ASYNC_END",
    "PHASE_BEGIN",
    "PHASE_COUNTER",
    "PHASE_END",
    "PHASE_INSTANT",
    "TRACE_ENV",
    "Collection",
    "TraceEvent",
    "Tracer",
    "chrome_trace",
    "collect",
    "register",
    "trace_overrides_from_env",
    "validate_chrome_trace",
    "write_trace",
]
