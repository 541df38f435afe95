"""Zero-overhead-when-disabled observability for the simulator.

Two facilities, both off by default and both inert (no allocated state,
single ``is not None`` guards on hot paths) unless a
:class:`~repro.config.machine.MachineConfig` turns them on:

* :class:`~repro.observe.events.Tracer` — structured begin/end, instant,
  counter and async events with cycle timestamps, exported as Chrome
  ``trace_event`` / Perfetto JSON (``config.trace``);
* :class:`~repro.observe.metrics.MetricsRegistry` — hierarchical
  counters, gauges and histograms folded into ``ProgramStats.metrics``
  (``config.metrics_level``).

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
from repro.observe.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observe.observer import (
    TRACE_ENV,
    Collection,
    Observer,
    collect,
    register,
    trace_overrides_from_env,
    trace_path_from_env,
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
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observer",
    "TraceEvent",
    "Tracer",
    "chrome_trace",
    "collect",
    "register",
    "trace_overrides_from_env",
    "trace_path_from_env",
    "validate_chrome_trace",
    "write_trace",
]
