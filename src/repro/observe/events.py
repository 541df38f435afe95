"""Structured event tracing with cycle timestamps.

The :class:`Tracer` records *begin/end* spans, *instant* events,
*counter* samples, and *async* spans (for operations that overlap on one
track, like concurrent stream memory transfers) into a bounded ring
buffer. Events carry the simulated cycle at which they occurred; the
exporter (:mod:`repro.observe.export`) converts cycles to wall-clock
microseconds using the machine clock so traces load directly into
``chrome://tracing`` or Perfetto.

The buffer is a ring: when full, the *oldest* events are discarded and
counted in :attr:`Tracer.dropped_events`, so a long run keeps the most
recent window instead of aborting or growing without bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

#: Chrome trace_event phase codes used by the tracer.
PHASE_BEGIN = "B"
PHASE_END = "E"
PHASE_INSTANT = "i"
PHASE_COUNTER = "C"
PHASE_ASYNC_BEGIN = "b"
PHASE_ASYNC_END = "e"

PHASES = (
    PHASE_BEGIN, PHASE_END, PHASE_INSTANT, PHASE_COUNTER,
    PHASE_ASYNC_BEGIN, PHASE_ASYNC_END,
)

#: Ring capacity of a machine's tracer, in events. A traced FFT 2D run
#: at paper scale emits fewer than 200, so nothing drops.
RING_EVENTS = 1 << 20


@dataclass
class TraceEvent:
    """One recorded event.

    ``component`` names the track (exported as the Chrome ``tid`` /
    thread name); ``event_id`` pairs async begin/end events that may
    overlap on a track.
    """

    name: str
    component: str
    phase: str
    cycle: int
    args: "dict | None" = field(default=None)
    event_id: "int | None" = None


class Tracer:
    """Bounded ring buffer of :class:`TraceEvent` objects.

    All emit methods are cheap (one dataclass + one deque append); the
    machine only calls them when tracing is enabled, so a disabled build
    carries no cost at all.
    """

    def __init__(self, capacity: int, clock_hz: float = 1e9):
        if capacity <= 0:
            raise ValueError("trace buffer capacity must be positive")
        self.capacity = capacity
        self.clock_hz = clock_hz
        self._events = deque(maxlen=capacity)
        #: Events discarded because the ring buffer was full.
        self.dropped_events = 0
        #: (component, phase) -> number of events emitted (including any
        #: later dropped from the ring), for reconciliation tests.
        self.counts = {}

    # ------------------------------------------------------------------
    def _emit(self, event: TraceEvent) -> None:
        if len(self._events) == self.capacity:
            self.dropped_events += 1
        self._events.append(event)
        key = (event.component, event.phase)
        self.counts[key] = self.counts.get(key, 0) + 1

    def begin(self, component: str, name: str, cycle: int,
              **args: object) -> None:
        """Open a synchronous span on ``component``'s track."""
        self._emit(TraceEvent(name, component, PHASE_BEGIN, cycle,
                              args or None))

    def end(self, component: str, name: str, cycle: int,
            **args: object) -> None:
        """Close the most recent open span on ``component``'s track."""
        self._emit(TraceEvent(name, component, PHASE_END, cycle,
                              args or None))

    def instant(self, component: str, name: str, cycle: int,
                **args: object) -> None:
        """Record a point-in-time event."""
        self._emit(TraceEvent(name, component, PHASE_INSTANT, cycle,
                              args or None))

    def counter(self, component: str, name: str, cycle: int,
                values: dict) -> None:
        """Record a counter sample (rendered as a stacked area chart)."""
        self._emit(TraceEvent(name, component, PHASE_COUNTER, cycle,
                              dict(values)))

    def async_begin(self, component: str, name: str, cycle: int,
                    event_id: int, **args: object) -> None:
        """Open an async span; overlapping spans are paired by id."""
        self._emit(TraceEvent(name, component, PHASE_ASYNC_BEGIN, cycle,
                              args or None, event_id))

    def async_end(self, component: str, name: str, cycle: int,
                  event_id: int, **args: object) -> None:
        self._emit(TraceEvent(name, component, PHASE_ASYNC_END, cycle,
                              args or None, event_id))

    # ------------------------------------------------------------------
    @property
    def events(self) -> list:
        """The buffered events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def count(self, component: str, phase: str) -> int:
        """Events emitted on a (component, phase) pair, drops included."""
        return self.counts.get((component, phase), 0)

    def components(self) -> list:
        """Component (track) names in first-emission order."""
        seen = []
        for component, _phase in self.counts:
            if component not in seen:
                seen.append(component)
        return seen
