"""The per-machine observability bundle and its configuration plumbing.

An :class:`Observer` groups the two observability facilities — event
tracer and metrics registry — that a
:class:`~repro.machine.processor.StreamProcessor` installs into its
components. It is built from :class:`~repro.config.machine.MachineConfig`
knobs (``trace``, ``metrics_level``); with both at their defaults
:meth:`Observer.from_config` returns ``None`` and the machine carries no
observability state at all — the same inertness contract the fault
package established.

Because benchmarks construct their processors internally, callers that
need the traces use the :func:`collect` context manager: every observer
created while it is active is registered with it::

    with observe.collect() as collected:
        result = fft.run(base_config(trace=True), n=16)
    tracer = collected.observers[0].tracer

The ``REPRO_TRACE`` environment variable overlays observability knobs
onto every machine preset (mirroring ``REPRO_FAULTS``), e.g.
``REPRO_TRACE="trace=1,metrics=2,path=out.json"``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.errors import ConfigurationError
from repro.observe.events import Tracer
from repro.observe.metrics import MetricsRegistry

#: Environment variable carrying observability overrides for the presets.
TRACE_ENV = "REPRO_TRACE"

#: REPRO_TRACE key -> (destination, parser). Every destination but
#: ``path`` is a MachineConfig field; ``path`` is the ``trace``
#: experiment's output file and never reaches a config.
_ENV_KEYS = {
    "trace": ("trace", lambda v: bool(int(v))),
    "path": ("path", str),
    "metrics": ("metrics_level", int),
    "buffer": ("trace_buffer_events", int),
}

#: Shorthand values enabling tracing alone: ``REPRO_TRACE=1``.
_BARE_ON = ("1", "true", "on", "yes")


def _parse_env(environ) -> dict:
    """Parse ``REPRO_TRACE`` into destination -> value.

    The variable is a comma-separated ``key=value`` list with keys
    ``trace``, ``path``, ``metrics`` and ``buffer``; the bare values
    ``1``/``true``/``on`` enable tracing alone. Empty or unset yields
    ``{}``.
    """
    environ = os.environ if environ is None else environ
    spec = environ.get(TRACE_ENV, "").strip()
    if not spec:
        return {}
    if spec.lower() in _BARE_ON:
        return {"trace": True}
    parsed = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or key not in _ENV_KEYS or not value:
            raise ConfigurationError(
                f"bad {TRACE_ENV} entry {item!r} "
                f"(known keys: {', '.join(_ENV_KEYS)})"
            )
        destination, parser = _ENV_KEYS[key]
        try:
            parsed[destination] = parser(value)
        except ValueError:
            raise ConfigurationError(
                f"{TRACE_ENV}: {key} needs an integer, got {value!r}"
            ) from None
    return parsed


def trace_overrides_from_env(environ=None) -> dict:
    """Parse ``REPRO_TRACE`` into :class:`MachineConfig` overrides.

    Every key but ``path`` maps to a config field (see
    :func:`trace_path_from_env`). Empty or unset yields ``{}`` so the
    presets are untouched by default.
    """
    overrides = _parse_env(environ)
    overrides.pop("path", None)
    return overrides


def trace_path_from_env(environ=None) -> "str | None":
    """The ``path=`` entry of ``REPRO_TRACE``, or None when absent."""
    return _parse_env(environ).get("path")


class Observer:
    """Tracer + metrics for one simulated machine."""

    def __init__(self, tracer: "Tracer | None" = None,
                 metrics: "MetricsRegistry | None" = None,
                 machine: str = ""):
        self.tracer = tracer
        self.metrics = metrics
        self.machine = machine

    @classmethod
    def from_config(cls, config) -> "Observer | None":
        """Build the observer a config asks for, or None when inert."""
        if not (config.trace or config.metrics_level):
            return None
        tracer = (
            Tracer(config.trace_buffer_events, clock_hz=config.clock_hz)
            if config.trace else None
        )
        metrics = (
            MetricsRegistry(level=config.metrics_level)
            if config.metrics_level else None
        )
        return cls(tracer=tracer, metrics=metrics, machine=config.name)


# ----------------------------------------------------------------------
# Observer collection (for callers that do not own the processor)
# ----------------------------------------------------------------------
class Collection:
    """Observers registered while a :func:`collect` block was active."""

    def __init__(self):
        self.observers = []

    def tracers(self) -> dict:
        """Machine label -> tracer for every traced observer collected.

        Duplicate machine names (several processors of one config) are
        disambiguated with a ``#k`` suffix, so the dict is loss-free.
        """
        out = {}
        for observer in self.observers:
            if observer.tracer is None:
                continue
            label = observer.machine or "machine"
            if label in out:
                suffix = 2
                while f"{label}#{suffix}" in out:
                    suffix += 1
                label = f"{label}#{suffix}"
            out[label] = observer.tracer
        return out


_collections = []


def register(observer: Observer) -> None:
    """Offer a newly created observer to every active collect block."""
    for collection in _collections:
        collection.observers.append(observer)


@contextmanager
def collect():
    """Collect every observer created inside the ``with`` block."""
    collection = Collection()
    _collections.append(collection)
    try:
        yield collection
    finally:
        _collections.remove(collection)
