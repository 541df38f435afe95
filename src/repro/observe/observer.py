"""Observability configuration plumbing and the collect() hook.

A :class:`~repro.machine.processor.StreamProcessor` built with
``config.trace`` owns one :class:`~repro.observe.events.Tracer`, which
it hands to its SRF and memory controller; with ``config.metrics`` it
copies its components' stats into ``ProgramStats.metrics`` at the end
of each program. With both knobs at their defaults the machine carries
no observability state at all.

Because benchmarks construct their processors internally, callers that
need the traces use the :func:`collect` context manager: every traced
machine created while it is active registers its tracer with it::

    with observe.collect() as collected:
        result = fft.run(base_config(trace=True), n=16)
    tracer = collected.tracers()["Base"]

The ``REPRO_TRACE`` environment variable overlays the two knobs onto
every machine preset, e.g. ``REPRO_TRACE="trace=1,metrics=1"``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.errors import ConfigurationError

#: Environment variable carrying observability overrides for the presets.
TRACE_ENV = "REPRO_TRACE"

#: REPRO_TRACE keys; each names the bool MachineConfig field it sets.
_ENV_KEYS = ("trace", "metrics")

#: Shorthand values enabling tracing alone: ``REPRO_TRACE=1``.
_BARE_ON = ("1", "true", "on", "yes")


def trace_overrides_from_env(environ=None) -> dict:
    """Parse ``REPRO_TRACE`` into :class:`MachineConfig` overrides.

    The variable is a comma-separated ``key=value`` list with keys
    ``trace`` and ``metrics``, each an integer read as a flag; the bare
    values ``1``/``true``/``on`` enable tracing alone. Empty or unset
    yields ``{}`` so the presets are untouched by default.
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
        try:
            parsed[key] = bool(int(value))
        except ValueError:
            raise ConfigurationError(
                f"{TRACE_ENV}: {key} needs an integer, got {value!r}"
            ) from None
    return parsed


# ----------------------------------------------------------------------
# Tracer collection (for callers that do not own the processor)
# ----------------------------------------------------------------------
class Collection:
    """Tracers registered while a :func:`collect` block was active."""

    def __init__(self):
        #: ``(machine label, tracer)`` pairs, in registration order.
        self.entries = []

    def tracers(self) -> dict:
        """Machine label -> tracer for every traced machine collected.

        Duplicate machine names (several processors of one config) are
        disambiguated with a ``#k`` suffix, so the dict is loss-free.
        """
        out = {}
        for machine, tracer in self.entries:
            label = machine or "machine"
            if label in out:
                suffix = 2
                while f"{label}#{suffix}" in out:
                    suffix += 1
                label = f"{label}#{suffix}"
            out[label] = tracer
        return out


_collections = []


def register(machine: str, tracer) -> None:
    """Offer a newly created machine's tracer to every collect block."""
    for collection in _collections:
        collection.entries.append((machine, tracer))


@contextmanager
def collect():
    """Collect the tracer of every machine created inside the block."""
    collection = Collection()
    _collections.append(collection)
    try:
        yield collection
    finally:
        _collections.remove(collection)
