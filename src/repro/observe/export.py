"""Chrome ``trace_event`` / Perfetto JSON export.

:func:`chrome_trace` converts one or more :class:`~repro.observe.events.
Tracer` buffers into the JSON object format understood by
``chrome://tracing`` and https://ui.perfetto.dev: each machine becomes a
process (``pid``), each traced component a named thread (``tid``), and
cycle timestamps become microseconds via the machine clock.

:func:`validate_chrome_trace` is the schema check used by the test suite
and the CI smoke run: required keys, known phases, numeric timestamps,
balanced ``B``/``E`` nesting per track and ``b``/``e`` pairing per async
id.

Trace files are written atomically by :func:`write_trace`, through
:func:`repro.store.atomic.atomic_write_text`'s staging file next to the
final path, so readers never observe a half-written trace.
"""

from __future__ import annotations

import json

from repro.observe.events import (
    PHASE_ASYNC_BEGIN,
    PHASE_ASYNC_END,
    PHASE_BEGIN,
    PHASE_COUNTER,
    PHASE_END,
    PHASES,
    Tracer,
)
from repro.store.atomic import atomic_write_text

#: Chrome metadata phase (process/thread naming events).
PHASE_METADATA = "M"

_VALID_PHASES = set(PHASES) | {PHASE_METADATA}


def _cycles_to_us(cycle: int, clock_hz: float) -> float:
    return cycle * 1e6 / clock_hz


def chrome_trace(machines: dict) -> dict:
    """Build one Chrome trace object from per-machine tracers.

    ``machines`` maps a machine label (e.g. ``"Base"``, ``"ISRF4"``) to
    its :class:`Tracer`. Each machine gets its own ``pid`` so a Base vs
    ISRF4 comparison renders as two aligned process groups.
    """
    trace_events = []
    dropped = {}
    for pid, (label, tracer) in enumerate(machines.items(), start=1):
        if not isinstance(tracer, Tracer):
            raise TypeError(f"{label}: expected a Tracer, got {tracer!r}")
        trace_events.append({
            "name": "process_name", "ph": PHASE_METADATA, "pid": pid,
            "tid": 0, "ts": 0, "args": {"name": label},
        })
        tids = {}
        for event in tracer.events:
            tid = tids.get(event.component)
            if tid is None:
                tid = len(tids) + 1
                tids[event.component] = tid
                trace_events.append({
                    "name": "thread_name", "ph": PHASE_METADATA,
                    "pid": pid, "tid": tid, "ts": 0,
                    "args": {"name": event.component},
                })
            record = {
                "name": event.name,
                "cat": event.component,
                "ph": event.phase,
                "ts": _cycles_to_us(event.cycle, tracer.clock_hz),
                "pid": pid,
                "tid": tid,
            }
            if event.args:
                record["args"] = dict(event.args)
            if event.event_id is not None:
                record["id"] = str(event.event_id)
            trace_events.append(record)
        dropped[label] = tracer.dropped_events
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.observe",
            "dropped_events": dropped,
        },
    }


def validate_chrome_trace(payload) -> dict:
    """Check a trace object against the Chrome trace_event schema.

    Raises :class:`ValueError` on the first violation. Returns summary
    counts (events per phase) on success so callers can assert
    non-emptiness.
    """
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace payload needs a traceEvents list")
    phase_counts = {}
    open_spans = {}  # (pid, tid) -> [names]
    open_async = {}  # (pid, cat, id) -> count
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: not an object")
        for key in ("name", "ph", "pid", "tid", "ts"):
            if key not in event:
                raise ValueError(f"{where}: missing required key {key!r}")
        phase = event["ph"]
        if phase not in _VALID_PHASES:
            raise ValueError(f"{where}: unknown phase {phase!r}")
        if not isinstance(event["name"], str) or not event["name"]:
            raise ValueError(f"{where}: name must be a non-empty string")
        if not isinstance(event["ts"], (int, float)) or event["ts"] < 0:
            raise ValueError(f"{where}: ts must be a non-negative number")
        if not isinstance(event["pid"], int) or not isinstance(
                event["tid"], int):
            raise ValueError(f"{where}: pid/tid must be integers")
        phase_counts[phase] = phase_counts.get(phase, 0) + 1
        track = (event["pid"], event["tid"])
        if phase == PHASE_BEGIN:
            open_spans.setdefault(track, []).append(event["name"])
        elif phase == PHASE_END:
            stack = open_spans.get(track)
            if not stack:
                raise ValueError(
                    f"{where}: E event {event['name']!r} with no open span "
                    f"on pid={track[0]} tid={track[1]}"
                )
            opened = stack.pop()
            if opened != event["name"]:
                raise ValueError(
                    f"{where}: E event {event['name']!r} closes span "
                    f"{opened!r} (improper nesting)"
                )
        elif phase in (PHASE_ASYNC_BEGIN, PHASE_ASYNC_END):
            if "id" not in event:
                raise ValueError(f"{where}: async event needs an id")
            key = (event["pid"], event.get("cat", ""), event["id"])
            if phase == PHASE_ASYNC_BEGIN:
                open_async[key] = open_async.get(key, 0) + 1
            else:
                if open_async.get(key, 0) <= 0:
                    raise ValueError(
                        f"{where}: async end without begin for id "
                        f"{event['id']!r}"
                    )
                open_async[key] -= 1
        elif phase == PHASE_COUNTER:
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                raise ValueError(f"{where}: counter event needs args values")
    unbalanced = {k: v for k, v in open_spans.items() if v}
    if unbalanced:
        track, names = next(iter(unbalanced.items()))
        raise ValueError(
            f"unbalanced B/E spans on pid={track[0]} tid={track[1]}: "
            f"{names!r} never closed"
        )
    pending = {k: n for k, n in open_async.items() if n}
    if pending:
        key = next(iter(pending))
        raise ValueError(f"async span id {key[2]!r} never ended")
    return phase_counts


# ----------------------------------------------------------------------
def write_trace(payload: dict, path: str) -> str:
    """Atomically write a trace JSON object to ``path``; returns it."""
    return atomic_write_text(path, json.dumps(payload))
