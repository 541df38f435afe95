"""Chrome trace export: structure, schema validation, atomic writes."""

import json
import os

import pytest

from repro.observe import (
    Tracer,
    chrome_trace,
    validate_chrome_trace,
    write_trace,
)


def _sample_tracer() -> Tracer:
    tracer = Tracer(64, clock_hz=1e9)
    tracer.begin("processor", "program:p", 0)
    tracer.begin("processor", "kernel:k", 10)
    tracer.end("processor", "kernel:k", 50)
    tracer.end("processor", "program:p", 60)
    tracer.async_begin("memory", "load", 5, event_id=1)
    tracer.async_end("memory", "load", 45, event_id=1)
    return tracer


class TestChromeTrace:
    def test_machines_become_processes_components_threads(self):
        payload = chrome_trace({"Base": _sample_tracer(),
                                "ISRF4": _sample_tracer()})
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        names = {(e["name"], e["args"]["name"]) for e in meta}
        assert ("process_name", "Base") in names
        assert ("process_name", "ISRF4") in names
        assert ("thread_name", "processor") in names
        assert ("thread_name", "memory") in names
        pids = {e["pid"] for e in payload["traceEvents"]}
        assert pids == {1, 2}

    def test_cycle_timestamps_become_microseconds(self):
        tracer = Tracer(8, clock_hz=1e9)  # 1 cycle = 1 ns = 1e-3 us
        tracer.instant("srf", "x", 2000)
        payload = chrome_trace({"Base": tracer})
        event = [e for e in payload["traceEvents"] if e["name"] == "x"][0]
        assert event["ts"] == pytest.approx(2.0)

    def test_async_events_carry_string_ids(self):
        payload = chrome_trace({"Base": _sample_tracer()})
        async_events = [e for e in payload["traceEvents"]
                        if e["ph"] in ("b", "e")]
        assert all(e["id"] == "1" for e in async_events)

    def test_payload_json_serialisable_and_valid(self):
        payload = chrome_trace({"Base": _sample_tracer()})
        counts = validate_chrome_trace(json.loads(json.dumps(payload)))
        assert counts["B"] == 2 and counts["E"] == 2
        assert counts["b"] == 1 and counts["e"] == 1

    def test_rejects_non_tracer(self):
        with pytest.raises(TypeError):
            chrome_trace({"Base": object()})


class TestValidation:
    def _base_event(self, **overrides):
        event = {"name": "x", "ph": "i", "pid": 1, "tid": 1, "ts": 0.0}
        event.update(overrides)
        return {"traceEvents": [event]}

    def test_missing_required_key(self):
        bad = self._base_event()
        del bad["traceEvents"][0]["ts"]
        with pytest.raises(ValueError, match="missing required key"):
            validate_chrome_trace(bad)

    def test_unknown_phase(self):
        with pytest.raises(ValueError, match="unknown phase"):
            validate_chrome_trace(self._base_event(ph="Z"))

    def test_negative_timestamp(self):
        with pytest.raises(ValueError, match="ts"):
            validate_chrome_trace(self._base_event(ts=-1.0))

    def test_unbalanced_begin(self):
        with pytest.raises(ValueError, match="never closed"):
            validate_chrome_trace(self._base_event(ph="B"))

    def test_end_without_begin(self):
        with pytest.raises(ValueError, match="no open span"):
            validate_chrome_trace(self._base_event(ph="E"))

    def test_improperly_nested_spans(self):
        events = [
            {"name": "outer", "ph": "B", "pid": 1, "tid": 1, "ts": 0},
            {"name": "inner", "ph": "B", "pid": 1, "tid": 1, "ts": 1},
            {"name": "outer", "ph": "E", "pid": 1, "tid": 1, "ts": 2},
        ]
        with pytest.raises(ValueError, match="improper nesting"):
            validate_chrome_trace({"traceEvents": events})

    def test_async_end_without_begin(self):
        with pytest.raises(ValueError, match="async end without begin"):
            validate_chrome_trace(self._base_event(ph="e", id="1"))

    def test_async_begin_never_ended(self):
        with pytest.raises(ValueError, match="never ended"):
            validate_chrome_trace(self._base_event(ph="b", id="1"))

    def test_counter_needs_args(self):
        with pytest.raises(ValueError, match="counter"):
            validate_chrome_trace(self._base_event(ph="C"))

    def test_not_an_object(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([1, 2])


class TestAtomicWrite:
    def test_write_leaves_no_staging_file(self, tmp_path):
        target = tmp_path / "out.json"
        write_trace({"traceEvents": []}, str(target))
        assert json.loads(target.read_text()) == {"traceEvents": []}
        assert os.listdir(tmp_path) == ["out.json"]

    def test_failed_write_does_not_create_target(self, tmp_path):
        target = tmp_path / "out.json"
        with pytest.raises(TypeError):
            write_trace({"bad": object()}, str(target))
        assert os.listdir(tmp_path) == []
