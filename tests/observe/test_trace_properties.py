"""Property-based trace invariants, on synthetic and real machine runs.

The synthetic half drives the tracer/exporter with
hypothesis-generated event streams; the real half runs FFT 2D under
full observability once per preset and checks the invariants the
tracer, exporter and stats promise each other: per-track timestamps
monotonic, begin/end balanced, event counts reconciling with the
machine's stats, and the exported JSON passing Chrome trace schema
validation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observe
from repro.apps import fft
from repro.config.presets import base_config, isrf4_config
from repro.observe import (
    PHASE_ASYNC_BEGIN,
    PHASE_ASYNC_END,
    PHASE_BEGIN,
    PHASE_END,
    Tracer,
    chrome_trace,
    validate_chrome_trace,
)

# ----------------------------------------------------------------------
# Synthetic streams


def _emit_tree(tracer, component, tree, cycle, depth):
    """Emit a nested span per tree node; return the cycle after closing."""
    name = f"span.d{depth}"
    tracer.begin(component, name, cycle)
    cycle += 1
    for child in tree:
        cycle = _emit_tree(tracer, component, child, cycle, depth + 1)
    tracer.end(component, name, cycle)
    return cycle + 1


span_trees = st.recursive(
    st.just([]), lambda children: st.lists(children, max_size=3),
    max_leaves=10,
)


class TestSyntheticStreams:
    @given(trees=st.lists(span_trees, min_size=1, max_size=4),
           components=st.integers(min_value=1, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_balanced_spans_always_validate(self, trees, components):
        tracer = Tracer(1 << 12)
        for comp in range(components):
            cycle = 0
            for tree in trees:
                cycle = _emit_tree(tracer, f"comp{comp}", [tree], cycle, 0)
        payload = chrome_trace({"M": tracer})
        counts = validate_chrome_trace(payload)
        assert counts[PHASE_BEGIN] == counts[PHASE_END]
        emitted_begins = sum(
            count for (_, phase), count in tracer.counts.items()
            if phase == PHASE_BEGIN
        )
        assert counts[PHASE_BEGIN] == emitted_begins

    @given(ids=st.lists(st.integers(min_value=0, max_value=99),
                        unique=True, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_paired_async_events_always_validate(self, ids):
        tracer = Tracer(1 << 10)
        for position, event_id in enumerate(ids):
            tracer.async_begin("memory", f"op{event_id}", position,
                              event_id=event_id)
        for position, event_id in enumerate(ids):
            tracer.async_end("memory", f"op{event_id}", len(ids) + position,
                             event_id=event_id)
        counts = validate_chrome_trace(chrome_trace({"M": tracer}))
        assert counts[PHASE_ASYNC_BEGIN] == len(ids)
        assert counts[PHASE_ASYNC_END] == len(ids)


# ----------------------------------------------------------------------
# Real machine runs


@pytest.fixture(scope="module")
def traced_runs():
    """FFT 2D under full observability on Base and ISRF4, run once."""
    observability = dict(trace=True, metrics=True)
    runs = {}
    with observe.collect() as collected:
        for factory in (base_config, isrf4_config):
            config = factory(**observability)
            result = fft.run(config, n=16)
            result.require_verified()
            runs[config.name] = result
    return runs, collected


@pytest.fixture(scope="module")
def tracers(traced_runs):
    _, collected = traced_runs
    return collected.tracers()


class TestRealRunInvariants:
    def test_both_machines_collected(self, tracers):
        assert set(tracers) == {"Base", "ISRF4"}
        assert all(len(tracer) > 0 for tracer in tracers.values())

    def test_timestamps_monotonic_per_component(self, tracers):
        for label, tracer in tracers.items():
            last = {}
            for event in tracer.events:
                previous = last.get(event.component)
                assert previous is None or event.cycle >= previous, (
                    f"{label}/{event.component}: cycle {event.cycle} after "
                    f"{previous}"
                )
                last[event.component] = event.cycle

    def test_begin_end_balanced_per_component(self, tracers):
        for tracer in tracers.values():
            for component in tracer.components():
                assert (tracer.count(component, PHASE_BEGIN)
                        == tracer.count(component, PHASE_END))
                assert (tracer.count(component, PHASE_ASYNC_BEGIN)
                        == tracer.count(component, PHASE_ASYNC_END))

    def test_memory_events_reconcile_with_metrics(self, traced_runs):
        runs, collected = traced_runs
        tracers = collected.tracers()
        for label, result in runs.items():
            tracer = tracers[label]
            completed = result.stats.metrics["memory.ops_completed"]
            assert completed > 0
            assert tracer.count("memory", PHASE_ASYNC_BEGIN) == completed
            assert tracer.count("memory", PHASE_ASYNC_END) == completed

    def test_kernel_spans_reconcile_with_kernel_runs(self, traced_runs):
        runs, collected = traced_runs
        tracers = collected.tracers()
        for label, result in runs.items():
            kernel_begins = sum(
                1 for event in tracers[label].events
                if event.component == "processor"
                and event.phase == PHASE_BEGIN
                and event.name.startswith("kernel:")
            )
            assert kernel_begins == len(result.stats.kernel_runs)

    def test_no_events_dropped_at_default_capacity(self, tracers):
        assert all(t.dropped_events == 0 for t in tracers.values())

    def test_profile_accounts_for_every_cycle(self, traced_runs):
        """A traced run's Figure 12 cycle profile is an exact partition:
        no part negative, none missing or counted twice."""
        runs, _ = traced_runs
        for result in runs.values():
            parts = result.stats.breakdown().values()
            assert all(part >= 0 for part in parts)
            assert sum(parts) == result.cycles

    def test_export_validates_against_chrome_schema(self, tracers):
        payload = chrome_trace(tracers)
        counts = validate_chrome_trace(payload)
        assert counts[PHASE_BEGIN] > 0
        assert counts[PHASE_BEGIN] == counts[PHASE_END]
