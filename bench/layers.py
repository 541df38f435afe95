"""Per-layer host-time attribution for the traced pass.

The traced pass wraps the public entry points of each simulator layer
(class attributes and module functions, patched at runtime from here;
nothing under ``src/`` knows about it). Each wrapper is a span: its
*self* time is its duration minus the time spent in spans it called,
tracked on one stack. A layer's self time is the sum over its spans.
Whatever no span covers — the benchmark's own loop, digests, trace-store
set-up — is the ``bench`` layer, so the layers partition the pass wall.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

_SRF = "repro.core.srf"
_XBAR = "repro.interconnect.crossbar"
_MEM = "repro.memory.controller"
_REPLAY = "repro.machine.replay"

#: Layer -> ``(module, class or None, attribute)`` entry points. Names
#: follow the modules. ``apps`` spans are the root of every point.
LAYERS = {
    "apps": [
        ("repro.apps.fft", None, "run"),
        ("repro.apps.rijndael", None, "run"),
        ("repro.apps.sort", None, "run"),
        ("repro.apps.filter2d", None, "run"),
        ("repro.apps.igraph", None, "run"),
        ("repro.apps.spmv", None, "run"),
        ("repro.apps.stencil", None, "run"),
        ("repro.apps.microbench", None, "inlane_random_read_throughput"),
        ("repro.apps.microbench", None, "crosslane_random_read_throughput"),
        ("repro.harness.figures", None, "figure14"),
    ],
    "kernel.scheduler": [
        ("repro.kernel.scheduler", "ModuloScheduler", "schedule"),
    ],
    "kernel.interpreter": [
        ("repro.kernel.interpreter", "KernelInterpreter", "run_iteration"),
    ],
    "machine.processor": [
        ("repro.machine.processor", "StreamProcessor", "run_program"),
    ],
    "machine.executor": [
        ("repro.machine.executor", "KernelExecutor", "step"),
        ("repro.machine.executor", "KernelExecutor", "fast_forward"),
        ("repro.machine.executor", "KernelExecutor", "fast_forward_steady"),
    ],
    "core.srf": [
        (_SRF, "StreamRegisterFile", "tick"),
        (_SRF, "StreamRegisterFile", "next_event_cycle"),
        (_SRF, "StreamRegisterFile", "fast_forward"),
        (_SRF, "IndexedStream", "issue_read"),
        (_SRF, "IndexedStream", "issue_write"),
        (_SRF, "IndexedStream", "pop_record"),
        (_SRF, "IndexedStream", "pop_data"),
        (_SRF, "SequentialPort", "pop_simd"),
        (_SRF, "SequentialPort", "push_simd"),
    ],
    "interconnect.crossbar": [
        (_XBAR, "ReturnNetwork", "tick"),
        (_XBAR, "AddressNetwork", "begin_cycle"),
        (_XBAR, "AddressNetwork", "try_route"),
        (_XBAR, "RingAddressNetwork", "begin_cycle"),
        (_XBAR, "RingAddressNetwork", "try_route"),
    ],
    "memory.controller": [
        (_MEM, "MemoryController", "tick"),
        (_MEM, "MemoryController", "issue"),
        (_MEM, "MemoryController", "next_event_cycle"),
        (_MEM, "MemoryController", "fast_forward"),
    ],
    "cache": [
        ("repro.cache.cache", "BankedCache", "access"),
        ("repro.cache.cache", "BankedCache", "probe"),
    ],
    "machine.replay": [
        (_REPLAY, "ReplaySession", "__init__"),
        (_REPLAY, "ReplaySession", "begin_program"),
        (_REPLAY, "ReplaySession", "save"),
        (_REPLAY, None, "begin_invocation_record"),
        (_REPLAY, None, "invocation_replay"),
    ],
    "store": [
        (_REPLAY, "TraceStore", "load"),
        (_REPLAY, "TraceStore", "save"),
    ],
}

#: The layer that holds everything no span covers.
REMAINDER = "bench"

LAYER_NAMES = tuple(LAYERS) + (REMAINDER,)

#: Span keys (``Class.attr``, or ``attr`` for a module function) that
#: the derived ratios count.
SRF_TICK = "StreamRegisterFile.tick"
REPLAYED = "invocation_replay"


class LayerTracer:
    """Self time and call counts per layer, from nested spans."""

    def __init__(self, layers: "dict | None" = None,
                 clock=time.perf_counter):
        self.layers = LAYERS if layers is None else layers
        self.clock = clock
        self.self_s = defaultdict(float)
        self.layer_calls = Counter()
        self.span_calls = Counter()
        self._starts = []
        self._child = []

    def wrap(self, fn, layer: str, key: str):
        """``fn`` with a span of ``layer`` around every call."""
        clock = self.clock
        starts = self._starts
        child = self._child
        self_s = self.self_s
        layer_calls = self.layer_calls
        span_calls = self.span_calls

        @functools.wraps(fn)
        def span(*args, **kwargs):
            starts.append(clock())
            child.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - starts.pop()
                self_s[layer] += elapsed - child.pop()
                layer_calls[layer] += 1
                span_calls[key] += 1
                if child:
                    child[-1] += elapsed

        return span

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry point of the layers for the block's duration."""
        undo = []
        try:
            for layer, entries in self.layers.items():
                for module, cls, attr in entries:
                    owner = importlib.import_module(module)
                    if cls is not None:
                        owner = getattr(owner, cls)
                    # Read the class's own attribute: a subclass patch
                    # must not wrap an already-wrapped inherited one.
                    original = vars(owner)[attr]
                    key = f"{cls}.{attr}" if cls else attr
                    undo.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(original, layer, key))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def report(self, wall_s: float) -> dict:
        """Per-layer self seconds and calls; ``bench`` is the rest."""
        self_s = {name: self.self_s.get(name, 0.0) for name in self.layers}
        self_s[REMAINDER] = wall_s - sum(self_s.values())
        calls = {name: self.layer_calls.get(name, 0) for name in self.layers}
        calls[REMAINDER] = 0
        return {"self_s": self_s, "calls": calls,
                "span_calls": dict(self.span_calls)}
