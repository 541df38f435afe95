"""Every app's machine is freed by reference counting when run() returns.

A machine left in a reference cycle stays allocated until the cyclic
garbage collector's next full pass, so a sweep's peak memory would
depend on when that pass happens to run. Kernel payloads therefore hold
plain state, never the benchmark object, and the executor and memory
controller drop their back-references when their work retires.
"""

import gc
import weakref

import pytest

from repro.apps import fft, filter2d, igraph, rijndael, sort, spmv, stencil
from repro.config.presets import all_configs
from repro.machine import processor

APPS = {
    "FFT 2D": lambda cfg: fft.run(cfg, n=16, repeats=1),
    "Rijndael": lambda cfg: rijndael.run(cfg, blocks_per_lane=2, repeats=1),
    "Sort": lambda cfg: sort.run(cfg, n=128, repeats=1),
    "Filter": lambda cfg: filter2d.run(cfg, height=16, width=16, repeats=1),
    "IG_SML": lambda cfg: igraph.run(cfg, dataset="IG_SML", nodes=128,
                                     strips_to_run=1),
    "SpMV_CSR": lambda cfg: spmv.run(cfg, fmt="csr", rows=64, cols=64,
                                     strips_to_run=1),
    "SpMV_CSC": lambda cfg: spmv.run(cfg, fmt="csc", rows=64, cols=64,
                                     strips_to_run=1),
    "Stencil_BOX": lambda cfg: stencil.run(cfg, pattern="box"),
}


@pytest.fixture
def built_processors(monkeypatch):
    """Weak references to every StreamProcessor built, GC disabled."""
    refs = []
    init = processor.StreamProcessor.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(processor.StreamProcessor, "__init__", recording)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        if enabled:
            gc.enable()


# Base/Cache and ISRF1/ISRF4 build the same kernels, so two presets
# cover every kernel variant.
@pytest.mark.parametrize("preset", ["Base", "ISRF4"])
@pytest.mark.parametrize("app", sorted(APPS))
def test_machine_freed_when_run_returns(built_processors, app, preset):
    APPS[app](all_configs()[preset]).require_verified()
    assert len(built_processors) == 1
    assert built_processors[0]() is None, (
        f"{app} on {preset}: the StreamProcessor outlived run() in a "
        "reference cycle"
    )
