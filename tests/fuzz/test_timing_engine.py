"""Property-based cycle-loop equivalence over random programs.

Random stream programs from :mod:`tests.fuzz.strategies` run on the
cycle-accurate machine under both cycle loops (timing engines in the
ids of ``tests/machine/workloads.py``): fast-forwarding provably inert
cycles (the default) and stepping every cycle (``fast_forward=False``).
Outputs, final table contents, and the *entire* ``ProgramStats`` must
match bit for bit. A second property drives the boundary between
skipped and stepped cycles under each knob that hooks the cycle loop
(faults, sanitizer, tracing): with the hook on, both loops
must still agree exactly.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.config import isrf4_config
from repro.kernel import KernelInterpreter
from tests.fuzz.strategies import (
    FUZZ_EXAMPLES, LANES, build_kernel, kernel_specs, make_context,
    sparse_kernel_specs,
)
from tests.fuzz.test_three_way import run_on_machine


def _run_both_loops(spec, overlay):
    """Both cycle loops on one random program, plus the reference."""
    spec = dict(spec, iterations=spec["iterations"] * 4)
    kernel, streams = build_kernel(spec)
    ref_ctx = make_context(spec, streams)
    KernelInterpreter(kernel, LANES, ref_ctx).run(spec["iterations"])
    fast = run_on_machine(spec, kernel, streams, isrf4_config(**overlay))
    stepped = run_on_machine(
        spec, kernel, streams,
        isrf4_config(fast_forward=False, **overlay),
    )
    return ref_ctx.output("out"), fast, stepped


def _assert_engines_agree(spec):
    """Both cycle loops on a random program: everything identical — and
    the reference interpreter agrees on the outputs, so the two loops
    cannot be identically wrong about the data."""
    expected, fast, stepped = _run_both_loops(spec, {})
    assert fast[0] == expected
    assert stepped[0] == expected
    assert fast[1] == stepped[1]
    assert dataclasses.asdict(fast[2]) == dataclasses.asdict(stepped[2])


@settings(max_examples=FUZZ_EXAMPLES)
@given(spec=kernel_specs(max_iterations=6))
def test_timing_engines_agree(spec):
    _assert_engines_agree(spec)


@settings(max_examples=FUZZ_EXAMPLES)
@given(spec=sparse_kernel_specs(max_iterations=6))
def test_timing_engines_agree_sparse(spec):
    """Cycle-loop agreement under CSR-shaped index streams: every sparse
    index distribution (including empty-row sentinels masked by the
    gather predicate) times identically under both loops."""
    _assert_engines_agree(spec)


#: Knobs that hook the cycle loop: fast-forward windows must charge
#: each exactly as per-cycle stepping does.
_HOOK_OVERLAYS = (
    dict(fault_seed=11, fault_srf_flips=1, fault_horizon=5_000),
    dict(sanitize=True),
    dict(trace=True),
)


@settings(max_examples=max(FUZZ_EXAMPLES // 5, 5))
@given(spec=kernel_specs(max_iterations=4),
       overlay=st.sampled_from(_HOOK_OVERLAYS))
def test_fallback_boundary_agrees(spec, overlay):
    """With a cycle-loop hook on, fast-forwarding still matches
    per-cycle stepping bit for bit (faulted outputs may differ from the
    reference, so only the two machine runs are compared)."""
    _expected, fast, stepped = _run_both_loops(spec, overlay)
    assert fast[:2] == stepped[:2]
    assert dataclasses.asdict(fast[2]) == dataclasses.asdict(stepped[2])
