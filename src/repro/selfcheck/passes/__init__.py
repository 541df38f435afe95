"""The selfcheck pass registry.

Each pass module exposes ``NAME`` (short slug), ``CODES`` (stable code
-> one-line description — the mutation corpus and the docs key on
these), and ``run(ctx)``. Order matters only for output stability.
"""

from repro.selfcheck.passes import determinism, overlays, writes

#: Every registered pass module, in reporting order.
ALL_PASSES = (overlays, determinism, writes)

#: Every pass-declared code, for suppression validation and docs.
PASS_CODES = {
    code: description
    for pass_module in ALL_PASSES
    for code, description in pass_module.CODES.items()
}

__all__ = ["ALL_PASSES", "PASS_CODES"]
