"""Codebase-invariant linter for the simulator's own source.

``repro.selfcheck`` statically enforces the cross-cutting contracts the
test suite can only probe pointwise: every ``REPRO_*`` environment
overlay registered and documented, no ambient entropy inside the
simulated machine, and durable writes routed through
:mod:`repro.store`. Run it with
``python -m repro.selfcheck``; see DESIGN.md §4k for the pass
architecture and the full code table.
"""

from repro.selfcheck.core import Finding, LintContext, SourceFile, SourceTree
from repro.selfcheck.driver import ALL_CODES, SelfcheckReport, run_selfcheck

__all__ = [
    "ALL_CODES",
    "Finding",
    "LintContext",
    "SelfcheckReport",
    "SourceFile",
    "SourceTree",
    "run_selfcheck",
]
