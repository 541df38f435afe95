"""Checks that hold for every test.

Every ``ProgramStats`` a :class:`StreamProcessor` returns must partition
its total cycles exactly: Figure 12's categories plus idle sum to
``total_cycles``, with no clamped remainder. Only the sum is checked
here. The golden-stats tests also require non-negative kernel overhead,
which random fuzz kernels can legitimately break: with a long II and an
early stream tail, a kernel can retire inside ``ii * iterations``.
"""

import pytest

from repro.machine import StreamProcessor


@pytest.fixture(autouse=True)
def exact_cycle_partition(monkeypatch):
    run_program = StreamProcessor.run_program

    def checked(self, program):
        stats = run_program(self, program)
        parts = stats.breakdown()
        assert sum(parts.values()) == stats.total_cycles, (
            f"{stats.name}: breakdown {parts} does not sum to "
            f"{stats.total_cycles} cycles"
        )
        return stats

    monkeypatch.setattr(StreamProcessor, "run_program", checked)
