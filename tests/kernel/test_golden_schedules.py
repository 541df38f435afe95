"""Golden schedules: the modulo scheduler's output pinned per case.

``golden_schedules.json`` snapshots the schedule of each of the seven
Figure 14 kernels at every separation Figures 14-16 use, at stream
capacities of 8 and 16 words. In-lane kernels sweep the in-lane
separation (cross-lane held at 20); IGraph1 and IGraph2 sweep the
cross-lane separation (in-lane held at 6), as ``figure14`` does. Each
case pins the II, the depth, the sorted comm slots, the RecMII bound
and a sha256 of the slots listed in ``kernel.ops`` order (op ids are
process-global, so they never appear in the fixture).

Any change to a schedule shows up as a diff against the fixture. The
fixture is the scheduler's contract, so a speed change must leave it
byte-identical. Regenerate only after a deliberate scheduling change:

    PYTHONPATH=src:. python tests/kernel/test_golden_schedules.py
"""

import hashlib
import json
import os

import pytest

from repro.harness.figures import _figure14_kernels
from repro.kernel import ModuloScheduler, min_ii_recurrence

GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                           "golden_schedules.json")

INLANE_SEPARATIONS = (2, 4, 6, 8, 10)
CROSSLANE_SEPARATIONS = (2, 4, 6, 8, 10, 12, 16, 20, 24)
CAPACITIES = (8, 16)
KERNEL_NAMES = ("FFT2D", "Rijndael", "Sort1", "Sort2", "Filter",
                "IGraph1", "IGraph2")


def cases(kind: str) -> list:
    """``(case key, inlane, crosslane, capacity)`` for one kernel kind."""
    if kind == "inlane":
        points = [(sep, 20) for sep in INLANE_SEPARATIONS]
    else:
        points = [(6, sep) for sep in CROSSLANE_SEPARATIONS]
    return [
        (f"in{inlane}_x{cross}_cap{cap}", inlane, cross, cap)
        for inlane, cross in points for cap in CAPACITIES
    ]


def pin(kernel, inlane: int, cross: int, capacity: int) -> dict:
    """The JSON-stable record of one schedule."""
    schedule = ModuloScheduler().schedule(
        kernel, inlane_separation=inlane, crosslane_separation=cross,
        stream_capacity_words=capacity,
    )
    slots = [schedule.slots[op.op_id] for op in kernel.ops]
    return {
        "ii": schedule.ii,
        "depth": schedule.depth,
        "comm_slots": sorted(schedule.comm_slots),
        "min_ii_recurrence": min_ii_recurrence(kernel, inlane, cross,
                                               capacity),
        "ops": len(slots),
        "slots_sha256": hashlib.sha256(
            json.dumps(slots).encode()
        ).hexdigest(),
    }


def capture() -> dict:
    out = {}
    for name, (kernel, kind) in _figure14_kernels().items():
        out[name] = {
            key: pin(kernel, inlane, cross, cap)
            for key, inlane, cross, cap in cases(kind)
        }
    return out


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def kernels():
    return _figure14_kernels()


def test_fixture_covers_every_kernel(golden, kernels):
    assert tuple(kernels) == KERNEL_NAMES
    assert sorted(golden) == sorted(KERNEL_NAMES)
    for name, (_kernel, kind) in kernels.items():
        assert sorted(golden[name]) == sorted(k for k, *_ in cases(kind))


@pytest.mark.parametrize("name", KERNEL_NAMES)
def test_schedules_match_fixture(golden, kernels, name):
    kernel, kind = kernels[name]
    for key, inlane, cross, cap in cases(kind):
        assert pin(kernel, inlane, cross, cap) == golden[name][key], key


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(capture(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"regenerated {GOLDEN_PATH}")
