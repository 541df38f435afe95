"""Static bank-conflict estimation for indexed SRF access patterns.

The ISRF4 design (paper §4.2) gets its indexed bandwidth from spreading
accesses across the ``s`` sub-arrays of each bank; §5.2 shows measured
throughput collapsing when an access pattern concentrates on few
sub-arrays. This pass predicts that concentration *statically*: when an
indexed access's record index is an exact affine function of the
iteration counter and lane id (see :mod:`repro.analyze.intervals`), the
sequence of (bank, sub-array) targets is fully determined, and we can
tabulate it without running the machine.

Two advisory metrics come out, both cross-checkable against the
measured conflict total, :attr:`~repro.core.srf.SrfStats.blocked_heads`:

* **in-lane streams** — the share of a lane's accesses landing on its
  hottest sub-array (``1/s`` is uniform, ``1.0`` means every access
  serialises on one sub-array);
* **cross-lane streams** — the mean number of same-cycle accesses to
  the hottest bank when all lanes issue together (``1.0`` is
  conflict-free, ``lanes`` means total serialisation).

Opaque index payloads produce a single "pattern unknown" note instead
of a guess — the estimator never invents pressure it cannot derive.
"""

from __future__ import annotations

from repro.analyze.diagnostics import info
from repro.analyze.intervals import IndexEvaluator
from repro.core.descriptors import IndexSpace
from repro.core.geometry import SrfGeometry
from repro.kernel.ops import OpKind

#: Iterations sampled when tabulating an affine pattern. Affine target
#: sequences are periodic in practice; 64 iterations bound the work
#: while covering every stride the shipped benchmarks generate.
SAMPLE_ITERATIONS = 64


def bank_estimates(task, evaluator: IndexEvaluator,
                   geometry: SrfGeometry):
    """Yield info diagnostics estimating bank/sub-array pressure."""
    invocation = task.work
    kernel = invocation.kernel
    iterations = min(invocation.iterations, SAMPLE_ITERATIONS)
    if iterations <= 0:
        return
    for op in kernel.stream_ops(OpKind.IDX_ISSUE, OpKind.IDX_WRITE):
        descriptor = invocation.bindings.get(op.stream.name)
        if descriptor is None or not op.operands:
            continue
        affine = evaluator.value_of(op.operands[0]).affine
        if affine is None or not _integral(affine):
            yield info(
                "bank-pressure-unknown",
                f"{op.name}: index pattern on {op.stream.name!r} is not "
                "statically derivable; no conflict estimate "
                "(SrfStats.blocked_heads counts the measured conflicts)",
                kernel=kernel.name, op=op.name, stream=op.stream.name,
                task=task.name,
            )
            continue
        if descriptor.index_space is IndexSpace.PER_LANE:
            yield _inlane_estimate(
                task, op, descriptor, affine, iterations, geometry
            )
        else:
            yield _crosslane_estimate(
                task, op, descriptor, affine, iterations, geometry
            )


def _integral(affine) -> bool:
    return all(
        float(c).is_integer()
        for c in (affine.const, affine.c_iter, affine.c_lane)
    )


def _inlane_estimate(task, op, descriptor, affine, iterations,
                     geometry: SrfGeometry):
    """Hottest-sub-array share of one lane's access sequence."""
    m = geometry.words_per_lane_access
    s = geometry.subarrays_per_bank
    local_base = (descriptor.base // geometry.block_words) * m
    shares = []
    for lane in range(geometry.lanes):
        counts = {}
        for t in range(iterations):
            record = int(affine.const + affine.c_iter * t
                         + affine.c_lane * lane)
            local = (local_base + record * descriptor.record_words)
            subarray = (local // m) % s
            counts[subarray] = counts.get(subarray, 0) + 1
        shares.append(max(counts.values()) / iterations)
    hottest = max(shares)
    return info(
        "bank-pressure",
        f"{op.name}: in-lane accesses on {op.stream.name!r} put "
        f"{hottest:.0%} of a lane's traffic on its hottest sub-array "
        f"(uniform over {s} sub-arrays would be {1 / s:.0%})",
        kernel=task.work.kernel.name, op=op.name,
        stream=op.stream.name, task=task.name,
    )


def _crosslane_estimate(task, op, descriptor, affine, iterations,
                        geometry: SrfGeometry):
    """Mean same-cycle load on the hottest bank across issuing lanes."""
    total_words = geometry.total_words
    peaks = []
    for t in range(iterations):
        counts = {}
        for lane in range(geometry.lanes):
            record = int(affine.const + affine.c_iter * t
                         + affine.c_lane * lane)
            word = (descriptor.base
                    + record * descriptor.record_words) % total_words
            bank = geometry.lane_of(word)
            counts[bank] = counts.get(bank, 0) + 1
        peaks.append(max(counts.values()))
    mean_peak = sum(peaks) / len(peaks)
    return info(
        "bank-pressure",
        f"{op.name}: cross-lane accesses on {op.stream.name!r} load the "
        f"hottest bank with {mean_peak:.2f} same-cycle accesses on "
        f"average (1.00 is conflict-free, {geometry.lanes} is fully "
        "serialised)",
        kernel=task.work.kernel.name, op=op.name, stream=op.stream.name,
        task=task.name,
    )
