"""Sparse suite differentials: scipy/NumPy ground truth, all machines.

Two layers compose into a machine-vs-scipy proof:

1. **Reference vs scipy** — the in-module functional references
   (:func:`repro.apps.spmv.reference_matvec_csr`/``_csc``,
   :func:`repro.apps.stencil.reference_stencil`) are compared against
   scipy. SpMV accumulates in exactly scipy's ``csr_matvec`` /
   ``csc_matvec`` float-operation order, so equality is EXACT (``==``,
   no tolerance); the stencil reference is checked against
   ``scipy.ndimage.correlate`` (different accumulation order, so
   tightly-toleranced).
2. **Machine vs reference** — every preset x run mode (kernel data
   source, see ``tests/machine/workloads.py``) runs the full
   cycle-accurate simulation and ``require_verified()`` enforces the
   app's own word-for-word comparison against the same references.

Together: the simulated machine agrees with scipy on every preset, in
every run mode. The scipy layer skips cleanly where scipy is not
installed; the machine layer never needs it.
"""

import pytest

from repro.apps import spmv, stencil
from repro.apps.spmv import (
    ORDERINGS, dense_vector, random_matrix,
    reference_matvec_csr, reference_matvec_csc,
)
from repro.apps.stencil import PATTERNS, RADIUS, reference_stencil
from repro.config.presets import all_configs
from repro.machine.replay import TraceStore
from tests.machine.workloads import BACKENDS, PRESETS, run_mode

import numpy as np


# ----------------------------------------------------------------------
# Layer 1: in-module references vs scipy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("ordering", ORDERINGS)
def test_reference_csr_matches_scipy_exactly(ordering):
    sparse = pytest.importorskip("scipy.sparse")
    matrix = random_matrix(96, 96, avg_nnz=6, ordering=ordering)
    x = np.array(dense_vector(96))
    a = sparse.csr_matrix(
        (matrix.data, matrix.indices, matrix.indptr),
        shape=(matrix.rows, matrix.cols),
    )
    expected = a @ x  # csr_matvec: per-row accumulation in entry order
    got = reference_matvec_csr(matrix, list(x))
    assert got == list(expected)  # exact: same float-op order


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_reference_csc_matches_scipy_exactly(ordering):
    sparse = pytest.importorskip("scipy.sparse")
    matrix = random_matrix(96, 96, avg_nnz=6, ordering=ordering)
    x = np.array(dense_vector(96))
    a = sparse.csr_matrix(
        (matrix.data, matrix.indices, matrix.indptr),
        shape=(matrix.rows, matrix.cols),
    ).tocsc()
    expected = a @ x  # csc_matvec: column-major accumulation
    got = reference_matvec_csc(matrix, list(x))
    assert got == list(expected)  # exact: same float-op order


def test_csr_and_csc_references_agree_within_rounding():
    """The two references take different float paths (row-major vs
    column-major accumulation) yet compute the same matvec."""
    matrix = random_matrix(96, 96, avg_nnz=6, ordering="random")
    x = dense_vector(96)
    csr = reference_matvec_csr(matrix, x)
    csc = reference_matvec_csc(matrix, x)
    assert np.allclose(csr, csc, rtol=1e-12)


@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_reference_stencil_matches_scipy(pattern):
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(41)
    image = rng.uniform(0.5, 1.5, size=(16, 32))
    size = 2 * RADIUS + 1
    weights = np.zeros((size, size))
    for (dr, dc), coeff in PATTERNS[pattern]:
        weights[dr, dc] = coeff
    # The reference computes valid rows only (no row padding) with
    # edge-padded columns; slice scipy's fully padded result to match.
    expected = ndimage.correlate(image, weights, mode="nearest")
    expected = expected[RADIUS:image.shape[0] - RADIUS, :]
    got = reference_stencil(image, pattern)
    assert np.allclose(got, expected, rtol=1e-12, atol=0)


def test_dense_differential():
    """Pure-NumPy ground truth (no scipy needed): the references equal
    the dense matvec within rounding on every ordering."""
    for ordering in ORDERINGS:
        matrix = random_matrix(64, 64, avg_nnz=5, ordering=ordering)
        x = np.array(dense_vector(64))
        dense = matrix.to_dense() @ x
        assert np.allclose(reference_matvec_csr(matrix, list(x)), dense)
        assert np.allclose(reference_matvec_csc(matrix, list(x)), dense)


# ----------------------------------------------------------------------
# Layer 2: cycle-accurate machine vs the references, everywhere
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("fmt", spmv.FORMATS)
def test_spmv_verifies_on_every_machine(fmt, preset, backend, tmp_path):
    """require_verified() is the word-for-word reference comparison;
    CSC on indexed presets walks the read-write indexed stream path."""
    run_mode(
        lambda cfg: spmv.run(cfg, fmt=fmt, rows=64, cols=64,
                             strips_to_run=2),
        all_configs()[preset], backend,
        TraceStore(str(tmp_path)), f"spmv_{fmt}",
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_stencil_verifies_on_every_machine(pattern, preset, backend,
                                           tmp_path):
    run_mode(
        lambda cfg: stencil.run(cfg, pattern=pattern),
        all_configs()[preset], backend,
        TraceStore(str(tmp_path)), f"stencil_{pattern}",
    )


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_spmv_verifies_under_every_ordering(ordering):
    """The locality sweep's orderings all verify on the indexed SRF."""
    result = spmv.run(all_configs()["ISRF4"], fmt="csr", rows=64,
                      cols=64, ordering=ordering, strips_to_run=2)
    result.require_verified()


# ----------------------------------------------------------------------
# Replay-mode bit-identity (the per-preset sweep lives in
# tests/machine/test_replay.py via the shared RUNNERS table; this pins
# the read-write CSC program specifically).
# ----------------------------------------------------------------------
def test_spmv_csc_replay_bit_identical(tmp_path):
    from repro.machine import replay
    from repro.machine.replay import TraceStore
    from tests.machine.test_golden_stats import fingerprint

    store = TraceStore(str(tmp_path))
    config = all_configs()["ISRF4"].replace(timing_source="replay")

    def run(cfg):
        return spmv.run(cfg, fmt="csc", rows=64, cols=64,
                        strips_to_run=2).require_verified()

    with replay.session(store, "spmv_csc", config, "test") as sess:
        recorded = run(config)
        assert sess.mode == "record"
    with replay.session(store, "spmv_csc", config, "test") as sess:
        replayed = run(config)
        assert sess.mode == "replay"
    assert fingerprint(recorded.stats) == fingerprint(replayed.stats)
