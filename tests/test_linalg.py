import math

import numpy as np
import pytest

from adiasweep.linalg import (
    NonHermitianError,
    hermitian_eigensystem,
    hermiticity_defect,
    jacobi_eigensystem,
)

from conftest import random_hermitian


def test_diagonal_2x2():
    es = hermitian_eigensystem(np.diag([0.0, 1.0]))
    assert np.allclose(es.eigenvalues, [0.0, 1.0])
    assert np.allclose(es.ground, [1.0, 0.0])


def test_diagonal_3x3_basis_vectors():
    es = hermitian_eigensystem(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(es.eigenvalues, [1.0, 2.0, 3.0])
    assert np.allclose(es.eigenvectors, np.eye(3))


def test_2x2_closed_form_oracle():
    # midpoint of the unsmoothed two-level model: quadratic-formula values
    h = np.array([[0.0, 0.25], [0.25, 1.0]])
    es = hermitian_eigensystem(h)
    lam_lo = 0.5 - math.sqrt(1.0 + 4.0 * 0.25**2) / 2.0
    lam_hi = 0.5 + math.sqrt(1.0 + 4.0 * 0.25**2) / 2.0
    assert abs(es.eigenvalues[0] - lam_lo) < 1e-12
    assert abs(es.eigenvalues[1] - lam_hi) < 1e-12
    assert abs(es.eigenvalues[0] - (-0.05901699437494742)) < 1e-12
    assert abs(es.eigenvalues[1] - 1.0590169943749475) < 1e-12


def test_jacobi_matches_2x2_closed_form():
    h = np.array([[0.0, 0.25], [0.25, 1.0]], dtype=complex)
    lam = np.sort(jacobi_eigensystem(h)[0])
    assert abs(lam[0] - (-0.05901699437494742)) < 1e-12
    assert abs(lam[1] - 1.0590169943749475) < 1e-12


def test_jacobi_matches_lapack_oracle(rng):
    for dim in (3, 4, 6, 8):
        h = random_hermitian(rng, dim)
        lam = np.sort(jacobi_eigensystem(h)[0])
        assert np.max(np.abs(lam - np.linalg.eigvalsh(h))) < 1e-12 * np.linalg.norm(h)


def test_residual_orthonormality_phase(rng):
    for dim in range(2, 9):
        h = random_hermitian(rng, dim)
        es = hermitian_eigensystem(h)
        residual = h @ es.eigenvectors - es.eigenvectors * es.eigenvalues
        assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-12 * np.linalg.norm(h, 2)
        gram = es.eigenvectors.conj().T @ es.eigenvectors
        assert np.max(np.abs(gram - np.eye(dim))) < 1e-12
        for j in range(dim):
            v = es.vector(j)
            anchor = v[np.argmax(np.abs(v))]
            assert abs(anchor.imag) == 0.0
            assert anchor.real >= 0.0


def test_reconstruction(rng):
    for dim in (2, 5, 8):
        h = random_hermitian(rng, dim)
        es = hermitian_eigensystem(h)
        rebuilt = (es.eigenvectors * es.eigenvalues) @ es.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - h)) < 1e-11


def test_eigenvalue_invariance_under_unitary(rng):
    h = random_hermitian(rng, 5)
    u = hermitian_eigensystem(random_hermitian(rng, 5)).eigenvectors
    rotated = u.conj().T @ h @ u
    a = hermitian_eigensystem(h).eigenvalues
    b = hermitian_eigensystem(rotated).eigenvalues
    assert np.max(np.abs(a - b)) < 1e-12


def test_bitwise_determinism(rng):
    h = random_hermitian(rng, 4)
    a = hermitian_eigensystem(h)
    b = hermitian_eigensystem(h.copy())
    assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
    assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()


def test_degenerate_tie_break():
    es = hermitian_eigensystem(np.eye(3))
    assert np.allclose(es.eigenvectors, np.eye(3))


def test_non_hermitian_rejected_with_worst_pair():
    h = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(NonHermitianError, match=r"\(0,1\)"):
        hermitian_eigensystem(h)
    dev, pair = hermiticity_defect(h)
    assert pair in ((0, 1), (1, 0))
    assert dev == pytest.approx(0.5)
