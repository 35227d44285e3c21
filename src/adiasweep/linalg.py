"""Small dense complex linear algebra: Hermitian eigensystems.

``hermitian_eigensystem`` calls LAPACK through ``np.linalg.eigh`` for every
dimension and then fixes the phases and the order, so two calls on
bit-identical input return bit-identical eigensystems.

Phase convention: eigenvectors are scaled so that their largest-magnitude
component is real and non-negative.  Eigenvalues are sorted ascending; exact
ties are broken by the index of each vector's largest-magnitude component.

``jacobi_eigensystem`` is a cyclic Jacobi iteration written out in numpy.
The pipeline does not call it: it is kept as an independent oracle for the
LAPACK path (acceptance criterion 8 and the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Absolute hermiticity tolerance, relative to the largest entry (floored at 1).
HERMITICITY_ATOL = 1e-14

_JACOBI_MAX_SWEEPS = 60


class NonHermitianError(ValueError):
    """Input matrix deviates from Hermitian symmetry beyond tolerance."""


def hermiticity_defect(matrix: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Return the worst |M[i,j] - conj(M[j,i])| and the offending index pair."""
    m = np.asarray(matrix)
    dev = np.abs(m - m.conj().T)
    i, j = np.unravel_index(np.argmax(dev), dev.shape)
    return float(dev[i, j]), (int(i), int(j))


def _require_square(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _require_hermitian(matrix: np.ndarray) -> np.ndarray:
    m = _require_square(matrix)
    scale = max(1.0, float(np.max(np.abs(m)))) if m.size else 1.0
    dev, (i, j) = hermiticity_defect(m)
    if dev > HERMITICITY_ATOL * scale:
        raise NonHermitianError(
            f"matrix is not Hermitian: entry ({i},{j}) vs conj(({j},{i})) "
            f"differ by {dev:.3e} (tolerance {HERMITICITY_ATOL * scale:.3e})"
        )
    return m


@dataclass(frozen=True)
class Eigensystem:
    """Sorted, orthonormal, phase-fixed eigensystem of a Hermitian matrix.

    eigenvalues[j] pairs with the column eigenvectors[:, j].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def vector(self, j: int) -> np.ndarray:
        return self.eigenvectors[:, j]

    @property
    def ground(self) -> np.ndarray:
        return self.eigenvectors[:, 0]

    def gaps(self) -> np.ndarray:
        """Energy differences E_j - E_0 for j >= 1."""
        return self.eigenvalues[1:] - self.eigenvalues[0]


def _phase_fixed_sorted(values: np.ndarray, vectors: np.ndarray) -> Eigensystem:
    dim = values.shape[0]
    anchors = [int(np.argmax(np.abs(vectors[:, j]))) for j in range(dim)]
    order = sorted(range(dim), key=lambda j: (values[j], anchors[j]))
    out_vals = np.empty(dim, dtype=float)
    out_vecs = np.empty((dim, dim), dtype=complex)
    for col, j in enumerate(order):
        v = vectors[:, j].copy()
        a = anchors[j]
        mag = abs(v[a])
        if mag > 0.0:
            v *= v[a].conjugate() / mag
            v[a] = mag
        out_vals[col] = values[j]
        out_vecs[:, col] = v
    out_vals.flags.writeable = False
    out_vecs.flags.writeable = False
    return Eigensystem(out_vals, out_vecs)


def jacobi_eigensystem(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization of a Hermitian matrix.

    Returns unsorted eigenvalues and the accumulated unitary (columns are
    eigenvectors, no phase convention applied).  An oracle for
    ``hermitian_eigensystem``; the pipeline does not call it.
    """
    a = _require_square(matrix).copy()
    dim = a.shape[0]
    v = np.eye(dim, dtype=complex)
    if dim == 1:
        return a.real.diagonal().copy(), v
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return np.zeros(dim), v
    threshold = 1e-15 * scale
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = np.sqrt(np.sum(np.abs(a - np.diag(a.diagonal())) ** 2))
        if off <= threshold:
            break
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                apq = a[p, q]
                if abs(apq) <= threshold / dim:
                    continue
                phase = apq / abs(apq)
                tau = (a[q, q].real - a[p, p].real) / (2.0 * abs(apq))
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(dim, dtype=complex)
                rot[p, p] = c
                rot[p, q] = s * phase
                rot[q, p] = -s * phase.conjugate()
                rot[q, q] = c
                a = rot.conj().T @ a @ rot
                v = v @ rot
        a = 0.5 * (a + a.conj().T)
    else:
        raise RuntimeError("Jacobi iteration failed to converge")
    return a.real.diagonal().copy(), v


def hermitian_eigensystem(matrix: np.ndarray) -> Eigensystem:
    """Eigensystem of a Hermitian matrix: sorted, orthonormal, phase-fixed.

    Rejects non-Hermitian input with a diagnostic naming the worst entry pair.
    """
    values, vectors = np.linalg.eigh(_require_hermitian(matrix))
    return _phase_fixed_sorted(values, vectors)
