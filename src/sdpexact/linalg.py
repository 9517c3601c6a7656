"""Dense symmetric linear algebra with explicit tolerances.

Everything in here operates on small (dim <= ~50) dense symmetric matrices.
Eigendecompositions go to LAPACK through ``np.linalg.eigh``, after ``sym``
has validated the input; every classification below thresholds the
resulting spectrum relative to its largest magnitude.
"""

from __future__ import annotations

import numpy as np

# Relative tolerances.  Solver accuracy is ~1e-7, so classification
# thresholds must not be tighter than that.
SYM_TOL = 1e-12
RANK_TOL = 1e-7


def sym(entries) -> np.ndarray:
    """Symmetrize and validate a dense square matrix.

    Raises ValueError if the input is not square, or if the skew part exceeds
    10 SYM_TOL relative to the Frobenius norm, with no floor, so the check is
    the same at every scale (a genuinely asymmetric input is a caller bug,
    not something to silently average away).  An exactly symmetric input
    comes back as a copy.
    """
    a = np.asarray(entries, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("dim must be >= 1")
    if (a == a.T).all():
        return a.copy()
    if np.linalg.norm(a - a.T, "fro") > SYM_TOL * 10 * np.linalg.norm(a, "fro"):
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (a + a.T)


def eig_sym(S):
    """Full eigendecomposition of a symmetric matrix (ValueError if it is not
    one): ascending ``eigenvalues``, orthonormal columns ``eigenvectors``."""
    return np.linalg.eigh(sym(S))


def kernel_basis(S) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical kernel of S: eigenvectors
    with |lambda| <= RANK_TOL * ||S||_2.  Returns a (dim, k) array; k may be
    zero, and the kernel of an exact zero matrix is the whole space.
    """
    spec = eig_sym(S)
    return spec.eigenvectors[:, np.abs(spec.eigenvalues) <= rank_cut(spec.eigenvalues)]


def rank_cut(w) -> float:
    """The rank cut for the spectrum w: RANK_TOL * max |w|, relative at every
    scale, so an exact zero matrix has rank 0."""
    return RANK_TOL * float(np.max(np.abs(w)))


def form_values(F, xs):
    """z^T F z on coordinate arrays xs that broadcast together: an open mesh
    (np.ix_), the rows of a (dim, N) array of point columns, or one point.

    With len(xs) = dim, z = xs (a homogeneous form); with len(xs) = dim - 1,
    z = (xs, 1), so F = [[A, b], [b^T, c]] gives x^T A x + 2 b^T x + c.  The
    sum is c + sum_i (A_ii x_i + 2 b_i) x_i + sum_{i<j} 2 A_ij x_i x_j, zero
    cross terms skipped, so a diagonal form costs O(dim) array operations.
    """
    d = len(xs)
    if F.shape[0] not in (d, d + 1):
        raise ValueError(f"{d} coordinates for a form of order {F.shape[0]}")
    v = F[d, d] if F.shape[0] > d else 0.0
    for i, xi in enumerate(xs):
        lin = 2.0 * F[i, d] if F.shape[0] > d else 0.0
        v = v + (F[i, i] * xi + lin) * xi
        for j in range(i + 1, d):
            if F[i, j]:
                v = v + (2.0 * F[i, j] * xi) * xs[j]
    return v


def binary_quadratic_resultant(q1, q2) -> float:
    """Resultant of two binary quadratic forms.

    q1 = (a, b, c) means a*s^2 + b*s*t + c*t^2; likewise q2 = (d, e, f).
    The resultant (af - cd)^2 - (ae - bd)(bf - ce) vanishes exactly when the
    two forms share a nonzero common root over the complex numbers.
    """
    a, b, c = (float(x) for x in q1)
    d, e, f = (float(x) for x in q2)
    return (a * f - c * d) ** 2 - (a * e - b * d) * (b * f - c * e)
