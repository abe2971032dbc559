"""Small dense symmetric linear algebra.

Covers exactly what the detectors need: the symmetric square root of a
known covariance or Fisher information matrix, sample standardization and
a positive definite solve, all from one eigendecomposition.  Sizes here
are small (k up to a few dozen) and every call happens at set-up time, so
LAPACK's symmetric eigensolver through ``numpy.linalg.eigh`` serves.
Results may differ across platforms in the last bits; the only
determinism promised is across worker counts.
"""

import numpy as np

from .errors import DomainError, SingularityError

__all__ = ["sym_sqrt", "standardize", "spd_solve"]


def _as_sym(m):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("expected a square matrix, got shape %s" % (m.shape,))
    scale = max(float(np.linalg.norm(m)), 1.0)
    if float(np.max(np.abs(m - m.T))) > 1e-12 * scale:
        raise DomainError("matrix is not symmetric within 1e-12")
    return 0.5 * (m + m.T)


def _spd_eig(m, who):
    """Eigendecomposition m = A diag(w) A^t of a symmetric positive definite
    matrix: (w, A) with eigenvalues in descending order and orthonormal
    columns, from ``numpy.linalg.eigh``.  Raises SingularityError naming
    ``who`` unless every eigenvalue exceeds 1e-12 of the largest."""
    w, a = np.linalg.eigh(_as_sym(m))
    w, a = w[::-1].copy(), a[:, ::-1].copy()
    if w[0] <= 0.0 or w[-1] <= 1e-12 * w[0]:
        raise SingularityError(
            "%s: matrix not positive definite (smallest eigenvalue %.6g)" % (who, w[-1]))
    return w, a


def sym_sqrt(m):
    """Symmetric square root A diag(sqrt(w)) A^t; both S S^t = m and S^t S = m."""
    w, a = _spd_eig(m, "sym_sqrt")
    return (a * np.sqrt(w)) @ a.T


def standardize(samples, mean, cov):
    """Map samples y to v solving A diag(sqrt(w)) v = y - mean, where
    cov = A diag(w) A^t.

    samples may be a single vector or an (n, k) array; the output matches.
    Standardized draws from N(mean, cov) have identity covariance.
    """
    mean = np.asarray(mean, dtype=float)
    w, a = _spd_eig(cov, "standardize")
    y = np.asarray(samples, dtype=float)
    single = y.ndim == 1
    y = np.atleast_2d(y)
    if y.shape[1] != mean.shape[0] or mean.shape[0] != a.shape[0]:
        raise DomainError("standardize: dimension mismatch")
    v = (y - mean) @ (a / np.sqrt(w))
    return v[0] if single else v


def spd_solve(m, b):
    """Solve m x = b for symmetric positive definite m (via its eigendecomposition)."""
    w, a = _spd_eig(m, "spd_solve")
    b = np.asarray(b, dtype=float)
    return a @ ((a.T @ b).T / w).T
