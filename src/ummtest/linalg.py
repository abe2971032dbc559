"""Small dense symmetric linear algebra.

Covers exactly what the detectors need: an eigendecomposition for known
covariance / Fisher information matrices, square-root factors, and sample
standardization.  Sizes here are small (k up to a few dozen) and every call
happens at set-up time, so LAPACK's symmetric eigensolver through
``numpy.linalg.eigh`` serves.  Results may differ across platforms in the
last bits; the only determinism promised is across worker counts.
"""

import numpy as np

from .errors import DomainError, SingularityError

__all__ = ["sym_eig", "sqrt_factor", "sym_sqrt", "standardize", "spd_solve"]


def _as_sym(m):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("expected a square matrix, got shape %s" % (m.shape,))
    scale = max(float(np.linalg.norm(m)), 1.0)
    if float(np.max(np.abs(m - m.T))) > 1e-12 * scale:
        raise DomainError("matrix is not symmetric within 1e-12")
    return 0.5 * (m + m.T)


def sym_eig(m):
    """Eigendecomposition m = A diag(w) A^t of a symmetric matrix.

    Returns (w, A) with eigenvalues in descending order and orthonormal
    columns, from ``numpy.linalg.eigh``.
    """
    w, v = np.linalg.eigh(_as_sym(m))
    return w[::-1].copy(), v[:, ::-1].copy()


def _spd_eig(m, who):
    w, a = sym_eig(m)
    if w[0] <= 0.0 or w[-1] <= 1e-12 * w[0]:
        raise SingularityError(
            "%s: matrix not positive definite (smallest eigenvalue %.6g)" % (who, w[-1]))
    return w, a


def sqrt_factor(m):
    """Square-root factor S = A diag(sqrt(w)) with S S^t = m.

    The factor is basis-dependent (generally non-symmetric); everything
    downstream uses only S S^t, so any valid diagonalization is fine.
    """
    w, a = _spd_eig(m, "sqrt_factor")
    return a * np.sqrt(w)


def sym_sqrt(m):
    """Symmetric square root A diag(sqrt(w)) A^t; both S S^t = m and S^t S = m."""
    w, a = _spd_eig(m, "sym_sqrt")
    return (a * np.sqrt(w)) @ a.T


def standardize(samples, mean, cov):
    """Map samples y to v solving sqrt_factor(cov) v = y - mean.

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
    """Solve m x = b for symmetric positive definite m (via sym_eig)."""
    w, a = _spd_eig(m, "spd_solve")
    b = np.asarray(b, dtype=float)
    return a @ ((a.T @ b).T / w).T
