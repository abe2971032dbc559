"""Symmetric eigendecomposition (numpy eigh) / square root / standardization, cross-checked vs numpy."""

import numpy as np
import pytest

from ummtest import linalg
from ummtest.errors import DomainError, SingularityError


def _random_spd(rng, k, cond=1e3):
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    w = np.geomspace(1.0, 1.0 / cond, k)
    return (q * w) @ q.T


def test_spd_eig_matches_numpy():
    rng = np.random.default_rng(7)
    for k in (1, 2, 3, 5, 11, 24, 64):
        m = _random_spd(rng, k)
        w, a = linalg._spd_eig(m, "test")
        assert np.all(np.diff(w) <= 0.0)
        # reconstruction and orthonormality
        assert np.max(np.abs((a * w) @ a.T - m)) < 1e-12
        assert np.max(np.abs(a.T @ a - np.eye(k))) < 1e-12
        ref = np.sort(np.linalg.eigvalsh(m))[::-1]
        assert np.max(np.abs(w - ref)) < 1e-11


def test_square_roots():
    rng = np.random.default_rng(11)
    for k in (2, 5, 17, 64):
        m = _random_spd(rng, k)
        r = linalg.sym_sqrt(m)
        assert np.max(np.abs(r - r.T)) < 1e-12
        assert np.max(np.abs(r @ r - m)) < 1e-10
        assert np.max(np.abs(r @ r.T - m)) < 1e-10


def test_standardize_roundtrip_and_whitening():
    rng = np.random.default_rng(3)
    k = 6
    cov = _random_spd(rng, k, cond=50.0)
    mean = rng.standard_normal(k)
    r = linalg.sym_sqrt(cov)
    y = rng.standard_normal((500, k)) @ r.T + mean
    v = linalg.standardize(y, mean, cov)
    # v inverts a square-root factor of cov, so inner products of standardized
    # rows are the Mahalanobis inner products of the raw ones
    d = y[:50] - mean
    assert np.max(np.abs(v[:50] @ v[:50].T - d @ linalg.spd_solve(cov, d.T))) < 1e-9
    # single-vector call matches the batched one
    v0 = linalg.standardize(y[0], mean, cov)
    assert v0.shape == (k,)
    assert np.max(np.abs(v0 - v[0])) < 1e-12
    # whitened population covariance is the identity
    z = rng.standard_normal((200_000, k)) @ r.T + mean
    emp = np.cov(linalg.standardize(z, mean, cov), rowvar=False)
    assert np.max(np.abs(emp - np.eye(k))) < 0.02


def test_spd_solve():
    rng = np.random.default_rng(5)
    m = _random_spd(rng, 9)
    b = rng.standard_normal(9)
    x = linalg.spd_solve(m, b)
    assert np.max(np.abs(m @ x - b)) < 1e-9
    bmat = rng.standard_normal((9, 4))
    xmat = linalg.spd_solve(m, bmat)
    assert np.max(np.abs(m @ xmat - bmat)) < 1e-9


def test_domain_and_singularity_errors():
    with pytest.raises(DomainError):
        linalg.sym_sqrt(np.ones((2, 3)))
    with pytest.raises(DomainError):
        linalg.sym_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(SingularityError):
        linalg.sym_sqrt(np.diag([1.0, 0.0]))
    with pytest.raises(SingularityError):
        linalg.sym_sqrt(np.diag([1.0, -2.0]))
    with pytest.raises(SingularityError):
        linalg.standardize(np.zeros(2), np.zeros(2), np.diag([1.0, 1e-15]))
    with pytest.raises(DomainError):
        linalg.standardize(np.zeros(3), np.zeros(2), np.eye(2))
