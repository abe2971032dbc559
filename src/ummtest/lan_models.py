"""Locally asymptotically normal models and the plug-in detector.

A smooth model with an efficient estimator behaves, near the null, like the
Gaussian location problem: mapping estimates through

    mu_hat = J^{1/2} r_n (theta_hat - theta0)

turns the training test of ``nlp_detect`` into the plug-in rule

    accept H0  iff  ||rho mu_hat_x + mu_hat_y||^2 < Q_{(k), eta0}^{-1}(p_fa)

whose error probabilities converge to the Gaussian ones as the blocklength
grows.  This module provides the model interface, three concrete families
(i.i.d. Gaussian location, i.i.d. finite alphabet, stable AR(K)), Fisher
information builders, the local reparametrization, the decision rule, and
simulation kernels for finite-blocklength studies.

Both normings here are sqrt(n) I, so the training quality is rho = n_x / n;
a model with any other norming is accepted as long as the ratio
r_{n_x} r_n^{-1} stays a scalar matrix, and rejected otherwise.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg, montecarlo, specfun
from .errors import ConfigError, DomainError, StabilityError
from .montecarlo import McConfig, McEstimate, _check_grid, _estimates, _point
from .nlp_detect import (
    TradeoffCurve, _check_pfa, _RegionDetector, _rowsq, _training_ball, _training_errors,
)
from .specfun import _chisq_tail_inv_vec

__all__ = [
    "LanModel",
    "GaussianLocationModel",
    "DiscreteModel",
    "ArModel",
    "LocalCoord",
    "TrainingSetup",
    "LanProblem",
    "AummDetector",
    "local_coord",
    "local_alternative",
    "training_rho",
    "discrete_aumm_pmd",
    "discrete_aumm_curve",
    "pearson_stat",
    "discrete_fisher",
    "ar_autocov",
    "ar_fisher",
    "expfam_fisher",
]


# ---------------------------------------------------------------------------
# Fisher information builders

def pearson_stat(p_emp, p_null, n) -> float:
    """n * sum_i (p_emp_i - p_null_i)^2 / p_null_i over a finite alphabet."""
    pe = np.asarray(p_emp, dtype=float)
    pn = np.asarray(p_null, dtype=float)
    if pe.shape != pn.shape or pe.ndim != 1:
        raise DomainError("p_emp and p_null must be 1-d distributions on one alphabet")
    if np.any(pn <= 0.0):
        raise DomainError("null distribution must be strictly positive")
    d = pe - pn
    return float(n * np.sum(d * d / pn))


def discrete_fisher(p_null) -> np.ndarray:
    """Fisher information of the finite-alphabet family at p_null.

    The parameter is the first m - 1 cell probabilities; the matrix is
    1/p_m everywhere plus 1/p_i on the diagonal.
    """
    p = np.asarray(p_null, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise DomainError("p_null must be a distribution on at least two symbols")
    if np.any(p <= 0.0):
        raise DomainError("all null probabilities must be strictly positive")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise DomainError(f"p_null must sum to 1, got {float(p.sum())!r}")
    k = p.size - 1
    return np.diag(1.0 / p[:k]) + 1.0 / p[k]


def _check_stable(coeffs):
    th = np.asarray(coeffs, dtype=float)
    if th.ndim != 1 or th.size < 1:
        raise DomainError("AR coefficients must be a non-empty 1-d vector")
    # roots of z^K - th_1 z^{K-1} - ... - th_K; stationarity needs all inside
    # the unit circle
    roots = np.roots(np.concatenate(([1.0], -th)))
    if roots.size and np.max(np.abs(roots)) >= 1.0 - 1e-12:
        raise StabilityError(
            f"AR coefficients are not stable (root magnitude {np.max(np.abs(roots)):.6g})"
        )
    return th


def ar_autocov(coeffs, sigma, lags) -> np.ndarray:
    """Stationary autocovariance matrix of ``lags`` successive AR samples.

    Solves the Yule-Walker system for gamma_0..gamma_K, extends by the AR
    recurrence, and assembles the Toeplitz matrix.  Unstable coefficients
    raise StabilityError.
    """
    th = _check_stable(coeffs)
    sigma = float(sigma)
    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma!r}")
    if not isinstance(lags, (int, np.integer)) or lags < 1:
        raise DomainError(f"lags must be a positive integer, got {lags!r}")
    big_k = th.size
    a = np.eye(big_k + 1)
    for l in range(big_k + 1):
        for j in range(1, big_k + 1):
            a[l, abs(l - j)] -= th[j - 1]
    rhs = np.zeros(big_k + 1)
    rhs[0] = sigma * sigma
    g = np.linalg.solve(a, rhs)
    if lags > big_k + 1:
        g = np.concatenate([g, np.zeros(lags - big_k - 1)])
        for l in range(big_k + 1, lags):
            g[l] = th @ g[l - big_k : l][::-1]
    idx = np.arange(lags)
    return g[np.abs(idx[:, None] - idx[None, :])]


def ar_fisher(coeffs, sigma) -> np.ndarray:
    """Fisher information of the AR coefficient vector: autocov(K)/sigma^2."""
    th = np.asarray(coeffs, dtype=float)
    return ar_autocov(th, sigma, th.size) / (float(sigma) ** 2)


def expfam_fisher(grad_eta, cov_t) -> np.ndarray:
    """Exponential-family information: grad_eta cov_T grad_eta', symmetrized."""
    g = np.atleast_2d(np.asarray(grad_eta, dtype=float))
    c = np.atleast_2d(np.asarray(cov_t, dtype=float))
    if c.shape[0] != c.shape[1] or g.shape[1] != c.shape[0]:
        raise ConfigError(
            f"dimension mismatch: grad_eta {g.shape} against cov_T {c.shape}"
        )
    m = g @ c @ g.T
    return 0.5 * (m + m.T)


# ---------------------------------------------------------------------------
# binomial lattice tools (inverse-CDF draws; exact row sums)

def _log_factorials(n):
    # lf[c] = log c!
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))


def _binom_log_pmf(m, q, lf, c=None):
    """log P(c) for c ~ Bin(m, q), q inside (0, 1); c runs over 0..m unless
    given (then m and c broadcast, c <= m)."""
    if c is None:
        c = np.arange(m + 1)
    return lf[m] - lf[c] - lf[m - c] + c * math.log(q) + (m - c) * math.log1p(-q)


def _binom_cdf_row(m, q, lf):
    """CDF of Bin(m, q) on 0..m; lf must cover log-factorials up to m."""
    if q <= 0.0:
        return np.ones(m + 1)
    if q >= 1.0:
        row = np.zeros(m + 1)
        row[m] = 1.0
        return row
    row = np.cumsum(np.exp(_binom_log_pmf(m, q, lf)))
    # kill ~1e-14 summation drift so quantiles at u -> 1 stay on the support
    return row / row[-1]


# Bin(m, q) mass allowed above the last CDF column that _binom_quantile builds
_BINOM_CUT = 1e-20


def _binom_top(m, q):
    """Smallest c >= m q with P(Bin(m, q) >= c) <= _BINOM_CUT by the Chernoff
    bound exp(-m KL(c/m || q)), or m when no such c exists."""
    c = np.arange(max(math.ceil(m * q), 1), m + 1)
    a = c / m
    b = 1.0 - a
    kl = a * np.log(a / q) + b * np.log(np.maximum(b, 1e-300) / (1.0 - q))
    ok = np.flatnonzero(m * kl >= -math.log(_BINOM_CUT))
    return int(c[ok[0]]) if ok.size else m


def _binom_quantile(u, m, q, lf):
    """Smallest c with CDF(c) >= u, for per-element trial counts m.

    The CDF rows of all distinct counts form one 2-D array, each row the
    cumulative sum ``_binom_cdf_row`` forms, and one vectorized binary
    search inverts every element.  The rows stop at ``_binom_top`` of the
    largest count: every term past it is below half an ulp of its running
    sum, which is near 1, so the cut changes no CDF value and no count.
    """
    u = np.asarray(u, dtype=float)
    m = np.asarray(m, dtype=np.int64)
    if m.size == 0 or q <= 0.0:
        return np.zeros(u.shape, dtype=np.int64)
    if q >= 1.0:
        return np.where(u > 0.0, m, 0)
    counts, row = np.unique(m, return_inverse=True)
    top = _binom_top(int(counts[-1]), q)
    c = np.arange(top + 1)
    mm = counts[:, None]
    cdf = np.cumsum(np.where(c <= mm, np.exp(_binom_log_pmf(mm, q, lf, np.minimum(c, mm))), 0.0),
                    axis=1)
    cdf /= cdf[:, -1:]
    # first column whose CDF reaches u, which lies in [lo, hi]
    lo = np.zeros(u.shape, dtype=np.int64)
    hi = np.full(u.shape, top)
    while True:
        live = np.flatnonzero(lo < hi)
        if live.size == 0:
            return lo
        mid = (lo[live] + hi[live]) >> 1
        reached = cdf[row[live], mid] >= u[live]
        hi[live] = np.where(reached, mid, hi[live])
        lo[live] = np.where(reached, lo[live], mid + 1)


# ---------------------------------------------------------------------------
# model interface and the three concrete families

class LanModel:
    """Behavioral interface: sampling, estimation, information, norming.

    Concrete models expose

        k                       parameter dimension
        theta0                  the null parameter (1-d, length k)
        sample(theta, n, rng)   one data block from an explicit generator
        estimate(data)          efficient estimator theta_hat
        fisher_info(theta=None) information matrix (default: at theta0)
        norming(n)              the rate matrix r_n
        uniforms_per_block(n)   uniform variates one kernel trial consumes
        draw_estimates(theta, n, u)
                                batched theta_hat draws from kernel uniforms

    ``draw_estimates`` is the Monte Carlo path: it must reproduce the exact
    finite-n law of the estimator from ``(rows, uniforms_per_block(n))``
    open-interval uniforms, deterministically.
    """

    k: int
    theta0: np.ndarray

    def sample(self, theta, n, rng):
        raise NotImplementedError

    def estimate(self, data):
        raise NotImplementedError

    def fisher_info(self, theta=None):
        raise NotImplementedError

    def norming(self, n):
        """Rate matrix r_n; sqrt(n) I for every family implemented here."""
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise DomainError(f"blocklength must be a positive integer, got {n!r}")
        return math.sqrt(n) * np.eye(self.k)

    def uniforms_per_block(self, n):
        raise NotImplementedError

    def draw_estimates(self, theta, n, u):
        raise NotImplementedError

    def _check_theta(self, theta):
        th = np.asarray(theta, dtype=float)
        if th.shape != (self.k,):
            raise ConfigError(f"theta must have shape ({self.k},), got {th.shape}")
        return th


class GaussianLocationModel(LanModel):
    """I.i.d. N(theta, I_k) observations; the sample mean is efficient.

    J = I and r_n = sqrt(n) I, so the local coordinate of the sample mean
    is sqrt(n) (ybar - theta0) and the plug-in rule reproduces the exact
    Gaussian training test.  The mean's law is N(theta, I/n) at every n, so
    the kernel path draws the estimator directly (k uniforms per trial).
    """

    def __init__(self, k, theta0=None):
        if not isinstance(k, (int, np.integer)) or k < 1:
            raise DomainError(f"k must be a positive integer, got {k!r}")
        self.k = int(k)
        self.theta0 = np.zeros(self.k) if theta0 is None else self._check_theta(theta0)

    def sample(self, theta, n, rng):
        th = self._check_theta(theta)
        return th + rng.standard_normal((int(n), self.k))

    def estimate(self, data):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[1] != self.k:
            raise ConfigError(f"data must be (n, {self.k}), got {data.shape}")
        return data.mean(axis=0)

    def fisher_info(self, theta=None):
        return np.eye(self.k)

    def uniforms_per_block(self, n):
        return self.k

    def draw_estimates(self, theta, n, u):
        th = self._check_theta(theta)
        return th + montecarlo.gaussians(u) / math.sqrt(n)


class DiscreteModel(LanModel):
    """I.i.d. draws from a finite alphabet; parameter = first m - 1 cells.

    The null must be strictly positive; estimates may sit on the simplex
    boundary.  Kernel draws build the count vector by an inverse-CDF
    binomial chain, one uniform per free cell, so a trial costs m - 1
    uniforms at every blocklength and quantile-couples across blocklengths.
    """

    def __init__(self, p_null):
        p = np.asarray(p_null, dtype=float)
        discrete_fisher(p)  # validates positivity and normalization
        self.m = p.size
        self.k = p.size - 1
        self.p_null = p / p.sum()
        self.theta0 = self.p_null[: self.k].copy()

    def _full(self, theta):
        th = self._check_theta(theta)
        tail = 1.0 - float(th.sum())
        if np.any(th < 0.0) or tail < -1e-12:
            raise DomainError("theta must be a sub-distribution on the free cells")
        return np.concatenate([th, [max(tail, 0.0)]])

    def sample(self, theta, n, rng):
        p = self._full(theta)
        edges = np.cumsum(p)
        return np.searchsorted(edges, rng.random(int(n)), side="right").astype(np.int64)

    def estimate(self, data):
        data = np.asarray(data)
        if data.size and (data.min() < 0 or data.max() >= self.m):
            raise ConfigError(f"symbols must lie in 0..{self.m - 1}")
        counts = np.bincount(data, minlength=self.m)
        return counts[: self.k] / counts.sum()

    def fisher_info(self, theta=None):
        if theta is None:
            return discrete_fisher(self.p_null)
        return discrete_fisher(self._full(theta))

    def uniforms_per_block(self, n):
        return self.k

    def counts_from_uniforms(self, theta, n, u):
        """Count vectors for the first k cells, (rows, k) from (rows, k) uniforms."""
        p = self._full(theta)
        u = np.asarray(u, dtype=float)
        if u.ndim != 2 or u.shape[1] != self.k:
            raise ConfigError(f"uniform block must be (rows, {self.k}), got {u.shape}")
        lf = _log_factorials(int(n))
        rest = np.concatenate([np.cumsum(p[::-1])[::-1], [0.0]])  # rest[j] = sum p[j:]
        counts = np.empty((u.shape[0], self.k), dtype=np.int64)
        rem = np.full(u.shape[0], int(n), dtype=np.int64)
        for j in range(self.k):
            q = min(p[j] / rest[j], 1.0) if rest[j] > 0.0 else 1.0
            counts[:, j] = _binom_quantile(u[:, j], rem, q, lf)
            rem -= counts[:, j]
        return counts

    def draw_estimates(self, theta, n, u):
        return self.counts_from_uniforms(theta, n, u) / float(n)


class ArModel(LanModel):
    """Stable AR(K) with known innovation scale; theta = coefficient vector.

    Sampling starts from the stationary law of the first K samples
    (symmetric square root of the K-lag autocovariance) and runs the
    recursion; estimation is conditional least squares, efficient at theta0
    without iterative likelihood climbing.  One kernel trial costs n
    uniforms.
    """

    def __init__(self, theta0, sigma=1.0):
        th = _check_stable(theta0)
        self.k = th.size
        self.theta0 = th
        self.sigma = float(sigma)
        if not self.sigma > 0.0:
            raise DomainError(f"sigma must be positive, got {sigma!r}")

    def fisher_info(self, theta=None):
        th = self.theta0 if theta is None else self._check_theta(theta)
        return ar_fisher(th, self.sigma)

    def uniforms_per_block(self, n):
        return int(n)

    def _series_from_normals(self, theta, z):
        th = _check_stable(self._check_theta(theta))
        big_k = self.k
        n = z.shape[1]
        if n <= 2 * big_k:
            raise DomainError(f"blocklength {n} too short for AR({big_k}) estimation")
        y = np.empty_like(z)
        init_cov = ar_autocov(th, self.sigma, big_k)
        y[:, :big_k] = z[:, :big_k] @ linalg.sym_sqrt(init_cov).T
        rev = th[::-1].copy()
        for t in range(big_k, n):
            y[:, t] = z[:, t] * self.sigma + y[:, t - big_k : t] @ rev
        return y

    def sample(self, theta, n, rng):
        z = rng.standard_normal((1, int(n)))
        return self._series_from_normals(theta, z)[0]

    def _cls(self, y):
        # regress y_t on its K lags; normal equations, batched over rows
        big_k = self.k
        lags = np.stack(
            [y[:, big_k - 1 - j : y.shape[1] - 1 - j] for j in range(big_k)], axis=2
        )
        resp = y[:, big_k:]
        gram = np.einsum("rti,rtj->rij", lags, lags)
        rhs = np.einsum("rti,rt->ri", lags, resp)
        return np.linalg.solve(gram, rhs[..., None])[..., 0]

    def estimate(self, data):
        y = np.asarray(data, dtype=float)
        if y.ndim != 1 or y.size <= 2 * self.k:
            raise ConfigError(
                f"data must be one series longer than {2 * self.k}, got shape {y.shape}"
            )
        return self._cls(y[None, :])[0]

    def draw_estimates(self, theta, n, u):
        y = self._series_from_normals(theta, montecarlo.gaussians(u))
        return self._cls(y)


# ---------------------------------------------------------------------------
# local reparametrization

@dataclass(frozen=True)
class LocalCoord:
    mu: np.ndarray
    hardness: float


def local_coord(theta, theta0, model: LanModel, n: int) -> LocalCoord:
    """mu = J^{1/2} r_n (theta - theta0) and its norm.

    The symmetric information root makes ||mu||^2 = (theta - theta0)'
    (r_n' J r_n) (theta - theta0) hold to roundoff, which is what the
    Pearson identity checks on the discrete family.
    """
    th = np.asarray(theta, dtype=float)
    th0 = np.asarray(theta0, dtype=float)
    root = linalg.sym_sqrt(model.fisher_info(th0))
    mu = root @ (model.norming(n) @ (th - th0))
    return LocalCoord(mu=mu, hardness=float(np.linalg.norm(mu)))


def local_alternative(mu, theta0, model: LanModel, n: int) -> np.ndarray:
    """Parameter whose local coordinate at blocklength n is ``mu``.

    Inverse of ``local_coord``: theta = theta0 + r_n^{-1} J^{-1/2} mu.
    """
    mu = np.asarray(mu, dtype=float)
    th0 = np.asarray(theta0, dtype=float)
    root = linalg.sym_sqrt(model.fisher_info(th0))
    w = linalg.spd_solve(root, mu)
    return th0 + np.linalg.solve(model.norming(n), w)


# ---------------------------------------------------------------------------
# training setup and the plug-in decision rule

@dataclass(frozen=True)
class TrainingSetup:
    """Blocklengths for one test: n observations, n_x training samples.

    ``rho`` may be given explicitly; left as None it is resolved from the
    model's norming ratio (n_x / n for sqrt(n)-norming families).
    """

    n: int
    n_x: int = 0
    rho: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ConfigError(f"n must be a positive integer, got {self.n!r}")
        if not isinstance(self.n_x, (int, np.integer)) or self.n_x < 0:
            raise ConfigError(f"n_x must be a nonnegative integer, got {self.n_x!r}")
        if self.rho is not None and not (
            math.isfinite(self.rho) and self.rho >= 0.0
        ):
            raise ConfigError(f"rho must be a finite nonnegative real, got {self.rho!r}")


def training_rho(model: LanModel, setup: TrainingSetup) -> float:
    """Training quality: the squared scalar of r_{n_x} r_n^{-1}.

    The limit theory needs that ratio to be sqrt(rho) I; a model whose
    normings do not commute to a scalar matrix has no single training
    quality and is rejected.
    """
    if setup.rho is not None:
        return float(setup.rho)
    if setup.n_x == 0:
        return 0.0
    ratio = model.norming(setup.n_x) @ np.linalg.inv(model.norming(setup.n))
    s = float(np.trace(ratio)) / model.k
    if not np.allclose(ratio, s * np.eye(model.k), rtol=1e-9, atol=1e-12):
        raise ConfigError(
            "norming ratio r_nx r_n^{-1} is not a scalar matrix; "
            "no training quality rho exists for this setup"
        )
    return s * s


@dataclass(eq=False)
class LanProblem:
    """A model with its alternative parameter and blocklengths, for simulation."""

    model: LanModel
    theta1: np.ndarray
    setup: TrainingSetup

    def __post_init__(self):
        self.theta1 = self.model._check_theta(self.theta1)

    def standardize(self, data):
        """Local coordinate J^{1/2} r_n (theta_hat - theta0) of a data block.

        Training and test blocks are both normed by the *test* rate r_n, so
        in the plug-in rule the training block enters scaled by rho.
        """
        model = self.model
        return local_coord(model.estimate(data), model.theta0, model, self.setup.n).mu

    @property
    def label(self) -> str:
        # ||mu|| of local_coord as the quadratic form sqrt(v' J v), v = r_n
        # (theta1 - theta0): the same hardness without a matrix root
        model = self.model
        v = model.norming(self.setup.n) @ (self.theta1 - model.theta0)
        d = math.sqrt(float(v @ model.fisher_info(model.theta0) @ v))
        return (
            f"{type(model).__name__} k={model.k} d={d:g} "
            f"n={self.setup.n} nx={self.setup.n_x}"
        )


class _AummIndicatorKernel:
    """Draw training and test estimates, apply the plug-in rule at every
    level through one conditional p-value per trial, count errors."""

    def __init__(self, model, theta1, setup, levels, under_h1):
        self.model = model
        self.theta1 = theta1
        self.setup = setup
        self.levels = levels
        self.under_h1 = under_h1
        self.rho = training_rho(model, setup)
        self.root = linalg.sym_sqrt(model.fisher_info())
        self.nu_x = model.uniforms_per_block(setup.n_x) if setup.n_x > 0 else 0
        self.nu = self.nu_x + model.uniforms_per_block(setup.n)
        self.sqrt_n = math.sqrt(setup.n)

    def _local(self, theta_hat):
        return (theta_hat - self.model.theta0) @ (self.sqrt_n * self.root).T

    def values(self, u):
        mux = np.zeros((u.shape[0], self.model.k))
        if self.nu_x > 0:
            thx = self.model.draw_estimates(self.theta1, self.setup.n_x, u[:, : self.nu_x])
            mux = self.rho * self._local(thx)
        theta_test = self.theta1 if self.under_h1 else self.model.theta0
        thy = self.model.draw_estimates(theta_test, self.setup.n, u[:, self.nu_x :])
        stat = _rowsq(mux + self._local(thy))
        return _training_errors(self.model.k, _rowsq(mux), stat, self.levels, self.under_h1)


class AummDetector(_RegionDetector):
    """Plug-in detector at level p_fa; simulates against a LanProblem.

    Its region is the training test's ball in local coordinates, so on
    identical standardized inputs the two rules agree bit for bit.
    """

    def region(self, problem: LanProblem, x=None):
        """The ball for training block x; with n_x = 0 (or rho = 0) the rule
        ignores x and reduces to the energy test."""
        k = problem.model.k
        rho = training_rho(problem.model, problem.setup)
        if rho == 0.0 or problem.setup.n_x == 0:
            zx = np.zeros(k)
        elif x is None:
            raise ConfigError("plug-in region needs the training block x")
        else:
            zx = problem.standardize(x)
        return _training_ball(zx, rho, k, self.p_fa)

    @classmethod
    def mc_kernel(cls, detectors, problem: LanProblem, under_h1):
        return _AummIndicatorKernel(
            problem.model, problem.theta1, problem.setup, [d.p_fa for d in detectors], under_h1
        )


# ---------------------------------------------------------------------------
# conditional Monte Carlo for the three-symbol miss probability

class _DiscreteDiskKernel:
    """Exact test-block miss probability given each training draw.

    For m = 3 the count lattice is two-dimensional: enumerating the first
    test count c1 cuts the acceptance disk in an interval of c2 values,
    whose probability is a difference of binomial CDFs.  Averaging those
    exact sections over training draws is the same conditional pattern the
    Gaussian umm_pmd estimator uses, with matching uniform consumption
    (k = 2 per trial), so estimates pair trial-for-trial with it.  One row
    of values per level, from one set of training draws.
    """

    def __init__(self, model, theta1, n, n_x, rho, levels):
        if model.k != 2:
            raise ConfigError(
                "exact disk sections are implemented for three-symbol alphabets"
            )
        self.model = model
        self.theta1 = model._check_theta(theta1)
        self.n = int(n)
        self.n_x = int(n_x)
        self.rho = rho
        self.levels = levels
        self.nu = model.k
        self.root = linalg.sym_sqrt(model.fisher_info())
        self.sqrt_n = math.sqrt(self.n)
        # test-lattice geometry, shared by every trial
        p = model._full(self.theta1)
        lf = _log_factorials(self.n)
        w1 = np.exp(_binom_log_pmf(self.n, p[0], lf))
        keep = w1 > 1e-18
        self.c1 = np.arange(self.n + 1)[keep]
        self.w1 = w1[keep]
        # CDF of c2 ~ Bin(n - c1, q) for each kept c1, led by a zero
        q = p[1] / (p[1] + p[2])
        self.cdfs = [
            np.concatenate(([0.0], _binom_cdf_row(self.n - int(c1v), q, lf)))
            for c1v in self.c1
        ]
        self.base = -self.sqrt_n * (self.root @ model.theta0)
        self.s0 = self.root[:, 0] / self.sqrt_n
        self.s1 = self.root[:, 1] / self.sqrt_n

    def _miss_given(self, centers, thr):
        """P(||center + mu_hat_y||^2 < thr) exactly, per row."""
        a = float(self.s1 @ self.s1)
        out = np.zeros(centers.shape[0])
        for c1v, w1, cdf in zip(self.c1, self.w1, self.cdfs):
            m = self.n - int(c1v)
            u = centers + self.base + self.s0 * float(c1v)
            b = 2.0 * (u @ self.s1)
            c = _rowsq(u) - thr
            disc = b * b - 4.0 * a * c
            has = disc > 0.0
            sq = np.sqrt(np.maximum(disc, 0.0))
            # strict inequality: integer c2 strictly between the roots
            lo = np.floor((-b - sq) / (2.0 * a)).astype(np.int64) + 1
            hi = np.ceil((-b + sq) / (2.0 * a)).astype(np.int64) - 1
            lo = np.clip(lo, 0, m + 1)
            hi = np.clip(hi, -1, m)
            val = np.where(has & (hi >= lo), cdf[hi + 1] - cdf[lo], 0.0)
            out += w1 * val
        return out

    def values(self, u):
        counts = self.model.counts_from_uniforms(self.theta1, self.n_x, u)
        thx = counts / float(self.n_x)
        mux = self.rho * ((thx - self.model.theta0) @ (self.sqrt_n * self.root).T)
        shape = (len(self.levels), mux.shape[0])
        th0 = np.broadcast_to(_rowsq(mux), shape)
        thr = _chisq_tail_inv_vec(2, th0, np.asarray(self.levels, dtype=float)[:, None])
        return np.stack([self._miss_given(mux, row) for row in thr])


def discrete_aumm_curve(
    model: DiscreteModel, theta1, setup: TrainingSetup, p_fa_grid, mc: McConfig
) -> TradeoffCurve:
    """Miss probability of the plug-in rule on a three-symbol model, along a grid.

    Conditional Monte Carlo: the test block's miss probability given each
    training draw is computed exactly on the count lattice, so the
    simulation only averages over training randomness, and one set of
    training draws serves every level.  Without training (n_x = 0) nothing
    is random and the exact values come back with zero-width intervals,
    mirroring umm_pmd's rho = 0 contract.
    """
    g = _check_grid(p_fa_grid)
    if not isinstance(model, DiscreteModel):
        raise ConfigError("discrete_aumm_curve needs a DiscreteModel")
    rho = training_rho(model, setup)
    label = f"discrete plug-in m={model.m} n={setup.n} nx={setup.n_x}"
    if setup.n_x == 0 or rho == 0.0:
        kern = _DiscreteDiskKernel(model, theta1, setup.n, setup.n_x, 0.0, g)
        thr = np.array([specfun.chisq_tail_inv(model.k, 0.0, p) for p in g.tolist()])
        v = kern._miss_given(np.zeros((g.size, model.k)), thr)
        return TradeoffCurve(g, v, "simulated", label, ci_low=v, ci_high=v)
    kern = _DiscreteDiskKernel(model, theta1, setup.n, setup.n_x, rho, g)
    md, lo, hi = _estimates(kern, mc)
    return TradeoffCurve(g, md, "simulated", label, ci_low=lo, ci_high=hi)


def discrete_aumm_pmd(
    model: DiscreteModel, theta1, setup: TrainingSetup, p_fa, mc: McConfig
) -> McEstimate:
    """The one-level case of ``discrete_aumm_curve``, as an estimate."""
    _check_pfa(p_fa)
    c = discrete_aumm_curve(model, theta1, setup, [p_fa], mc)
    return _point((c.p_md, c.ci_low, c.ci_high), mc)
