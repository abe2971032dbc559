"""Locally asymptotically normal models and the plug-in detector.

A smooth model with an efficient estimator behaves, near the null, like the
Gaussian location problem: mapping estimates through the local coordinate

    mu_hat = sqrt(n) J^{1/2} (theta_hat - theta0)

makes the training test of ``nlp_detect`` the plug-in rule

    accept H0  iff  ||rho mu_hat_x + mu_hat_y||^2 < Q_{(k), eta0}^{-1}(p_fa)

whose error probabilities converge to the Gaussian ones as the blocklength
grows.  This module provides the model interface, three concrete families
(i.i.d. Gaussian location, i.i.d. finite alphabet, stable AR(K)), Fisher
information builders, the local reparametrization, the problem type with
its plug-in detector, and the exact lattice sections of the three-symbol
miss probability.

Every family here has the rate sqrt(n), so the training quality is
rho = n_x / n.  The map is the model's ``local(theta_hat, n)``, on the root
J^{1/2} that each model computes once, at construction; ``local_coord``,
``local_alternative`` and ``LanProblem`` go through it.  ``AummDetector``
is ``UmmTrainDetector`` run on a ``LanProblem``, which only draws: the
training test's own kernels in ``nlp_detect`` judge its draws.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg, montecarlo, specfun
from .errors import ConfigError, DomainError, StabilityError
from .montecarlo import McConfig, _check_grid, _estimates
from .nlp_detect import TradeoffCurve, UmmTrainDetector, _rowsq, _UmmPmdKernel, _UmmTrainKernel

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


def _binom_cdf_rows(counts, q, lf):
    """CDFs of Bin(m, q) for every m in ``counts``, one row each.

    Each row is the cumulative sum ``_binom_cdf_row`` forms, bit for bit,
    for q inside (0, 1).  The rows stop at ``_binom_top`` of the largest
    count: every term past it is below half an ulp of its running sum,
    which is near 1, so the cut changes no CDF value, and a row's CDF is 1
    from the cut on.  lf must cover log-factorials up to the largest count.

    The log-pmf is the expression of ``_binom_log_pmf`` in its order, with
    the terms of the column alone (lf[c], c log q) formed once per column,
    and exp, cumsum and the division run in place.  Only when some count is
    below the cut are the columns past it masked: m - c is clamped at 0 and
    their terms zeroed after exp.
    """
    mm = np.asarray(counts, dtype=np.int64)[:, None]
    top = _binom_top(int(mm.max()), q)
    c = np.arange(top + 1)
    rest = mm - c
    short = int(mm.min()) < top
    if short:
        past = rest < 0
        np.maximum(rest, 0, out=rest)
    cdf = lf[mm] - lf[c]
    cdf -= lf[rest]
    cdf += c * math.log(q)
    cdf += rest * math.log1p(-q)
    np.exp(cdf, out=cdf)
    if short:
        cdf[past] = 0.0
    np.cumsum(cdf, axis=1, out=cdf)
    cdf /= cdf[:, -1:]
    return cdf


def _binom_quantile(u, m, q, lf):
    """Smallest c with CDF(c) >= u, for per-element trial counts m (u and m
    1-D, of one length).

    The CDF rows of the distinct counts, found by one ``np.bincount`` over
    their range, form one 2-D array (``_binom_cdf_rows``).  Only the row of
    the middle count is searched; each element starts from that column
    shifted by (m - m_mid) q, its count's mean offset, and walks its own
    row to the smallest column with CDF >= u: up while the column is below
    u, then down while the column before is not, never past either end of
    the row.  A u above every column reads the last column.  The walk only
    compares u with CDF entries, so it returns what a search of each row
    returns.
    """
    u = np.asarray(u, dtype=float)
    m = np.asarray(m, dtype=np.int64)
    if m.size == 0 or q <= 0.0:
        return np.zeros(u.shape, dtype=np.int64)
    if q >= 1.0:
        return np.where(u > 0.0, m, 0)
    least = int(m.min())
    present = np.bincount(m - least) > 0
    counts = np.flatnonzero(present) + least
    cdf = _binom_cdf_rows(counts, q, lf)
    width = cdf.shape[1]
    mid = counts.size // 2
    at = np.searchsorted(cdf[mid], u, side="left")
    at += np.rint((m - counts[mid]) * q).astype(np.int64)
    np.clip(at, 0, width - 1, out=at)
    # flat positions: the first and last column of each element's row
    begin = (np.cumsum(present) - 1)[m - least] * width
    end = begin + (width - 1)
    at += begin
    flat = cdf.ravel()
    walk = np.flatnonzero((at < end) & (flat[at] < u))
    while walk.size:
        at[walk] += 1
        walk = walk[(at[walk] < end[walk]) & (flat[at[walk]] < u[walk])]
    walk = np.flatnonzero((at > begin) & (flat[at - 1] >= u))
    while walk.size:
        at[walk] -= 1
        walk = walk[(at[walk] > begin[walk]) & (flat[at[walk] - 1] >= u[walk])]
    at -= begin
    return at


# ---------------------------------------------------------------------------
# model interface and the three concrete families

class LanModel:
    """Behavioral interface: sampling, estimation, information, local map.

    Concrete models expose

        k                       parameter dimension
        theta0                  the null parameter (1-d, length k)
        root                    J^{1/2} at theta0; each __init__ ends
                                with ``_set_root()``
        sample(theta, n, rng)   one data block from an explicit generator
        estimate(data)          efficient estimator theta_hat
        fisher_info()           information matrix at theta0
        uniforms_per_block(n)   uniform variates one kernel trial consumes
        draw_estimates(theta, n, u)
                                batched theta_hat draws from kernel uniforms

    ``draw_estimates`` is the Monte Carlo path: it must reproduce the exact
    finite-n law of the estimator from ``(rows, uniforms_per_block(n))``
    open-interval uniforms, deterministically.  Every family has the rate
    sqrt(n).
    """

    k: int
    theta0: np.ndarray
    root: np.ndarray

    def _set_root(self):
        # once per model, at construction, so that no kernel computes it on
        # a pool thread
        self.root = linalg.sym_sqrt(self.fisher_info())

    def local(self, theta_hat, n):
        """Local coordinate sqrt(n) J^{1/2} (theta_hat - theta0) of one
        estimate, or of each row of a batch."""
        return (theta_hat - self.theta0) @ (math.sqrt(n) * self.root).T

    def sample(self, theta, n, rng):
        raise NotImplementedError

    def estimate(self, data):
        raise NotImplementedError

    def fisher_info(self):
        raise NotImplementedError

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

    theta0 = 0 and J = I, so the local coordinate of the sample mean
    is sqrt(n) ybar and the plug-in rule reproduces the exact
    Gaussian training test.  The mean's law is N(theta, I/n) at every n, so
    the kernel path draws the estimator directly (k uniforms per trial).
    """

    def __init__(self, k):
        if not isinstance(k, (int, np.integer)) or k < 1:
            raise DomainError(f"k must be a positive integer, got {k!r}")
        self.k = int(k)
        self.theta0 = np.zeros(self.k)
        self._set_root()

    def sample(self, theta, n, rng):
        th = self._check_theta(theta)
        return th + rng.standard_normal((int(n), self.k))

    def estimate(self, data):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[1] != self.k:
            raise ConfigError(f"data must be (n, {self.k}), got {data.shape}")
        return data.mean(axis=0)

    def fisher_info(self):
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
        self._set_root()

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

    def fisher_info(self):
        return discrete_fisher(self.p_null)

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
        self._set_root()

    def fisher_info(self):
        return ar_fisher(self.theta0, self.sigma)

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


def _check_blocklength(n):
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"blocklength must be a positive integer, got {n!r}")
    return n


def local_coord(theta, model: LanModel, n: int) -> LocalCoord:
    """mu = sqrt(n) J^{1/2} (theta - theta0) and its norm.

    The symmetric information root makes ||mu||^2 = n (theta - theta0)' J
    (theta - theta0) hold to roundoff, which is what the Pearson identity
    checks on the discrete family.
    """
    mu = model.local(np.asarray(theta, dtype=float), _check_blocklength(n))
    return LocalCoord(mu=mu, hardness=float(np.linalg.norm(mu)))


def local_alternative(mu, model: LanModel, n: int) -> np.ndarray:
    """Parameter whose local coordinate at blocklength n is ``mu``.

    Inverse of ``local_coord`` on the same root: theta = theta0 + J^{-1/2}
    mu / sqrt(n).
    """
    w = linalg.spd_solve(model.root, np.asarray(mu, dtype=float))
    return model.theta0 + w / math.sqrt(_check_blocklength(n))


# ---------------------------------------------------------------------------
# training setup and the plug-in decision rule

@dataclass(frozen=True)
class TrainingSetup:
    """Blocklengths for one test: n observations, n_x training samples.

    ``rho`` may be given explicitly; left as None it is n_x / n.  Without
    training (n_x = 0) it can only be 0.
    """

    n: int
    n_x: int = 0
    rho: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ConfigError(f"n must be a positive integer, got {self.n!r}")
        if not isinstance(self.n_x, (int, np.integer)) or self.n_x < 0:
            raise ConfigError(f"n_x must be a nonnegative integer, got {self.n_x!r}")
        if self.rho is not None and not (math.isfinite(self.rho) and self.rho >= 0.0):
            raise ConfigError(f"rho must be a finite nonnegative real, got {self.rho!r}")
        if self.n_x == 0 and self.rho:
            raise ConfigError(f"rho = {self.rho!r} needs training samples (n_x > 0)")


def training_rho(setup: TrainingSetup) -> float:
    """Training quality: ``setup.rho`` if given, else n_x / n."""
    if setup.rho is not None:
        return float(setup.rho)
    return setup.n_x / setup.n


@dataclass(eq=False)
class LanProblem:
    """A model with its alternative parameter and blocklengths, for simulation.

    In local coordinates it is the location problem of ``nlp_detect``: its
    ``k``, ``rho`` and ``standardize`` are what ``UmmTrainDetector`` reads.
    """

    model: LanModel
    theta1: np.ndarray
    setup: TrainingSetup

    def __post_init__(self):
        self.theta1 = self.model._check_theta(self.theta1)

    @property
    def k(self) -> int:
        return self.model.k

    @property
    def rho(self) -> float:
        return training_rho(self.setup)

    def standardize(self, data):
        """Local coordinate sqrt(n) J^{1/2} (theta_hat - theta0) of a data block.

        Training and test blocks are both mapped at the *test* blocklength
        n, so in the plug-in rule the training block enters scaled by rho.
        """
        return self.model.local(self.model.estimate(data), self.setup.n)

    def _uniforms(self, hypotheses) -> int:
        """Uniforms per trial of ``_draw``: the training block's, if any, then
        the test block's."""
        setup, per_block = self.setup, self.model.uniforms_per_block
        nu_x = per_block(setup.n_x) if setup.n_x > 0 else 0
        return nu_x + (per_block(setup.n) if hypotheses else 0)

    def _draw(self, u, hypotheses):
        """rho x, x drawn at theta1 under both hypotheses, and the test point,
        drawn at theta0 under H0 and theta1 under H1, in local coordinates."""
        model, n = self.model, self.setup.n
        nu_x = self._uniforms(())
        rx = np.zeros((u.shape[0], model.k))
        if nu_x > 0:
            thx = model.draw_estimates(self.theta1, self.setup.n_x, u[:, :nu_x])
            rx = self.rho * model.local(thx, n)
        thy = [model.draw_estimates(self.theta1 if h else model.theta0, n, u[:, nu_x:])
               for h in hypotheses]
        return rx, [model.local(th, n) for th in thy]

    @property
    def label(self) -> str:
        model = self.model
        d = local_coord(self.theta1, model, self.setup.n).hardness
        return (
            f"{type(model).__name__} k={model.k} d={d:g} "
            f"n={self.setup.n} nx={self.setup.n_x}"
        )


class AummDetector(UmmTrainDetector):
    """Plug-in detector at level p_fa: the training test on a LanProblem.

    Its region is the training test's ball in local coordinates, so on
    identical standardized inputs the two rules agree bit for bit; with
    rho = 0 it ignores the training block and is the energy test.  The
    training block is always the one passed to ``region``/``decide``.
    """

    def __init__(self, p_fa):
        # no frozen x: ``mc_kernel`` draws a fresh training block every trial
        super().__init__(p_fa)

    @classmethod
    def mc_kernel(cls, detectors, problem: LanProblem, hypotheses):
        return _UmmTrainKernel(problem, [d.p_fa for d in detectors], hypotheses)


# ---------------------------------------------------------------------------
# exact lattice sections for the three-symbol miss probability

class _DiscreteDiskKernel:
    """Exact test-block miss probability of a three-symbol LanProblem: level
    by level, the ``miss_given`` of the training test's ``_UmmPmdKernel``.

    For m = 3 the count lattice is two-dimensional: enumerating the first
    test count c1 cuts the acceptance disk in an interval of c2 values,
    whose probability is a difference of binomial CDFs.
    """

    def __init__(self, problem: LanProblem):
        model = problem.model
        if model.k != 2:
            raise ConfigError(
                "exact disk sections are implemented for three-symbol alphabets"
            )
        self.n = n = problem.setup.n
        # test-lattice geometry, shared by every trial
        p = model._full(problem.theta1)
        lf = _log_factorials(n)
        w1 = np.exp(_binom_log_pmf(n, p[0], lf))
        keep = w1 > 1e-18
        self.c1 = np.arange(n + 1)[keep]
        self.w1 = w1[keep]
        # CDF of c2 ~ Bin(n - c1, q) for each kept c1 on columns 0..n, led
        # by a zero; a section reads its row up to column n - c1 only
        q = p[1] / (p[1] + p[2])
        self.cdfs = np.ones((self.c1.size, n + 2))
        self.cdfs[:, 0] = 0.0
        if q >= 1.0:  # all mass at c2 = n - c1 (q <= 0 puts it at 0: all ones)
            self.cdfs[:, 1:] = np.arange(n + 1) >= (n - self.c1)[:, None]
        elif q > 0.0:
            rows = _binom_cdf_rows(n - self.c1, q, lf)
            self.cdfs[:, 1 : rows.shape[1] + 1] = rows
        # mu_hat_y = base + s0 c1 + s1 c2 on the test lattice
        sqrt_n = math.sqrt(n)
        self.base = -sqrt_n * (model.root @ model.theta0)
        self.s0 = model.root[:, 0] / sqrt_n
        self.s1 = model.root[:, 1] / sqrt_n
        # unit normal to s1, and the step of one count c1 along it; the root
        # is positive definite, so s0 and s1 are independent and the step is
        # not 0
        self.normal = np.array([-self.s1[1], self.s1[0]]) / math.hypot(*self.s1)
        self.step = float(self.s0 @ self.normal)

    def _miss_given(self, centers, thr):
        """P(||center + mu_hat_y||^2 < thr) exactly, per row.

        The probability depends on a row's center + base and thr alone, so
        it is summed once per distinct pair: the rows are sorted by the
        complex key of center + base, and each run of equal keys and
        thresholds keeps one row, whose sum every row of the run takes.

        With u = center + base + s0 c1, section c1 meets a row's disk
        where the discriminant 4a (thr - (u . normal)^2) of its quadratic
        in c2 is positive, that is where |(center + base) . normal + c1
        step| < sqrt(thr).  Each row's band is the kept sections from the
        least to the largest such c1, widened by one count each way so
        that rounding cannot cut off a section: every section outside it
        has no c2 in the row's disk and adds an exact zero, so a row sums
        only its band, in order of c1.  The rows are sorted by the section
        past the end of their band; with a running minimum of their first
        sections from the last row back, the rows whose band holds a
        section form one contiguous slice, found by two searches (a slice
        may also hold a row whose band starts later, which adds exact
        zeros as before).
        """
        a = float(self.s1 @ self.s1)
        rows = centers.shape[0]
        if rows == 0:
            return np.zeros(0)
        cb = centers + self.base
        thr = np.broadcast_to(thr, (rows,))
        key = cb[:, 0] + 1j * cb[:, 1]
        by_key = np.argsort(key)
        key, cb, thr = key[by_key], cb[by_key], thr[by_key]
        new = np.empty(rows, dtype=bool)
        new[1:] = (key[1:] != key[:-1]) | (thr[1:] != thr[:-1])
        # the first two rows stay even if equal, so that the one-row guard
        # below finds a neighbour whenever the call has two rows
        new[:2] = True
        run = np.cumsum(new) - 1
        cb, thr = cb[new], thr[new]
        rows = cb.shape[0]
        d = cb @ self.normal
        r = np.sqrt(np.maximum(thr, 0.0))
        e0, e1 = (-r - d) / self.step, (r - d) / self.step
        last = np.searchsorted(self.c1, np.ceil(np.maximum(e0, e1)) + 1.0, side="right")
        order = np.argsort(last, kind="stable")
        last = last[order]
        first = np.searchsorted(self.c1, np.floor(np.minimum(e0, e1)) - 1.0, side="left")
        first = np.minimum.accumulate(first[order][::-1])[::-1]
        cb, thr = cb[order], thr[order]
        sections = np.arange(first[0], last[-1])
        lows = np.searchsorted(last, sections, side="right")
        highs = np.searchsorted(first, sections, side="right")
        acc = np.zeros(rows)
        for i, lo_row, hi_row in zip(sections.tolist(), lows.tolist(), highs.tolist()):
            if lo_row >= hi_row:
                continue
            if hi_row - lo_row == 1 < rows:
                # numpy takes a one-row product through dot, not gemv, which
                # can round it otherwise; a neighbour row adds an exact zero
                lo_row, hi_row = (lo_row, hi_row + 1) if hi_row < rows else (lo_row - 1, hi_row)
            c1v = float(self.c1[i])
            m = self.n - int(c1v)
            u = cb[lo_row:hi_row] + self.s0 * c1v
            b = 2.0 * (u @ self.s1)
            c = _rowsq(u) - thr[lo_row:hi_row]
            disc = b * b - 4.0 * a * c
            has = disc > 0.0
            sq = np.sqrt(np.maximum(disc, 0.0))
            # strict inequality: integer c2 strictly between the roots
            lo = np.floor((-b - sq) / (2.0 * a)).astype(np.int64) + 1
            hi = np.ceil((-b + sq) / (2.0 * a)).astype(np.int64) - 1
            lo = np.minimum(np.maximum(lo, 0), m + 1)
            hi = np.minimum(np.maximum(hi, -1), m)
            cdf = self.cdfs[i]
            val = np.where(has & (hi >= lo), cdf[hi + 1] - cdf[lo], 0.0)
            acc[lo_row:hi_row] += self.w1[i] * val
        sums = np.empty(rows)
        sums[order] = acc
        out = np.empty(centers.shape[0])
        out[by_key] = sums[run]
        return out


def discrete_aumm_curve(
    model: DiscreteModel, theta1, setup: TrainingSetup, p_fa_grid, mc: McConfig
) -> TradeoffCurve:
    """Miss probability of the plug-in rule on a three-symbol model, along a grid.

    Conditional Monte Carlo: the test block's miss probability given each
    training draw is computed exactly on the count lattice, so the
    simulation only averages over training randomness, and one set of
    training draws serves every level.  Without training (rho = 0) nothing
    is random: the exact values come back as an "analytic" curve, without
    intervals.
    """
    g = _check_grid(p_fa_grid)
    if not isinstance(model, DiscreteModel):
        raise ConfigError("discrete_aumm_curve needs a DiscreteModel")
    problem = LanProblem(model, theta1, setup)
    label = f"discrete plug-in m={model.m} n={setup.n} nx={setup.n_x}"
    disk = _DiscreteDiskKernel(problem)
    if problem.rho == 0.0:
        thr = np.array([specfun.chisq_tail_inv(model.k, 0.0, p) for p in g.tolist()])
        v = disk._miss_given(np.zeros((g.size, model.k)), thr)
        return TradeoffCurve(g, v, "analytic", label)
    # level by level: rows of one shape cost less than a broadcast (levels, rows) block
    kern = _UmmPmdKernel(
        problem, g, lambda rx, thr: np.stack([disk._miss_given(rx, t) for t in thr]))
    md, lo, hi = _estimates(kern, mc)
    return TradeoffCurve(g, md, "simulated", label, ci_low=lo, ci_high=hi)
