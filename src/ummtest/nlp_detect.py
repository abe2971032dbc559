"""Detectors for testing the mean of a Gaussian with known covariance.

Three tests of H0: mean = mu0 against a composite alternative at
Mahalanobis distance delta.  Each is an acceptance region in standardized
coordinates z = Sigma^{-1/2}(y - mu0):

* matched filter (``LrtDetector``) -- alternative mean known exactly; the
  half-space mu1' z < T;
* energy test (``GlrtDetector``) -- direction unknown; the ball ||z||^2 < q
  at the origin, q a central chi-square quantile;
* training test (``UmmTrainDetector``) -- a noisy labeled sample x of the
  alternative is available with precision rho; the ball
  ||z + rho x||^2 < Q_{(k), ||rho x||^2}^{-1}(p_fa) centered at -rho x.
  On a ``lan_models.LanProblem`` it is the plug-in rule (``AummDetector``).

The training rule holds its false-alarm level conditionally on every
realization of x, and its tradeoff curve sits between the other two,
approaching the matched filter as rho grows.

A detector's ``region(problem, x=None)`` is its acceptance region:
``decide`` tests membership in that region, and ``mc_kernel`` builds one
kernel (the protocol in ``montecarlo``) for a whole sweep of levels and
the hypotheses asked for, from one draw per trial.  A
fixed region gives one statistic per trial, compared against every level's
threshold.  A region that moves from trial to trial (the training test with
a fresh x) gives one conditional p-value per trial, and the trial is
rejected at every level that p-value does not exceed.  The class method
``curve(problem, p_fa_grid, mc=None)`` is the rule's tradeoff curve: a
closed form for the matched filter and the energy test, an average over
training draws under ``mc`` for the training test.

The training test's two kernels serve ``NlpProblem`` and
``lan_models.LanProblem`` alike: a problem only draws (its ``_draw`` maps
uniforms to rho x and the test points), and the kernels judge.  They refuse
a block whose noncentralities or statistics overflow with DomainError.  The
closed-form curves and the fixed-region kernels read a separation and a
mean, and refuse any problem but an ``NlpProblem`` with ConfigError.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg, montecarlo, specfun
from .errors import ConfigError, DomainError
from .montecarlo import _check_grid, _estimates
from .specfun import _chisq_tail_inv_vec, _chisq_tail_vec

__all__ = [
    "NlpProblem",
    "DetectorVerdict",
    "TradeoffCurve",
    "RegionBoundary",
    "LrtDetector",
    "GlrtDetector",
    "UmmTrainDetector",
]


# ---------------------------------------------------------------------------
# shared argument checks

def _check_pfa(p_fa):
    if not (0.0 < p_fa < 1.0):
        raise DomainError(f"p_fa must lie in (0, 1), got {p_fa!r}")


def _check_delta(delta) -> float:
    delta = float(delta)
    if not delta > 0.0 or not math.isfinite(delta):
        raise DomainError(f"delta must be a positive real, got {delta!r}")
    return delta


def _check_rho(rho) -> float:
    rho = float(rho)
    if not (rho >= 0.0 and math.isfinite(rho)):
        raise DomainError(f"rho must be a finite nonnegative real, got {rho!r}")
    return rho


def _check_k(k) -> int:
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise DomainError(f"dimension k must be a positive integer, got {k!r}")
    return int(k)


def _check_nlp(cls, problem):
    """The closed-form curves and the fixed-region kernels read a location
    problem's separation and mean, which a ``lan_models.LanProblem`` lacks."""
    if not isinstance(problem, NlpProblem):
        raise ConfigError(f"{cls.__name__} needs an NlpProblem, not a {type(problem).__name__} "
                          "(a LanProblem is run by lan_models.AummDetector)")


def _check_finite(values, name):
    """Refuse a block whose noncentralities or statistics overflowed, before
    they reach the special functions, which would turn them into NaN."""
    if not np.isfinite(values).all():
        raise DomainError(f"{name} overflows: the separation or the training "
                          "precision is too large for floating point")
    return values


def _rowsq(a):
    return np.einsum("ij,ij->i", a, a)


def _errors(accepted, under_h1):
    """Error indicators from ``(levels, rows)`` acceptances: a miss under
    H1, a false alarm under H0."""
    return (accepted if under_h1 else ~accepted).astype(float)


def _region_errors(stats, thresholds, hypotheses):
    """Errors of one fixed region per level, stacked hypothesis after
    hypothesis: ``stats`` holds one row of per-trial statistics for each
    entry of ``hypotheses``, and a trial is accepted below a threshold."""
    thr = np.asarray(thresholds, dtype=float)[:, None]
    return np.concatenate([_errors(s < thr, h) for s, h in zip(stats, hypotheses)])


# ---------------------------------------------------------------------------
# problem and result types

@dataclass(eq=False)
class NlpProblem:
    """One location-testing instance.

    The alternative is either an explicit mean vector ``mu1`` or just a
    separation radius ``delta`` (direction unknown); exactly one must be
    given.  ``mu0``/``cov`` default to the origin and the identity.
    ``rho`` is the training precision: a labeled sample x ~ N(mu1, cov/rho)
    accompanies each test observation when rho > 0.
    """

    k: int
    delta: Optional[float] = None
    mu1: Optional[np.ndarray] = None
    mu0: Optional[np.ndarray] = None
    cov: Optional[np.ndarray] = None
    rho: float = 0.0

    def __post_init__(self):
        self.k = _check_k(self.k)
        if (self.delta is None) == (self.mu1 is None):
            raise ConfigError("give exactly one of delta or mu1")
        if self.delta is not None:
            self.delta = _check_delta(self.delta)
        if self.mu1 is not None:
            self.mu1 = np.asarray(self.mu1, dtype=float)
            if self.mu1.shape != (self.k,):
                raise ConfigError(f"mu1 must have shape ({self.k},), got {self.mu1.shape}")
        if self.mu0 is not None:
            self.mu0 = np.asarray(self.mu0, dtype=float)
            if self.mu0.shape != (self.k,):
                raise ConfigError(f"mu0 must have shape ({self.k},), got {self.mu0.shape}")
        if self.cov is not None:
            self.cov = np.asarray(self.cov, dtype=float)
            if self.cov.shape != (self.k, self.k):
                raise ConfigError(f"cov must have shape ({self.k}, {self.k})")
        self.rho = _check_rho(self.rho)
        if self.mu1 is not None:
            base = self.mu1 if self.mu0 is None else self.mu1 - self.mu0
            if not np.linalg.norm(base) > 0.0:
                raise DomainError("mu1 must differ from the null mean")

    def standardize(self, y):
        """Map raw observations to standardized coordinates."""
        y = np.asarray(y, dtype=float)
        if self.cov is None:
            return y - self.mu0 if self.mu0 is not None else y
        mu0 = self.mu0 if self.mu0 is not None else np.zeros(self.k)
        return linalg.standardize(y, mu0, self.cov)

    def standardized_mu1(self):
        """Alternative mean in standardized coordinates.

        With a radius-only alternative the direction is immaterial (every
        statistic below depends on the mean through its norm alone), so the
        first coordinate axis stands in.
        """
        if self.mu1 is None:
            z = np.zeros(self.k)
            z[0] = self.delta
            return z
        return self.standardize(self.mu1)

    def separation(self) -> float:
        """Mahalanobis distance between the two hypothesis means."""
        if self.delta is not None:
            return self.delta
        return float(np.linalg.norm(self.standardized_mu1()))

    @property
    def label(self) -> str:
        return f"nlp k={self.k} delta={self.separation():g} rho={self.rho:g}"

    def _uniforms(self, hypotheses) -> int:
        """Uniforms per trial of ``_draw``: k for x, k more for the test point."""
        return 2 * self.k if hypotheses else self.k

    def _draw(self, u, hypotheses):
        """rho x, x ~ N(mu1, I/rho) under both hypotheses, and the test point,
        N(0, I) under H0 and N(mu1, I) under H1, from one transform of u."""
        g = montecarlo.gaussians(u)
        mu1 = self.standardized_mu1()
        rx = self.rho * mu1 + math.sqrt(self.rho) * g[:, : self.k]
        z = g[:, self.k :]
        return rx, [z + mu1 if h else z for h in hypotheses]


@dataclass(frozen=True)
class DetectorVerdict:
    decision: str  # "accept-H0" | "reject-H0"
    statistic: float
    threshold: float

    @property
    def accepted(self) -> bool:
        return self.decision == "accept-H0"


@dataclass(eq=False)
class TradeoffCurve:
    """Error tradeoff along a false-alarm grid.

    ``p_fa`` is the nominal grid.  Analytic curves fill only ``p_md``;
    simulated curves add the missed-detection interval and, when the sweep
    measured it, the empirical false-alarm side.
    """

    p_fa: np.ndarray
    p_md: np.ndarray
    provenance: str  # "analytic" | "simulated"
    problem: str = ""
    ci_low: Optional[np.ndarray] = None
    ci_high: Optional[np.ndarray] = None
    fa_hat: Optional[np.ndarray] = None
    fa_ci_low: Optional[np.ndarray] = None
    fa_ci_high: Optional[np.ndarray] = None


@dataclass(eq=False)
class RegionBoundary:
    """Acceptance region in standardized coordinates: a ball or a half-space.

    A sphere accepts ||z - center||^2 < ``sq_radius``, the chi-square
    quantile exactly as computed (``radius`` is its square root, for
    drawing); a hyperplane accepts normal' z < ``offset``.
    """

    shape: str  # "sphere" | "hyperplane"
    center: Optional[np.ndarray] = None
    sq_radius: Optional[float] = None
    normal: Optional[np.ndarray] = None
    offset: Optional[float] = None

    @property
    def radius(self) -> Optional[float]:
        return None if self.sq_radius is None else math.sqrt(self.sq_radius)

    def verdict(self, z) -> DetectorVerdict:
        """Accept when the standardized point z lies inside the region."""
        if self.shape == "hyperplane":
            stat, thr = float(self.normal @ z), self.offset
        else:
            d = z - self.center
            stat, thr = float(d @ d), self.sq_radius
        # ties reject: a measure-zero event, pinned one way for determinism
        dec = "accept-H0" if stat < thr else "reject-H0"
        return DetectorVerdict(dec, stat, thr)


def _training_ball(zx, rho, k, p_fa) -> RegionBoundary:
    """The training test's ball for a standardized training sample zx.

    Centered at -rho zx, with squared radius the noncentral quantile at
    noncentrality ||rho zx||^2, which makes the conditional false-alarm
    probability exactly p_fa for every zx; zx = 0 gives the energy test.
    """
    th0 = rho * rho * float(zx @ zx)
    q = specfun.chisq_tail_inv(k, th0, p_fa)
    return RegionBoundary("sphere", center=-rho * zx, sq_radius=q)


# ---------------------------------------------------------------------------
# Monte Carlo kernels (see the kernel protocol in montecarlo)

class _LrtKernel:
    """The matched-filter statistic is scalar: mu1' z ~ N(0 or delta^2, delta^2)."""

    nu = 1

    def __init__(self, delta, thresholds, hypotheses):
        self.delta = delta
        self.thresholds = np.asarray(thresholds, dtype=float)
        self.hypotheses = hypotheses

    def values(self, u):
        stat = self.delta * montecarlo.gaussians(u[:, 0])
        shift = self.delta * self.delta
        stats = [stat + shift if h else stat for h in self.hypotheses]
        return _region_errors(stats, self.thresholds, self.hypotheses)


class _QuadKernel:
    """||z - center||^2 against one fixed squared radius per level; z ~ N(0, I)
    under H0 and N(mu1, I) under H1."""

    def __init__(self, k, mu1, center, thresholds, hypotheses):
        self.nu = k
        self.mu1 = mu1
        self.center = center
        self.thresholds = np.asarray(thresholds, dtype=float)
        self.hypotheses = hypotheses

    def values(self, u):
        z = montecarlo.gaussians(u)
        # each hypothesis' (z + mu1) - center in one buffer per call, not per
        # kernel: run_kernel may call values from several threads
        d = np.empty_like(z)
        stats = []
        for h in self.hypotheses:
            if h:
                np.subtract(np.add(z, self.mu1, out=d), self.center, out=d)
            else:
                np.subtract(z, self.center, out=d)
            stats.append(_rowsq(d))
        return _region_errors(stats, self.thresholds, self.hypotheses)


class _UmmTrainKernel:
    """The training test with a fresh training sample per trial.

    A trial's ball rejects at level p exactly when its conditional p-value
    Q_{(k), ||rho x||^2}(||z + rho x||^2) is at most p.  One tail call gives
    every hypothesis' p-values; each element's value does not depend on the
    others, so stacking moves no bit.
    """

    def __init__(self, problem, levels, hypotheses):
        self.nu = problem._uniforms(hypotheses)
        self.problem = problem
        self.levels = np.asarray(levels)[:, None]
        self.hypotheses = hypotheses

    def values(self, u):
        rx, tests = self.problem._draw(u, self.hypotheses)
        th0 = _check_finite(_rowsq(rx), "||rho x||^2")
        stats = _check_finite(np.stack([_rowsq(rx + t) for t in tests]), "||rho x + z||^2")
        pval = _chisq_tail_vec(self.problem.k, np.broadcast_to(th0, stats.shape), stats)
        return np.concatenate([_errors(p > self.levels, h) for p, h in zip(pval, self.hypotheses)])


class _UmmPmdKernel:
    """Rao-Blackwellized miss probability: the exact miss probability of the
    test point given each training draw, ``miss_given(rx, thr)`` for squared
    radii ``thr`` of shape (levels, rows); by default the Gaussian test
    point's 1 - Q_{(k), ||rx + mu1||^2}(thr)."""

    def __init__(self, problem, levels, miss_given=None):
        self.nu = problem._uniforms(())
        self.problem = problem
        self.levels = np.asarray(levels, dtype=float)[:, None]
        self.miss_given = miss_given or self._gaussian_miss

    def _gaussian_miss(self, rx, thr):
        th1 = _check_finite(_rowsq(rx + self.problem.standardized_mu1()), "||rho x + mu1||^2")
        th1 = np.broadcast_to(th1, thr.shape)
        return 1.0 - _chisq_tail_vec(self.problem.k, th1, thr)

    def values(self, u):
        rx, _ = self.problem._draw(u, ())
        # every level in one solve: trials along rows, levels down the column
        th0 = _check_finite(_rowsq(rx), "||rho x||^2")
        th0 = np.broadcast_to(th0, (self.levels.size, rx.shape[0]))
        return self.miss_given(rx, _chisq_tail_inv_vec(self.problem.k, th0, self.levels))


# ---------------------------------------------------------------------------
# detectors: one acceptance region each, decisions and kernels derived

class _RegionDetector:
    """A rule given by its acceptance region in standardized coordinates.

    Subclasses define ``region(problem, x=None)``, mapping the level to the
    region for a problem and, for the training test, a training sample x.
    """

    def __init__(self, p_fa):
        _check_pfa(p_fa)
        self.p_fa = p_fa

    def decide(self, y, problem, x=None) -> DetectorVerdict:
        """Verdict on one observation y (and training sample x, if the rule uses one)."""
        return self.region(problem, x).verdict(problem.standardize(y))

    @classmethod
    def mc_kernel(cls, detectors, problem, hypotheses):
        """One kernel counting the errors of every detector's fixed region
        under each hypothesis in ``hypotheses`` (False for H0, True for H1);
        the regions may differ in their threshold only."""
        _check_nlp(cls, problem)
        regions = [d.region(problem) for d in detectors]
        b = regions[0]
        if b.shape == "hyperplane":
            return _LrtKernel(problem.separation(), [r.offset for r in regions], hypotheses)
        if not all(np.array_equal(r.center, b.center) for r in regions):
            raise ConfigError("the balls of one sweep must share their center")
        return _QuadKernel(problem.k, problem.standardized_mu1(), b.center,
                           [r.sq_radius for r in regions], hypotheses)


class LrtDetector(_RegionDetector):
    """Matched filter at significance level p_fa: the threshold is
    delta * Q^{-1}(p_fa), delta the problem's separation."""

    def region(self, problem, x=None) -> RegionBoundary:
        t = problem.separation() * specfun.normal_tail_inv(self.p_fa)
        return RegionBoundary("hyperplane", normal=problem.standardized_mu1(), offset=t)

    def decide(self, y, problem, x=None) -> DetectorVerdict:
        # a radius-only problem has no direction to project on; its
        # simulation is direction-free, a single decision is not
        if problem.mu1 is None:
            raise ConfigError("matched filter needs an explicit alternative mean")
        return super().decide(y, problem, x)

    @classmethod
    def curve(cls, problem, p_fa_grid, mc=None) -> TradeoffCurve:
        """Matched-filter tradeoff at the problem's separation delta:
        Q^{-1}(p_fa) + Q^{-1}(p_md) = delta."""
        _check_nlp(cls, problem)
        delta = problem.separation()
        g = _check_grid(p_fa_grid)
        md = np.array([specfun.normal_tail(delta - specfun.normal_tail_inv(p)) for p in g])
        return TradeoffCurve(g, md, "analytic", f"lrt delta={delta:g}")


class GlrtDetector(_RegionDetector):
    """Energy test at significance level p_fa: the training test without training."""

    def region(self, problem, x=None) -> RegionBoundary:
        return _training_ball(np.zeros(problem.k), 0.0, problem.k, self.p_fa)

    @classmethod
    def curve(cls, problem, p_fa_grid, mc=None) -> TradeoffCurve:
        """Energy-test tradeoff; also the best guaranteed-level tradeoff without training."""
        _check_nlp(cls, problem)
        k, delta = problem.k, problem.separation()
        g = _check_grid(p_fa_grid)
        lam = delta * delta
        md = np.array([
            1.0 - specfun.chisq_tail(k, lam, specfun.chisq_tail_inv(k, 0.0, p)) for p in g
        ])
        return TradeoffCurve(g, md, "analytic", f"glrt k={k} delta={delta:g}")


class UmmTrainDetector(_RegionDetector):
    """Training test at level p_fa, optionally conditioned on a fixed x.

    With ``x`` given, simulation freezes the training sample and draws only
    test data (the conditional-significance check); otherwise each trial
    draws a fresh x ~ N(mu1, I/rho).  ``region`` and ``decide`` take the
    training sample as argument, falling back on the frozen one; with
    rho = 0 they ignore it.
    """

    def __init__(self, p_fa, x=None):
        super().__init__(p_fa)
        self.x = None if x is None else np.asarray(x, dtype=float)

    def region(self, problem, x=None) -> RegionBoundary:
        """The ball around -rho zx at level p_fa, zx the standardized x.

        It is also the likelihood-ratio sphere of a uniform prior on the
        direction of mu1: given x that direction has a von Mises-Fisher
        posterior, and the ratio at prior odds T accepts ||z + rho zx|| <
        psi with c_k(delta psi) = T c_k(delta rho ||zx||), c_k the vMF
        normalizing constant.  c_k decreases, so each level is one T; at
        unit odds psi = rho ||zx||, the distance of the center from the
        origin.
        """
        x = self.x if x is None else x
        if problem.rho == 0.0:
            zx = np.zeros(problem.k)  # no training: the energy test
        elif x is None:
            raise ConfigError("training-test region needs the training sample x")
        else:
            zx = problem.standardize(x)
        return _training_ball(zx, problem.rho, problem.k, self.p_fa)

    @classmethod
    def mc_kernel(cls, detectors, problem, hypotheses):
        if problem.rho != 0.0 and all(d.x is None for d in detectors):
            return _UmmTrainKernel(problem, [d.p_fa for d in detectors], hypotheses)
        return super().mc_kernel(detectors, problem, hypotheses)

    @classmethod
    def curve(cls, problem, p_fa_grid, mc=None) -> TradeoffCurve:
        """Missed-detection probability of the training test along a grid.

        Averages 1 - Q_{(k), th1}(Q_{(k), th0}^{-1}(p_fa)), th0 = ||rho X||^2 and
        th1 = ||rho X + mu1||^2, over one set of training draws X under
        ``mc`` for every level.  rho = 0 needs no average: the exact
        energy-test curve comes back, relabeled.
        """
        _check_nlp(cls, problem)
        g = _check_grid(p_fa_grid)
        label = f"umm k={problem.k} delta={problem.separation():g} rho={problem.rho:g}"
        if problem.rho == 0.0:
            curve = GlrtDetector.curve(problem, g)
            curve.problem = label
            return curve
        md, lo, hi = _estimates(_UmmPmdKernel(problem, g), mc)
        return TradeoffCurve(g, md, "simulated", label, ci_low=lo, ci_high=hi)
