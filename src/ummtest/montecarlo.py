"""Seeded Monte Carlo harness with reproducible parallel fan-out.

Trials are split into fixed-size blocks and every block draws from its own
counter-based stream keyed by ``(seed, block index)``.  Which thread runs a
block therefore has no effect on the numbers it produces, and the final
reduction walks blocks in index order, so an estimate is bit-for-bit
reproducible for a given ``(trials, seed)`` pair at any worker count.
With one worker the blocks run on the calling thread, and no thread pool
is built or imported.

A simulation kernel covers every level of a sweep, under every hypothesis
its caller asks for, at once.  It is any object with

    nu          number of uniform variates consumed per trial
    values(u)   map a ``(rows, nu)`` array of open-interval uniforms to a
                ``(H * G, rows)`` array of values in ``[0, 1]``: one row per
                level of the sweep, for each of its H hypotheses in turn

so each block's uniforms are drawn and transformed once, whatever the
number of levels and hypotheses, and ``run_kernel`` returns the H * G
means.  Values are laid out ``(H * G, rows)`` and block sums
``(H * G, blocks)``, and both are reduced along their last, contiguous
axis, so each level's mean is summed in the same order as if it had been
simulated alone.

A detector's ``mc_kernel(detectors, problem, hypotheses)`` builds such a
kernel; ``hypotheses`` is a tuple of flags, False for H0 and True for H1.
``roc_sweep`` asks for ``(False, True)``: both hypotheses judge the same
trials (common random numbers) from one draw and one transform per block.
``estimate_error_probs`` asks for one hypothesis and never computes the
other.  A detector's ``curve(problem, p_fa_grid, mc=None)`` runs its
kernels under ``mc``; a simulated curve called without one raises
ConfigError, and a closed-form curve does not read it.

Indicator kernels return 0/1; conditional-expectation kernels may return
fractional values, for which the Wilson interval is conservative (a
Bernoulli draw with the same mean has the largest variance).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .specfun import _normal_tail_inv_vec

__all__ = [
    "BLOCK",
    "McConfig",
    "McEstimate",
    "block_uniforms",
    "gaussians",
    "wilson_interval",
    "run_kernel",
    "estimate_error_probs",
    "roc_sweep",
]

# trials per stream block; fixed so trial t always lands in block t // BLOCK
BLOCK = 4096

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class McConfig:
    """Simulation size, seed, and fan-out width."""

    trials: int = 100_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not isinstance(self.trials, (int, np.integer)) or self.trials < 100:
            raise ConfigError(f"trials must be an integer >= 100, got {self.trials!r}")
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if not isinstance(self.workers, (int, np.integer)) or self.workers < 1:
            raise ConfigError(f"workers must be a positive integer, got {self.workers!r}")


@dataclass(frozen=True)
class McEstimate:
    """A single estimated probability with its 95% Wilson interval."""

    p_hat: float
    trials: int
    ci_low: float
    ci_high: float
    seed: int


def _open_unit(raw):
    """Map integers in [0, 2^53) to doubles strictly inside (0, 1).

    ``(raw + 0.5) * 2^-53`` rounds half-to-even once raw >= 2^52, which
    sends raw = 2^53 - 1 to exactly 1.0; only that value is clamped, to the
    largest double below 1, so every other value is unchanged.  The sum,
    the product and the clamp run in place in one output array: the same
    three roundings per value as with a temporary for each.
    """
    u = raw + 0.5
    u *= 2.0**-53
    return np.minimum(u, 1.0 - 2.0**-53, out=u)


def block_uniforms(seed, index, rows, nu):
    """Uniform variates for one block, independent of scheduling.

    Draws ``rows * nu`` values row-major from the stream keyed by
    ``(seed, index)``; a short final block consumes a prefix of the same
    stream, so trial ``t`` sees identical variates however the work is
    partitioned.  Values lie strictly inside (0, 1) for inverse-CDF use.
    """
    gen = np.random.Generator(np.random.Philox(key=[seed, index]))
    return _open_unit(gen.integers(0, 1 << 53, size=(rows, nu), dtype=np.int64))


def gaussians(u):
    """Standard normal deviates from open-interval uniforms (inverse CDF).

    Wichura's AS241 through ``specfun._normal_tail_inv_vec``: one rational
    evaluation per value, relative error measured below 1e-15 across
    (0, 1); outside it the result is nan.  That function walks u in
    cache-sized chunks and gives each value the bits it would have in a
    call alone, so a block's deviates do not depend on its shape or on the
    chunk size.  Increasing in u up to rounding (inputs a few ulps apart
    can come out up to 4 ulps out of order), so kernels that rank-couple
    through shared uniforms (quantile coupling across blocklengths or
    estimators) keep a positive pairing.
    """
    return -_normal_tail_inv_vec(np.asarray(u, dtype=float))


def wilson_interval(p_hat, trials):
    """Two-sided 95% Wilson score interval.

    Stays inside [0, 1] and keeps positive width at p_hat in {0, 1}, where
    the Wald interval collapses; always contains p_hat, to which the bounds
    are clamped (at p_hat = 0 the lower bound rounds to a tiny positive
    number otherwise, and at p_hat = 1 the upper one to 1 - 2^-53).
    """
    n = float(trials)
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / n
    center = (p_hat + z2 / (2.0 * n)) / denom
    half = _Z95 * math.sqrt(p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n)) / denom
    return min(max(center - half, 0.0), p_hat), max(min(center + half, 1.0), p_hat)


def _check_grid(grid):
    """A false-alarm grid as a float array: non-empty, 1-d, strictly
    increasing inside (0, 1); NaN fails every comparison, so it is refused."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise DomainError("p_fa grid must be a non-empty 1-d sequence")
    if not (np.all(g > 0.0) and np.all(g < 1.0) and np.all(np.diff(g) > 0.0)):
        raise DomainError("p_fa grid must be strictly increasing inside (0, 1)")
    return g


def _sorted_unique(a):
    """The distinct values of a float array, ascending, every NaN collapsed
    into one, last: ``np.unique(a)``'s values without the import of
    ``numpy.ma`` that its first plain call makes.  Like ``np.unique``, it
    keeps one of 0.0 and -0.0, which compare equal, and promises neither."""
    g = np.sort(np.asarray(a, dtype=float).ravel())
    keep = np.ones(g.size, dtype=bool)
    # NaNs sort last, so a NaN before an element marks a repeat NaN
    keep[1:] = (g[1:] != g[:-1]) & ~np.isnan(g[:-1])
    return g[keep]


def _block_sums(kernel, seed, index, rows):
    u = block_uniforms(seed, index, rows, kernel.nu)
    vals = np.ascontiguousarray(kernel.values(u), dtype=float)
    if vals.ndim != 2 or vals.shape[1] != rows:
        raise ConfigError(f"kernel returned shape {vals.shape}, expected (levels, {rows})")
    return np.sum(vals, axis=1)


def run_kernel(kernel, config: McConfig) -> np.ndarray:
    """Mean kernel value over ``config.trials`` trials, one per level.

    Per-block sums are reduced in block order, making the result identical
    for any ``config.workers``.  One worker, or a single block, runs every
    block on the calling thread, with no pool and without importing
    ``concurrent.futures``; more workers share the blocks in a thread pool.
    """
    n = config.trials
    rows = [min(BLOCK, n - i * BLOCK) for i in range(-(-n // BLOCK))]
    block = lambda i: _block_sums(kernel, config.seed, i, rows[i])
    if config.workers == 1 or len(rows) == 1:
        sums = [block(i) for i in range(len(rows))]
    else:
        from concurrent.futures import ThreadPoolExecutor  # loaded by pooled runs alone

        with ThreadPoolExecutor(config.workers) as pool:
            sums = list(pool.map(block, range(len(rows))))
    if len({s.shape for s in sums}) != 1:
        raise ConfigError("kernel returned a different number of levels per block")
    return np.sum(np.stack(sums, axis=1), axis=1) / n


def _estimates(kernel, config: McConfig):
    """Per-level means of ``kernel`` and their Wilson bounds: (p_hat, ci_low, ci_high).
    A config of None (a simulated curve asked for without one) raises ConfigError."""
    if config is None:
        raise ConfigError("a simulated curve needs an McConfig")
    p = run_kernel(kernel, config)
    lo, hi = np.array([wilson_interval(v, config.trials) for v in p.tolist()]).T
    return p, lo, hi


def _kernel(detectors, problem, hypotheses):
    make = getattr(detectors[0], "mc_kernel", None)
    if make is None:
        raise ConfigError(f"{type(detectors[0]).__name__} does not provide a simulation kernel")
    return make(detectors, problem, hypotheses)


def estimate_error_probs(detector, problem, hypothesis, config: McConfig) -> McEstimate:
    """Empirical error probability of ``detector`` under one hypothesis.

    ``hypothesis`` "H0" estimates the false-alarm probability (reject when
    the null generated the data), "H1" the missed-detection probability.
    This is the one-level, one-hypothesis case of ``roc_sweep``: the
    detector supplies the simulation kernel via
    ``detector.mc_kernel([detector], problem, (hypothesis == "H1",))``;
    kernels that cannot be built for the given problem raise ConfigError.
    """
    if hypothesis not in ("H0", "H1"):
        raise ConfigError(f"hypothesis must be 'H0' or 'H1', got {hypothesis!r}")
    est = _estimates(_kernel([detector], problem, (hypothesis == "H1",)), config)
    p, lo, hi = (float(a[0]) for a in est)
    return McEstimate(p_hat=p, trials=config.trials, ci_low=lo, ci_high=hi, seed=config.seed)


def roc_sweep(detector_family, problem, p_fa_grid, config: McConfig):
    """Simulated tradeoff curve for ``detector_family`` over a grid.

    ``detector_family(p_fa)`` must build the detector operated at nominal
    false-alarm level ``p_fa``.  The first detector's ``mc_kernel`` builds
    one kernel for the whole grid and both hypotheses, so the levels are set
    up once and every trial is drawn and transformed once, then judged
    under H0 and H1 at every level (common random numbers): sweeps of a
    nested acceptance-region family come out monotone in the threshold.

    Returns a curve with provenance "simulated": ``p_fa`` holds the nominal
    grid, ``p_md``/``ci_*`` the missed-detection estimates, and the
    ``fa_hat``/``fa_ci_*`` fields the measured false-alarm side.
    """
    # deferred import: the detector module builds on this one
    from .nlp_detect import TradeoffCurve

    grid = _check_grid(p_fa_grid)
    dets = [detector_family(float(p)) for p in grid]
    est = _estimates(_kernel(dets, problem, (False, True)), config)
    if est[0].size != 2 * grid.size:
        raise ConfigError(f"kernel returned {est[0].size} levels, expected {2 * grid.size}")
    (fa, fa_lo, fa_hi), (md, md_lo, md_hi) = zip(*(np.split(a, 2) for a in est))
    label = getattr(problem, "label", str(problem))
    return TradeoffCurve(grid, md, "simulated", label, md_lo, md_hi, fa, fa_lo, fa_hi)
