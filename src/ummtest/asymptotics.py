"""High-dimension scaling of the universal detector's error tradeoff.

When the ambient dimension k grows with the problem, the whole tradeoff
curve of the training-data detector collapses to a one-parameter family:
a single effective hardness

    E = delta^2 (1 + 2 rho) / sqrt(2 k (1 + 2 rho) + 4 (1 + rho)^2 delta^2)

plays the role the separation delta plays for the matched filter, so the
limiting curve is normal_tail_inv(p_fa) + normal_tail_inv(p_md) = E.  The
two closed-form regimes (training-rich: rho >> k; dimension-rich: k of
order delta^4) and the train/test budget-split optimizer both come from
that one expression.

`hardness_param` takes whatever scalar the caller treats as the
separation: the per-observation value, or sqrt(n) * delta when a block of
n observations is folded in (see `blocklength_for_dimension`, which does
that substitution internally).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import ConfigError, DomainError
from .montecarlo import _check_grid
from .nlp_detect import TradeoffCurve, _check_delta, _check_rho

__all__ = [
    "hardness_param",
    "asymptotic_curve",
    "hardness_high_rho",
    "hardness_high_k",
    "allocation_hardness",
    "Allocation",
    "allocate",
    "blocklength_for_dimension",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _check_dim(k) -> int:
    if not float(k).is_integer() or int(k) < 1:
        raise ConfigError(f"k must be a positive integer, got {k!r}")
    return int(k)


def hardness_param(delta, rho, k) -> float:
    """Effective hardness of the training-data detector at dimension k.

    Strictly increasing in delta and rho, strictly decreasing in k; tends
    to delta itself as rho -> inf (training pins down the alternative) and
    to delta^2 sqrt(1+2 rho)/sqrt(2k) when k dominates.
    """
    delta, rho = _check_delta(delta), _check_rho(rho)
    k = _check_dim(k)
    s = 1.0 + 2.0 * rho
    d2 = delta * delta
    return d2 * s / math.sqrt(2.0 * k * s + 4.0 * (1.0 + rho) ** 2 * d2)


def asymptotic_curve(hardness, p_fa_grid) -> TradeoffCurve:
    """Limiting tradeoff curve at a given effective hardness.

    Same functional form as the matched-filter curve with `hardness` in
    place of the separation; as hardness -> 0 it degrades to the trivial
    line p_md = 1 - p_fa.
    """
    h = float(hardness)
    if not (math.isfinite(h) and h > 0.0):
        raise DomainError(f"hardness must be positive and finite, got {hardness!r}")
    g = _check_grid(p_fa_grid)
    md = np.array([specfun.normal_tail(h - specfun.normal_tail_inv(p)) for p in g])
    return TradeoffCurve(g, md, "analytic", f"limit hardness={h:g}")


def hardness_high_rho(delta, rho) -> float:
    """Training-rich approximation: delta * (1 - 1/(2 (1 + rho))).

    Leading term when rho grows with k = o(rho); the error is O(k/rho).
    """
    delta, rho = _check_delta(delta), _check_rho(rho)
    return delta * (1.0 - 0.5 / (1.0 + rho))


def hardness_high_k(delta, rho, k) -> float:
    """Dimension-rich approximation: delta^2 sqrt(1 + 2 rho) / sqrt(2 k).

    Leading term when k is of order delta^4 (1 + rho); the relative error
    shrinks like sqrt((1 + rho)/k) along that scaling.
    """
    delta, rho = _check_delta(delta), _check_rho(rho)
    k = _check_dim(k)
    return delta * delta * math.sqrt(1.0 + 2.0 * rho) / math.sqrt(2.0 * k)


# ---------------------------------------------------------------------------
# train/test allocation

def allocation_hardness(a, k, rho):
    """Hardness under a fixed information budget a split as rho : 1.

    With n_x + n = n_total observations and a = n_total * delta^2 held
    fixed, writing rho = n_x / n turns `hardness_param` into

        a (1 + 2 rho) / ((1 + rho) sqrt(2 k (1 + 2 rho) + 4 (1 + rho) a)).

    Vectorized over rho.
    """
    a = float(a)
    if not (math.isfinite(a) and a > 0.0):
        raise DomainError(f"budget a must be positive and finite, got {a!r}")
    k = _check_dim(k)
    r = np.asarray(rho, dtype=float)
    if np.any(~np.isfinite(r)) or np.any(r < 0.0):
        raise DomainError("rho values must be nonnegative and finite")
    s = 1.0 + 2.0 * r
    val = a * s / ((1.0 + r) * np.sqrt(2.0 * k * s + 4.0 * (1.0 + r) * a))
    return val if val.ndim else float(val)


@dataclass(eq=False)
class Allocation:
    """Budget-split search result: the chosen rho plus the curve it came from."""

    rho_star: float
    rho: np.ndarray        # grid, ascending
    hardness: np.ndarray   # allocation_hardness on the grid
    peak: float            # best value seen (grid + refinement)


def _golden_max(f, lo: float, hi: float, iters: int = 90):
    # unimodal maximizer on [lo, hi]; 90 contractions is overkill but cheap
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
    x = 0.5 * (lo + hi)
    return x, f(x)


def allocate(a, k, rho_grid=None, tie_tol: float = 1e-2) -> Allocation:
    """Pick the training fraction rho maximizing `allocation_hardness`.

    Grid scan plus golden-section refinement around the grid peak.  The
    surface is extremely flat near its maximum for large k, so exact
    argmax would report a tiny interior bump that buys nothing; instead
    the smallest rho whose hardness is within `tie_tol` (relative) of the
    peak is returned.  Pass tie_tol=0 for the raw maximizer.
    """
    if rho_grid is None:
        rho_grid = np.concatenate([[0.0], np.logspace(-3.0, 3.0, 121)])
    grid = np.asarray(rho_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ConfigError("rho_grid must be a nonempty 1-d array")
    if float(tie_tol) < 0.0:
        raise ConfigError(f"tie_tol must be nonnegative, got {tie_tol!r}")
    grid = np.unique(grid)  # sorts ascending
    vals = allocation_hardness(a, k, grid)
    vals = np.atleast_1d(vals)

    i = int(np.argmax(vals))
    cand_rho = [float(grid[i])]
    cand_val = [float(vals[i])]
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, grid.size - 1)])
    if hi > lo:
        x, fx = _golden_max(lambda r: float(allocation_hardness(a, k, r)), lo, hi)
        cand_rho.append(x)
        cand_val.append(fx)

    peak = max(cand_val)
    floor = peak * (1.0 - float(tie_tol))
    # smallest rho (grid first, then the refined point) not meaningfully
    # below the peak; grid is ascending so the first hit is the smallest
    best_rho = None
    for r, v in sorted(zip(np.concatenate([grid, [cand_rho[-1]]]),
                           np.concatenate([vals, [cand_val[-1]]]))):
        if v >= floor:
            best_rho = float(r)
            break
    return Allocation(best_rho, grid, vals, peak)


def blocklength_for_dimension(k, rho, delta, target_hardness) -> int:
    """Smallest block length n with hardness_param(sqrt(n)*delta, rho, k) >= target.

    The block folds n observations into one separation sqrt(n)*delta, so
    hardness grows without bound in n and the answer always exists; it
    scales like sqrt(k) at fixed (rho, delta, target) once k dominates.
    """
    delta, rho = _check_delta(delta), _check_rho(rho)
    k = _check_dim(k)
    t = float(target_hardness)
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"target hardness must be positive, got {target_hardness!r}")

    def reaches(n: int) -> bool:
        return hardness_param(math.sqrt(float(n)) * delta, rho, k) >= t

    hi = 1
    while not reaches(hi):
        hi *= 2
        if hi > 2 ** 62:  # unreachable in practice; guards a bad float loop
            raise DomainError("block length search overflow")
    if hi == 1:
        return 1
    lo = hi // 2  # reaches(lo) is False
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return hi
