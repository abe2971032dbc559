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

from .errors import ConfigError, DomainError, nonnegative_real, positive_real
from .montecarlo import _sorted_unique
from .nlp_detect import LrtDetector, NlpProblem, TradeoffCurve

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
    delta, rho = positive_real(delta, "delta"), nonnegative_real(rho, "rho")
    k = _check_dim(k)
    # with v = s / (1 + rho) in [1, 2), the root over 2 (1 + rho) is hypot(c,
    # delta): no step overflows, and only a hardness below the floats underflows
    v = 2.0 - 1.0 / (1.0 + rho)
    c = math.sqrt(0.5 * k) * math.sqrt(v / (1.0 + rho))
    return 0.5 * delta * v * (delta / math.hypot(c, delta))


def asymptotic_curve(hardness, p_fa_grid) -> TradeoffCurve:
    """Limiting tradeoff curve at a given effective hardness.

    Same functional form as the matched-filter curve with `hardness` in
    place of the separation; as hardness -> 0 it degrades to the trivial
    line p_md = 1 - p_fa.
    """
    h = positive_real(hardness, "hardness")
    curve = LrtDetector.curve(NlpProblem(1, delta=h), p_fa_grid)
    curve.problem = f"limit hardness={h:g}"
    return curve


def hardness_high_rho(delta, rho) -> float:
    """Training-rich approximation: delta * (1 - 1/(2 (1 + rho))).

    Leading term when rho grows with k = o(rho); the error is O(k/rho).
    """
    delta, rho = positive_real(delta, "delta"), nonnegative_real(rho, "rho")
    return delta * (1.0 - 0.5 / (1.0 + rho))


def hardness_high_k(delta, rho, k) -> float:
    """Dimension-rich approximation: delta^2 sqrt(1 + 2 rho) / sqrt(2 k).

    Leading term when k is of order delta^4 (1 + rho); the relative error
    shrinks like sqrt((1 + rho)/k) along that scaling.
    """
    delta, rho = positive_real(delta, "delta"), nonnegative_real(rho, "rho")
    k = _check_dim(k)
    h = delta / math.sqrt(k) * math.sqrt(0.5 + rho) * delta
    if h == math.inf:
        raise DomainError(f"hardness_high_k overflows at delta={delta!r}, rho={rho!r}, k={k}")
    return h


# ---------------------------------------------------------------------------
# train/test allocation

def allocation_hardness(a, k, rho):
    """Hardness under a fixed information budget a split as rho : 1.

    With n_x + n = n_total observations and a = n_total * delta^2 held
    fixed, writing rho = n_x / n turns `hardness_param` into

        a (1 + 2 rho) / ((1 + rho) sqrt(2 k (1 + 2 rho) + 4 (1 + rho) a)).

    Vectorized over rho.
    """
    a = positive_real(a, "budget a")
    k = _check_dim(k)
    r = np.asarray(rho, dtype=float)
    if np.any(~np.isfinite(r)) or np.any(r < 0.0):
        raise DomainError("rho values must be nonnegative and finite")
    # a v / sqrt((1 + r) (2 k v + 4 a)) with v = s / (1 + r) in [1, 2); the
    # root is a hypot of square roots, so nothing overflows
    v = 2.0 - 1.0 / (1.0 + r)
    root = np.hypot(math.sqrt(0.5 * k) * np.sqrt(v), math.sqrt(a))
    val = 0.5 * v * (a / root) / np.sqrt(1.0 + r)
    return val if val.ndim else float(val)


@dataclass(eq=False)
class Allocation:
    """Budget-split result: the chosen rho plus the curve it came from."""

    rho_star: float
    rho: np.ndarray        # grid, ascending
    hardness: np.ndarray   # allocation_hardness on the grid
    peak: float            # max over the grid and the closed-form maximizer


def allocate(a, k, rho_grid=None, tie_tol: float = 1e-2) -> Allocation:
    """Pick the training fraction rho maximizing `allocation_hardness`.

    With u = 1 + rho and c = 4 (k + a), the log-derivative of the hardness
    vanishes where 2 c u^2 - 3 c u + 4 k = 0.  It is positive at rho = 0,
    so the hardness rises to one maximum, at

        rho* = 2 a / ((k + a) (1 + sqrt((k + 9 a) / (k + a)))),

    which lies in (0, 1/2): training never takes more than a third of the
    budget.  The best point of the grid's span is rho* clipped to it.  The
    surface is extremely flat near its maximum for large k, so exact
    argmax would report a tiny interior bump that buys nothing; instead
    the smallest rho of the grid and that point whose hardness is within
    `tie_tol` (relative) of the peak is returned.  Pass tie_tol=0 for the
    raw maximizer.
    """
    if rho_grid is None:
        rho_grid = np.concatenate([[0.0], np.logspace(-3.0, 3.0, 121)])
    grid = np.asarray(rho_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ConfigError("rho_grid must be a nonempty 1-d array")
    if not float(tie_tol) >= 0.0:
        raise ConfigError(f"tie_tol must be nonnegative, got {tie_tol!r}")
    grid = _sorted_unique(grid)  # sorts ascending
    vals = np.atleast_1d(allocation_hardness(a, k, grid))

    a, k = float(a), int(k)
    f = 0.5 * a / (0.5 * k + 0.5 * a)  # a / (k + a), halved so that k + a cannot overflow
    rho = 2.0 * f / (1.0 + math.sqrt(1.0 + 8.0 * f))
    rho = min(max(rho, float(grid[0])), float(grid[-1]))
    rhos = np.append(grid, rho)
    hs = np.append(vals, allocation_hardness(a, k, rho))
    peak = float(hs.max())
    # smallest rho not meaningfully below the peak
    best_rho = float(rhos[hs >= peak * (1.0 - float(tie_tol))].min())
    return Allocation(best_rho, grid, vals, peak)


def blocklength_for_dimension(k, rho, delta, target_hardness) -> int:
    """Smallest block length n with hardness_param(sqrt(n)*delta, rho, k) >= target.

    The block folds n observations into one separation sqrt(n)*delta, so
    hardness grows without bound in n; it scales like sqrt(k) at fixed
    (rho, delta, target) once k dominates.  With D = n delta^2, s = 1 + 2 rho
    and w = (1 + rho)/s, hardness t is reached at the positive root of
    s^2 D^2 - 4 t^2 (1 + rho)^2 D - 2 k s t^2 = 0,

        D = 2 t^2 w^2 + t sqrt(4 t^2 w^4 + 2 k / s),

    and n steps from ceil(D / delta^2) against `hardness_param` itself to
    the smallest value it says reaches t.  A delta whose square overflows
    (D is then not a float), an answer above 2^62 and a hardness that does
    not reach t near the start raise DomainError.
    """
    delta, rho = positive_real(delta, "delta"), nonnegative_real(rho, "rho")
    k = _check_dim(k)
    t = positive_real(target_hardness, "target hardness")
    if delta * delta == math.inf:
        raise DomainError(f"block length: delta^2 overflows at delta={delta!r}")

    def reaches(n: int) -> bool:
        return hardness_param(math.sqrt(float(n)) * delta, rho, k) >= t

    v = 2.0 - 1.0 / (1.0 + rho)  # s / (1 + rho), so that s cannot overflow
    w = 1.0 / v
    tw2 = t * w * w
    n = (2.0 * t * tw2 + t * math.sqrt(4.0 * tw2 * tw2 + 2.0 * k / v / (1.0 + rho))) / delta
    n /= delta
    if not n <= 2.0 ** 63:  # the steps below settle starts just past 2^62
        raise DomainError(f"block length {n:.3g} is above 2**62")
    n = max(1, math.ceil(n))
    for _ in range(1 << 16):
        if not reaches(n):
            n += 1
        elif n > 1 and reaches(n - 1):
            n -= 1
        elif n > 2 ** 62:
            raise DomainError(f"block length {n} is above 2**62")
        else:
            return n
    raise DomainError("block length: hardness_param does not reach the target near "
                      f"n = {n}")
