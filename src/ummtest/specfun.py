"""Tail probabilities and sphere-integral constants used by every detector.

Dependency-free implementations of the normal tail Q and its inverse, the
(non)central chi-square tail and inverse, the log modified Bessel function
of the first kind, and the von Mises-Fisher normalizing constant c_k with
its inverse.  All Bessel/c_k arithmetic happens in log scale; c_k underflows
rapidly in both k and tau otherwise.

The normal quantile is one algorithm (AS241) on one set of tables for float
and ndarray input alike.  The chi-square engine is one algorithm too, run
twice: in pure Python on floats for the public functions, and on ndarrays
by the ``*_vec`` kernels of the Monte Carlo hot paths (a 0-d call to numpy
costs several times the scalar one).  Both share their constants, their
log-density split and Sankaran's starting point.  Each sum is anchored at
its own Poisson mode (one ``exp`` per term kind, at the anchor; scaled by a
power of two in the far upper tail), sums outward with recurrences, and
stops at its own certified relative truncation bound, so a vector
element's value is the same bit for bit whatever array it is computed in.
Each inverse takes Newton steps on the log tail and stops once the tail is
within 1e-12 of p in relative terms (or t is pinned to a few ulps); the
vector one solves a whole (levels, trials) array in one batched solve.
The term caps grow with the spread of each sum, and every capped loop
raises RangeError instead of returning its last iterate.
"""

import math

import numpy as np

from .errors import DomainError, RangeError

__all__ = [
    "normal_tail",
    "normal_tail_inv",
    "chisq_tail",
    "chisq_tail_inv",
    "log_bessel_i",
    "log_vmf_const",
    "vmf_const_inv",
]

_LN_2PI = math.log(2.0 * math.pi)
_LN2 = math.log(2.0)
_TOL = 1e-15  # relative truncation of every Poisson sum
_TINY = 1e-300  # floor of the relative bounds, so a vanishing sum still stops
_MAX_TERMS = 10_000  # least cap on incomplete-gamma terms and on Poisson steps each way
_MAX_PASSES = 200  # cap on the Newton passes of every inverse
_CHECK = 8  # Poisson steps between two truncation checks
# an inverse also stops once its bracket is this narrow relative to t (a few
# ulps), where the spacing of the floats, not the iteration, limits how close
# the tail at t comes to p
_T_ULPS = 4e-16
# below this log density term at the anchor, a far upper tail sums in units of
# a power of two near that term, so neither underflow nor the _TINY floor
# limits its relative accuracy
_LOG_FLOOR = math.log(1e-250)


def _term_cap(scale):
    """Cap on the terms of a sum whose spread is sqrt(scale) terms.

    ``_MAX_TERMS``, or 100 spreads where that is more: the incomplete gamma
    at a ~ x and the Poisson(h) sweep need about 9 spreads (the Poisson
    weights underflow within 40), so the cap holds for every scale and
    still stops a loop that does not converge.
    """
    return int(_MAX_TERMS * max(1.0, 0.01 * math.sqrt(scale)))


# ---------------------------------------------------------------------------
# regularized incomplete gamma (scalar)

def _reg_gamma_q(a, x, pre):
    """Q(a, x) for a > 0, x >= 0: ``_reg_gamma_q_vec`` on one element.

    ``pre`` is x^a e^-x / Gamma(a), computed by the caller.  The series for
    P serves x < a + 1, the Lentz continued fraction for Q the rest (where a
    prefactor scaled by 2^-n gives Q scaled alike).  Raises RangeError past
    ``_term_cap(a)`` terms.
    """
    cap = _term_cap(a)
    if x < a + 1.0:
        term = acc = 1.0 / a
        for n in range(1, cap + 1):
            term *= x / (a + n)
            acc += term
            if term < acc * 1e-17:
                return 1.0 - acc * pre
    else:
        tiny = 1e-300
        b = x + 1.0 - a
        c = 1.0 / tiny
        d = acc = 1.0 / b
        for n in range(1, cap + 1):
            an = -n * (n - a)
            b += 2.0
            d = an * d + b
            if abs(d) < tiny:
                d = tiny
            c = b + an / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            acc *= delta
            if abs(delta - 1.0) < 1e-16:
                return acc * pre
    raise RangeError("incomplete gamma: no convergence in %d terms" % cap)


# ---------------------------------------------------------------------------
# normal tail

def normal_tail(z: float) -> float:
    """P(Z > z) for standard normal Z.

    Computed through the regularized incomplete gamma at a = 1/2, which
    keeps relative error ~1e-14 deep into the tail (|z| <= 8 audited).
    """
    z = float(z)
    if not math.isfinite(z):
        raise DomainError("normal_tail: z must be finite")
    x = 0.5 * z * z
    q = 0.5 * _reg_gamma_q(0.5, x, math.sqrt(x / math.pi) * math.exp(-x))
    return q if z >= 0.0 else 1.0 - q


# Wichura's AS241 (PPND16; Applied Statistics 37, 1988): one rational
# function of degree 7/7 per region, relative error about 1e-16.  Each table
# holds (numerator, denominator) coefficients, highest power first.
_PPND_CENTRE = (  # argument 0.180625 - q^2, for |q| = |p - 1/2| <= 0.425
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0),
)
_PPND_NEAR = (  # argument r - 1.6, for r = sqrt(-log min(p, 1 - p)) <= 5
    (7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
     1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
     4.63033784615654529590e+0, 1.42343711074968357734e+0),
    (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
     1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
     2.05319162663775882187e+0, 1.0),
)
_PPND_FAR = (  # argument r - 5, for r > 5
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
     2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
     5.46378491116411436990e+0, 6.65790464350110377720e+0),
    (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
     7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
     5.99832206555887937690e-1, 1.0),
)


def _rational(table, x):
    """num(x) / den(x) by Horner's rule; x is a float or an ndarray."""
    n = d = 0.0
    for a, b in zip(*table):
        n *= x  # a fresh array on the first pass, then updated in place
        n += a
        d *= x
        d += b
    return n / d


def normal_tail_inv(p: float) -> float:
    """z with normal_tail(z) = p, for p in the open interval (0, 1).

    Wichura's AS241 (PPND16): one rational evaluation in the region of p,
    no iteration.  Relative error measured below 1e-15 across (0, 1),
    subnormal p included.  Decreasing in p up to rounding: p a few ulps
    apart can come out up to 4 ulps out of order.
    """
    p = float(p)
    if not (0.0 < p < 1.0) or not math.isfinite(p):
        raise DomainError("normal_tail_inv: p must lie in (0,1)")
    q = 0.5 - p  # upper-tail convention: z is the lower quantile at 1 - p
    if abs(q) <= 0.425:
        return q * _rational(_PPND_CENTRE, 0.180625 - q * q)
    r = math.sqrt(-math.log(min(p, 1.0 - p)))
    z = _rational(_PPND_NEAR, r - 1.6) if r <= 5.0 else _rational(_PPND_FAR, r - 5.0)
    return z if q > 0.0 else -z


# ---------------------------------------------------------------------------
# (non)central chi-square

def _check_chisq_params(k, lam):
    if int(k) != k or k < 1:
        raise DomainError("chi-square dof k must be a positive integer")
    lam = float(lam)
    if not math.isfinite(lam) or lam < 0.0:
        raise DomainError("noncentrality must be finite and nonnegative")
    return int(k), lam


def _log_g(nu, x):
    """log(x^nu e^-x / Gamma(nu + 1)): ``_log_g_vec`` on one element.

    The same saddle-point split (see there); ``math.lgamma(nu + 1)`` gives
    the values its table holds below nu = 25.  bd0 takes numpy's log1p, as
    the vector path does: multiplied by nu, a last-bit difference between
    two log1p implementations would reach the anchor nu times over.
    """
    if nu < 1.0:
        return nu * math.log(x) - x - math.lgamma(nu + 1.0)
    d = nu - x
    bd0 = nu * float(np.log1p(d / x)) - d
    if nu < 25.0:
        c = math.lgamma(nu + 1.0) - nu * math.log(nu) + nu
    else:
        s = 1.0 / (nu * nu)
        c = 0.5 * (_LN_2PI + math.log(nu)) + (((s * (-1 / 1680) + 1 / 1260) * s - 1 / 360) * s
                                              + 1 / 12) / nu
    return -bd0 - c


def _chisq_tail_pdf(k, lam, t):
    """(tail, pdf) of the noncentral chi-square at one point, t >= 0.

    ``_chisq_tail_pdf_vec``'s algorithm on floats: the same anchor at the
    Poisson mode, the same scaling in the far upper tail, the same
    recurrences in lockstep up and down and the same certified relative
    bounds, checked every ``_CHECK`` steps (and once before the first,
    which ends a sum with no terms to add).  It adds the same terms in the
    same order as the vector engine on a one-element array, so the two
    differ only by the last bits of the anchor's ``exp`` and ``log``.
    Raises RangeError after ``_term_cap(h)`` steps.
    """
    a = 0.5 * k
    am1 = a - 1.0
    h = 0.5 * lam
    x = max(0.5 * t, _TINY)
    hx = h * x
    hinv = 1.0 / max(h, _TINY)
    xinv = 1.0 / x
    m = 1.0 if k > 1 else 0.5 + 0.5 * math.sqrt(1.0 + 2.0 * xinv)
    j0 = float(math.floor(h))
    lw = _log_g(j0, max(h, _TINY))
    le = _log_g(j0 + am1, x)
    n = math.floor((lw + le) / _LN2) if lw + le < _LOG_FLOOR and x >= a + j0 + 1.0 else 0
    w = math.exp(lw)
    e = math.exp(le - n * _LN2)
    uu = ud = tl = w * _reg_gamma_q(j0 + a, x, x * e)
    vu = vd = pf = w * e
    ju = jd = j0
    cap = _term_cap(h)
    step = 0
    up = down = True
    while True:
        tol_t = _TOL * tl + _TINY
        tol_p = _TOL * pf + _TINY
        if up:  # w is not scaled, so its bounds are scaled to the sums
            rest = w * h
            up = not (rest <= math.ldexp(tol_t * step, n)
                      and (vu * hx <= tol_p * (ju * (ju + a) - hx)
                           or rest <= math.ldexp(tol_p * step, n)))
        if down:
            rest = ud * jd
            cd = jd * (jd + am1)
            down = not (rest <= tol_t * (h - jd)
                        and (vd * cd <= tol_p * (hx - cd) or rest * m <= tol_p * (h - jd)))
        if not (up or down):
            return min(max(math.ldexp(tl, n), 0.0), 1.0), math.ldexp(0.5 * max(pf, 0.0), n)
        if step >= cap:
            raise RangeError("noncentral chi-square: Poisson sum not done in %d steps" % cap)
        for _ in range(_CHECK):
            if up:  # w h/j, e x/(a+j-1), Q + e
                ju += 1.0
                r = h / ju
                w *= r
                vu *= x / (ju + am1) * r
                uu = uu * r + vu
                tl += uu
                pf += vu
            if down:  # w j/h, Q - e, e (a+j-1)/x; at index 0 the factor j zeroes the terms
                r = jd * hinv
                ud = (ud - vd) * r
                vd *= (jd + am1) * xinv * r
                jd = max(jd - 1.0, 0.0)
                tl += ud
                pf += vd
        step += _CHECK


def chisq_tail(k: int, lam: float, t: float) -> float:
    """P(X > t) for X ~ noncentral chi-square with k dof, noncentrality lam.

    lam = 0 reduces exactly to the central chi-square (regularized upper
    incomplete gamma).  The truncation of the Poisson mixture is certified
    to 1e-15 relative.  For tails from 1e-300 to 1/2, k <= 1000 and
    lam <= 1e4 the relative error measured below 1e-12, against scipy
    where scipy keeps its digits and against mpmath far out, where it does
    not.  A tail near 1 is accurate in absolute terms only: its complement,
    the lower tail, is not summed on its own.  Larger lam is served too (to
    about 1e-10 relative at lam = 1e8): the term caps grow with the Poisson
    spread sqrt(lam / 2), and RangeError is raised only when a sum does not
    converge within them.
    """
    k, lam = _check_chisq_params(k, lam)
    t = float(t)
    if not math.isfinite(t) or t < 0.0:
        raise DomainError("chisq_tail: t must be finite and >= 0")
    return _chisq_tail_pdf(k, lam, t)[0]


def _sankaran(k, lam, z, maximum=max):
    """Sankaran's approximation (Biometrika 50, 1963) to the upper quantile.

    (X / (k + lam))^h is close to normal, so the quantile at the normal
    deviate z = normal_tail_inv(p) follows in closed form, good to about
    1e-7 relative at large lam.  Floats take ``maximum=max``, ndarrays
    ``np.maximum``; the result stays above 1e-6, where the density is
    finite.
    """
    kl = k + lam
    k2 = k + 2.0 * lam
    h = 1.0 - (2.0 / 3.0) * kl * (k + 3.0 * lam) / (k2 * k2)
    r = k2 / (kl * kl)
    m = (h - 1.0) * (1.0 - 3.0 * h)
    mean = 1.0 + h * r * (h - 1.0 - 0.5 * (2.0 - h) * m * r)
    sd = h * (2.0 * r) ** 0.5 * (1.0 + 0.5 * m * r)
    return maximum(kl * maximum(mean + sd * z, 0.0) ** (1.0 / h), 1e-6)


def chisq_tail_inv(k: int, lam: float, p: float) -> float:
    """t with chisq_tail(k, lam, t) = p, to 1e-12 relative on the p scale.

    ``_chisq_tail_inv_vec`` on one element: safeguarded Newton on the log
    tail from Sankaran's start, stopping once |tail - p| <= 1e-12 p, or once
    the bracket on t is a few ulps wide (at large lam and small p the floats
    near t lie too far apart for the first test).  Against scipy the
    relative error in t measured below 2e-12 for p from 1e-300 to 1/2,
    k <= 1000 and lam <= 1e4, and below 1e-12 at lam = 1e6 and 1e7.  For p
    near 1 the result is accurate in p, not in t, since the tail there is 1
    minus a small lower tail.  Raises RangeError after ``_MAX_PASSES``
    passes.
    """
    k, lam = _check_chisq_params(k, lam)
    p = float(p)
    if not (0.0 < p < 1.0) or not math.isfinite(p):
        raise DomainError("chisq_tail_inv: p must lie in (0,1)")
    t = _sankaran(k, lam, normal_tail_inv(p))
    lo, hi = 0.0, math.inf
    for _ in range(_MAX_PASSES):
        tail, pdf = _chisq_tail_pdf(k, lam, t)
        if abs(tail - p) <= 1e-12 * p or hi - lo <= _T_ULPS * t:
            return t
        if tail > p:
            lo = t
        else:
            hi = t
        tn = t + math.log(tail / p) * tail / pdf if tail > 0.0 and pdf > 0.0 else math.nan
        if not lo < tn < hi:
            tn = 0.5 * (lo + hi) if hi < math.inf else 2.0 * max(t, 1.0)
        t = tn
    raise RangeError("noncentral chi-square inverse: not converged in %d passes" % _MAX_PASSES)


# ---------------------------------------------------------------------------
# log modified Bessel I and the vMF constant

def _log_bessel_series(nu, tau):
    # ascending series; fine for tau < 20 at small nu
    y = 0.25 * tau * tau
    term = 1.0
    total = 1.0
    m = 0
    while True:
        m += 1
        term *= y / (m * (nu + m))
        total += term
        if term < total * 1e-17 or m > 500:
            break
    return nu * math.log(0.5 * tau) - math.lgamma(nu + 1.0) + math.log(total)


def _log_bessel_asym(nu, tau):
    # large-argument expansion at fixed small order (0 <= nu < 1); optimal
    # truncation error ~ e^(-2 tau), far below 1e-10 for tau >= 20
    mu = 4.0 * nu * nu
    term = 1.0
    total = 1.0
    prev = math.inf
    m = 0
    while True:
        m += 1
        factor = -(mu - (2 * m - 1) ** 2) / (8.0 * m * tau)
        term *= factor
        if abs(term) >= prev:
            break
        total += term
        prev = abs(term)
        if prev < 1e-18 or m > 200:
            break
    return tau - 0.5 * math.log(2.0 * math.pi * tau) + math.log(total)


def _log_ratio_climb(base, steps, tau):
    """Sum of log(I_{base+s+1}/I_{base+s}) for s = 0..steps-1.

    One backward continued-fraction pass r_{nu-1} = tau/(2 nu + tau r_nu),
    started deep enough past max(order, tau) that the seed value washes out.
    """
    depth = steps + int(1.6 * tau) + 60
    r = 0.0
    acc = 0.0
    for i in range(depth, 0, -1):
        r = tau / (2.0 * (base + i) + tau * r)
        if i <= steps:
            acc += math.log(r)
    return acc


def _bessel_ratio(nu, tau):
    """I_{nu+1}(tau) / I_{nu}(tau)."""
    return math.exp(_log_ratio_climb(nu, 1, tau))


def log_bessel_i(order: float, tau: float) -> float:
    """log I_order(tau) for order >= 0, tau >= 0.

    Anchored at the fractional base order (closed form for half-integers,
    series / large-argument expansion otherwise), then climbed to the
    requested order through backward continued-fraction ratios, which stay
    accurate at large order where a fixed-order asymptotic series would
    diverge.  exp(result) carries relative error <= 1e-10 for tau <= 1e4.
    """
    order = float(order)
    tau = float(tau)
    if order < 0.0 or not math.isfinite(order):
        raise DomainError("log_bessel_i: order must be finite and >= 0")
    if tau < 0.0 or not math.isfinite(tau):
        raise DomainError("log_bessel_i: tau must be finite and >= 0")
    if tau == 0.0:
        return 0.0 if order == 0.0 else -math.inf
    base = order - math.floor(order)
    if base == 0.5:
        # I_{1/2} = sqrt(2/(pi tau)) sinh(tau), in overflow-safe form
        lb = 0.5 * math.log(2.0 / (math.pi * tau)) + tau + math.log1p(-math.exp(-2.0 * tau)) - math.log(2.0)
    elif tau < 20.0:
        lb = _log_bessel_series(base, tau)
    else:
        lb = _log_bessel_asym(base, tau)
    steps = int(round(order - base))
    if steps == 0:
        return lb
    return lb + _log_ratio_climb(base, steps, tau)


def _check_vmf(k, tau):
    if int(k) != k or k < 2:
        raise DomainError("vMF constant: k must be an integer >= 2")
    tau = float(tau)
    if not math.isfinite(tau) or tau < 0.0:
        raise DomainError("vMF constant: tau must be finite and >= 0")
    return int(k), tau


def log_vmf_const(k: int, tau: float) -> float:
    """log c_k(tau), the von Mises-Fisher normalizing constant (log scale).

    c_k(tau) = tau^(k/2-1) / ((2 pi)^(k/2) I_{k/2-1}(tau)); strictly
    decreasing in tau.  tau = 0 is the uniform-on-sphere limit, finite and
    computed from the series leading term.
    """
    k, tau = _check_vmf(k, tau)
    nu = 0.5 * k - 1.0
    if tau == 0.0:
        return nu * math.log(2.0) + math.lgamma(0.5 * k) - 0.5 * k * _LN_2PI
    return nu * math.log(tau) - 0.5 * k * _LN_2PI - log_bessel_i(nu, tau)


def vmf_const_inv(k: int, log_target: float) -> float:
    """tau >= 0 with log_vmf_const(k, tau) = log_target (unique by monotonicity).

    Safeguarded Newton; raises RangeError after ``_MAX_PASSES`` passes.
    """
    k, _ = _check_vmf(k, 0.0)
    log_target = float(log_target)
    if not math.isfinite(log_target):
        raise DomainError("vmf_const_inv: log_target must be finite")
    top = log_vmf_const(k, 0.0)
    if log_target > top + 1e-12:
        raise RangeError("vmf_const_inv: target above log c_k(0) = %.12g" % top)
    if log_target >= top:
        return 0.0
    nu = 0.5 * k - 1.0
    hi = 1.0
    while log_vmf_const(k, hi) > log_target:
        hi *= 2.0
        if hi > 1e12:
            raise RangeError("vmf_const_inv: target unreachable below tau = 1e12")
    lo = 0.0
    tau = 0.5 * hi
    for _ in range(_MAX_PASSES):
        f = log_vmf_const(k, tau) - log_target
        if abs(f) < 1e-11:
            return tau
        if f > 0.0:
            lo = tau
        else:
            hi = tau
        slope = -_bessel_ratio(nu, tau)  # d/dtau log c_k
        tn = tau - f / slope if slope < 0.0 else 0.5 * (lo + hi)
        if not (lo < tn < hi):
            tn = 0.5 * (lo + hi)
        if abs(tn - tau) < 1e-15 * max(tau, 1.0):
            return tn
        tau = tn
    raise RangeError("vmf_const_inv: not converged in %d passes" % _MAX_PASSES)


# ---------------------------------------------------------------------------
# vectorized private kernels (Monte Carlo hot paths)

# lgamma(n / 2) for n = 1..51: every argument the table branch of _log_g_vec needs
_LGAMMA_HALF = np.array([math.inf] + [math.lgamma(0.5 * n) for n in range(1, 52)])


def _log_g_vec(nu, x):
    """log(x^nu e^-x / Gamma(nu + 1)) elementwise, nu a half-integer >= -1/2.

    For nu >= 1 this is -bd0(nu, x) - c(nu), Loader's saddle-point split:
    bd0 = nu log(nu/x) + x - nu through log1p, and c = lgamma(nu + 1) -
    nu log nu + nu, from a table of lgamma at half-integers below nu = 25
    and Stirling's series above.  Neither part cancels large terms, so the
    result stays accurate in absolute terms (and smooth in x) where the
    direct form nu log x - x - lgamma(nu + 1) loses digits to terms of size
    nu log x.
    """
    lg = _LGAMMA_HALF[np.minimum(2.0 * nu + 2.0, 51.0).astype(np.int64)]  # read below nu = 25
    n1 = np.maximum(nu, 1.0)
    d = n1 - x
    bd0 = n1 * np.log1p(d / x) - d
    s = 1.0 / (n1 * n1)
    stirling = 0.5 * (_LN_2PI + np.log(n1)) + (((s * (-1 / 1680) + 1 / 1260) * s - 1 / 360) * s
                                               + 1 / 12) / n1
    c = np.where(n1 < 25.0, lg - n1 * np.log(n1) + n1, stirling)
    return np.where(nu >= 1.0, -bd0 - c, nu * np.log(x) - x - lg)


def _reg_gamma_q_vec(a, x, pre):
    """Q(a, x) elementwise for ndarrays a > 0 and x > 0.

    ``pre`` is x^a e^-x / Gamma(a), computed by the caller.  The series for
    P serves x < a + 1, the Lentz continued fraction for Q the rest (where a
    prefactor scaled by 2^-n gives Q scaled alike); each element stops at
    its own convergence, so its value does not depend on the other
    elements.  Raises RangeError past ``_term_cap`` of the largest a terms.
    """
    cap = _term_cap(np.max(a, initial=0.0))
    out = np.empty_like(x)
    ser = x < a + 1.0
    for series, sel in ((True, np.flatnonzero(ser)), (False, np.flatnonzero(~ser))):
        aa, xx = a[sel], x[sel]
        if series:
            term = 1.0 / aa
            acc = term.copy()
        else:
            tiny = 1e-300
            b = xx + 1.0 - aa
            c = np.full_like(xx, 1.0 / tiny)
            d = 1.0 / b
            acc = d.copy()
        for n in range(1, cap + 1):
            if sel.size == 0:
                break
            if series:
                term *= xx / (aa + n)
                acc += term
                done = term < acc * 1e-17
            else:
                an = -n * (n - aa)
                b += 2.0
                d = an * d + b
                np.copyto(d, tiny, where=np.abs(d) < tiny)
                c = b + an / c
                np.copyto(c, tiny, where=np.abs(c) < tiny)
                d = 1.0 / d
                delta = d * c
                acc *= delta
                done = np.abs(delta - 1.0) < 1e-16
            if done.any():
                out[sel[done]] = acc[done]
                keep = ~done
                sel, aa, xx, acc = sel[keep], aa[keep], xx[keep], acc[keep]
                if series:
                    term = term[keep]
                else:
                    b, c, d = b[keep], c[keep], d[keep]
        if sel.size:
            raise RangeError("incomplete gamma: no convergence in %d terms" % cap)
    out *= pre
    return np.where(ser, 1.0 - out, out)


def _normal_tail_inv_vec(p):
    """normal_tail_inv over an ndarray of p in (0, 1); same tables and regions."""
    p = np.asarray(p, dtype=float)
    q = 0.5 - p
    z = np.empty_like(p)
    centre = np.abs(q) <= 0.425
    qc = q[centre]
    z[centre] = qc * _rational(_PPND_CENTRE, 0.180625 - qc * qc)
    tail = ~centre
    pt = p[tail]
    r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
    near = r <= 5.0
    zt = np.empty_like(r)
    zt[near] = _rational(_PPND_NEAR, r[near] - 1.6)
    zt[~near] = _rational(_PPND_FAR, r[~near] - 5.0)
    z[tail] = np.copysign(zt, q[tail])
    return z


def _chisq_tail_pdf_vec(k, lam, t):
    """(tail, pdf) of the noncentral chi-square, elementwise over ndarrays.

    Shared dof k; lam >= 0 and t > 0 broadcast together.  The tail is the
    Poisson(h = lam/2) mixture sum_j w_j Q(a + j, x), a = k/2, x = t/2, and
    the pdf the same mixture of central densities.  Each element is anchored
    at its own Poisson mode j0 = floor(h), the only place that calls exp:
    w_j0, the density term e_j0 = x^(a+j0-1) e^-x / Gamma(a+j0) and
    Q(a + j0, x).  Where the density term there is below 1e-250 and x lies
    above the mode, in the far upper tail, the terms are carried in units
    of a power of two 2^n near it and scaled back at the end, so that
    tails down to 1e-300 keep their relative accuracy.  From there it steps
    up and down in lockstep with the recurrences w h/j, e x/(a+j) and
    Q +- e, on the products u = w Q and v = w e.  Every eight steps each
    element checks its own certified bounds on the unswept terms: above the
    top index Q <= 1 and the Poisson and density ratios are geometric;
    below the bottom index Q only falls; and a density term is at most its
    tail term.  A direction stops once its bounds are within 1e-15 of the
    element's running tail and pdf, so the truncation error is relative
    and an element's result does not depend on the others.  Raises
    RangeError after ``_term_cap`` of the largest h steps.
    """
    lam, t = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(t, dtype=float))
    shape = lam.shape
    a = 0.5 * k
    am1 = a - 1.0
    h = 0.5 * lam.ravel()
    x = np.maximum(0.5 * t.ravel(), _TINY)
    j0 = np.floor(h)
    lw = _log_g_vec(j0, np.maximum(h, _TINY))
    le = _log_g_vec(j0 + am1, x)
    # far in the upper tail the terms sum in units of 2^n near the anchor's
    # density term (w stays unscaled)
    far = (lw + le < _LOG_FLOOR) & (x >= a + j0 + 1.0)
    n = np.where(far, np.floor((lw + le) / _LN2), 0.0).astype(np.int64)
    w = np.exp(lw)
    e = np.exp(le - n * _LN2)
    u = w * _reg_gamma_q_vec(j0 + a, x, x * e)
    v = w * e
    # sweep state, one row each: h, x, hx, 1/h, 1/x, top and bottom index,
    # top weight, top and bottom terms u and v, tail, pdf, position
    s = np.stack([h, x, h * x, 1.0 / np.maximum(h, _TINY), 1.0 / x, j0, j0, w, u, v, u, v, u, v,
                  np.arange(h.size)])
    tail = np.empty(h.size)
    pdf = np.empty(h.size)
    cap = _term_cap(np.max(h, initial=0.0))
    step = 0
    up = down = True  # some element still sweeps that way
    while s.shape[1]:
        if step >= cap:
            raise RangeError("noncentral chi-square: Poisson sum not done in %d steps" % cap)
        h, x, hx, hinv, xinv, ju, jd, w, uu, vu, ud, vd, tl, pf, pos = s
        r = np.empty_like(h)
        f = np.empty_like(h)
        for _ in range(_CHECK):
            if up:  # one index up: w h/j, e x/(a+j-1), Q + e
                ju += 1.0
                np.divide(h, ju, out=r)
                w *= r
                uu *= r
                np.add(ju, am1, out=f)
                np.divide(x, f, out=f)
                f *= r
                vu *= f
                uu += vu
                tl += uu
                pf += vu
            if down:  # one index down: w j/h, Q - e, e (a+j-1)/x
                np.multiply(jd, hinv, out=r)
                ud -= vd
                ud *= r
                np.add(jd, am1, out=f)
                f *= xinv
                f *= r
                vd *= f
                jd -= 1.0
                np.maximum(jd, 0.0, out=jd)  # at index 0 the factor j zeroes the terms
                tl += ud
                pf += vd
        step += _CHECK
        # certified bounds on the unswept terms; a direction whose bound
        # holds is frozen by zeroing its terms, so later steps add exact
        # zeros to it
        tol_t = _TOL * tl + _TINY
        tol_p = _TOL * pf + _TINY
        # the density terms are bounded twice: by their geometric ratio, and
        # by the tail terms, since e_j <= Q_j (up to the factor m of the
        # j = 0 term at k = 1), for where the ratio exceeds 1
        if up:
            rest = w * h
            sc = n[pos.astype(np.int64)]  # w is not scaled, so its bounds are scaled to the sums
            # far out, scaled density terms times hx may overflow; the
            # product is then inf, the ratio bound reads false and the
            # direction keeps summing unless the other bound holds, so an
            # overflow never stops a sweep early
            with np.errstate(over="ignore"):
                ratio_ok = vu * hx <= tol_p * (ju * (ju + a) - hx)
            up_ok = ((rest <= np.ldexp(tol_t * step, sc))
                     & (ratio_ok | (rest <= np.ldexp(tol_p * step, sc))))
            for row in (w, uu, vu):
                np.copyto(row, 0.0, where=up_ok)
        if down:
            rest = ud * jd
            cd = jd * (jd + am1)
            m = 1.0 if k > 1 else 0.5 + 0.5 * np.sqrt(1.0 + 2.0 * xinv)
            down_ok = (rest <= tol_t * (h - jd)) & ((vd * cd <= tol_p * (hx - cd))
                                                    | (rest * m <= tol_p * (h - jd)))
            for row in (ud, vd):
                np.copyto(row, 0.0, where=down_ok)
        # a finished element only adds zeros from here on, so it is
        # dropped once a quarter of the state has finished
        done = up_ok & down_ok
        if 4 * np.count_nonzero(done) >= done.size:
            at = pos[done].astype(np.int64)
            tail[at] = tl[done]
            pdf[at] = pf[done]
            keep = np.flatnonzero(~done)
            s = s[:, keep]
            up_ok, down_ok = up_ok[keep], down_ok[keep]
        up, down = not up_ok.all(), not down_ok.all()
    tail, pdf = np.ldexp(tail, n), np.ldexp(0.5 * np.maximum(pdf, 0.0), n)
    return np.clip(tail, 0.0, 1.0).reshape(shape), pdf.reshape(shape)


def _chisq_tail_vec(k, lam, t):
    return _chisq_tail_pdf_vec(k, lam, t)[0]


def _chisq_tail_inv_vec(k, lam, p):
    """Vector upper quantile: t with tail(k, lam, t) = p, elementwise.

    lam and p broadcast together (a column of levels against a row of
    noncentralities inverts a whole sweep in one call).  Safeguarded Newton
    on the log tail, from ``_sankaran``'s start; each element stops once
    its tail is within 1e-12 of p in relative terms, or its bracket on t is
    a few ulps wide.  Raises RangeError when an element has not converged
    after ``_MAX_PASSES`` passes.
    """
    lam, p = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(p, dtype=float))
    shape = lam.shape
    lam, p = lam.ravel(), p.ravel()
    t = _sankaran(k, lam, _normal_tail_inv_vec(p), np.maximum)
    lo = np.zeros_like(t)
    hi = np.full_like(t, np.inf)
    active = np.arange(t.size)
    for _ in range(_MAX_PASSES):
        ta, pa = t[active], p[active]
        tail, pdf = _chisq_tail_pdf_vec(k, lam[active], ta)
        live = (np.abs(tail - pa) > 1e-12 * pa) & (hi[active] - lo[active] > _T_ULPS * ta)
        active = active[live]
        if active.size == 0:
            return t.reshape(shape)
        ta, pa, tail, pdf = ta[live], pa[live], tail[live], pdf[live]
        la, ha = lo[active], hi[active]
        np.copyto(la, ta, where=tail > pa)
        np.copyto(ha, ta, where=tail <= pa)
        # Newton on the log tail: near the root the plain Newton step, far
        # out a step that does not stall where the tail falls off
        # exponentially
        with np.errstate(divide="ignore", invalid="ignore"):
            tn = ta + np.log(tail / pa) * tail / pdf
        mid = np.where(np.isfinite(ha), 0.5 * (la + ha), 2.0 * np.maximum(ta, 1.0))
        bad = (tn <= la) | (tn >= ha) | ~np.isfinite(tn)
        tn = np.where(bad, mid, tn)
        lo[active], hi[active], t[active] = la, ha, tn
    raise RangeError("noncentral chi-square inverse: %d elements not converged in %d passes"
                     % (active.size, _MAX_PASSES))
