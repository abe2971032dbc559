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
its own Poisson mode (one ``exp`` per term kind, at the anchor; in the far
upper tail just below its largest term instead, and scaled by powers of
two), takes the incomplete gamma there from positive sums that start at the
density term already in hand, sums outward with recurrences, and stops at
its own certified relative truncation bound, so an element's tail and
density from the vector engine are the same bit for bit whatever array they
are computed in.  Far above the bulk, where a Chernoff bound puts the tail
below the least subnormal, tail and density are 0 without a sum.  Each
inverse takes Newton steps on the tail's normal deviate in Sankaran's
coordinate, in which that deviate is nearly linear (on the log tail where
the deviate passes 8 or the step fails), and stops once the tail is within
1e-12 of p in relative terms (or t is pinned to a few ulps); the vector one
solves a whole (levels, trials) array in one batched solve.  Its start
depends only on k, the element's p and the noncentralities that share that
p in the call: a level shared by many of them starts from an interpolant
over solved nodes, so an element's quantile is the same bit for bit
whatever other levels share the array, but not whatever noncentralities
share its level.  The term caps grow with the spread of each sum, and every
capped loop raises RangeError instead of returning its last iterate.
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
# a tail or density whose log lies below this (half the least subnormal)
# rounds to zero
_LOG_UNDER = -1075.0 * _LN2
# a far upper-tail sum is anchored sqrt(_FAR_DROP top) indices below its
# largest term, at index top, where its terms have fallen by about
# e^-_FAR_DROP: the terms below are then negligible, and the terms on the way
# up to the largest one stay far from overflow
_FAR_DROP = 50.0
_Q_TOL = 1e-17  # relative truncation of the incomplete gamma at each anchor
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# the inverses read the normal deviate of tails clipped to this distance from
# 0 and 1; beyond it |z| > 8, where they step on the log tail instead
_Z_EDGE = 1e-16


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


def _gamma_q_anchor(b, x, e):
    """Q(b, x) for b > 0, x > 0: ``_gamma_q_anchor_vec`` on one element."""
    up = x < b
    c, y, term = (b, x, x * e / b) if up else (b - 1.0, 1.0 / x, e)
    acc = 0.0
    cap = _term_cap(b)
    step = 0
    while True:
        if step >= cap:
            raise RangeError("incomplete gamma: no convergence in %d terms" % cap)
        if up:
            for _ in range(_CHECK):
                acc += term
                c += 1.0
                term *= y / c
        else:
            for _ in range(_CHECK):
                acc += term
                term *= c * y
                c -= 1.0
        step += _CHECK
        if up:
            if term * (c + 1.0) <= _Q_TOL * acc * (c + 1.0 - y):
                return 1.0 - acc
        elif c < 0.0 and math.floor(c) != c and term != 0.0:
            return _reg_gamma_q(b, x, x * e)
        elif term <= _Q_TOL * acc * (1.0 - c * y):
            return acc


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


def _log_tail_bound(k, lam, t, maximum=max, log=math.log):
    """Chernoff bound on the log tail: log P(X > t) <= min over 0 <= s < 1/2
    of -s t - (k/2) log(1 - 2s) + lam s / (1 - 2s).

    The minimum sits at u = 1/(1 - 2s) = 2t / (k + sqrt(k^2 + 4 lam t)), the
    positive root of lam u^2 + k u = t; at or below the mean k + lam it is
    u = 1 and the bound 0.  Floats take ``max`` and ``math.log``, ndarrays
    ``np.maximum`` and ``np.log``.
    """
    u = maximum(2.0 * t / (k + (k * k + 4.0 * lam * t) ** 0.5), 1.0)
    s = 0.5 - 0.5 / u
    return s * (lam * u - t) + 0.5 * k * log(u)


def _chisq_tail_pdf(k, lam, t):
    """(tail, pdf) of the noncentral chi-square at one point, t >= 0.

    ``_chisq_tail_pdf_vec``'s algorithm on floats: the same cut-off far
    above the bulk, the same anchor at the Poisson mode (below the largest
    term in the far upper tail) and the same positive sums for its
    incomplete gamma, the same scaling in the far upper tail, the same
    recurrences in lockstep up and down and the same
    certified relative bounds, checked every ``_CHECK`` steps (and once
    before the first, which ends a sum with no terms to add).  It adds the
    same terms in the same order as the vector engine on a one-element
    array, so the two differ only by the last bits of the anchor's ``exp``
    and ``log``.  Raises RangeError after ``_term_cap(h)`` steps.
    """
    if _log_tail_bound(k, lam, t) < _LOG_UNDER:
        return 0.0, 0.0
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
    nw = ne = 0
    low = 0.0
    if lw + le < _LOG_FLOOR and x >= a + j0 + 1.0:
        top = max(j0, float(math.floor(0.5 * (math.sqrt(am1 * am1 + 4.0 * hx) - a - 1.0))))
        j0 = max(j0, float(math.floor(top - math.sqrt(_FAR_DROP * top))))
        lw = _log_g(j0, max(h, _TINY))
        le = _log_g(j0 + am1, x)
        nw, ne = math.floor(lw / _LN2), math.floor(le / _LN2)
        low = math.exp(_log_g(top, max(h, _TINY)) + _log_g(top + am1, x) - (nw + ne) * _LN2)
    n = nw + ne
    w = math.exp(lw - nw * _LN2)
    e = math.exp(le - ne * _LN2)
    uu = ud = tl = w * _gamma_q_anchor(j0 + a, x, e)
    vu = vd = pf = w * e
    ju = jd = j0
    cap = _term_cap(h)
    step = 0
    up = down = True
    while True:
        tol_t = _TOL * tl + _TINY
        tol_p = _TOL * pf + _TINY
        if up:  # the bounds on w omit e's scale, so they are scaled by it
            rest = w * h
            up = not (rest <= math.ldexp(tol_t * step, ne)
                      and (vu * hx <= tol_p * (ju * (ju + a) - hx)
                           or rest <= math.ldexp(tol_p * step, ne)))
        if down:
            rest = ud * jd
            cd = jd * (jd + am1)
            down = not (rest <= tol_t * (h - jd)
                        and (vd * cd <= tol_p * (hx - cd) or rest * m <= tol_p * (h - jd))
                        or jd > h and x > jd + am1 and ud * cd <= _TOL * low * (hx - cd))
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
    1e-7 relative at large lam.  Returns that start and Sankaran's power h.
    Floats take ``maximum=max``, ndarrays ``np.maximum``; the start stays
    above 1e-6, where the density is finite.
    """
    kl = k + lam
    k2 = k + 2.0 * lam
    h = 1.0 - (2.0 / 3.0) * kl * (k + 3.0 * lam) / (k2 * k2)
    r = k2 / (kl * kl)
    m = (h - 1.0) * (1.0 - 3.0 * h)
    mean = 1.0 + h * r * (h - 1.0 - 0.5 * (2.0 - h) * m * r)
    sd = h * (2.0 * r) ** 0.5 * (1.0 + 0.5 * m * r)
    return maximum(kl * maximum(mean + sd * z, 0.0) ** (1.0 / h), 1e-6), h


def chisq_tail_inv(k: int, lam: float, p: float) -> float:
    """t with chisq_tail(k, lam, t) = p, to 1e-12 relative on the p scale.

    ``_chisq_tail_inv_vec`` on one element: safeguarded Newton from
    Sankaran's start, on the tail's normal deviate in Sankaran's coordinate
    (the log tail where that step fails), stopping once |tail - p| <=
    1e-12 p, or once the bracket on t is a few ulps wide (at large lam and
    small p the floats near t lie too far apart for the first test).
    Against scipy the relative error in t measured below 2e-12 for p from
    1e-300 to 1/2, k <= 1000 and lam <= 1e4, and below 1e-12 at lam = 1e6
    and 1e7.  For p near 1 the result is accurate in p, not in t, since the
    tail there is 1 minus a small lower tail.  Raises RangeError after
    ``_MAX_PASSES`` passes.
    """
    k, lam = _check_chisq_params(k, lam)
    p = float(p)
    if not (0.0 < p < 1.0) or not math.isfinite(p):
        raise DomainError("chisq_tail_inv: p must lie in (0,1)")
    zp = normal_tail_inv(p)
    t, h = _sankaran(k, lam, zp)
    kl = k + lam
    lo, hi = 0.0, math.inf
    for _ in range(_MAX_PASSES):
        tail, pdf = _chisq_tail_pdf(k, lam, t)
        if abs(tail - p) <= 1e-12 * p or hi - lo <= _T_ULPS * t:
            return t
        if tail > p:
            lo = t
        else:
            hi = t
        tn = math.nan
        z = normal_tail_inv(min(max(tail, _Z_EDGE), 1.0 - _Z_EDGE))
        if abs(z) < 8.0 and t * pdf > 0.0:
            s = (t / kl) ** h
            sn = s + (zp - z) * math.exp(-0.5 * z * z) / _SQRT_2PI * h * s / (t * pdf)
            if 0.0 < sn < 1e100:  # beyond, the float power overflows
                tn = kl * sn ** (1.0 / h)
        if not math.isfinite(tn) and tail > 0.0 and pdf > 0.0:
            tn = t + math.log(tail / p) * tail / pdf
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


def _gamma_q_anchor_vec(b, x, e):
    """Q(b, x) elementwise for ndarrays b > 0 and x > 0, from positive sums.

    ``e`` is the density term x^(b-1) e^-x / Gamma(b) (scaled by 2^-n gives
    Q scaled alike), which the engine already holds at its anchor.  Each
    term is the last one times a ratio, one multiply and one add (Ding's
    AS 275, 1992, sums the noncentral chi-square so):
    - where x >= b, Q = sum_i x^(b-1-i) e^-x / Gamma(b-i), downward from e
      with ratio (b-1-i)/x; for integer b the terms end at exponent 0;
    - where x < b, P = sum_i x^(b+i) e^-x / Gamma(b+i+1), upward from
      x e / b with ratio x/(b+i+1), and Q = 1 - P.
    The ratios only fall, so every ``_CHECK`` terms each element checks the
    geometric bound next term / (1 - next ratio) on the rest against
    ``_Q_TOL`` of its sum; a finished element adds exact zeros, and the
    state is compacted once a quarter of it has finished, as in the Poisson
    sweep.  For half-integer b the downward terms end at exponent 1/2 and
    leave Q(1/2, x); an element that gets there is handed to
    ``_reg_gamma_q_vec``.  Raises RangeError past ``_term_cap`` of the
    largest b terms.
    """
    out = np.empty_like(x)
    hand = np.zeros(x.shape, dtype=bool)
    cap = _term_cap(np.max(b, initial=0.0))
    up = x < b
    for upward in (True, False):
        sel = np.flatnonzero(up == upward)
        xs = x[sel]
        # state, one row each: the index c of the ratio (x/c upward after
        # c += 1, c/x downward before c -= 1), x upward and 1/x downward,
        # next term, sum, position
        if upward:
            s = np.stack([b[sel], xs, xs * e[sel] / b[sel], np.zeros_like(xs), sel])
        else:
            s = np.stack([b[sel] - 1.0, 1.0 / xs, e[sel], np.zeros_like(xs), sel])
        step = 0
        while s.shape[1]:
            if step >= cap:
                raise RangeError("incomplete gamma: no convergence in %d terms" % cap)
            c, y, term, acc, pos = s
            f = np.empty_like(c)
            for _ in range(_CHECK):
                acc += term
                if upward:
                    c += 1.0
                    np.divide(y, c, out=f)
                else:
                    np.multiply(c, y, out=f)
                    c -= 1.0
                term *= f
            step += _CHECK
            if upward:
                done = term * (c + 1.0) <= _Q_TOL * acc * (c + 1.0 - y)
            else:
                neg = c < 0.0
                if neg.any():  # past exponent 1/2 (not 0) a live term hands over
                    low = neg & (np.floor(c) != c) & (term != 0.0)
                    hand[pos[low].astype(np.int64)] = True
                    for row in (term, acc):
                        np.copyto(row, 0.0, where=low)
                done = term <= _Q_TOL * acc * (1.0 - c * y)
            np.copyto(term, 0.0, where=done)
            if 4 * np.count_nonzero(done) >= done.size:
                out[pos[done].astype(np.int64)] = 1.0 - acc[done] if upward else acc[done]
                s = s[:, np.flatnonzero(~done)]
    if hand.any():
        out[hand] = _reg_gamma_q_vec(b[hand], x[hand], x[hand] * e[hand])
    return out


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
    the pdf the same mixture of central densities.  Where the Chernoff bound
    ``_log_tail_bound`` puts the tail below half the least subnormal, tail
    and pdf are 0 and the element is not summed.  The bound holds for the
    pdf as well, which is at most half the tail times the factor m <= 1.62
    of the density bound below (t above the mean there).  Every other
    element is anchored at its own Poisson mode j0 = floor(h), the only
    place that calls exp: w_j0 and the density term e_j0 = x^(a+j0-1) e^-x /
    Gamma(a+j0), from which ``_gamma_q_anchor_vec`` sums Q(a + j0, x).
    Where the density term there is below 1e-250 and x lies above the mode,
    in the far upper tail, the terms grow from the mode to their largest,
    near (j + 1)(j + a) = h x, by more than the range of a float once lam
    reaches 1e5 near the cut-off; such an element is anchored
    sqrt(``_FAR_DROP`` top) indices below that top instead, with w and e
    carried in units of powers of two near their values there and scaled
    back at the end, so that tails down to 1e-300 keep their relative
    accuracy and subnormal ones their absolute accuracy.  From there it steps
    up and down in lockstep with the recurrences w h/j, e x/(a+j) and
    Q +- e, on the products u = w Q and v = w e.  Every eight steps each
    element checks its own certified bounds on the unswept terms: above the
    top index Q <= 1 and the Poisson and density ratios are geometric;
    below the bottom index Q only falls; and a density term is at most its
    tail term.  A direction stops once its bounds are within 1e-15 of the
    element's running tail and pdf, so the truncation error is relative
    and an element's result does not depend on the others.  A far sum's
    downward sweep, above the mode, where Q - e is unstable, stops as soon
    as its terms fall geometrically below 1e-15 of the density term at the
    top, which no sum falls below.  Raises
    RangeError after ``_term_cap`` of the largest h steps.
    """
    lam, t = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(t, dtype=float))
    shape = lam.shape
    lam, t = lam.ravel(), t.ravel()
    tail = np.zeros(lam.size)
    pdf = np.zeros(lam.size)
    live = np.flatnonzero(_log_tail_bound(k, lam, t, np.maximum, np.log) >= _LOG_UNDER)
    a = 0.5 * k
    am1 = a - 1.0
    h = 0.5 * lam[live]
    x = np.maximum(0.5 * t[live], _TINY)
    j0 = np.floor(h)
    lw = _log_g_vec(j0, np.maximum(h, _TINY))
    le = _log_g_vec(j0 + am1, x)
    # far in the upper tail the terms grow from the Poisson mode up to their
    # largest, near (j + 1)(j + a) = h x; such a sum is anchored just below
    # that term instead, with w in units of 2^nw and e in units of 2^ne
    # near their values there, so no term on the way over- or underflows
    far = (lw + le < _LOG_FLOOR) & (x >= a + j0 + 1.0)
    nw = np.zeros(lam.size, dtype=np.int64)
    ne = np.zeros(lam.size, dtype=np.int64)
    low = np.zeros(lam.size)  # far: the density term at the top, below both sums
    any_far = bool(far.any())
    if any_far:
        top = np.maximum(j0, np.floor(0.5 * (np.sqrt(am1 * am1 + 4.0 * h * x) - a - 1.0)))
        j0 = np.where(far, np.maximum(j0, np.floor(top - np.sqrt(_FAR_DROP * top))), j0)
        lw = np.where(far, _log_g_vec(j0, np.maximum(h, _TINY)), lw)
        le = np.where(far, _log_g_vec(j0 + am1, x), le)
        nw[live] = np.where(far, np.floor(lw / _LN2), 0.0)
        ne[live] = np.where(far, np.floor(le / _LN2), 0.0)
        lt = _log_g_vec(top, np.maximum(h, _TINY)) + _log_g_vec(top + am1, x)
        low[live] = np.where(far, np.exp(lt - (nw[live] + ne[live]) * _LN2), 0.0)
    w = np.exp(lw - nw[live] * _LN2)
    e = np.exp(le - ne[live] * _LN2)
    u = w * _gamma_q_anchor_vec(j0 + a, x, e)
    v = w * e
    # sweep state, one row each: h, x, hx, 1/h, 1/x, top and bottom index,
    # top weight, top and bottom terms u and v, tail, pdf, position
    s = np.stack([h, x, h * x, 1.0 / np.maximum(h, _TINY), 1.0 / x, j0, j0, w, u, v, u, v, u, v,
                  live])
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
            sc = ne[pos.astype(np.int64)]  # the bounds on w omit e's scale, so they are scaled by it
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
            if any_far:
                # above the mode, where only a far sum sweeps down, the tail
                # terms fall at least as fast as the density terms, since
                # Q(b - 1, x) <= Q(b, x) (b - 1) / x for b >= 1 and x > b - 1,
                # and each exceeds its density term; their rest is held to
                # the term at the top, as the running sums there are still
                # small and the recurrence Q - e is unstable above the mode
                down_ok |= (jd > h) & (x > jd + am1) & (
                    ud * cd <= _TOL * low[pos.astype(np.int64)] * (hx - cd))
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
    n = nw + ne
    tail, pdf = np.ldexp(tail, n), np.ldexp(0.5 * np.maximum(pdf, 0.0), n)
    return np.clip(tail, 0.0, 1.0).reshape(shape), pdf.reshape(shape)


def _chisq_tail_vec(k, lam, t):
    return _chisq_tail_pdf_vec(k, lam, t)[0]


# a level shared by at least _GROUP elements of one inverse call starts them
# from a Chebyshev interpolant over _NODES solved nodes; a node stops once a
# Newton step moves its t by at most _NODE_STEP in relative terms
_NODES = 32
_GROUP = 8 * _NODES
_NODE_STEP = 1e-6
# the Chebyshev points of the first kind on [-1, 1], cos(pi (i + 1/2) / _NODES),
# and the matrix taking values there to the coefficients of the interpolant
# (the one of degree 0 halved)
_CHEB_ANGLES = np.pi * (np.arange(_NODES) + 0.5) / _NODES
_CHEB_POINTS = np.cos(_CHEB_ANGLES)
_CHEB = np.cos(np.outer(np.arange(_NODES), _CHEB_ANGLES)) * (2.0 / _NODES)
_CHEB[0] *= 0.5


def _chisq_tail_inv_vec(k, lam, p):
    """Vector upper quantile: t with tail(k, lam, t) = p, elementwise.

    lam and p broadcast together (a column of levels against a row of
    noncentralities inverts a whole sweep in one call).  Safeguarded Newton
    (``_newton``) in Sankaran's coordinate, stopping once an element's tail
    is within 1e-12 of p in relative terms or its bracket on t is a few ulps
    wide.  An element starts from ``_sankaran``'s start, unless at least
    ``_GROUP`` elements share its p: such a group starts from Sankaran's
    start times a Chebyshev interpolant of the ratio of the true quantile to
    it, in v = log(lam + k/2) over the group's range of v
    (``_interpolated_starts``), which the stopping test mostly accepts on
    the first pass.  An element's start depends only on k, its p and the
    lam that share its p, so a level gives the same bits alone or inside a
    sweep.  Raises RangeError when an element or a node has not converged
    after ``_MAX_PASSES`` passes.
    """
    lam, p = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(p, dtype=float))
    shape = lam.shape
    lam, p = lam.ravel(), p.ravel()
    zp = _normal_tail_inv_vec(p)
    t, hs = _sankaran(k, lam, zp, np.maximum)
    if p.size >= _GROUP:
        _, where, counts = np.unique(p, return_inverse=True, return_counts=True)
        groups = [np.flatnonzero(where == g) for g in np.flatnonzero(counts >= _GROUP)]
        if groups:
            _interpolated_starts(k, lam, p, t, groups)
    return _newton(k, lam, p, zp, t, hs).reshape(shape)


def _interpolated_starts(k, lam, p, t, groups):
    """Replace Sankaran's starts ``t`` of each group (indices sharing a p) in place.

    A group's nodes are the Chebyshev points of its span of v = log(lam +
    k/2); all groups' nodes are solved in one batched ``_newton``.  Each
    group's ratio q(v) = t* / t_Sankaran at its nodes gives Chebyshev
    coefficients (one fixed matrix), evaluated by Clenshaw's recurrence at
    its elements.  Sankaran's start stays where the interpolated one is not
    finite and positive, and where the two differ by less than the size of
    the last two coefficients, the interpolant's error estimate: over a
    span too wide for 32 nodes that keeps Sankaran's start where it is the
    better one, as in the bulk at large lam.
    """
    v = np.log(lam + 0.5 * k)
    spans = [(v[g].min(), v[g].max()) for g in groups]
    node_lam = np.concatenate([np.exp(0.5 * (hi + lo) + 0.5 * (hi - lo) * _CHEB_POINTS)
                               for lo, hi in spans]) - 0.5 * k
    np.maximum(node_lam, 0.0, out=node_lam)
    node_p = np.repeat(p[[g[0] for g in groups]], _NODES)
    node_zp = _normal_tail_inv_vec(node_p)
    start, node_hs = _sankaran(k, node_lam, node_zp, np.maximum)
    q = _newton(k, node_lam, node_p, node_zp, start.copy(), node_hs, node=True) / start
    for g, (lo, hi), qg in zip(groups, spans, q.reshape(-1, _NODES)):
        c = _CHEB @ qg
        u = (v[g] - 0.5 * (hi + lo)) / (0.5 * (hi - lo)) if hi > lo else np.zeros(g.size)
        b1 = b2 = 0.0
        for cj in c[:0:-1]:
            b1, b2 = cj + 2.0 * u * b1 - b2, b1
        qs = c[0] + u * b1 - b2
        tg = t[g] * qs
        use = np.isfinite(tg) & (tg > 0.0) & (np.abs(qs - 1.0) > abs(c[-1]) + abs(c[-2]))
        t[g] = np.where(use, tg, t[g])


def _newton(k, lam, p, zp, t, hs, node=False):
    """Safeguarded Newton from starts ``t`` (updated in place), elementwise.

    With z the normal deviate of the tail at t, z_p = ``zp`` that of p and
    ``hs`` Sankaran's power h, the step in his coordinate s = (t/(k+lam))^h
    is s' = s + (z_p - z) phi(z) h s / (t pdf), which costs a few operations
    per element and pass and none per Poisson term.  Where |z| >= 8, s' <=
    0 or the step is not finite, Newton on the log tail instead; a step out
    of the bracket bisects it.  Each element stops once its tail is within
    1e-12 of p in relative terms, or its bracket on t is a few ulps wide.
    A ``node`` stops earlier: it takes one more step t + (tail - p) / pdf
    from the pass that meets that test, or stops after a Newton step that
    moved t by at most ``_NODE_STEP`` relative, which quadratic convergence
    puts near 1e-12.  Raises RangeError when an element has not stopped
    after ``_MAX_PASSES`` passes.
    """
    kl = k + lam
    lo = np.zeros_like(t)
    hi = np.full_like(t, np.inf)
    active = np.arange(t.size)
    for _ in range(_MAX_PASSES):
        ta, pa = t[active], p[active]
        tail, pdf = _chisq_tail_pdf_vec(k, lam[active], ta)
        live = (np.abs(tail - pa) > 1e-12 * pa) & (hi[active] - lo[active] > _T_ULPS * ta)
        if node:
            with np.errstate(divide="ignore", invalid="ignore"):
                tn = ta + (tail - pa) / pdf
            fin = ~live & np.isfinite(tn)
            t[active[fin]] = tn[fin]
        active = active[live]
        if active.size == 0:
            return t
        ta, pa, tail, pdf = ta[live], pa[live], tail[live], pdf[live]
        la, ha = lo[active], hi[active]
        np.copyto(la, ta, where=tail > pa)
        np.copyto(ha, ta, where=tail <= pa)
        # Newton on the tail's normal deviate z in Sankaran's coordinate s,
        # where z is nearly linear; where |z| >= 8 or that step fails, Newton
        # on the log tail, which does not stall where the tail falls off
        # exponentially
        z = _normal_tail_inv_vec(np.clip(tail, _Z_EDGE, 1.0 - _Z_EDGE))
        h, kla = hs[active], kl[active]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sa = (ta / kla) ** h
            sn = sa + (zp[active] - z) * np.exp(-0.5 * z * z) / _SQRT_2PI * h * sa / (ta * pdf)
            tn = kla * sn ** (1.0 / h)
            ok = (np.abs(z) < 8.0) & (sn > 0.0) & (sn < 1e100) & np.isfinite(tn)
            tn = np.where(ok, tn, ta + np.log(tail / pa) * tail / pdf)
        mid = np.where(np.isfinite(ha), 0.5 * (la + ha), 2.0 * np.maximum(ta, 1.0))
        bad = (tn <= la) | (tn >= ha) | ~np.isfinite(tn)
        tn = np.where(bad, mid, tn)
        lo[active], hi[active], t[active] = la, ha, tn
        if node:
            active = active[bad | (np.abs(tn - ta) > _NODE_STEP * ta)]
            if active.size == 0:
                return t
    raise RangeError("noncentral chi-square inverse: %d elements not converged in %d passes"
                     % (active.size, _MAX_PASSES))
