"""Tail probabilities used by every detector, and the vMF sphere constant.

Dependency-free implementations of the normal tail Q and its inverse, the
(non)central chi-square tail and inverse, and the von Mises-Fisher
normalizing constant c_k with its inverse.  All c_k arithmetic happens in log
scale; c_k underflows rapidly in both k and tau otherwise.  The Bessel
function in c_k, e^-tau I_nu(tau) at nu = k/2 - 1, is one positive series,
anchored at its largest term; it takes O(sqrt tau) terms, so its domain
stops at tau = 1e10.

The normal tail is one ``math.erfc`` call, and the normal quantile one
algorithm (AS241) on one set of tables for float and ndarray input alike.
The chi-square engine is one algorithm too, run twice: in pure Python on
floats for the public functions, and on ndarrays by the ``*_vec`` kernels of
the Monte Carlo hot paths (a 0-d call to numpy costs several times the
scalar one).  Both share their constants, their log-density split and
Sankaran's starting point.  Each sum is anchored at its own Poisson mode
(one ``exp`` per term kind, at the anchor), takes the incomplete gamma there
from positive sums that start at the density term already in hand (at
half-integer orders they end in Q(1/2, x) = erfc(sqrt x); no other
incomplete gamma is computed), sums outward with recurrences, and stops at
its own certified relative truncation bound, so an element's tail and
density from the vector engine are the same bit for bit whatever array they
are computed in.  The far upper tail, where the density term at the mode
lies below 1e-250, has one implementation, in the scalar engine: its sum is
anchored just below its largest term and scaled by powers of two, and the
vector engine hands each such element to it.  Far above the bulk, where a
Chernoff bound puts the tail below the least subnormal, tail and density
are 0 without a sum.  Each
inverse takes Newton steps on the tail's normal deviate in Sankaran's
coordinate, in which that deviate is nearly linear (on the log tail where
the deviate passes 8 or the step fails), and stops once the tail is within
1e-12 of p in relative terms (or t is pinned to a few ulps); the vector one
solves a whole (levels, trials) array in one batched solve.  A level shared
by at least 256 elements starts from interpolants on fixed cells of
log(lam + k/2), each solved once per process; an element's quantile then
depends only on k, its p and its own lam, not on the other noncentralities
of the call, on what the process computed before, or on the thread.  The
term caps grow with the spread of each sum, and every capped loop raises
RangeError instead of returning its last iterate.
"""

import math

import numpy as np

from .errors import DomainError, RangeError, level, nonnegative_real

__all__ = [
    "normal_tail",
    "normal_tail_inv",
    "chisq_tail",
    "chisq_tail_inv",
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
# normal tail

def normal_tail(z: float) -> float:
    """P(Z > z) for standard normal Z, for every finite z.

    erfc(sign(z) sqrt(z^2 / 2)) / 2, which measured closer than erfc(z /
    sqrt 2) / 2: relative error below 1e-14 for |z| <= 8 and below 2e-13 out
    to z = 37 (tail 6e-300), against mpmath.  Past |z| ~ 1e154 z^2 overflows
    and the tail is 0 or 1, as it is in double precision.
    """
    z = float(z)
    if not math.isfinite(z):
        raise DomainError("normal_tail: z must be finite")
    return 0.5 * math.erfc(math.copysign(math.sqrt(0.5 * z * z), z))


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
    p = level(float(p), "normal_tail_inv: p")
    q = 0.5 - p  # upper-tail convention: z is the lower quantile at 1 - p
    if abs(q) <= 0.425:
        return q * _rational(_PPND_CENTRE, 0.180625 - q * q)
    r = math.sqrt(-math.log(min(p, 1.0 - p)))
    z = _rational(_PPND_NEAR, r - 1.6) if r <= 5.0 else _rational(_PPND_FAR, r - 5.0)
    return z if q > 0.0 else -z


# ---------------------------------------------------------------------------
# (non)central chi-square

def _check_chisq_params(k, lam):
    if not (math.isfinite(k) and int(k) == k and k >= 1):
        raise DomainError("chi-square dof k must be a positive integer")
    return int(k), nonnegative_real(lam, "noncentrality")


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


def _log_tail_bound(k, lam, t, maximum=max, log=math.log, hypot=math.hypot):
    """Chernoff bound on the log tail: log P(X > t) <= min over 0 <= s < 1/2
    of -s t - (k/2) log(1 - 2s) + lam s / (1 - 2s).

    The minimum sits at u = 1/(1 - 2s) = t / (k/2 + hypot(k/2, sqrt(lam)
    sqrt(t))), the positive root of lam u^2 + k u = t, which no finite lam
    and t overflow; at or below the mean k + lam it is u = 1 and the bound 0.
    Floats take ``max``, ``math.log`` and ``math.hypot``, ndarrays the numpy
    twins.
    """
    u = maximum(t / (0.5 * k + hypot(0.5 * k, lam ** 0.5 * t ** 0.5)), 1.0)
    s = 0.5 - 0.5 / u
    return s * (lam * u - t) + 0.5 * k * log(u)


def _gamma_q_anchor(b, x, e, ne=0):
    """Q(b, x) for b > 0, x > 0: ``_gamma_q_anchor_vec`` on one element.

    ``e`` and Q are in units of 2^``ne``, which only a far sum sets.
    """
    up = x < b
    # at b = 1/2 the downward sum has no terms
    c, y, term = (b, x, x * e / b) if up else (b - 1.0, 1.0 / x, e if b >= 1.0 else 0.0)
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
                term *= c * y if c >= 1.0 else 0.0
                c -= 1.0
        step += _CHECK
        if up:
            if term * (c + 1.0) <= _Q_TOL * acc * (c + 1.0 - y):
                return 1.0 - acc
        elif c < 0.0 and math.floor(c) != c:
            return acc + math.ldexp(math.erfc(math.sqrt(x)), -ne)
        elif term <= _Q_TOL * acc * (1.0 - c * y):
            return acc


def _chisq_tail_pdf(k, lam, t):
    """(tail, pdf) of the noncentral chi-square at one point, t >= 0.

    ``_chisq_tail_pdf_vec``'s algorithm on floats: the same cut-off far
    above the bulk, the same anchor at the Poisson mode and the same
    positive sums for its incomplete gamma, the same recurrences in lockstep
    up and down and the same certified relative bounds, checked every
    ``_CHECK`` steps (and once before the first, which ends a sum with no
    terms to add).  It adds the same terms in the same order as the vector
    engine on a one-element array, so the two differ only by the last bits
    of the anchor's ``exp`` and ``log``.

    It is the only implementation of the far upper tail, where the density
    term at the mode lies below 1e-250 and x above the mode: there the terms
    grow from the mode to their largest, near (j + 1)(j + a) = h x, by more
    than the range of a float once lam reaches 1e5 near the cut-off.  Such a
    sum is anchored sqrt(``_FAR_DROP`` top) indices below that top instead,
    with w and e in units of powers of two near their values there, scaled
    back at the end, so that tails down to 1e-300 keep their relative
    accuracy and subnormal ones their absolute accuracy.  Two more bounds,
    one each way, stop it within a few spreads of its largest term.  The
    vector engine hands each far element here, so a vector call pays this
    pure-Python sum once per far element.  Raises RangeError after
    ``_term_cap(h)`` steps.
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
    far = lw + le < _LOG_FLOOR and x >= a + j0 + 1.0
    if far:
        top = max(j0, float(math.floor(0.5 * (math.sqrt(am1 * am1 + 4.0 * hx) - a - 1.0))))
        j0 = max(j0, float(math.floor(top - math.sqrt(_FAR_DROP * top))))
        lw = _log_g(j0, max(h, _TINY))
        le = _log_g(j0 + am1, x)
        nw, ne = math.floor(lw / _LN2), math.floor(le / _LN2)
        low = math.exp(_log_g(top, max(h, _TINY)) + _log_g(top + am1, x) - (nw + ne) * _LN2)
    n = nw + ne
    w = math.exp(lw - nw * _LN2)
    e = math.exp(le - ne * _LN2)
    uu = ud = tl = w * _gamma_q_anchor(j0 + a, x, e, ne)
    vu = vd = pf = w * e
    ju = jd = j0
    cap = _term_cap(h)
    step = 0
    up = down = True
    while True:
        tol_t = _TOL * tl + _TINY
        tol_p = _TOL * pf + _TINY
        # far out, scaled density terms times hx may overflow; the product is
        # then inf, the ratio bound reads false and the direction keeps
        # summing unless another bound holds, so an overflow never stops a
        # sweep early
        if up:  # the bounds on w omit e's scale, so they are scaled by it
            rest = w * h
            up = not (rest <= math.ldexp(tol_t * step, ne)
                      and (vu * hx <= tol_p * (ju * (ju + a) - hx)
                           or rest <= math.ldexp(tol_p * step, ne)))
            if up and far:
                # a far sum's tail terms are Q_j = Q_ju + e_(ju+1) + ... + e_j,
                # so their rest is at most Q_ju times the rest of the weights,
                # w h / (ju + 1 - h), plus the density terms' rest times
                # (ju + 1) / (ju + 1 - h), which the geometric ratio bounds
                # once past the largest term
                cu = ju * (ju + a) - hx
                up = not (cu > 0.0 and vu * hx <= tol_p * cu
                          and uu * h * cu + (ju + 1.0) * vu * hx <= tol_t * (ju + 1.0 - h) * cu)
        # above the mode, where only a far sum sweeps down, the tail terms fall
        # at least as fast as the density terms, since Q(b - 1, x) <= Q(b, x)
        # (b - 1) / x for b >= 1 and x > b - 1, and each exceeds its density
        # term; their rest is held to the term at the top, low, as the running
        # sums there are still small and the recurrence Q - e is unstable
        # above the mode
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
    return _chisq_tail_pdf(k, lam, nonnegative_real(t, "chisq_tail: t"))[0]


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
    p = level(float(p), "chisq_tail_inv: p")
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
# the vMF constant

_TAU_MAX = 1e10  # top of the stated domain of tau: the Bessel sweep takes O(sqrt tau) terms


def _bessel_sweep(nu, tau):
    """(m*, log s, I_{nu+1}(tau) / I_nu(tau)), where e^-tau I_nu(tau) = t_m* s.

    The terms of e^-tau I_nu(tau), t_m = g(m, x) g(m + nu, x) with x = tau/2
    (``_log_g``), are positive; s sums the t_m / t_m* <= 1 up and down from
    the largest, m* = floor((sqrt(nu^2 + tau^2) - nu) / 2), with the ratios
    x^2 / ((m+1)(m+nu+1)) and m(m+nu) / x^2, which fall away from m*: nothing
    overflows or underflows.  Each direction stops once geometric bounds put
    its rest of s and of sum m t_m / t_m* within ``_TOL`` of the sums held,
    and raises RangeError after ``_term_cap(tau)`` terms.  I_{nu+1}/I_nu = 2
    sum m t_m / (tau sum t_m) comes from the same terms.
    """
    x = 0.5 * tau
    y = x * x
    j0 = float(math.floor(x * tau / (math.hypot(nu, tau) + nu)))
    cap = _term_cap(tau)
    s, w = 1.0, j0  # sum t_m and sum m t_m, in units of t_m*
    for up in (True, False):
        j, t = j0, 1.0
        for _ in range(cap):
            if up:  # rho bounds the ratios of the t_m and of the m t_m above j
                r = y / ((j + 1.0) * (j + nu + 1.0))
                rho = r * (j + 2.0) / (j + 1.0)
                j += 1.0
            elif j == 0.0:
                break
            else:
                r = rho = j * (j + nu) / y
                j -= 1.0
            t *= r
            if rho < 1.0 and t <= _TOL * s * (1.0 - rho) and j * t <= _TOL * w * (1.0 - rho):
                break
            s += t
            w += j * t
        else:
            raise RangeError("vMF constant: series not done in %d terms" % cap)
    return j0, math.log(s), 2.0 * w / (tau * s)


def _check_vmf(k, tau):
    if not (math.isfinite(k) and int(k) == k and k >= 2):
        raise DomainError("vMF constant: k must be an integer >= 2")
    tau = float(tau)
    if not 0.0 <= tau <= _TAU_MAX:
        raise DomainError("vMF constant: tau must lie in [0, 1e10]")
    return int(k), tau


def _log_vmf(k, tau):
    """(log c_k(tau), I_{k/2}(tau) / I_{k/2-1}(tau)) from one sweep."""
    nu = 0.5 * k - 1.0
    top = nu * _LN2 + math.lgamma(0.5 * k) - 0.5 * k * _LN_2PI  # log c_k(0)
    if tau == 0.0:
        return top, 0.0
    j0, ls, ratio = _bessel_sweep(nu, tau)
    if j0 == 0.0:  # t_0 = e^-tau (tau/2)^nu / Gamma(nu + 1), so c_k(tau) = c_k(0) / s
        return top - ls, ratio
    log_i = _log_g(j0, 0.5 * tau) + _log_g(j0 + nu, 0.5 * tau) + ls + tau
    return nu * math.log(tau) - 0.5 * k * _LN_2PI - log_i, ratio


def log_vmf_const(k: int, tau: float) -> float:
    """log c_k(tau), the von Mises-Fisher normalizing constant (log scale).

    c_k(tau) = tau^(k/2-1) / ((2 pi)^(k/2) I_{k/2-1}(tau)) for 0 <= tau <=
    1e10, from ``_bessel_sweep``'s series; strictly decreasing in tau.  tau =
    0 is the uniform-on-sphere limit; below tau^2 = 2k the constant is c_k(0)
    over the series in units of its first term, accurate as tau -> 0.
    Against mpmath the relative error measured at most 8e-16 at k from 2 to
    2e10 + 2 and tau from 1e-300 to 1e10.
    """
    return _log_vmf(*_check_vmf(k, tau))[0]


def vmf_const_inv(k: int, log_target: float) -> float:
    """tau >= 0 with log_vmf_const(k, tau) = log_target (unique by monotonicity).

    Safeguarded Newton in the closed-form bracket [0, k + 2(log c_k(0) -
    log_target)]: the slope of log c_k is -I_{k/2}/I_{k/2-1}, which Amos
    (1974) bounds below by 1/2 from tau = 2k/3 on.  The slope comes from the
    same sweep as the value.  Stops once the Newton step is within 1e-13 of
    tau, or the bracket is a few ulps wide.  Raises RangeError for a target
    outside [log c_k(1e10), log c_k(0)] and after ``_MAX_PASSES`` passes.
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
    gap = top - log_target
    lo, hi = 0.0, k + 2.0 * gap
    if hi > _TAU_MAX and _log_vmf(k, _TAU_MAX)[0] > log_target:
        raise RangeError("vmf_const_inv: target below log c_k(1e10)")
    hi = min(hi, _TAU_MAX)
    # the slope is at least -tau/k, so the start lies at or below the root
    tau = min(math.sqrt(2.0 * k * gap), hi)
    for _ in range(_MAX_PASSES):
        lc, ratio = _log_vmf(k, tau)
        f = lc - log_target
        if f > 0.0:
            lo = tau
        else:
            hi = tau
        tn = tau + f / ratio if ratio > 0.0 else math.nan
        if abs(tn - tau) <= 1e-13 * tau or hi - lo <= _T_ULPS * tau:
            return tau
        if not lo < tn < hi:
            tn = 0.5 * (lo + hi)
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


def _gamma_q_anchor_vec(b, x, e):
    """Q(b, x) elementwise for ndarrays b > 0 and x > 0, from positive sums.

    ``e`` is the density term x^(b-1) e^-x / Gamma(b), which the engine
    already holds at its anchor.  Each term is the last one times a ratio,
    one multiply and one add (Ding's AS 275, 1992, sums the noncentral
    chi-square so):
    - where x >= b, Q = sum_i x^(b-1-i) e^-x / Gamma(b-i), downward from e
      with ratio (b-1-i)/x; the terms end at exponent 0 for integer b, and
      at exponent 1/2 for half-integer b, which leaves Q(1/2, x) =
      erfc(sqrt x) (A&S 6.5.17), from ``math.erfc`` as in the scalar path;
    - where x < b, P = sum_i x^(b+i) e^-x / Gamma(b+i+1), upward from
      x e / b with ratio x/(b+i+1), and Q = 1 - P.
    The ratios only fall, so every ``_CHECK`` terms each element checks the
    geometric bound next term / (1 - next ratio) on the rest (which covers
    Q(1/2, x) too) against ``_Q_TOL`` of its sum; a finished element adds
    exact zeros, and the state is compacted once two thirds of it have
    finished, by ``take`` along axis 1 as in the Poisson sweep, which keeps
    each state row contiguous.  Raises RangeError past ``_term_cap`` of the
    largest b terms.
    """
    out = np.empty_like(x)
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
        half = not upward and bool(np.any(np.floor(b[sel]) != b[sel]))
        if half:  # at b = 1/2 the downward sum has no terms
            np.copyto(s[2], 0.0, where=s[0] < 0.0)
        step = 0
        while s.shape[1]:
            if step >= cap:
                raise RangeError("incomplete gamma: no convergence in %d terms" % cap)
            c, y, term, acc, pos = s
            f = np.empty_like(c)
            # near the end of a half-integer sum, no ratio leads past exponent 1/2
            clamp = half and c.min() < _CHECK + 1
            for _ in range(_CHECK):
                acc += term
                if upward:
                    c += 1.0
                    np.divide(y, c, out=f)
                else:
                    np.multiply(c, y, out=f)
                    if clamp:
                        np.copyto(f, 0.0, where=c < 1.0)
                    c -= 1.0
                term *= f
            step += _CHECK
            if upward:
                done = term * (c + 1.0) <= _Q_TOL * acc * (c + 1.0 - y)
            else:
                if clamp:  # an ended sum adds Q(1/2, x); y = 0 marks one stopped earlier
                    end = (c < 0.0) & (y != 0.0) & (np.floor(c) != c)
                    at = pos[end].astype(np.int64)
                    acc[end] += [math.erfc(math.sqrt(v)) for v in x[at].tolist()]
                done = term <= _Q_TOL * acc * (1.0 - c * y)
                if half:
                    np.copyto(y, 0.0, where=done)
            np.copyto(term, 0.0, where=done)
            if 3 * np.count_nonzero(done) >= 2 * done.size:
                out[pos[done].astype(np.int64)] = 1.0 - acc[done] if upward else acc[done]
                s = s.take(np.flatnonzero(~done), axis=1)
    return out


_NORMAL_CHUNK = 8192  # elements per pass of _normal_tail_inv_vec: four 64 KB buffers stay in cache


def _normal_tail_inv_vec(p):
    """normal_tail_inv over an ndarray of p in (0, 1); same tables and regions.

    Walks the flattened p in passes of ``_NORMAL_CHUNK`` elements through
    four buffers allocated once per call (so concurrent calls share
    nothing).  Each pass evaluates the centre rational in place on every
    element, which costs less than gathering the centre's 85% and
    scattering it back, and throws away the values of tail elements.  For
    p outside (0, 1) that evaluation can overflow or meet a zero of the
    denominator, so it runs with warnings off; such p still warn in the
    tail's log, as before.  Only the tail elements are gathered and take
    ``_rational`` in their region.  Every element takes the operations of
    ``_rational`` in the same order, each rounded once, so its bits do not
    depend on the chunk or on the other elements; the result is C-ordered.
    """
    p = np.asarray(p, dtype=float)
    z = np.empty(p.shape)
    pf, zf = p.reshape(-1), z.reshape(-1)
    q, x, num, den = (np.empty(min(pf.size, _NORMAL_CHUNK)) for _ in range(4))
    a, b = _PPND_CENTRE
    for lo in range(0, pf.size, _NORMAL_CHUNK):
        pc, zc = pf[lo:lo + _NORMAL_CHUNK], zf[lo:lo + _NORMAL_CHUNK]
        m = pc.size
        qc, xc, nc, dc = q[:m], x[:m], num[:m], den[:m]
        np.subtract(0.5, pc, out=qc)
        with np.errstate(all="ignore"):
            np.multiply(qc, qc, out=xc)
            np.subtract(0.180625, xc, out=xc)
            # _rational's Horner steps: its first, 0 * x + a[0], is a[0] exactly
            np.multiply(xc, a[0], out=nc)
            np.multiply(xc, b[0], out=dc)
            for ai, bi in zip(a[1:-1], b[1:-1]):
                nc += ai
                nc *= xc
                dc += bi
                dc *= xc
            nc += a[-1]
            dc += b[-1]
            np.divide(nc, dc, out=zc)
            zc *= qc
        tail = np.flatnonzero(~(np.abs(qc, out=xc) <= 0.425))
        pt = pc[tail]
        r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
        near = r <= 5.0
        zt = np.empty_like(r)
        zt[near] = _rational(_PPND_NEAR, r[near] - 1.6)
        zt[~near] = _rational(_PPND_FAR, r[~near] - 5.0)
        zc[tail] = np.copysign(zt, qc[tail])
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
    From there it steps up and down in lockstep with the recurrences w h/j,
    e x/(a+j) and Q +- e, on the products u = w Q and v = w e.  Every eight
    steps each element checks its own certified bounds on the unswept
    terms: above the top index Q <= 1 and the Poisson and density ratios
    are geometric; below the bottom index Q only falls; and a density term
    is at most its tail term.  A direction stops once its bounds are within
    1e-15 of the element's running tail and pdf, so the truncation error is
    relative and an element's result does not depend on the others.  The
    check tests the weight clause first, and forms the density clauses and
    the zeroing only where some element passes it: in the early blocks none
    does.  A stopped direction adds exact zeros, and the state is compacted
    once two thirds of it have finished both directions.  The compaction is
    ``take`` along axis 1, which returns a C-ordered copy: indexing axis 1
    returns an F-ordered one, whose rows every later step would walk with a
    stride of the state's height (an in-place add over 6,000 elements took
    9.4 against 2.4 us on one core of a 2-vCPU Xeon).  The bottom index is clamped at 0 only in a block
    that can reach it: elsewhere that would add +0.0, so an element's bits
    still do not depend on the elements that share its array.  At k = 2 the
    offset a - 1 of the density ratios is 0, and the index enters them
    without it; adding 0.0 to an index changes no bit.  Raises RangeError
    after ``_term_cap`` of the largest h steps.

    Where the density term at the mode is below 1e-250 and x lies above the
    mode, in the far upper tail, the terms grow from the mode to their
    largest by more than the range of a float; the element is handed to the
    scalar engine ``_chisq_tail_pdf``, the one implementation of that sum,
    and takes its tail and pdf bit for bit, raising RangeError at its own
    ``_term_cap(h)``.  That costs a pure-Python sum per far element, which
    pays for few far elements and not for many: ``_chisq_tail_inv_vec(2,
    lam, 1e-300)``, every element far, measured (one core of a 2-CPU Xeon)
    4.1 s for 4,096 elements over lam in [0.9e5, 1.1e5], against 0.29 s for
    a vector sweep of them, 1.17 s against 0.077 s over [0.9e4, 1.1e4], the
    same 0.09 s for 64 elements near 1e5, and 0.024 s against 1.47 s for one
    element at lam = 1e7.  No Monte Carlo path, test or command-line
    default makes a call with many far elements.
    """
    lam, t = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(t, dtype=float))
    shape = lam.shape
    lam, t = lam.ravel(), t.ravel()
    tail = np.zeros(lam.size)
    pdf = np.zeros(lam.size)
    live = np.flatnonzero(_log_tail_bound(k, lam, t, np.maximum, np.log, np.hypot) >= _LOG_UNDER)
    a = 0.5 * k
    am1 = a - 1.0
    h = 0.5 * lam[live]
    x = np.maximum(0.5 * t[live], _TINY)
    j0 = np.floor(h)
    lw = _log_g_vec(j0, np.maximum(h, _TINY))
    le = _log_g_vec(j0 + am1, x)
    # far in the upper tail the terms grow from the Poisson mode up to their
    # largest by more than the range of a float; the scalar engine sums such
    # an element
    far = (lw + le < _LOG_FLOOR) & (x >= a + j0 + 1.0)
    if far.any():
        for i in live[far].tolist():
            tail[i], pdf[i] = _chisq_tail_pdf(k, float(lam[i]), float(t[i]))
        near = ~far
        live, h, x, j0, lw, le = live[near], h[near], x[near], j0[near], lw[near], le[near]
    w = np.exp(lw)
    e = np.exp(le)
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
        # from index _CHECK on, eight steps down cannot pass index 0
        clamp = down and jd.min() < _CHECK
        for _ in range(_CHECK):
            if up:  # one index up: w h/j, e x/(a+j-1), Q + e
                ju += 1.0
                np.divide(h, ju, out=r)
                w *= r
                uu *= r
                np.divide(x, np.add(ju, am1, out=f) if am1 else ju, out=f)
                f *= r
                vu *= f
                uu += vu
                tl += uu
                pf += vu
            if down:  # one index down: w j/h, Q - e, e (a+j-1)/x
                np.multiply(jd, hinv, out=r)
                ud -= vd
                ud *= r
                np.multiply(np.add(jd, am1, out=f) if am1 else jd, xinv, out=f)
                f *= r
                vd *= f
                jd -= 1.0
                if clamp:
                    np.maximum(jd, 0.0, out=jd)  # at index 0 the factor j zeroes the terms
                tl += ud
                pf += vd
        step += _CHECK
        # certified bounds on the unswept terms; a direction whose bound
        # holds is frozen by zeroing its terms, so later steps add exact
        # zeros to it.  The weight clause is tested first: the density
        # clauses and the zeroing are formed only where it holds somewhere
        tol_t = _TOL * tl + _TINY
        tol_p = None
        # the density terms are bounded twice: by their geometric ratio, and
        # by the tail terms, since e_j <= Q_j (up to the factor m of the
        # j = 0 term at k = 1), for where the ratio exceeds 1
        if up:
            rest = w * h
            up_ok = rest <= tol_t * step
            if up_ok.any():
                tol_p = _TOL * pf + _TINY
                up_ok &= (vu * hx <= tol_p * (ju * (ju + a) - hx)) | (rest <= tol_p * step)
                for row in (w, uu, vu):
                    np.copyto(row, 0.0, where=up_ok)
        if down:
            rest = ud * jd
            gap = h - jd
            down_ok = rest <= tol_t * gap
            if down_ok.any():
                if tol_p is None:
                    tol_p = _TOL * pf + _TINY
                cd = jd * (jd + am1)
                m = 1.0 if k > 1 else 0.5 + 0.5 * np.sqrt(1.0 + 2.0 * xinv)
                down_ok &= (vd * cd <= tol_p * (hx - cd)) | (rest * m <= tol_p * gap)
                for row in (ud, vd):
                    np.copyto(row, 0.0, where=down_ok)
        # a finished element only adds zeros from here on, so it is
        # dropped once two thirds of the state have finished
        done = up_ok & down_ok
        if 3 * np.count_nonzero(done) >= 2 * done.size:
            at = pos[done].astype(np.int64)
            tail[at] = np.clip(tl[done], 0.0, 1.0)
            pdf[at] = 0.5 * np.maximum(pf[done], 0.0)
            keep = np.flatnonzero(~done)
            s = s.take(keep, axis=1)
            up_ok, down_ok = up_ok[keep], down_ok[keep]
        up, down = not up_ok.all(), not down_ok.all()
    return tail.reshape(shape), pdf.reshape(shape)


def _chisq_tail_vec(k, lam, t):
    return _chisq_tail_pdf_vec(k, lam, t)[0]


# a level shared by at least _GROUP elements of one inverse call starts them
# from Chebyshev interpolants on fixed cells of v = log(lam + k/2): width 1
# with 16 nodes below v = _V_FINE and width 1/4 with 8 nodes above it.
# Uniform cells of widths 1/4 to 2 with 6 to 32 nodes either took more than
# 1.05 engine evaluations per training draw at rho = 1 or 5, or a second
# node pass near lam = 400 at rho = 20.  Cell c covers [c/4, c/4 + width),
# cut below at log(k/2), where lam = 0.  A node stops
# once a Newton step moves its t by at most _NODE_STEP in relative terms
_GROUP = 256
_NODE_STEP = 1e-6
_V_FINE = 6.0
_CELL_NODES = (16, 8)  # below and above _V_FINE
# a cell's row: its 16 coefficients (an 8-node cell's upper 8 are 0, which
# leaves Clenshaw's sums unchanged), the interpolant's error estimate, and
# the cell's centre and half-width in v.  _CELLS maps (k, p, cell) to the
# row for the life of the process; it is emptied when it reaches
# _CELLS_MAX rows (under 0.5 MB)
_CELLS = {}
_CELLS_MAX = 1024


def _chebyshev(n):
    """The Chebyshev points of the first kind on [-1, 1], cos(pi (i + 1/2) / n),
    and the matrix taking values there to the coefficients of the
    interpolant (the one of degree 0 halved)."""
    angles = np.pi * (np.arange(n) + 0.5) / n
    matrix = np.cos(np.outer(np.arange(n), angles)) * (2.0 / n)
    matrix[0] *= 0.5
    return np.cos(angles), matrix


_CHEB = {n: _chebyshev(n) for n in _CELL_NODES}


def _chisq_tail_inv_vec(k, lam, p):
    """Vector upper quantile: t with tail(k, lam, t) = p, elementwise.

    lam and p broadcast together (a column of levels against a row of
    noncentralities inverts a whole sweep in one call).  Safeguarded Newton
    (``_newton``) in Sankaran's coordinate, stopping once an element's tail
    is within 1e-12 of p in relative terms or its bracket on t is a few ulps
    wide.  An element starts from ``_sankaran``'s start, unless at least
    ``_GROUP`` elements share its p: such a group starts from Sankaran's
    start times a Chebyshev interpolant of the ratio of the true quantile to
    it, on the fixed cell of v = log(lam + k/2) that holds the element
    (``_interpolated_starts``), which the stopping test mostly accepts on
    the first pass.  An element's start depends only on k, its p, its own
    lam and whether ``_GROUP`` elements share its p, so it gives the same
    bits alone or inside a sweep, whatever else the process computed before
    and on any thread.  Raises RangeError when an element or a node has not
    converged after ``_MAX_PASSES`` passes.
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

    Each element of a group with 0 < p < 1 whose lam is finite and >= 0
    lies in one fixed cell of v = log(lam + k/2); its ratio q(v) =
    t* / t_Sankaran comes from the Chebyshev coefficients of that cell,
    evaluated by Clenshaw's recurrence.  A cell's row is a function of
    (k, p, cell) alone: ``_CELLS`` keeps it for the process (at most
    ``_CELLS_MAX`` = 1024 rows, under 0.5 MB, emptied when full), and the
    cells a call misses are solved in one batched ``_newton``
    (``_solve_cells``).  Two threads that miss one cell store the same
    bits, so a start never depends on the cache.  Sankaran's start stays
    where the interpolated one is not finite and positive, where the two
    differ by less than the size of the cell's last two coefficients, the
    interpolant's error estimate, and for an element outside every cell (a
    lam that is nan, infinite or negative).
    """
    idx, vs, rows, keys = [], [], [], []
    for g in groups:
        pg = float(p[g[0]])
        if not 0.0 < pg < 1.0:
            continue
        lg = lam[g]
        keep = (lg >= 0.0) & (lg < np.inf)
        g, v = g[keep], np.log(lg[keep] + 0.5 * k)
        cells, where = np.unique(np.where(v < _V_FINE, 4.0 * np.floor(v), np.floor(4.0 * v)),
                                 return_inverse=True)
        idx.append(g)
        vs.append(v)
        rows.append(where + len(keys))
        keys += [(k, pg, c) for c in cells.astype(int).tolist()]
    if not keys:
        return
    table = [_CELLS.get(key) for key in keys]
    missing = [i for i, row in enumerate(table) if row is None]
    if missing:
        for i, row in zip(missing, _solve_cells(k, [keys[i] for i in missing])):
            table[i] = row
            if len(_CELLS) >= _CELLS_MAX:
                _CELLS.clear()
            _CELLS[keys[i]] = row
    c = np.array(table).T.take(np.concatenate(rows), axis=1)  # C-ordered: c[j] is contiguous
    idx = np.concatenate(idx)
    u = (np.concatenate(vs) - c[17]) / c[18]
    u2 = 2.0 * u
    b1 = b2 = 0.0
    for cj in c[15:0:-1]:
        b1, b2 = cj + u2 * b1 - b2, b1
    qs = c[0] + u * b1 - b2
    ts = t[idx] * qs
    use = np.isfinite(ts) & (ts > 0.0) & (np.abs(qs - 1.0) > c[16])
    t[idx] = np.where(use, ts, t[idx])


def _solve_cells(k, keys):
    """The rows of the cells ``keys``, (k, p, cell) triples, from one batched
    ``_newton`` over all their nodes."""
    cut = math.log(0.5 * k)
    spans = []
    for _, _, c in keys:
        fine = c >= 4.0 * _V_FINE
        lo = 0.25 * c
        hi = lo + (0.25 if fine else 1.0)
        lo = max(lo, cut)
        spans.append((0.5 * (hi + lo), 0.5 * (hi - lo), _CELL_NODES[fine]))
    node_lam = np.concatenate([np.exp(mid + half * _CHEB[n][0]) for mid, half, n in spans])
    node_lam = np.maximum(node_lam - 0.5 * k, 0.0)
    node_p = np.repeat([p for _, p, _ in keys], [n for _, _, n in spans])
    node_zp = _normal_tail_inv_vec(node_p)
    start, node_hs = _sankaran(k, node_lam, node_zp, np.maximum)
    q = _newton(k, node_lam, node_p, node_zp, start.copy(), node_hs, node=True) / start
    rows, at = [], 0
    for mid, half, n in spans:
        # a row-wise sum, not a BLAS product: a cell's bits must not depend
        # on where its nodes sit in the batch
        coef = (_CHEB[n][1] * q[at:at + n]).sum(axis=1)
        rows.append(np.concatenate([coef, np.zeros(16 - n),
                                    [abs(coef[-1]) + abs(coef[-2]), mid, half]]))
        at += n
    return rows


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
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
