"""Special-function checks against frozen oracle values and scipy/mpmath.

The frozen constants were produced once by the scripts in tests/oracles/
(quadrature + bisection for the normal tail, direct Monte Carlo for the
noncentral chi-square, mpmath series/closed forms for Bessel and the
matched-density normalizer) and pinned here; scipy and mpmath also appear
inline as independent routes.  The library code under test never calls
either.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import stats

from ummtest import montecarlo, specfun
from ummtest.errors import DomainError, RangeError

# ---- frozen oracle values (tests/oracles/oracle_normal.py) ----
Q_12816 = 9.9991500097675157e-02
QINV_01 = 1.2815515655446004
Q_2_MINUS_QINV_01 = 2.3624041589411687e-01
Q_1 = 1.5865525393145705e-01
QINV_0025 = 1.9599639845400545
Q_025 = 4.0129367431707630e-01
Q_8 = 6.2209605742717908e-16

# ---- frozen oracle values (tests/oracles/oracle_ncx2_mc.py, 1e7 trials) ----
NCX2_TAIL_MC = 0.54226740        # P(X > -2 ln 0.1), X ~ ncx2(k=2, lam=4)
NCX2_TAIL_MC_3SIG = 4.726e-4
NCX2_Q90_MC = 12.06151467        # empirical 0.9-quantile of the same X
NCX2_Q90_MC_3SIG = 1.099e-2

# ---- frozen oracle values (tests/oracles/oracle_ncx2_far_tail.py, mpmath) ----
# (k, lam, t, P(X > t)); scipy's ncx2.sf returns 0 at the last two and is 2%
# off at the second
NCX2_FAR_TAIL = [
    (1, 1.0, 1447.58, 1.0007490349803555779e-300),
    (8, 400.0, 2647.18, 5.5851241414510828266e-216),
    (1, 10000.0, 16448.29, 6.9403872715383045617e-176),
    (1000, 10000.0, 20000.0, 6.5496773846236869758e-304),
]
# quantiles the absolute stopping test used to miss (76.09 and 11450.11)
NCX2_ISF_2_0_1EM300 = 1381.5510557964274104
NCX2_ISF_2_1E4_1EM12 = 11457.415118976163669

# ---- frozen oracle values (tests/oracles/oracle_bessel_vmf.py, mpmath) ----
LOG_I_HALF_1 = -0.064351991073531798753
LOG_I_1_2 = 0.46413447354615974426
LOG_I_0_1 = 0.23591435850717864869
LOG_BESSEL_STRESS = [
    (0.0, 50.0, 47.127575501871804584),
    (31.0, 100.0, 91.988975079706840893),
    (15.5, 3.0, -22.857207836604422871),
    (2.5, 10000.0, 9994.4755912658072361),
    (31.0, 10000.0, 9994.4278514171634661),
]
LOG_C3_1 = -2.6924636085404864266
LOG_C3_2 = -3.1262444390235136136


# ---------------------------------------------------------------------------
# normal tail

def test_normal_tail_pinned_values():
    assert abs(specfun.normal_tail(1.2816) - Q_12816) < 1e-12
    assert abs(specfun.normal_tail(1.0) - Q_1) < 1e-12
    assert abs(specfun.normal_tail(0.25) - Q_025) < 1e-12
    assert abs(specfun.normal_tail(8.0) - Q_8) < 1e-12 * Q_8 + 1e-30
    assert abs(specfun.normal_tail_inv(0.1) - QINV_01) < 1e-12
    assert abs(specfun.normal_tail_inv(0.025) - QINV_0025) < 1e-12
    assert abs(specfun.normal_tail(2.0 - QINV_01) - Q_2_MINUS_QINV_01) < 1e-12


def test_normal_tail_symmetry_and_monotone():
    zs = np.linspace(-8.0, 8.0, 401)
    vals = np.array([specfun.normal_tail(z) for z in zs])
    assert np.max(np.abs(vals + vals[::-1] - 1.0)) <= 1e-12
    assert np.all(np.diff(vals) < 0.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-10, max_value=1.0 - 1e-10))
def test_normal_inverse_roundtrip(p):
    z = specfun.normal_tail_inv(p)
    assert abs(specfun.normal_tail(z) - p) < 1e-12 * max(p, 1e-3)


def test_normal_tail_domain():
    with pytest.raises(DomainError):
        specfun.normal_tail_inv(0.0)
    with pytest.raises(DomainError):
        specfun.normal_tail_inv(1.0)
    with pytest.raises(DomainError):
        specfun.normal_tail(float("nan"))


def _rel_err(got, ref):
    return np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)


def test_normal_quantile_against_scipy():
    p = np.concatenate([np.geomspace(1e-300, 0.5, 2000), 1.0 - np.geomspace(1e-16, 0.5, 2000)])
    scalar = np.array([specfun.normal_tail_inv(x) for x in p])
    assert np.max(_rel_err(scalar, stats.norm.isf(p))) <= 1e-14
    assert np.max(_rel_err(montecarlo.gaussians(p), stats.norm.ppf(p))) <= 1e-14
    # same tables, same regions; only np.log and math.log may differ by an ulp
    assert np.max(_rel_err(specfun._normal_tail_inv_vec(p), scalar)) <= 2e-15


# ---------------------------------------------------------------------------
# noncentral chi-square

def test_chisq_tail_against_mc_oracle():
    t = -2.0 * math.log(0.1)
    assert abs(specfun.chisq_tail(2, 4.0, t) - NCX2_TAIL_MC) < NCX2_TAIL_MC_3SIG
    assert abs(specfun.chisq_tail_inv(2, 4.0, 0.1) - NCX2_Q90_MC) < NCX2_Q90_MC_3SIG


def test_chisq_tail_against_scipy_grid():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(120):
        k = int(rng.integers(1, 40))
        lam = float(rng.uniform(0.0, 60.0))
        t = float(rng.uniform(0.0, 3.0 * (k + lam) + 5.0))
        ours = specfun.chisq_tail(k, lam, t)
        ref = stats.ncx2.sf(t, k, lam) if lam > 0 else stats.chi2.sf(t, k)
        worst = max(worst, abs(ours - ref))
    assert worst < 1e-9


def test_chisq_central_k1_is_folded_normal():
    for t in np.geomspace(0.01, 50.0, 40):
        ref = 2.0 * specfun.normal_tail(math.sqrt(t))
        assert abs(specfun.chisq_tail(1, 0.0, t) - ref) <= 1e-11


def test_chisq_tail_monotone_in_t_and_lam():
    ts = np.linspace(0.1, 30.0, 25)
    vals = [specfun.chisq_tail(3, 2.0, t) for t in ts]
    assert np.all(np.diff(vals) < 0.0)
    lams = np.linspace(0.0, 40.0, 25)
    vals = [specfun.chisq_tail(3, lam, 8.0) for lam in lams]
    assert np.all(np.diff(vals) > 0.0)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=50),
    st.floats(min_value=0.0, max_value=80.0),
    st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_chisq_inverse_roundtrip(k, lam, p):
    t = specfun.chisq_tail_inv(k, lam, p)
    assert abs(specfun.chisq_tail(k, lam, t) - p) < 1e-9


def test_chisq_domain_errors():
    with pytest.raises(DomainError):
        specfun.chisq_tail(0, 1.0, 1.0)
    with pytest.raises(DomainError):
        specfun.chisq_tail(2, -0.5, 1.0)
    with pytest.raises(DomainError):
        specfun.chisq_tail(2, 1.0, -1.0)
    with pytest.raises(DomainError):
        specfun.chisq_tail_inv(2, 1.0, 1.5)


SCALAR_REL_TOL = 1e-10  # relative error bound of the scalar path against scipy and mpmath


def _scipy_quantile(k, lam, p):
    """(t, P(X > t)) from scipy at level p, or None where scipy's own pair
    does not round-trip: far out at large lam its ncx2 loses digits (see
    NCX2_FAR_TAIL), and those levels are left to the mpmath pins."""
    dist, args = (stats.ncx2, (k, lam)) if lam > 0.0 else (stats.chi2, (k,))
    t = float(dist.isf(p, *args))
    q = float(dist.sf(t, *args)) if math.isfinite(t) else 0.0
    return (t, q) if q > 0.0 and abs(q - p) <= 1e-12 * p else None


_DOFS = st.integers(min_value=1, max_value=1000)
_LAMS = st.one_of(st.just(0.0), st.floats(min_value=-8.0, max_value=4.0).map(lambda e: 10.0 ** e))
_LEVELS = st.floats(min_value=-300.0, max_value=math.log10(0.5)).map(lambda e: 10.0 ** e)


@settings(max_examples=150, deadline=None)
@given(_DOFS, _LAMS, _LEVELS)
@example(1, 1.0, 1e-300)
@example(1000, 1e4, 1e-100)
def test_chisq_tail_relative_against_scipy(k, lam, p):
    ref = _scipy_quantile(k, lam, p)
    assume(ref is not None)
    t, q = ref
    assert abs(specfun.chisq_tail(k, lam, t) - q) <= SCALAR_REL_TOL * q


@settings(max_examples=150, deadline=None)
@given(_DOFS, _LAMS, _LEVELS)
@example(2, 0.0, 1e-300)
@example(2, 1e4, 1e-12)
@example(1, 1e4, 0.5)
def test_chisq_tail_inv_relative_against_scipy(k, lam, p):
    ref = _scipy_quantile(k, lam, p)
    assume(ref is not None)
    assert abs(specfun.chisq_tail_inv(k, lam, p) - ref[0]) <= SCALAR_REL_TOL * ref[0]


@pytest.mark.parametrize("k, lam, t, ref", NCX2_FAR_TAIL)
def test_chisq_far_upper_tail_against_mpmath(k, lam, t, ref):
    # the anchor's terms underflow here unless the sums are scaled
    assert abs(specfun.chisq_tail(k, lam, t) - ref) <= SCALAR_REL_TOL * ref
    assert abs(specfun.chisq_tail_inv(k, lam, ref) - t) <= SCALAR_REL_TOL * t
    vec = specfun._chisq_tail_vec(k, np.array([lam]), np.array([t]))[0]
    assert abs(vec - ref) <= SCALAR_REL_TOL * ref


@pytest.mark.parametrize("k, lam, p, ref", [(2, 0.0, 1e-300, NCX2_ISF_2_0_1EM300),
                                            (2, 1e4, 1e-12, NCX2_ISF_2_1E4_1EM12)])
def test_chisq_tail_inv_mended_faults(k, lam, p, ref):
    assert abs(specfun.chisq_tail_inv(k, lam, p) - ref) <= 1e-10 * ref


@pytest.mark.parametrize("k, lam, p", [(4, 1e6, 1e-12), (1, 1e6, 1e-100), (4, 1e7, 1e-3),
                                       (4, 1e7, 1e-12)])
def test_chisq_large_noncentrality(k, lam, p):
    # past lam = 1e4 the sums need more than _MAX_TERMS terms, so the caps
    # grow with the Poisson spread; and the floats near t are too far apart
    # for the tail to come within 1e-12 of p, so the inverse stops on its
    # bracket instead
    t = specfun.chisq_tail_inv(k, lam, p)
    assert abs(t - stats.ncx2.isf(p, k, lam)) <= 1e-12 * t
    assert abs(specfun.chisq_tail(k, lam, t) - p) <= 1e-10 * p


def test_scalar_caps_raise(monkeypatch):
    # the same caps and cases as test_vector_engine_caps_raise
    monkeypatch.setattr(specfun, "_MAX_TERMS", 16)
    with pytest.raises(RangeError, match="incomplete gamma"):
        specfun.chisq_tail(2, 1e4, 1e4)
    with pytest.raises(RangeError, match="Poisson sum"):
        specfun.chisq_tail(2, 1e4, 100.0)
    monkeypatch.undo()
    monkeypatch.setattr(specfun, "_MAX_PASSES", 1)
    with pytest.raises(RangeError, match="not converged"):
        specfun.chisq_tail_inv(2, 1e4, 0.1)


# ---------------------------------------------------------------------------
# vector noncentral chi-square engine (the Monte Carlo hot path)

VEC_DOFS = (1, 2, 8, 32)
# one array mixing the noncentrality from 0 to 1e4
VEC_LAMS = np.array([0.0, 1e-8, 0.3, 1.0, 2.5, 7.0, 20.0, 64.0, 150.0, 400.0,
                     1000.0, 2500.0, 6000.0, 1e4])
VEC_REL_TOL = 1e-10  # relative error bound of the vector engine against scipy


def _vec_grid(k):
    """(lam, t, tail) over VEC_LAMS and tails from 1e-12 to 1 - 1e-12."""
    q = np.concatenate([np.geomspace(1e-12, 0.5, 9), 1.0 - np.geomspace(1e-12, 0.4, 8)])
    lam, q = (a.ravel() for a in np.meshgrid(VEC_LAMS, q))
    t = stats.ncx2.isf(q, k, lam)
    return lam, t, stats.ncx2.sf(t, k, lam)


@pytest.mark.parametrize("k", VEC_DOFS)
def test_vector_tail_and_pdf_against_scipy(k):
    lam, t, ref = _vec_grid(k)
    assert ref.min() < 1e-11 and ref.max() > 1.0 - 1e-11
    tail, pdf = specfun._chisq_tail_pdf_vec(k, lam, t)
    assert np.max(_rel_err(tail, ref)) <= VEC_REL_TOL
    assert np.max(_rel_err(pdf, stats.ncx2.pdf(t, k, lam))) <= VEC_REL_TOL
    assert np.array_equal(specfun._chisq_tail_vec(k, lam, t), tail)


@pytest.mark.parametrize("k", VEC_DOFS)
def test_vector_inverse_against_scipy(k):
    p = np.geomspace(1e-12, 0.5, 12)
    lam, p = (a.ravel() for a in np.meshgrid(VEC_LAMS, p))
    t = specfun._chisq_tail_inv_vec(k, lam, p)
    assert np.max(_rel_err(t, stats.ncx2.isf(p, k, lam))) <= VEC_REL_TOL
    # the stopping rule is relative: the engine's own tail at t is p to 1e-12
    assert np.max(_rel_err(specfun._chisq_tail_vec(k, lam, t), p)) <= 1e-12


@pytest.mark.parametrize("k, lam, p", [(2, 0.0, 1e-300), (2, 1e4, 1e-12), (1, 3.0, 1e-200),
                                       (32, 100.0, 1e-100)])
def test_vector_inverse_far_upper_tail(k, lam, p):
    # Newton on the log tail reaches levels where a plain Newton step stalls
    t = specfun._chisq_tail_inv_vec(k, np.array([lam]), p)[0]
    assert abs(t - stats.ncx2.isf(p, k, lam)) <= VEC_REL_TOL * t


def test_vector_inverse_broadcasts_levels_against_noncentralities():
    lam = np.array([0.0, 3.0, 40.0, 900.0])
    levels = np.array([0.05, 0.1, 0.3])
    t = specfun._chisq_tail_inv_vec(2, np.broadcast_to(lam, (3, 4)), levels[:, None])
    assert t.shape == (3, 4)
    for i, p in enumerate(levels):
        assert np.array_equal(t[i], specfun._chisq_tail_inv_vec(2, lam, p))


def test_vector_engine_elements_are_independent():
    # each element stops at its own truncation bound and Newton pass, so its
    # value is the same bit for bit whatever else shares the array
    k = 3
    lam, t, _ = _vec_grid(k)
    tail, pdf = specfun._chisq_tail_pdf_vec(k, lam, t)
    p = np.clip(tail, 1e-12, 0.5)
    inv = specfun._chisq_tail_inv_vec(k, lam, p)
    for i in range(0, lam.size, 3):
        one_tail, one_pdf = specfun._chisq_tail_pdf_vec(k, lam[i:i + 1], t[i:i + 1])
        assert one_tail[0] == tail[i] and one_pdf[0] == pdf[i], (lam[i], t[i])
    for i in range(0, lam.size, 11):
        assert specfun._chisq_tail_inv_vec(k, lam[i:i + 1], p[i:i + 1])[0] == inv[i]


def test_vector_inverse_raises_no_overflow_warning():
    # far in the upper tail at large noncentrality the scaled density terms
    # times hx overflow in the up-direction bound; the bound reads false
    # there and the result stays right, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = specfun._chisq_tail_inv_vec(1, np.array([1e7]), np.array([1e-300]))
    assert t[0] == pytest.approx(10235678.89734737, rel=1e-15)
    assert t[0] == pytest.approx(specfun.chisq_tail_inv(1, 1e7, 1e-300), rel=1e-15)


@pytest.mark.parametrize("k", (1, 2, 8))
def test_vector_engine_far_from_the_bulk(k):
    # far below the mean the density terms grow toward index 0 and underflow;
    # the sum still stops, with scipy's values (tail 1 or 0, density 0)
    lam = np.array([3e4, 3e4, 3e4, 50.0])
    t = np.array([5.4, 3000.0, 1e-3, 4000.0])
    tail, pdf = specfun._chisq_tail_pdf_vec(k, lam, t)
    assert np.array_equal(tail, stats.ncx2.sf(t, k, lam))
    assert np.array_equal(pdf, stats.ncx2.pdf(t, k, lam))


def test_vector_engine_caps_raise(monkeypatch):
    lam = np.array([1e4])
    # incomplete gamma at the anchor: Q(5001, 5000) needs hundreds of terms
    monkeypatch.setattr(specfun, "_MAX_TERMS", 16)
    with pytest.raises(RangeError, match="incomplete gamma"):
        specfun._chisq_tail_pdf_vec(2, lam, np.array([1e4]))
    # the Poisson sweep: at t = 100 the anchor converges in a few terms, the
    # sweep needs hundreds of steps
    with pytest.raises(RangeError, match="Poisson sum"):
        specfun._chisq_tail_pdf_vec(2, lam, np.array([100.0]))
    monkeypatch.undo()
    monkeypatch.setattr(specfun, "_MAX_PASSES", 1)
    with pytest.raises(RangeError, match="not converged"):
        specfun._chisq_tail_inv_vec(2, lam, 0.1)


@pytest.mark.parametrize("k", VEC_DOFS)
def test_scalar_path_agrees_with_vector_engine(k):
    # one algorithm on floats and on arrays: the same element agrees to
    # rounding, tail, pdf and inverse alike
    lam, t, _ = _vec_grid(k)
    tail, pdf = specfun._chisq_tail_pdf_vec(k, lam, t)
    one = np.array([specfun._chisq_tail_pdf(k, lv, tv) for lv, tv in zip(lam.tolist(), t.tolist())])
    assert np.max(_rel_err(one[:, 0], tail)) <= 1e-13
    assert np.max(_rel_err(one[:, 1], pdf)) <= 1e-13
    lam, p = (a.ravel() for a in np.meshgrid(VEC_LAMS, np.geomspace(1e-12, 0.5, 12)))
    inv = specfun._chisq_tail_inv_vec(k, lam, p)
    one = np.array([specfun.chisq_tail_inv(k, lv, pv) for lv, pv in zip(lam.tolist(), p.tolist())])
    assert np.max(_rel_err(one, inv)) <= 1e-13


# ---------------------------------------------------------------------------
# Bessel / matched-density normalizer

def test_log_bessel_pinned():
    assert abs(specfun.log_bessel_i(0.5, 1.0) - LOG_I_HALF_1) < 1e-12
    assert abs(specfun.log_bessel_i(1.0, 2.0) - LOG_I_1_2) < 1e-12
    assert abs(specfun.log_bessel_i(0.0, 1.0) - LOG_I_0_1) < 1e-12
    for nu, tau, ref in LOG_BESSEL_STRESS:
        assert abs(specfun.log_bessel_i(nu, tau) - ref) < 1e-9 * max(1.0, abs(ref))


def test_log_vmf_const_pinned():
    assert abs(specfun.log_vmf_const(3, 1.0) - LOG_C3_1) < 1e-12
    assert abs(specfun.log_vmf_const(3, 2.0) - LOG_C3_2) < 1e-12
    assert abs(specfun.log_vmf_const(3, 0.0) - math.log(1.0 / (4.0 * math.pi))) < 1e-12


def test_log_vmf_const_decreasing_in_tau():
    taus = np.geomspace(1e-3, 200.0, 60)
    for k in (2, 3, 5, 8, 16, 33, 64):
        vals = [specfun.log_vmf_const(k, t) for t in taus]
        assert np.all(np.diff(vals) < 0.0), f"not decreasing at k={k}"
        assert specfun.log_vmf_const(k, 0.0) > vals[0]


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=32), st.floats(min_value=1e-3, max_value=500.0))
def test_vmf_const_inverse_roundtrip(k, tau):
    back = specfun.vmf_const_inv(k, specfun.log_vmf_const(k, tau))
    assert abs(back - tau) < 1e-7 * max(1.0, tau)


def test_vmf_const_inv_range_errors():
    top = specfun.log_vmf_const(4, 0.0)
    assert specfun.vmf_const_inv(4, top) == 0.0
    with pytest.raises(RangeError):
        specfun.vmf_const_inv(4, top + 1.0)


def test_vmf_const_inv_cap_raises(monkeypatch):
    log_c = specfun.log_vmf_const(8, 15.0)
    assert abs(specfun.vmf_const_inv(8, log_c) - 15.0) < 1e-7 * 15.0
    monkeypatch.setattr(specfun, "_MAX_PASSES", 1)
    with pytest.raises(RangeError, match="not converged"):
        specfun.vmf_const_inv(8, log_c)
