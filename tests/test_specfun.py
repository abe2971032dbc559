"""Special-function checks against frozen oracle values and scipy/mpmath.

The frozen constants were produced once by the scripts in tests/oracles/
(quadrature + bisection for the normal tail, direct Monte Carlo for the
noncentral chi-square, mpmath Bessel values for the vMF constant) and
pinned here; scipy and mpmath also appear inline as independent routes.  The
library code under test never calls either.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import special, stats

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

# ---- frozen oracle values (tests/oracles/oracle_half_integer_tails.py, mpmath) ----
NORMAL_FAR = [  # (z, Q(z))
    (9.25, 1.122463359132798266e-20),
    (10.5, 4.3190063178092303465e-26),
    (11.75, 3.5309423958859932586e-32),
    (13.0, 6.1171643995498796823e-39),
    (14.25, 2.2414062326936399914e-46),
    (15.5, 1.7344607917938700513e-54),
    (16.75, 2.8313142815440512382e-63),
    (18.0, 9.7409489189371504826e-73),
    (19.25, 7.0581465785834792445e-83),
    (20.5, 1.0764673258790960335e-93),
    (21.75, 3.4539884803573677034e-105),
    (23.0, 2.3306370062206487986e-117),
    (24.25, 3.3060813584979604522e-130),
    (25.5, 9.8562365189639287943e-144),
    (26.75, 6.1738895337253882693e-158),
    (28.0, 8.1238694696594265936e-173),
    (29.25, 2.2451311768291083467e-188),
    (30.5, 1.3029379131780763509e-204),
    (31.75, 1.5876179359245268191e-221),
    (33.0, 4.0611856209158550885e-239),
    (34.25, 2.1806939268660965784e-257),
    (35.5, 2.4576915406619369142e-276),
    (36.75, 5.8131448155330618027e-296),
    (37.0, 5.7255712225245768227e-300),
]
CHI2_ODD_CENTRAL = [  # (k, t, P(X > t))
    (1, 6.6348966, 0.01000000000573271869),
    (1, 19.511421, 9.9999998149833809063e-6),
    (1, 41.821456, 1.0000001865543665168e-10),
    (1, 87.161733, 1.0000002158506708046e-20),
    (1, 224.38475, 9.9999915568502494766e-51),
    (1, 453.94308, 1.0000011218553098127e-100),
    (1, 683.79338, 9.9999757699099436652e-151),
    (1, 913.7627, 1.0000003933694067737e-200),
    (1, 1143.7971, 1.0000051196352486245e-250),
    (1, 1373.8726, 1.0000156226655739477e-300),
    (3, 11.344867, 0.0099999987528039975823),
    (3, 25.90175, 9.9999987739949421052e-6),
    (3, 49.542156, 9.9999996446541530423e-11),
    (3, 96.239124, 9.9999996936204683248e-21),
    (3, 235.27613, 1.000001773358148117e-50),
    (3, 466.21436, 9.9999878824001888602e-101),
    (3, 696.87341, 1.0000013877977753754e-150),
    (3, 927.41701, 1.0000004278823328503e-200),
    (3, 1157.897, 1.0000247686909985939e-250),
    (3, 1388.3368, 9.9998693683071177115e-301),
]

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
# (k, lam, t, P(X > t)) between the Chernoff cut-off and the least normal,
# where scipy's ncx2.sf reads 0: two normal tails and two subnormal ones
NCX2_FAR_BAND = [
    (1, 1e5, 119012.7368688536, 3.983017311500277177e-182),
    (1, 1e5, 124082.5, 1.6568482549526509374e-284),
    (2, 1e5, 125300.35, 3.9599612971553314023e-312),
    (2, 1e6, 1078002.04, 1.0328932600335522666e-320),
]
# quantiles the absolute stopping test used to miss (76.09 and 11450.11)
NCX2_ISF_2_0_1EM300 = 1381.5510557964274104
NCX2_ISF_2_1E4_1EM12 = 11457.415118976163669

# ---- frozen oracle values (tests/oracles/oracle_gamma_anchor.py, mpmath) ----
GAMMA_ANCHOR = [  # (b, x, e, Q(b, x))
    (0.5, 0.1464466094067262, 1.2734574800232941644, 0.58837242523730292243),
    (0.5, 0.5, 0.4839414490382866996, 0.31731050786291410283),
    (0.5, 0.8535533905932737, 0.26008552971815701705, 0.19136118154086167241),
    (0.5, 1.2071067811865475, 0.15357212887941658586, 0.12023834065689729871),
    (0.5, 2.621320343559643, 0.02533611689760286648, 0.022039795281218246343),
    (0.5, 6.156854249492381, 0.00048179002140125656314, 0.00044964371777044164393),
    (1.0, 0.5, 0.6065306597126334236, 0.6065306597126334236),
    (1.0, 1.0, 0.3678794411714423216, 0.3678794411714423216),
    (1.0, 1.5, 0.22313016014842982893, 0.22313016014842982893),
    (1.0, 2.0, 0.13533528323661269189, 0.13533528323661269189),
    (1.0, 4.0, 0.018315638888734180294, 0.018315638888734180294),
    (1.0, 9.0, 0.0001234098040866795495, 0.0001234098040866795495),
    (1.5, 0.27525512860841106, 0.44955308845280264418, 0.90766236670594774297),
    (1.5, 0.8876275643042055, 0.43760139351244405476, 0.62033444390383278631),
    (1.5, 1.5, 0.30836065960753855362, 0.39162517627108895548),
    (1.5, 2.1123724356957947, 0.19835749389173188014, 0.23819610198092722068),
    (1.5, 2.724744871391589, 0.1221170540903779229, 0.14169109708764892317),
    (1.5, 5.174234614174766, 0.014529028536998654348, 0.015824849523584429259),
    (1.5, 11.297958971132712, 0.000047023377334909824127, 0.000049022466370627228537),
    (10.0, 0.5131670194948619, 4.0709896321281641263e-9, 0.99999999978091042289),
    (10.0, 6.83772233983162, 0.096572847837316120596, 0.84656303936139354044),
    (10.0, 8.418861169915811, 0.12919691639259662578, 0.66348449671064871867),
    (10.0, 10.0, 0.12511003572113329898, 0.45792971447185220831),
    (10.0, 11.581138830084189, 0.096465870836634237279, 0.28089679732525406336),
    (10.0, 13.16227766016838, 0.062793088228025193504, 0.15535840360363731239),
    (10.0, 19.486832980505138, 0.0038448933680925764602, 0.0067178334408033027917),
    (10.0, 35.29822128134704, 1.0969570802653777854e-7, 1.4550856003025431713e-7),
    (10.5, 0.7788889523882094, 3.7706297196473274849e-8, 0.99999999700098399555),
    (10.5, 7.25962965079607, 0.093655593390136616237, 0.84627926205787007508),
    (10.5, 8.879814825398036, 0.12561628712563332121, 0.66416060771504507332),
    (10.5, 10.5, 0.12214330696528824504, 0.45894420889282182429),
    (10.5, 12.120185174601964, 0.094465184163687635676, 0.28155825074952808473),
    (10.5, 13.74037034920393, 0.061557579899760535401, 0.15550157296072287077),
    (10.5, 20.221111047611792, 0.0037059032911311672838, 0.0065675674473096781417),
    (10.5, 36.42296279363144, 9.1292837126614059595e-8, 1.2204456208574236336e-7),
    (77.0, 6.800284900863019, 1.1048636537380096111e-51, 1.0),
    (77.0, 50.675106837823634, 0.00019100756183781224639, 0.99965419182777725805),
    (77.0, 68.22503561260788, 0.029822550889661121805, 0.84191486329810769209),
    (77.0, 72.61251780630394, 0.04228950268938040028, 0.68140932675289734501),
    (77.0, 77.0, 0.045414516010310133862, 0.48484437427428395841),
    (77.0, 81.38748219369606, 0.038090693928683777322, 0.29853155549260464469),
    (77.0, 85.77496438739212, 0.02560840279979784199, 0.15817064939206699182),
    (77.0, 103.32489316217637, 0.00085255238174889907099, 0.0029759349212936551207),
    (77.0, 147.199715099137, 3.6097768516769611975e-11, 7.3583714364561871878e-11),
    (900.0, 660.0, 1.8214041493869678209e-19, 0.9999999999999999995),
    (900.0, 810.0, 0.00011865005828576447303, 0.99901615243388881081),
    (900.0, 870.0, 0.0082485037073316597018, 0.84139064456851880394),
    (900.0, 885.0, 0.011916540644148726986, 0.68852656776642337756),
    (900.0, 900.0, 0.013296844767100207793, 0.49556728070111798038),
    (900.0, 915.0, 0.01155790046026547686, 0.30560571658107804559),
    (900.0, 930.0, 0.0078898528886726462584, 0.1586114810594311389),
    (900.0, 990.0, 0.00017752895006902723972, 0.0017700390637122101638),
    (900.0, 1140.0, 1.5364495600155378198e-14, 7.1610165451565032974e-14),
    (900.5, 660.4333425900215, 1.8252668067298582862e-19, 0.9999999999999999995),
    (900.5, 810.4750034712581, 0.00011862502303623918983, 0.99901605874869680383),
    (900.5, 870.4916678237527, 0.0082461616465722204746, 0.84139061877360265279),
    (900.5, 885.4958339118764, 0.011913181131398125168, 0.68852738350577010025),
    (900.5, 900.5, 0.013293153420808267972, 0.49556851151433880502),
    (900.5, 915.5041660881236, 0.011554740112033496163, 0.30560653006173894941),
    (900.5, 930.5083321762473, 0.0078877100652890887938, 0.15861150508348127022),
    (900.5, 990.5249965287419, 0.00017747134043617109867, 0.0017699153876081310864),
    (900.5, 1140.5666574099785, 1.5344187356530647134e-14, 7.1531271967739599066e-14),
    (10000.0, 9200.0, 8.9325940497136364638e-18, 0.99999999999999989869),
    (10000.0, 9700.0, 0.000041669850838462758773, 0.998765824415531508),
    (10000.0, 9900.0, 0.0024359334431713200591, 0.84134880780643534304),
    (10000.0, 9950.0, 0.0035368359669874166082, 0.69058211513881740579),
    (10000.0, 10000.0, 0.0039893895589628256487, 0.49867019166004479962),
    (10000.0, 10050.0, 0.0035045628656077901861, 0.30765755929743444214),
    (10000.0, 10100.0, 0.0024036692578620490526, 0.1586512495528203776),
    (10000.0, 10300.0, 0.000046986349278486107651, 0.0014704948963856812759),
    (10000.0, 10800.0, 2.3412728992919789284e-16, 3.1098199621688447545e-15),
]

# ---- frozen oracle values (tests/oracles/oracle_vmf.py, mpmath) ----
LOG_C3_1 = -2.6924636085404864266
LOG_C3_2 = -3.1262444390235136136
LOG_VMF_PINS = [  # (k, tau, log c_k(tau)) at small tau
    (2, 1.0, -2.07379142491652413225),
    (4, 2.0, -3.44674142580490540196),
]
LOG_VMF_STRESS = [
    (2, 50.0, -48.96545256828115006772),
    (64, 100.0, -8.040765439175063957768),
    (33, 3.0, 9.56072671520592260888),
    (7, 10000.0, -9977.882310068299488468),
    (64, 10000.0, -9767.719366011000856762),
]
LOG_VMF_EDGE = [  # tiny tau, k >> tau, tau up to 1e10, and k = 2e10 + 2
    (3, 1e-200, -2.531024246969290792978),
    (10000, 2000.0, 31662.08441368823474041),
    (1000, 1e8, -99991716.88831806350529),
    (200, 2e5, -198968.3400379417228881),
    (2, 1e10, -9999999989.406013068247),
    (20000000002, 1e-300, 208811210451.5045535921),
]
LOG_C3_TINY = -2.531024246969290793  # log c_3(1e-300)


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


def test_normal_tail_relative_accuracy():
    zs = np.linspace(-8.0, 8.0, 16001)
    got = np.array([specfun.normal_tail(z) for z in zs.tolist()])
    assert np.max(_rel_err(got, stats.norm.sf(zs))) <= 1e-13
    # beyond z = 8 scipy itself drifts toward 2e-13; the pins are mpmath's
    z, ref = np.array(NORMAL_FAR).T
    got = np.array([specfun.normal_tail(v) for v in z.tolist()])
    assert np.max(_rel_err(got, ref)) <= 3e-13


def test_normal_tail_of_huge_finite_z():
    # z^2 overflows past |z| ~ 1e154; the tail is still 0 or 1
    assert specfun.normal_tail(1e200) == 0.0
    assert specfun.normal_tail(-1e200) == 1.0


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
    for bad in (math.nan, math.inf, -math.inf):  # refused before int(k)
        with pytest.raises(DomainError):
            specfun.chisq_tail(bad, 0.0, 1.0)
        with pytest.raises(DomainError):
            specfun.chisq_tail_inv(bad, 0.0, 0.5)


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
    # far in the upper tail at large noncentrality the vector engine hands
    # the element to the scalar engine, whose float products overflow to inf
    # without a warning; the up-direction bound then reads false and the
    # result stays right
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = specfun._chisq_tail_inv_vec(1, np.array([1e7]), np.array([1e-300]))
    assert t[0] == pytest.approx(10235678.89734737, rel=1e-15)
    assert t[0] == pytest.approx(specfun.chisq_tail_inv(1, 1e7, 1e-300), rel=1e-15)


def test_far_sum_stops_within_a_few_spreads_of_its_largest_term(monkeypatch):
    # a far sum bounds its upward rest by the density terms past its largest
    # term, not by Q <= 1: at lam = 1e7 and p = 1e-300 its sweep ends within
    # 28,600 steps, where Q <= 1 alone took 42,500; the vector engine hands
    # the element to that scalar sum, so its pdf is the scalar one exactly
    monkeypatch.setattr(specfun, "_term_cap", lambda scale: 32_000)
    t = specfun.chisq_tail_inv(1, 1e7, 1e-300)
    assert t == pytest.approx(10235678.89734737, rel=1e-15)
    tail, pdf = specfun._chisq_tail_pdf_vec(1, np.array([1e7]), np.array([t]))
    assert tail[0] == pytest.approx(1e-300, rel=1e-12)
    assert pdf[0] == specfun._chisq_tail_pdf(1, 1e7, t)[1]


# elements put among the bulk grid's, k: ((lam, p, far), ...): t is the
# quantile of p, and a far element's density term at the Poisson mode lies
# below 1e-250 (at lam = 1e5, k = 1 and p = 1e-100 it does not)
NEIGHBOURS = {1: ((1e5, 1e-100, False), (1e5, 1e-200, True), (1e5, 1e-250, True)),
              2: ((1e4, 1e-280, True),), 8: ((1e6, 1e-300, True),)}


@pytest.mark.parametrize("k", sorted(NEIGHBOURS))
def test_vector_engine_bits_do_not_depend_on_a_far_neighbour(k, monkeypatch):
    # the vector engine sums no far element itself: each goes to the scalar
    # engine exactly once and leaves the sweep, so it takes the scalar
    # engine's bits, and every other element keeps the bits of a call alone
    near_lam, p, far = (np.array(c) for c in zip(*NEIGHBOURS[k]))
    near_t = np.array([specfun.chisq_tail_inv(k, lv, pv) for lv, pv in zip(near_lam, p)])
    lam, t, _ = _vec_grid(k)
    at = np.linspace(0, lam.size, near_lam.size).astype(np.int64)
    lam, t = np.insert(lam, at, near_lam), np.insert(t, at, near_t)
    calls = []
    scalar = specfun._chisq_tail_pdf

    def counted(*args):
        calls.append(args)
        return scalar(*args)

    monkeypatch.setattr(specfun, "_chisq_tail_pdf", counted)
    tail, pdf = specfun._chisq_tail_pdf_vec(k, lam, t)
    monkeypatch.undo()
    assert sorted(calls) == sorted(zip([k] * far.sum(), near_lam[far].tolist(), near_t[far].tolist()))
    is_near = np.zeros(tail.size, dtype=bool)
    is_near[at + np.arange(at.size)] = True
    assert tail[is_near] == pytest.approx(p, rel=1e-12)
    is_far = is_near.copy()
    is_far[is_near] = far
    for i in np.flatnonzero(is_far).tolist():
        assert (tail[i], pdf[i]) == scalar(k, lam[i], t[i]), (lam[i], t[i])
    for i in np.flatnonzero(~is_far).tolist():
        one_tail, one_pdf = specfun._chisq_tail_pdf_vec(k, lam[i:i + 1], t[i:i + 1])
        assert one_tail[0] == tail[i] and one_pdf[0] == pdf[i], (lam[i], t[i])


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


@pytest.mark.parametrize("k", VEC_DOFS + (3,))
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


def test_incomplete_gamma_anchor_against_mpmath():
    # Q(b, x) from the density term e by positive sums, downward from e where
    # x >= b and upward for P where x < b (at half-integer b ending in
    # erfc(sqrt x) past exponent 1/2), in both paths
    b, x, e, q = np.array(GAMMA_ANCHOR).T
    assert np.max(_rel_err(specfun._gamma_q_anchor_vec(b, x, e), q)) <= 1e-13
    one = np.array([specfun._gamma_q_anchor(*row[:3]) for row in GAMMA_ANCHOR])
    assert np.max(_rel_err(one, q)) <= 1e-13


@pytest.mark.parametrize("k, t, ref", CHI2_ODD_CENTRAL)
def test_odd_central_tail_against_mpmath(k, t, ref):
    # at lam = 0 and odd k the anchor's sum ends in the scaled erfc(sqrt x),
    # which at k = 1 is the whole tail, in both paths
    one = specfun.chisq_tail(k, 0.0, t)
    vec = specfun._chisq_tail_vec(k, np.array([0.0]), np.array([t]))[0]
    for got in (one, vec):
        assert abs(got - ref) <= 2e-13 * ref


@pytest.mark.parametrize("k, lam, t", [(2, 100.0, 2e4), (2, 1e4, 5e4), (1, 1e6, 1.1e6),
                                       (8, 0.3, 1.6e11)])
def test_far_above_the_bulk_tail_and_pdf_underflow_to_zero(k, lam, t):
    # the sums overflow on their way from the Poisson mode to their largest
    # terms here; a Chernoff bound below the least subnormal returns zeros
    assert stats.ncx2.sf(t, k, lam) == 0.0 and stats.ncx2.pdf(t, k, lam) == 0.0
    assert specfun._chisq_tail_pdf(k, lam, t) == (0.0, 0.0)
    tail, pdf = specfun._chisq_tail_pdf_vec(k, np.array([lam]), np.array([t]))
    assert tail[0] == 0.0 and pdf[0] == 0.0


@pytest.mark.parametrize("k, lam, t", [(2, 1e8, 1e300), (2, 1.0, 1.7e308), (2, 1e300, 1.7e308)])
def test_chernoff_cut_off_where_lam_t_overflows(k, lam, t):
    # 4 lam t overflows here; the cut-off's root is a hypot of k/2 and
    # sqrt(lam) sqrt(t), so it still returns zeros, with no sweep and no warning
    assert specfun.chisq_tail(k, lam, t) == 0.0
    tail, pdf = specfun._chisq_tail_pdf_vec(k, np.array([lam]), np.array([t]))
    assert tail[0] == 0.0 and pdf[0] == 0.0


@pytest.mark.parametrize("k, lam, t, ref", NCX2_FAR_BAND)
def test_far_band_tail_against_mpmath(k, lam, t, ref):
    # from the Poisson mode the terms overflowed on their way up to the
    # largest one, or the sweep ran into its cap; anchored below the largest
    # term both paths read the tail, to the spacing of the subnormals
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = specfun._chisq_tail_pdf(k, lam, t)
        tail, pdf = specfun._chisq_tail_pdf_vec(k, np.array([lam]), np.array([t]))
    for got in (one[0], tail[0]):
        assert abs(got - ref) <= 1e-12 * ref + 2.0 ** -1074
    assert one[1] == pytest.approx(pdf[0], rel=1e-13, abs=2.0 ** -1074)
    # scipy reads 0 here; the engine agrees to below the least normal
    assert abs(tail[0] - stats.ncx2.sf(t, k, lam)) < 2.3e-308 or ref > 1e-300
    assert abs(pdf[0] - stats.ncx2.pdf(t, k, lam)) < 2.3e-308 or ref > 1e-300


@pytest.mark.parametrize("lam", [1e5, 1e6])
@pytest.mark.parametrize("k", [1, 2, 8])
def test_far_band_scan_is_finite_and_non_increasing(k, lam):
    # from the mean to past the Chernoff cut-off, through the far band
    t = k + lam + np.linspace(0.0, 60.0, 241) * math.sqrt(2.0 * (k + 2.0 * lam))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tail, pdf = specfun._chisq_tail_pdf_vec(k, np.full(t.size, lam), t)
        one = np.array([specfun._chisq_tail_pdf(k, lam, tv) for tv in t[::6].tolist()])
    assert np.all(np.isfinite(tail)) and np.all(np.isfinite(pdf))
    assert np.all(np.diff(tail) <= 0.0) and tail[-1] == 0.0 and tail[-2] < 1e-300 < tail[0]
    assert np.all(np.abs(one[:, 0] - tail[::6]) <= 1e-13 * tail[::6] + 2.0 ** -1074)


@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5, 7.0])
def test_inverse_near_one_reads_zero_far_out(lam):
    # the first step lands near t = 1.6e11, where the tail used to read 1.0
    p = 1.0 - 1e-9
    one = specfun.chisq_tail_inv(8, lam, p)
    vec = specfun._chisq_tail_inv_vec(8, np.array([lam]), p)[0]
    for t in (one, vec):
        assert abs(specfun.chisq_tail(8, lam, t) - p) <= 1e-12 * p


@pytest.mark.parametrize("rho, bound", [(20.0, 2.0), (5.0, 2.5)])
def test_training_inversions_take_few_passes(monkeypatch, rho, bound):
    # element evaluations of the vector engine per inversion, over 3,000
    # training draws at k = 2, delta = 2 and two levels: the Newton step in
    # Sankaran's coordinate ends every element by its second pass at rho = 20
    # (2.47 passes on the log tail) and averages at most 2.5 at rho = 5 (3.00)
    sizes = []
    engine = specfun._chisq_tail_pdf_vec

    def counted(k, lam, t):
        sizes.append(np.size(t))
        return engine(k, lam, t)

    monkeypatch.setattr(specfun, "_chisq_tail_pdf_vec", counted)
    g = np.random.default_rng(12).standard_normal((3000, 2))
    rx = math.sqrt(rho) * g
    rx[:, 0] += rho * 2.0
    th0 = np.broadcast_to(np.sum(rx * rx, axis=1), (2, 3000))
    specfun._chisq_tail_inv_vec(2, th0, np.array([[0.1], [0.3]]))
    assert sum(sizes) / th0.size <= bound
    if rho == 20.0:  # one engine call per pass of the batched solve
        assert len(sizes) <= 2


@pytest.mark.parametrize("rho, steps0, steps1", [(1.0, 41, 49), (5.0, 113, 121),
                                                  (20.0, 337, 337)])
def test_training_sweeps_take_few_steps(monkeypatch, rho, steps0, steps1):
    # Poisson-sweep steps of the vector engine on the 3,000 training draws
    # above, level 0.1, t the quantile under H0: the least constant
    # _term_cap at which the tail returns, for lam = ||rho x||^2 and for
    # lam = ||rho x + mu1||^2; pinned at the counts the engine takes now
    rx = math.sqrt(rho) * np.random.default_rng(12).standard_normal((3000, 2))
    rx[:, 0] += rho * 2.0
    lam0 = np.sum(rx * rx, axis=1)
    rx[:, 0] += 2.0
    lam1 = np.sum(rx * rx, axis=1)
    t = specfun._chisq_tail_inv_vec(2, lam0, 0.1)

    def least_cap(lam):
        lo, hi = 1, 4096
        while lo < hi:
            mid = (lo + hi) // 2
            monkeypatch.setattr(specfun, "_term_cap", lambda scale: mid)
            try:
                specfun._chisq_tail_pdf_vec(2, lam, t)
                hi = mid
            except RangeError:
                lo = mid + 1
        return lo

    assert least_cap(lam0) <= steps0
    assert least_cap(lam1) <= steps1


def _training_draws(k, delta, rho, n=3000):
    # ||rho x||^2 of n training draws, x ~ N(delta e_1, I / rho) in R^k
    rx = math.sqrt(rho) * np.random.default_rng(12).standard_normal((n, k))
    rx[:, 0] += rho * delta
    return np.sum(rx * rx, axis=1)


@pytest.mark.parametrize("k, delta, rho", [(2, 2.0, 1.0), (2, 2.0, 5.0), (2, 2.0, 20.0),
                                           (1, 2.0, 5.0), (8, 3.0, 5.0), (32, 4.0, 2.0)])
def test_interpolated_starts_take_one_pass(monkeypatch, k, delta, rho):
    # a level shared by 3,000 draws starts from a Chebyshev interpolant over
    # 32 solved nodes, which the stopping test accepts on the first pass:
    # engine evaluations per element, nodes included (2.0 to 3.0 from
    # Sankaran's start)
    sizes = []
    engine = specfun._chisq_tail_pdf_vec

    def counted(k, lam, t):
        sizes.append(np.size(t))
        return engine(k, lam, t)

    monkeypatch.setattr(specfun, "_chisq_tail_pdf_vec", counted)
    th0 = np.broadcast_to(_training_draws(k, delta, rho), (2, 3000))
    levels = np.array([[0.1], [0.3]])
    t = specfun._chisq_tail_inv_vec(k, th0, levels)
    assert sum(sizes) / th0.size <= 1.05
    monkeypatch.undo()
    assert np.max(np.abs(specfun._chisq_tail_vec(k, th0, t) - levels) / levels) <= 1e-12


def test_interpolated_start_of_a_level_does_not_depend_on_the_sweep():
    # nodes and interpolant follow from k, the level and the noncentralities
    # that share it, so a level solved inside a sweep gives the same bits
    th0 = _training_draws(2, 2.0, 5.0)
    levels = np.array([0.05, 0.1, 0.3])
    t = specfun._chisq_tail_inv_vec(2, np.broadcast_to(th0, (3, th0.size)), levels[:, None])
    for row, p in zip(t, levels):
        assert np.array_equal(row, specfun._chisq_tail_inv_vec(2, th0, p))


@pytest.mark.parametrize("k", (1, 8))
def test_interpolated_starts_on_wide_and_degenerate_ranges(k):
    # where the interpolant does not resolve the range, Sankaran's start is
    # kept wherever the two differ by less than its error estimate
    rng = np.random.default_rng(3)
    cases = (10.0 ** rng.uniform(-3.0, 6.0, 3000),  # log-uniform over nine decades
             np.concatenate([rng.normal(1600.0, 40.0, 2998), [0.0, 1e6]]),  # two outliers
             np.full(3000, 37.5))  # all equal: the nodes coincide
    for lam in cases:
        for p in (1e-12, 0.1, 0.9):
            t = specfun._chisq_tail_inv_vec(k, lam, p)
            assert np.max(_rel_err(t, stats.ncx2.isf(p, k, lam))) <= VEC_REL_TOL


def test_interpolated_starts_raise_at_the_pass_cap(monkeypatch):
    # the node solve keeps the cap and the message of the main loop
    monkeypatch.setattr(specfun, "_MAX_PASSES", 1)
    with pytest.raises(RangeError, match="not converged"):
        specfun._chisq_tail_inv_vec(2, _training_draws(2, 2.0, 1.0), 0.1)


# ---------------------------------------------------------------------------
# the vMF constant

def test_log_vmf_const_pinned():
    assert abs(specfun.log_vmf_const(3, 1.0) - LOG_C3_1) < 1e-12
    assert abs(specfun.log_vmf_const(3, 2.0) - LOG_C3_2) < 1e-12
    assert abs(specfun.log_vmf_const(3, 0.0) - math.log(1.0 / (4.0 * math.pi))) < 1e-12


def test_log_vmf_const_pinned_across_k():
    for k, tau, ref in LOG_VMF_PINS:
        assert abs(specfun.log_vmf_const(k, tau) - ref) < 1e-12
    for k, tau, ref in LOG_VMF_STRESS:
        assert abs(specfun.log_vmf_const(k, tau) - ref) < 1e-9 * max(1.0, abs(ref))


def test_log_vmf_const_decreasing_in_tau():
    taus = np.geomspace(1e-3, 200.0, 60)
    for k in (2, 3, 5, 8, 16, 33, 64):
        vals = [specfun.log_vmf_const(k, t) for t in taus]
        assert np.all(np.diff(vals) < 0.0), f"not decreasing at k={k}"
        assert specfun.log_vmf_const(k, 0.0) > vals[0]


def test_log_vmf_const_against_mpmath_to_1e14():
    # one series for every k, from the least subnormal tau to the top of the domain
    for k, tau, ref in LOG_VMF_STRESS + LOG_VMF_EDGE:
        assert abs(specfun.log_vmf_const(k, tau) - ref) <= 1e-14 * max(1.0, abs(ref))
    for k, tau, ref in [(3, 1.0, LOG_C3_1)] + LOG_VMF_PINS:
        assert abs(specfun.log_vmf_const(k, tau) - ref) <= 1e-14
    # c_3(tau) = tau / (4 pi sinh tau) reads 1 / (4 pi) here
    assert abs(specfun.log_vmf_const(3, 1e-300) - LOG_C3_TINY) <= 1e-15
    assert specfun.log_vmf_const(2, 5e-324) == specfun.log_vmf_const(2, 0.0)


def test_bessel_ratio_against_scipy():
    # the Newton slope of vmf_const_inv comes from the same sweep as the value
    for nu in (0.0, 0.5, 2.5, 14.0, 99.0):
        for tau in (1e-3, 0.7, 15.0, 250.0, 1e4):
            if nu * math.log10(tau) < -30.0:
                continue  # scipy's ive underflows
            ref = special.ive(nu + 1.0, tau) / special.ive(nu, tau)
            assert abs(specfun._bessel_sweep(nu, tau)[2] - ref) <= 1e-13 * ref


def test_vmf_domain_top():
    for bad in (1.0000001e10, 1e300, math.inf, math.nan):
        for k in (2, 3):
            with pytest.raises(DomainError):
                specfun.log_vmf_const(k, bad)
    for bad in (math.nan, math.inf, -math.inf):  # refused before int(k)
        with pytest.raises(DomainError):
            specfun.log_vmf_const(bad, 1.0)
        with pytest.raises(DomainError):
            specfun.vmf_const_inv(bad, -1.0)
    # a target below log c_k(1e10) has its root above the domain
    with pytest.raises(RangeError, match="below"):
        specfun.vmf_const_inv(3, specfun.log_vmf_const(3, 1e9) - 2e10)


def test_bessel_sweep_raises_at_its_cap(monkeypatch):
    log_c = specfun.log_vmf_const(8, 15.0)
    monkeypatch.setattr(specfun, "_term_cap", lambda scale: 8)
    with pytest.raises(RangeError, match="not done"):
        specfun.log_vmf_const(7, 1e4)
    with pytest.raises(RangeError, match="not done"):
        specfun.log_vmf_const(8, 15.0)
    with pytest.raises(RangeError, match="not done"):
        specfun.vmf_const_inv(8, log_c)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=32),
       st.floats(min_value=1e-3, max_value=500.0)
       | st.floats(min_value=math.log(1e-3), max_value=math.log(500.0)).map(math.exp))
@example(29, 0.0011641201778996111)  # tiny tau: log c_k is flat, so a stop on |f| alone misses
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
