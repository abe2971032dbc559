"""Location-testing detectors: rules, curves, training-sample behavior.

Frozen reference numbers come from tests/oracles/oracle_umm_sim.py (full
simulation of the training rule with scipy thresholds, 1e6 trials).
"""

import math

import numpy as np
import pytest

from ummtest import linalg, nlp_detect, specfun
from ummtest.errors import ConfigError, DomainError
from ummtest.lan_models import AummDetector, GaussianLocationModel, LanProblem, TrainingSetup
from ummtest.montecarlo import McConfig, block_uniforms, estimate_error_probs, gaussians
from ummtest.nlp_detect import (
    GlrtDetector,
    LrtDetector,
    NlpProblem,
    RegionBoundary,
    UmmTrainDetector,
    _LrtKernel,
    _QuadKernel,
)

# full simulation of the training rule, rho=5 p_fa=0.1 k=2 delta=2 (1e6 trials)
UMM_PMD_FULLSIM = 0.252639
UMM_PMD_FULLSIM_3SIG = 1.30e-3


# ---------------------------------------------------------------------------
# problem construction

def test_problem_validation():
    with pytest.raises(ConfigError):
        NlpProblem(k=2)
    with pytest.raises(ConfigError):
        NlpProblem(k=2, delta=1.0, mu1=np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        NlpProblem(k=0, delta=1.0)
    with pytest.raises(DomainError):
        NlpProblem(k=2, delta=-1.0)
    with pytest.raises(DomainError):
        NlpProblem(k=2, delta=1.0, rho=-0.5)
    with pytest.raises(ConfigError):
        NlpProblem(k=2, mu1=np.zeros(3))
    with pytest.raises(DomainError):
        NlpProblem(k=2, mu1=np.zeros(2))  # coincides with the null mean


def test_problem_standardization():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    mu0 = np.array([1.0, -1.0])
    mu1 = np.array([3.0, 0.0])
    prob = NlpProblem(k=2, mu1=mu1, mu0=mu0, cov=cov)
    m = prob.standardized_mu1()
    d = prob.separation()
    diff = mu1 - mu0
    assert abs(d - math.sqrt(diff @ np.linalg.solve(cov, diff))) < 1e-10
    assert abs(np.linalg.norm(m) - d) < 1e-10
    # identity-covariance default: standardization only recenters
    plain = NlpProblem(k=2, mu1=np.array([1.0, 1.0]), mu0=np.array([0.5, 0.0]))
    assert np.allclose(plain.standardize(np.array([1.0, 1.0])), [0.5, 1.0])


# ---------------------------------------------------------------------------
# decision rules

def test_lrt_decide():
    prob = NlpProblem(k=2, mu1=np.array([2.0, 0.0]))
    v = LrtDetector(0.1).decide(np.array([0.4, 3.0]), prob)
    assert v.statistic == pytest.approx(0.8)
    assert v.threshold == 2.0 * specfun.normal_tail_inv(0.1)
    assert v.accepted and v.decision == "accept-H0"
    with pytest.raises(ConfigError):
        LrtDetector(0.1).decide(np.zeros(2), NlpProblem(k=2, delta=1.0))


def test_region_verdict_ties_reject():
    plane = RegionBoundary("hyperplane", normal=np.array([2.0, 0.0]), offset=1.0)
    v = plane.verdict(np.array([0.5, 0.0]))
    assert v.statistic == v.threshold and not v.accepted
    ball = RegionBoundary("sphere", center=np.array([-1.0, 0.0]), sq_radius=4.0)
    v = ball.verdict(np.array([1.0, 0.0]))
    assert v.statistic == v.threshold and not v.accepted


def test_glrt_decide_matches_threshold():
    prob = NlpProblem(k=3, delta=1.0)
    y = np.array([1.0, -2.0, 0.5])
    v = GlrtDetector(0.2).decide(y, prob)
    assert v.statistic == pytest.approx(float(y @ y))
    assert v.threshold == pytest.approx(specfun.chisq_tail_inv(3, 0.0, 0.2))
    with pytest.raises(DomainError):
        GlrtDetector(0.0).decide(y, prob)


def test_umm_train_decide_threshold_adapts():
    prob = NlpProblem(k=2, mu1=np.array([2.0, 0.0]), rho=1.0)
    x = np.array([1.5, 0.5])
    y = np.array([0.2, -0.1])
    v = UmmTrainDetector(0.1).decide(y, prob, x=x)
    th0 = float((prob.rho * x) @ (prob.rho * x))
    assert v.threshold == pytest.approx(specfun.chisq_tail_inv(2, th0, 0.1))
    s = prob.rho * x + y
    assert v.statistic == pytest.approx(float(s @ s))
    # rho = 0 collapses onto the energy test
    prob0 = NlpProblem(k=2, mu1=np.array([2.0, 0.0]), rho=0.0)
    v0 = UmmTrainDetector(0.1).decide(y, prob0, x=x)
    g0 = GlrtDetector(0.1).decide(y, prob0)
    assert v0.statistic == g0.statistic and v0.threshold == g0.threshold


def test_rotation_invariance_of_statistics():
    rng = np.random.default_rng(17)
    k = 5
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    mu = np.zeros(k)
    mu[0] = 2.0
    y = rng.standard_normal(k)
    pa = NlpProblem(k=k, mu1=mu, rho=2.0)
    pb = NlpProblem(k=k, mu1=q @ mu, rho=2.0)
    assert GlrtDetector(0.1).decide(y, pa).statistic == pytest.approx(
        GlrtDetector(0.1).decide(q @ y, pb).statistic)
    x = mu + rng.standard_normal(k)
    va = UmmTrainDetector(0.1).decide(y, pa, x=x)
    vb = UmmTrainDetector(0.1).decide(q @ y, pb, x=q @ x)
    assert va.statistic == pytest.approx(vb.statistic)
    assert va.threshold == pytest.approx(vb.threshold)


# ---------------------------------------------------------------------------
# analytic curves

def test_lrt_detector_curve_pin():
    c = LrtDetector.curve(NlpProblem(1, delta=2.0), [0.05, 0.1, 0.3])
    assert c.provenance == "analytic"
    # Q(2 - Q^{-1}(0.1)), frozen from the quadrature oracle
    assert abs(c.p_md[1] - 2.3624041589411687e-01) < 1e-12
    assert np.all(np.diff(c.p_md) < 0.0)


def test_glrt_detector_curve_against_mc_oracle():
    c = GlrtDetector.curve(NlpProblem(2, delta=2.0), [0.1])
    # 1 - (MC tail value 0.54226740 +- 4.7e-4), oracle_ncx2_mc.py
    assert abs(c.p_md[0] - (1.0 - 0.54226740)) < 4.726e-4
    with pytest.raises(DomainError):
        GlrtDetector.curve(NlpProblem(2, delta=2.0), [0.5, 0.2])
    with pytest.raises(DomainError):
        GlrtDetector.curve(NlpProblem(2, delta=-1.0), [0.1])


def test_glrt_dominates_lrt():
    grid = np.linspace(0.02, 0.9, 23)
    for k in (1, 2, 8, 32):
        problem = NlpProblem(k, delta=2.0)
        lo = LrtDetector.curve(problem, grid).p_md
        hi = GlrtDetector.curve(problem, grid).p_md
        assert np.all(hi >= lo - 1e-12)


# ---------------------------------------------------------------------------
# training-test performance

def test_umm_pmd_rho0_exact():
    problem = NlpProblem(2, delta=2.0, rho=0.0)
    c = UmmTrainDetector.curve(problem, [0.1], McConfig(trials=1000, seed=0))
    assert c.p_md[0] == GlrtDetector.curve(problem, [0.1]).p_md[0]
    assert c.provenance == "analytic"


def test_umm_pmd_dual_route_pin():
    c = UmmTrainDetector.curve(NlpProblem(2, delta=2.0, rho=5.0), [0.1],
                               McConfig(trials=20_000, seed=0))
    p_hat, lo, hi = c.p_md[0], c.ci_low[0], c.ci_high[0]
    assert abs(p_hat - UMM_PMD_FULLSIM) < UMM_PMD_FULLSIM_3SIG + (hi - lo)
    assert lo <= p_hat <= hi


def test_umm_pmd_validation():
    mc = McConfig(trials=1000)
    with pytest.raises(DomainError):
        UmmTrainDetector.curve(NlpProblem(2, delta=2.0, rho=1.0), [0.0], mc)
    with pytest.raises(DomainError):
        UmmTrainDetector.curve(NlpProblem(2, delta=-2.0, rho=1.0), [0.1], mc)
    with pytest.raises(DomainError):
        UmmTrainDetector.curve(NlpProblem(2, delta=2.0, rho=-1.0), [0.1], mc)
    with pytest.raises(DomainError):
        UmmTrainDetector.curve(NlpProblem(0, delta=2.0, rho=1.0), [0.1], mc)
    # a simulated curve needs its Monte Carlo settings; at rho = 0 the
    # closed form reads none
    with pytest.raises(ConfigError):
        UmmTrainDetector.curve(NlpProblem(2, delta=2.0, rho=1.0), [0.1])
    assert UmmTrainDetector.curve(NlpProblem(2, delta=2.0), [0.1]).provenance == "analytic"


@pytest.mark.parametrize("k, delta, rho", [(2, 2.0, 20.0), (5, 3.0, 2.0)])
def test_umm_train_detector_curve_is_one_solve_of_its_points(k, delta, rho):
    # the curve inverts every level in one batched solve; each level matches
    # the one-level curve, up to 1e-12 relative
    grid = np.array([0.02, 0.1, 0.4])
    mc = McConfig(trials=1500, seed=3)
    problem = NlpProblem(k, delta=delta, rho=rho)
    c = UmmTrainDetector.curve(problem, grid, mc)
    for i, p in enumerate(grid):
        e = UmmTrainDetector.curve(problem, [float(p)], mc)
        for got, ref in ((c.p_md[i], e.p_md[0]), (c.ci_low[i], e.ci_low[0]),
                         (c.ci_high[i], e.ci_high[0])):
            assert abs(got - ref) <= 1e-12 * abs(ref), (p, got, ref)


def test_umm_train_detector_curve_at_rho0_is_relabeled_energy_curve():
    grid = np.array([0.05, 0.2, 0.5])
    problem = NlpProblem(4, delta=2.0)
    c = UmmTrainDetector.curve(problem, grid, McConfig(trials=1000))
    ref = GlrtDetector.curve(problem, grid)
    assert c.provenance == "analytic"
    assert c.problem == "umm k=4 delta=2 rho=0"
    assert np.array_equal(c.p_md, ref.p_md)


def test_umm_direction_invariance():
    # the miss probability depends on mu1 only through its norm
    rng = np.random.default_rng(23)
    k = 3
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    mu = np.zeros(k)
    mu[0] = 2.0
    cfg = McConfig(trials=20_000, seed=4)
    det = UmmTrainDetector(0.1)
    e_axis = estimate_error_probs(det, NlpProblem(k=k, mu1=mu, rho=1.0), "H1", cfg)
    e_rot = estimate_error_probs(det, NlpProblem(k=k, mu1=q @ mu, rho=1.0), "H1", cfg)
    se = math.sqrt(e_axis.p_hat * (1.0 - e_axis.p_hat) / cfg.trials)
    assert abs(e_axis.p_hat - e_rot.p_hat) < 3.0 * math.sqrt(2.0) * se


def test_umm_conditional_false_alarm_level():
    # the adaptive threshold holds the level for every frozen training sample
    rng = np.random.default_rng(31)
    prob = NlpProblem(k=2, delta=2.0, rho=4.0)
    cfg = McConfig(trials=40_000, seed=6)
    for _ in range(3):
        x = np.array([2.0, 0.0]) + rng.standard_normal(2) / 2.0
        det = UmmTrainDetector(0.1, x=x)
        e0 = estimate_error_probs(det, prob, "H0", cfg)
        assert abs(e0.p_hat - 0.1) < 3.0 * math.sqrt(0.1 * 0.9 / cfg.trials)


# ---------------------------------------------------------------------------
# acceptance-region boundaries

def test_region_boundary_shapes():
    prob = NlpProblem(k=2, mu1=np.array([2.0, 0.0]), rho=5.0)
    lrt = LrtDetector(p_fa=0.1).region(prob)
    assert lrt.shape == "hyperplane"
    assert np.allclose(lrt.normal, [2.0, 0.0])
    assert lrt.offset == pytest.approx(2.0 * specfun.normal_tail_inv(0.1))
    glrt = GlrtDetector(0.1).region(prob)
    assert glrt.shape == "sphere"
    assert np.allclose(glrt.center, 0.0)
    assert glrt.radius == pytest.approx(math.sqrt(specfun.chisq_tail_inv(2, 0.0, 0.1)))
    x = np.array([2.1, -0.3])
    umm = UmmTrainDetector(0.1).region(prob, x=x)
    th0 = 25.0 * float(x @ x)
    assert np.allclose(umm.center, -5.0 * x)
    assert umm.radius == pytest.approx(math.sqrt(specfun.chisq_tail_inv(2, th0, 0.1)))
    with pytest.raises(ConfigError):
        UmmTrainDetector(0.1).region(prob)


def test_training_disk_center_sets_the_unit_odds_radius():
    # the training disk is the likelihood-ratio sphere of a uniform direction
    # prior, centered at -rho x; at unit prior odds that sphere's radius is
    # rho ||x||, the norm of the center
    for d, r, k, xn in [(2.0, 1.0, 3, 2.0), (1.5, 4.0, 7, 0.8), (3.0, 0.5, 2, 1.1)]:
        x = np.full(k, xn / math.sqrt(k))
        b = UmmTrainDetector(0.1).region(NlpProblem(k=k, delta=d, rho=r), x=x)
        assert np.array_equal(b.center, -r * x)
        assert abs(np.linalg.norm(b.center) - r * xn) < 1e-9


@pytest.mark.parametrize("rule", ["matched-filter", "energy", "training", "plug-in"])
def test_one_rule_one_truth(rule):
    # a verdict is membership in the rule's region, and a fixed-region
    # kernel's H0 value on the same uniforms is the rejection indicator
    draws = 400
    u = block_uniforms(3, 0, draws, 2)
    prob = NlpProblem(k=2, mu1=np.array([2.0, 0.0]), rho=5.0)
    if rule == "plug-in":
        n, n_x = 4, 20
        model = GaussianLocationModel(2)
        problem = LanProblem(model, np.array([1.0, 0.0]), TrainingSetup(n=n, n_x=n_x))
        rng = np.random.default_rng(8)
        x = model.sample(problem.theta1, n_x, rng)
        ys = [model.sample(model.theta0, n, rng) for _ in range(draws)]
        z = np.array([math.sqrt(n) * y.mean(axis=0) for y in ys])  # J = I, theta0 = 0
        det = AummDetector(0.1)
        region = det.region(problem, x=x)
    else:
        problem = prob
        ys = z = gaussians(u)
        det = {
            "matched-filter": LrtDetector(p_fa=0.1),
            "energy": GlrtDetector(0.1),
            "training": UmmTrainDetector(0.1, x=np.array([0.4, -0.1])),
        }[rule]
        x = None
        region = det.region(prob)
    accepted = np.array([det.decide(y, problem, x=x).accepted for y in ys])
    if region.shape == "hyperplane":
        inside = z @ region.normal < region.offset
    else:
        inside = np.sum((z - region.center) ** 2, axis=1) < region.sq_radius
    assert np.array_equal(accepted, inside)
    assert 0 < np.count_nonzero(~accepted) < draws
    if rule != "plug-in":
        kern = det.mc_kernel([det], prob, (False,))
        assert isinstance(kern, _LrtKernel if rule == "matched-filter" else _QuadKernel)
        assert np.array_equal(accepted, kern.values(u[:, : kern.nu])[0] == 0.0)


@pytest.mark.parametrize("rows", [1, 904, 4096])
def test_quad_kernel_statistics_keep_the_plain_expression_bits(monkeypatch, rows):
    # values forms each hypothesis' (z + mu1) - center in one buffer; the
    # statistics it compares with the levels keep the bits of the plain
    # expression, under both hypotheses and in either order
    seen = []
    monkeypatch.setattr(nlp_detect, "_region_errors",
                        lambda stats, thr, hyp: seen.append(stats) or np.zeros((1, rows)))
    k = 32
    mu1 = np.linspace(-1.0, 2.0, k)
    center = -0.3 * np.cos(np.arange(k))
    u = block_uniforms(17, 0, rows, k)
    z = gaussians(u)
    for hyp in ((False, True), (True, False), (True,)):
        _QuadKernel(k, mu1, center, [30.0], hyp).values(u)
        for stat, h in zip(seen.pop(), hyp):
            ref = nlp_detect._rowsq((z + mu1 if h else z) - center)
            assert np.array_equal(stat.view(np.int64), ref.view(np.int64))


def test_detector_level_resolution():
    prob = NlpProblem(k=2, delta=2.0)
    det = LrtDetector(p_fa=0.1)
    kern = det.mc_kernel([det], prob, (False,))
    assert kern.thresholds[0] == pytest.approx(2.0 * specfun.normal_tail_inv(0.1))
    with pytest.raises(DomainError):
        LrtDetector(0.0)
    with pytest.raises(DomainError):
        GlrtDetector(1.2)
