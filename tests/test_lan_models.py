"""Smooth-model layer: information builders, local coordinates, plug-in rule.

The three-symbol miss probability has an exact finite-lattice oracle
(multinomial enumeration with scipy, done inline below); the Gaussian family
must reduce to the location detectors of nlp_detect identically.
"""

import math

import numpy as np
import pytest
from scipy import stats

from ummtest import lan_models, linalg, nlp_detect, specfun
from ummtest.errors import ConfigError, DomainError, StabilityError
from ummtest.lan_models import (
    ArModel,
    AummDetector,
    DiscreteModel,
    GaussianLocationModel,
    LanProblem,
    TrainingSetup,
    _DiscreteDiskKernel,
    ar_autocov,
    ar_fisher,
    discrete_aumm_curve,
    discrete_fisher,
    expfam_fisher,
    local_alternative,
    local_coord,
    pearson_stat,
    training_rho,
)
from ummtest.montecarlo import McConfig, block_uniforms, estimate_error_probs
from ummtest.nlp_detect import NlpProblem, UmmTrainDetector


# ---------------------------------------------------------------------------
# information builders

def test_discrete_fisher_uniform():
    j = discrete_fisher(np.full(3, 1.0 / 3.0))
    assert np.allclose(j, [[6.0, 3.0], [3.0, 6.0]])
    with pytest.raises(DomainError):
        discrete_fisher([0.5, 0.5, 0.0])
    with pytest.raises(DomainError):
        discrete_fisher([0.5, 0.3])
    with pytest.raises(DomainError):
        discrete_fisher([1.0])


def test_pearson_identity_with_local_coord():
    # ||mu||^2 equals the Pearson statistic of the shifted distribution
    rng = np.random.default_rng(8)
    for m in (2, 3, 7, 20):
        p0 = rng.dirichlet(np.ones(m) * 5.0)
        model = DiscreteModel(p0)
        n = 500
        th = model.theta0 + rng.uniform(-1.0, 1.0, model.k) * np.min(p0) / 4.0
        full = np.concatenate([th, [1.0 - th.sum()]])
        lc = local_coord(th, model, n)
        assert abs(lc.hardness**2 - pearson_stat(full, model.p_null, n)) < 1e-8
    with pytest.raises(DomainError):
        pearson_stat([0.5, 0.5], [1.0, 0.0], 10)


def test_ar_autocov_closed_form_ar1():
    # gamma_l = sigma^2 theta^l / (1 - theta^2)
    th, sig = 0.6, 1.3
    g = ar_autocov([th], sig, 5)
    ref0 = sig * sig / (1.0 - th * th)
    for l in range(5):
        assert abs(g[0, l] - ref0 * th**l) < 1e-12
    assert np.allclose(g, g.T)


def test_ar_autocov_ar2_pinned():
    # Yule-Walker solution for theta = (0.5, -0.3), sigma = 1
    g = ar_autocov([0.5, -0.3], 1.0, 3)
    assert abs(g[0, 0] - 1.28968254) < 1e-7
    assert abs(g[0, 1] - 0.49603175) < 1e-7
    assert abs(g[0, 2] - (-0.13888889)) < 1e-7


def test_ar_fisher_scale_free():
    # autocov scales with sigma^2, so the information does not
    j1 = ar_fisher([0.5], 1.0)
    j2 = ar_fisher([0.5], 2.0)
    assert abs(j1[0, 0] - 4.0 / 3.0) < 1e-12
    assert np.allclose(j1, j2)


def test_ar_stability_gate():
    with pytest.raises(StabilityError):
        ar_autocov([1.0], 1.0, 2)
    with pytest.raises(StabilityError):
        ArModel([0.5, 0.6])
    with pytest.raises(DomainError):
        ar_autocov([0.5], -1.0, 2)


def test_expfam_fisher():
    g = np.array([[1.0, 0.0], [0.0, 1.0]])
    c = np.array([[2.0, 0.5], [0.5, 1.0]])
    j = expfam_fisher(g, c)
    assert np.allclose(j, c) and np.allclose(j, j.T)
    # scalar natural family: information is the sufficient-statistic variance
    assert np.allclose(expfam_fisher([[1.0]], [[3.7]]), [[3.7]])
    with pytest.raises(ConfigError):
        expfam_fisher(np.ones((2, 3)), np.eye(2))


# ---------------------------------------------------------------------------
# local reparametrization

def test_local_coord_roundtrip():
    rng = np.random.default_rng(12)
    cases = [
        (GaussianLocationModel(3), 200),
        (DiscreteModel([0.2, 0.3, 0.5]), 400),
        (ArModel([0.5, -0.3]), 300),
    ]
    for model, n in cases:
        mu = rng.standard_normal(model.k)
        th = local_alternative(mu, model, n)
        lc = local_coord(th, model, n)
        assert np.max(np.abs(lc.mu - mu)) < 1e-9
        assert abs(lc.hardness - np.linalg.norm(mu)) < 1e-9
    with pytest.raises(DomainError):
        local_coord(th, model, 0)
    with pytest.raises(DomainError):
        local_alternative(mu, model, 2.5)


def test_training_rho():
    assert training_rho(TrainingSetup(n=100, n_x=0)) == 0.0
    assert abs(training_rho(TrainingSetup(n=100, n_x=25)) - 0.25) < 1e-12
    assert training_rho(TrainingSetup(n=100, n_x=25, rho=3.0)) == 3.0
    assert training_rho(TrainingSetup(n=200, n_x=0, rho=0.0)) == 0.0
    # n_x / n itself, with no matrix algebra to round it
    assert training_rho(TrainingSetup(n=1000, n_x=1000)) == 1.0
    assert training_rho(TrainingSetup(n=40, n_x=80)) == 2.0
    prob = LanProblem(DiscreteModel([0.2, 0.3, 0.5]), np.array([0.25, 0.28]),
                      TrainingSetup(n=40, n_x=80))
    assert (prob.k, prob.rho) == (2, 2.0)
    with pytest.raises(ConfigError):
        TrainingSetup(n=0)
    with pytest.raises(ConfigError):
        TrainingSetup(n=10, n_x=-1)
    with pytest.raises(ConfigError):
        TrainingSetup(n=10, rho=-2.0)
    # without training samples every rule is the energy test, so a positive
    # rho there would only mislabel the run
    with pytest.raises(ConfigError):
        TrainingSetup(n=200, n_x=0, rho=3.0)
    with pytest.raises(ConfigError):
        TrainingSetup(n=200, rho=1e-9)


# ---------------------------------------------------------------------------
# the Gaussian family reduces to the location detectors exactly

def test_gaussian_plug_in_matches_location_rule():
    rng = np.random.default_rng(21)
    k, n, n_x = 3, 50, 200
    model = GaussianLocationModel(k)
    rho = n_x / n
    setup = TrainingSetup(n=n, n_x=n_x)
    x = model.sample(np.array([0.3, 0.0, -0.1]), n_x, rng)
    y = model.sample(np.zeros(k), n, rng)
    lprob = LanProblem(model=model, theta1=np.array([0.3, 0.0, -0.1]), setup=setup)
    v1 = AummDetector(0.1).decide(y, lprob, x=x)
    prob = NlpProblem(k=k, delta=1.0, rho=rho)
    v2 = UmmTrainDetector(0.1).decide(
        math.sqrt(n) * y.mean(axis=0), prob, x=math.sqrt(n) * x.mean(axis=0))
    assert v1.statistic == v2.statistic
    assert v1.threshold == v2.threshold
    assert v1.decision == v2.decision


def test_gaussian_kernel_matches_location_kernel():
    # same uniform layout as the location-problem training kernel, so the
    # estimates agree trial-for-trial up to last-bit threshold rounding
    k, n, n_x = 2, 100, 100
    model = GaussianLocationModel(k)
    mu = np.array([2.0, 0.0])
    theta1 = local_alternative(mu, model, n)
    lprob = LanProblem(model=model, theta1=theta1,
                       setup=TrainingSetup(n=n, n_x=n_x))
    nprob = NlpProblem(k=k, mu1=mu, rho=1.0)
    cfg = McConfig(trials=20_000, seed=5)
    e_lan = estimate_error_probs(AummDetector(0.1), lprob, "H1", cfg)
    e_nlp = estimate_error_probs(UmmTrainDetector(0.1), nprob, "H1", cfg)
    assert abs(e_lan.p_hat - e_nlp.p_hat) * cfg.trials <= 2.0


def test_plug_in_decisions_on_symbols_are_the_kernel_verdicts():
    # the plug-in rule is the training test's region in local coordinates:
    # its decisions on symbol blocks holding the kernel's own counts are the
    # kernel's H0 verdicts, trial for trial
    assert "region" not in AummDetector.__dict__
    model = DiscreteModel(np.array([0.5, 0.3, 0.2]))
    setup = TrainingSetup(n=60, n_x=120)
    problem = LanProblem(model, local_alternative(np.array([2.0, -1.0]), model, setup.n), setup)
    det = AummDetector(0.2)
    kern = AummDetector.mc_kernel([det], problem, (False,))
    u = block_uniforms(6, 0, 400, kern.nu)
    false_alarms = kern.values(u)[0]
    nu_x = model.uniforms_per_block(setup.n_x)
    cx = model.counts_from_uniforms(problem.theta1, setup.n_x, u[:, :nu_x])
    cy = model.counts_from_uniforms(model.theta0, setup.n, u[:, nu_x:])

    def symbols(counts, n):
        return np.repeat(np.arange(model.m), np.append(counts, n - counts.sum()))

    rejected = np.array([
        not det.decide(symbols(y, setup.n), problem, x=symbols(x, setup.n_x)).accepted
        for x, y in zip(cx, cy)
    ])
    assert np.array_equal(rejected, false_alarms == 1.0)
    assert 0 < np.count_nonzero(rejected) < rejected.size


def test_plug_in_rule_runs_on_the_training_test_kernels(monkeypatch):
    # each estimator has one kernel: a fresh-x sweep of the plug-in rule and
    # of the training test get the same kernel class, the three-symbol
    # curve averages through the Gaussian curve's kernel, and no class here
    # defines values() of its own
    lprob = LanProblem(GaussianLocationModel(2), np.array([0.2, 0.0]),
                       TrainingSetup(n=50, n_x=100))
    nprob = NlpProblem(k=2, delta=2.0, rho=2.0)
    lan = AummDetector.mc_kernel([AummDetector(0.1)], lprob, (False, True))
    nlp = UmmTrainDetector.mc_kernel([UmmTrainDetector(0.1)], nprob, (False, True))
    assert type(lan) is type(nlp)

    kernels = []
    estimates = lan_models._estimates
    monkeypatch.setattr(lan_models, "_estimates",
                        lambda kern, mc: kernels.append(kern) or estimates(kern, mc))
    model = DiscreteModel(np.full(3, 1.0 / 3.0))
    theta1 = local_alternative(np.array([2.0, 0.0]), model, 40)
    discrete_aumm_curve(model, theta1, TrainingSetup(n=40, n_x=80), [0.1], McConfig(trials=100))
    assert [type(k) for k in kernels] == [nlp_detect._UmmPmdKernel]

    own = [name for name, cls in vars(lan_models).items()
           if isinstance(cls, type) and cls.__module__ == lan_models.__name__
           and "values" in vars(cls)]
    assert own == []


def test_gaussian_estimator_law():
    model = GaussianLocationModel(2)
    n = 7
    u = block_uniforms(1, 0, 8192, model.uniforms_per_block(n))
    z = math.sqrt(n) * (model.draw_estimates(model.theta0, n, u) - model.theta0)
    emp = np.cov(z, rowvar=False)
    assert np.max(np.abs(emp - np.eye(2))) < 0.05
    assert np.max(np.abs(z.mean(axis=0))) < 4.0 / math.sqrt(8192)


# ---------------------------------------------------------------------------
# discrete family

def test_discrete_estimate_and_sampling():
    model = DiscreteModel([0.2, 0.3, 0.5])
    rng = np.random.default_rng(2)
    data = model.sample(model.theta0, 40_000, rng)
    freq = model.estimate(data)
    assert np.max(np.abs(freq - [0.2, 0.3])) < 0.01
    with pytest.raises(ConfigError):
        model.estimate(np.array([0, 3, 1]))
    with pytest.raises(DomainError):
        model.sample(np.array([0.9, 0.3]), 10, rng)


def test_discrete_counts_match_multinomial_law():
    # inverse-CDF chain must reproduce multinomial cell moments
    model = DiscreteModel([0.2, 0.3, 0.5])
    n = 30
    u = block_uniforms(9, 0, 40_000, 2)
    counts = model.counts_from_uniforms(model.theta0, n, u)
    assert counts.min() >= 0 and np.all(counts.sum(axis=1) <= n)
    mean = counts.mean(axis=0)
    assert np.max(np.abs(mean - [n * 0.2, n * 0.3])) < 0.05
    var = counts.var(axis=0)
    ref = [n * 0.2 * 0.8, n * 0.3 * 0.7]
    assert np.max(np.abs(var - ref)) < 0.15
    # cell counts are negatively correlated under the chain, as they should be
    assert np.corrcoef(counts.T)[0, 1] < 0.0


def _full_row_quantile(u, m, q, lf):
    # the inverse-CDF draw as it was first written: one full CDF row per
    # distinct count, searched row by row
    out = np.zeros(u.shape, dtype=np.int64)
    for mv in np.unique(m):
        if mv == 0:
            continue
        sel = m == mv
        row = lan_models._binom_cdf_row(int(mv), q, lf)
        out[sel] = np.searchsorted(row, u[sel], side="left")
    return out


@pytest.mark.parametrize("n", (1, 7, 1000, 3000))
def test_binomial_quantile_matches_full_rows(n):
    # the 2-D, column-cut inversion gives exactly the counts of full rows,
    # at the extreme uniforms block_uniforms can return and at m = 0
    rng = np.random.default_rng(n)
    lf = lan_models._log_factorials(n)
    for q in (1e-4, 0.01, 1.0 / 9.0, 0.3, 0.5, 0.77, 0.999, 0.0, 1.0):
        m = rng.integers(0, n + 1, 3000)
        u = rng.random(3000)
        m[:6] = [0, 0, n, n, n // 2, 1]
        u[:6] = [2.0 ** -54, 1.0 - 2.0 ** -53] * 3
        got = lan_models._binom_quantile(u, m, q, lf)
        assert np.array_equal(got, _full_row_quantile(u, m, q, lf)), q
    u = block_uniforms(5, 0, 4096, 1)[:, 0]
    m = np.full(u.size, n)
    assert np.array_equal(lan_models._binom_quantile(u, m, 0.25, lf),
                          _full_row_quantile(u, m, 0.25, lf))


def test_disk_kernel_rows_are_the_full_rows(monkeypatch):
    # the disk kernel builds its CDF rows in one call; each equals the full
    # row of _binom_cdf_row bit for bit and reads 1 past it, also at q = 1
    # and q = 0, where one count takes all the mass
    model = DiscreteModel(np.array([0.5, 0.3, 0.2]))
    n = 1000
    lf = lan_models._log_factorials(n)
    row = lan_models._binom_cdf_row
    built = []
    monkeypatch.setattr(lan_models, "_binom_cdf_row", lambda *a: built.append(a) or row(*a))
    alternatives = (local_alternative(np.array([2.0, -1.0]), model, n),
                    np.array([0.5, 0.5]), np.array([0.5, 0.0]))
    for theta1 in alternatives:
        kern = _DiscreteDiskKernel(LanProblem(model, theta1, TrainingSetup(n=n, n_x=100)))
        assert built == []
        p = model._full(theta1)
        q = p[1] / (p[1] + p[2])
        assert kern.cdfs.shape == (kern.c1.size, n + 2)
        for c1v, cdf in zip(kern.c1, kern.cdfs):
            m = n - int(c1v)
            assert cdf[0] == 0.0
            assert np.array_equal(cdf[1 : m + 2], row(m, q, lf))
            assert np.all(cdf[m + 2 :] == 1.0)


def test_binomial_cut_holds_all_but_the_stated_mass():
    for n, q in ((1000, 1.0 / 9.0), (1000, 0.5), (50, 0.01), (3000, 0.97)):
        assert stats.binom.sf(lan_models._binom_top(n, q), n, q) <= lan_models._BINOM_CUT
    # at the first link of the k = 8 chain the rows keep under a third of 0..n
    assert lan_models._binom_top(1000, 1.0 / 9.0) < 1000 // 3


def test_lan_problem_label_needs_no_matrix_root(monkeypatch):
    model = DiscreteModel([0.2, 0.3, 0.5])
    prob = LanProblem(model, np.array([0.25, 0.28]), TrainingSetup(n=500, n_x=100))
    d = local_coord(prob.theta1, model, 500).hardness

    def no_root(*args):
        raise AssertionError("label computed a matrix root")

    monkeypatch.setattr(linalg, "sym_sqrt", no_root)
    assert prob.label == f"DiscreteModel k=2 d={d:g} n=500 nx=100"


def test_discrete_no_training_value_is_exact():
    # full lattice enumeration (scipy multinomial) against the library value
    model = DiscreteModel(np.full(3, 1.0 / 3.0))
    n = 40
    theta1 = local_alternative(np.array([2.0, 0.0]), model, n)
    p = np.concatenate([theta1, [1.0 - theta1.sum()]])
    thr = specfun.chisq_tail_inv(2, 0.0, 0.1)
    root = linalg.sym_sqrt(model.fisher_info())
    total = 0.0
    for c1 in range(n + 1):
        for c2 in range(n - c1 + 1):
            w = math.exp(stats.multinomial.logpmf([c1, c2, n - c1 - c2], n, p))
            mu = root @ (math.sqrt(n) * (np.array([c1, c2]) / n - model.theta0))
            if float(mu @ mu) < thr:
                total += w
    c = discrete_aumm_curve(model, theta1, TrainingSetup(n=n, n_x=0), [0.1],
                            McConfig(trials=1000))
    assert c.provenance == "analytic" and c.ci_low is None
    assert abs(c.p_md[0] - total) < 1e-12


def test_discrete_null_level_approaches_nominal():
    # exact false-alarm rate of the no-training rule on the count lattice
    model = DiscreteModel(np.full(3, 1.0 / 3.0))
    thr = specfun.chisq_tail_inv(2, 0.0, 0.1)

    def exact_fa(n):
        kern = _DiscreteDiskKernel(LanProblem(model, model.theta0, TrainingSetup(n=n)))
        acc = float(kern._miss_given(np.zeros((1, 2)), np.array([thr]))[0])
        return 1.0 - acc

    devs = [abs(exact_fa(n) - 0.1) for n in (50, 800, 3200)]
    assert devs[2] < devs[0]
    assert devs[2] < 5e-4


def test_discrete_aumm_curve_is_one_solve_of_its_points():
    # one batched inversion for the grid; each level matches the one-level
    # curve, up to 1e-12 relative
    model = DiscreteModel(np.array([0.5, 0.3, 0.2]))
    setup = TrainingSetup(n=60, n_x=120)
    theta1 = local_alternative(np.array([2.0, -1.0]), model, setup.n)
    grid = np.array([0.02, 0.1, 0.4])
    mc = McConfig(trials=1500, seed=4)
    c = discrete_aumm_curve(model, theta1, setup, grid, mc)
    for i, p in enumerate(grid):
        e = discrete_aumm_curve(model, theta1, setup, [float(p)], mc)
        for got, ref in ((c.p_md[i], e.p_md[0]), (c.ci_low[i], e.ci_low[0]),
                         (c.ci_high[i], e.ci_high[0])):
            assert abs(got - ref) <= 1e-12 * abs(ref), (p, got, ref)


def test_discrete_aumm_pmd_guards():
    model = DiscreteModel([0.25, 0.25, 0.25, 0.25])  # four symbols -> k = 3
    with pytest.raises(ConfigError):
        discrete_aumm_curve(model, model.theta0 + 0.01, TrainingSetup(n=50, n_x=50),
                            [0.1], McConfig(trials=1000))
    with pytest.raises(ConfigError):
        discrete_aumm_curve(GaussianLocationModel(2), np.zeros(2),
                            TrainingSetup(n=50), [0.1], McConfig(trials=1000))


# ---------------------------------------------------------------------------
# AR family

def test_ar_estimator_and_efficiency():
    model = ArModel([0.5])
    n = 400
    u = block_uniforms(3, 0, 4096, model.uniforms_per_block(n))
    est = model.draw_estimates(model.theta0, n, u)
    z = math.sqrt(n) * (est[:, 0] - 0.5)
    assert abs(z.mean()) < 0.1
    # asymptotic variance of the conditional LS estimator is 1/J = 0.75
    assert abs(z.var(ddof=1) - 0.75) < 0.08


def test_ar_null_level():
    model = ArModel([0.5])
    prob = LanProblem(model=model, theta1=np.array([0.55]),
                      setup=TrainingSetup(n=600))
    e0 = estimate_error_probs(AummDetector(0.1), prob, "H0",
                              McConfig(trials=4096, seed=2))
    assert abs(e0.p_hat - 0.1) < 0.02


def test_ar_validation():
    model = ArModel([0.5, -0.3])
    with pytest.raises(ConfigError):
        model.estimate(np.zeros((3, 10)))
    with pytest.raises(ConfigError):
        model.estimate(np.zeros(4))
    with pytest.raises(DomainError):
        model.draw_estimates(model.theta0, 4, np.full((8, 4), 0.5))
