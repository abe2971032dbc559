"""Harness determinism, stream layout, Wilson coverage, and sweep sanity."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from ummtest import montecarlo, nlp_detect, specfun
from ummtest.errors import ConfigError, DomainError
from ummtest.montecarlo import (
    BLOCK,
    McConfig,
    block_uniforms,
    estimate_error_probs,
    gaussians,
    roc_sweep,
    run_kernel,
    wilson_interval,
)


class _ProductKernel:
    # indicator of u0*u1 < c at one level; mean = c(1 - ln c) for c in (0,1)
    nu = 2

    def __init__(self, c=0.09):
        self.c = c

    def values(self, u):
        return (u[:, 0] * u[:, 1] < self.c).astype(float)[None, :]


def test_block_uniforms_layout():
    u = block_uniforms(7, 3, 500, 4)
    assert u.shape == (500, 4)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    again = block_uniforms(7, 3, 500, 4)
    assert np.array_equal(u, again)
    assert not np.array_equal(u, block_uniforms(7, 4, 500, 4))
    assert not np.array_equal(u, block_uniforms(8, 3, 500, 4))


def test_block_uniforms_prefix_property():
    # a short final block must replay a prefix of the full block's stream
    full = block_uniforms(42, 5, BLOCK, 3)
    short = block_uniforms(42, 5, 100, 3)
    assert np.array_equal(short, full[:100])


def test_open_unit_edges():
    # (raw + 0.5) * 2^-53 is exact below 2^52 and rounds half-to-even above;
    # only raw = 2^53 - 1 would round to 1.0 and is clamped
    raw = np.array([0, 2**52, 2**53 - 2, 2**53 - 1], dtype=np.int64)
    u = montecarlo._open_unit(raw)
    assert list(u) == [2.0**-54, 0.5, 1.0 - 2.0**-52, 1.0 - 2.0**-53]
    assert np.all(u > 0.0) and np.all(u < 1.0)
    assert np.array_equal(u[:3], (raw[:3] + 0.5) * 2.0**-53)
    assert np.all(np.isfinite(gaussians(u)))
    # a 2-D block keeps its shape, and the in-place sum, product and clamp
    # give the bits of the expression with a temporary for each
    raw2 = np.concatenate([raw, np.random.default_rng(3).integers(0, 1 << 53, 8)]).reshape(3, 4)
    u2 = montecarlo._open_unit(raw2)
    assert u2.shape == (3, 4) and u2.dtype == np.float64
    assert np.array_equal(u2.view(np.int64),
                          np.minimum((raw2 + 0.5) * 2.0**-53, 1.0 - 2.0**-53).view(np.int64))
    assert u2[0, 3] == 1.0 - 2.0**-53


def _adjacent_doubles(x, n):
    """The 2n + 1 consecutive doubles centred on x."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(np.nextafter(below[-1], 0.0))
        above.append(np.nextafter(above[-1], 1.0))
    return np.array(below[:0:-1] + above)


@pytest.mark.parametrize("branch", [0.075, 0.925, math.exp(-25.0)])
def test_gaussians_monotone_at_as241_branch_points(branch):
    # AS241 switches rational function where |u - 1/2| = 0.425 and where
    # sqrt(-log min(u, 1 - u)) = 5; each run of adjacent doubles crosses one
    u = _adjacent_doubles(branch, 4000)
    if branch > 1e-3:
        side = np.abs(0.5 - u) <= 0.425
    else:
        side = np.sqrt(-np.log(u)) <= 5.0
    assert side.any() and not side.all()
    g = gaussians(u)
    assert np.all(np.isfinite(g))
    assert g[0] < g[-1]
    # non-decreasing up to rounding: no value sits more than 4 ulps below
    # an earlier one (one-ulp steps of log/sqrt and the Horner sums jitter)
    deficit = np.maximum.accumulate(g) - g
    assert np.all(deficit <= 4.0 * np.spacing(np.abs(g)))


def _gathered_normal_tail_inv(p):
    # _normal_tail_inv_vec as first written: the centre and the tail elements
    # each gathered, evaluated by _rational and scattered back
    p = np.asarray(p, dtype=float)
    q = 0.5 - p
    z = np.empty_like(p)
    centre = np.abs(q) <= 0.425
    qc = q[centre]
    z[centre] = qc * specfun._rational(specfun._PPND_CENTRE, 0.180625 - qc * qc)
    tail = ~centre
    pt = p[tail]
    r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))
    near = r <= 5.0
    zt = np.empty_like(r)
    zt[near] = specfun._rational(specfun._PPND_NEAR, r[near] - 1.6)
    zt[~near] = specfun._rational(specfun._PPND_FAR, r[~near] - 5.0)
    z[tail] = np.copysign(zt, q[tail])
    return z


def _normal_kernel_inputs():
    chunk = specfun._NORMAL_CHUNK
    u = block_uniforms(11, 0, BLOCK, 32)
    cases = [block_uniforms(12, 0, n, 1)[:, 0] for n in (0, 1, chunk - 1, chunk, chunk + 1)]
    cases += [block_uniforms(12, 0, 3 * chunk + 7, 1)[:, 0], u, u[:904], u[:, 0]]
    cases += [_adjacent_doubles(b, 4000) for b in (0.075, 0.925, math.exp(-25.0))]
    cases.append(np.array([5e-324, 2.0**-54, 1.0 - 2.0**-53]))
    cases.append(10.0 ** -np.random.default_rng(5).uniform(0.0, 320.0, 50_000))
    return cases


def test_normal_kernel_bits_match_the_gathered_kernel():
    # the chunked kernel gives every value the bits of the gathered one: at
    # sizes around the chunk, on the blocks the simulations draw, a strided
    # column, runs across each AS241 branch point, the edges of (0, 1) and p
    # down to subnormals; inside (0, 1) it raises no warning
    for p in _normal_kernel_inputs():
        assert np.all((p > 0.0) & (p < 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = specfun._normal_tail_inv_vec(p)
            g = gaussians(p)
        ref = _gathered_normal_tail_inv(p)
        assert got.shape == p.shape and g.shape == p.shape
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        assert np.array_equal(g.view(np.int64), (-ref).view(np.int64))


def test_gaussians_shape_monotone_symmetric():
    u = np.linspace(0.001, 0.999, 999)
    g = gaussians(u)
    assert np.all(np.diff(g) > 0.0)
    assert abs(gaussians(np.array([0.5]))[0]) < 1e-12
    assert np.max(np.abs(g + gaussians(1.0 - u))) < 1e-9


def test_gaussians_moments():
    u = block_uniforms(123, 0, 1_000_000, 1)[:, 0]
    g = gaussians(u)
    n = g.size
    assert abs(np.mean(g)) < 4.0 / np.sqrt(n)
    assert abs(np.var(g) - 1.0) < 4.0 * np.sqrt(2.0 / n)
    ks = stats.kstest(g[:5000], "norm")
    assert ks.pvalue > 1e-4


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0.3, 1000)
    assert 0.0 <= lo < 0.3 < hi <= 1.0
    lo0, hi0 = wilson_interval(0.0, 1000)
    assert lo0 == 0.0 and hi0 > 1e-4
    lo1, hi1 = wilson_interval(1.0, 1000)
    assert lo1 < 1.0 - 1e-4 and hi1 > 1.0 - 1e-12
    # width shrinks like 1/sqrt(n)
    w1 = np.diff(wilson_interval(0.2, 1_000))[0]
    w2 = np.diff(wilson_interval(0.2, 100_000))[0]
    assert w2 < w1 / 5.0


def test_wilson_interval_contains_p_hat_at_both_ends():
    # unclamped, the lower bound at p_hat = 0 rounds to 3.47e-18 at n = 100,
    # and the upper one at p_hat = 1 to 1 - 2^-53 at many n
    for n in range(100, 20_001):
        assert wilson_interval(0.0, n)[0] == 0.0
        assert wilson_interval(1.0, n)[1] == 1.0


def test_wilson_interval_coverage():
    rng = np.random.default_rng(2)
    p, n, reps = 0.1, 2000, 400
    hits = 0
    for x in rng.binomial(n, p, size=reps):
        lo, hi = wilson_interval(x / n, n)
        hits += lo <= p <= hi
    assert hits / reps >= 0.90


def test_mcconfig_validation():
    for bad in (dict(trials=99), dict(trials=1000.0), dict(seed=-1),
                dict(seed=2**64), dict(workers=0)):
        with pytest.raises(ConfigError):
            McConfig(**bad)


def test_run_kernel_worker_invariance():
    kern = _ProductKernel()
    ref = run_kernel(kern, McConfig(trials=20_000, seed=9, workers=1))[0]
    assert ref == run_kernel(kern, McConfig(trials=20_000, seed=9, workers=8))[0]
    assert ref == run_kernel(kern, McConfig(trials=20_000, seed=9, workers=3))[0]
    assert ref != run_kernel(kern, McConfig(trials=20_000, seed=10, workers=1))[0]
    c = kern.c
    exact = c * (1.0 - np.log(c))
    assert abs(ref - exact) < 4.0 * np.sqrt(exact * (1.0 - exact) / 20_000)


def test_run_kernel_partial_block_matches_manual_sum():
    kern = _ProductKernel()
    trials = BLOCK + 904
    got = run_kernel(kern, McConfig(trials=trials, seed=5, workers=1))[0]
    s0 = np.sum(kern.values(block_uniforms(5, 0, BLOCK, kern.nu)))
    s1 = np.sum(kern.values(block_uniforms(5, 1, 904, kern.nu)))
    assert got == (s0 + s1) / trials


def test_run_kernel_rejects_bad_shape():
    class Bad:
        nu = 1

        def values(self, u):
            return np.zeros((u.shape[0], 2))

    with pytest.raises(ConfigError):
        run_kernel(Bad(), McConfig(trials=200, seed=0))

    class Flat(Bad):
        # one value per trial without a level axis
        def values(self, u):
            return np.zeros(u.shape[0])

    with pytest.raises(ConfigError):
        run_kernel(Flat(), McConfig(trials=200, seed=0))


def test_estimate_error_probs_validation():
    prob = nlp_detect.NlpProblem(k=2, delta=1.0)
    det = nlp_detect.GlrtDetector(0.1)
    with pytest.raises(ConfigError):
        estimate_error_probs(det, prob, "H2", McConfig(trials=200))
    with pytest.raises(ConfigError):
        estimate_error_probs(object(), prob, "H0", McConfig(trials=200))


def test_estimate_error_probs_glrt_levels():
    prob = nlp_detect.NlpProblem(k=2, delta=2.0)
    det = nlp_detect.GlrtDetector(0.1)
    cfg = McConfig(trials=20_000, seed=1)
    e0 = estimate_error_probs(det, prob, "H0", cfg)
    assert abs(e0.p_hat - 0.1) < 3.0 * np.sqrt(0.1 * 0.9 / cfg.trials)
    assert e0.ci_low <= e0.p_hat <= e0.ci_high
    e1 = estimate_error_probs(det, prob, "H1", cfg)
    ref = 1.0 - specfun.chisq_tail(2, 4.0, specfun.chisq_tail_inv(2, 0.0, 0.1))
    assert abs(e1.p_hat - ref) < 3.0 * np.sqrt(ref * (1.0 - ref) / cfg.trials)


def test_roc_sweep_grid_validation():
    prob = nlp_detect.NlpProblem(k=2, delta=1.0)
    fam = nlp_detect.GlrtDetector
    with pytest.raises(DomainError):
        roc_sweep(fam, prob, [0.3, 0.1], McConfig(trials=200))
    with pytest.raises(DomainError):
        roc_sweep(fam, prob, [], McConfig(trials=200))
    with pytest.raises(DomainError):
        roc_sweep(fam, prob, [0.0, 0.5], McConfig(trials=200))
    with pytest.raises(DomainError, match="p_fa grid"):
        roc_sweep(fam, prob, [0.1, math.nan], McConfig(trials=200))


def test_roc_sweep_glrt_curve():
    prob = nlp_detect.NlpProblem(k=2, delta=2.0)
    grid = np.array([0.05, 0.1, 0.3])
    cfg = McConfig(trials=20_000, seed=3)
    curve = roc_sweep(nlp_detect.GlrtDetector, prob, grid, cfg)
    assert curve.provenance == "simulated"
    ref = nlp_detect.glrt_curve(2, 2.0, grid)
    for i, p in enumerate(grid):
        se_md = np.sqrt(ref.p_md[i] * (1.0 - ref.p_md[i]) / cfg.trials)
        assert abs(curve.p_md[i] - ref.p_md[i]) < 3.0 * se_md
        se_fa = np.sqrt(p * (1.0 - p) / cfg.trials)
        assert abs(curve.fa_hat[i] - p) < 3.0 * se_fa
        assert curve.ci_low[i] <= curve.p_md[i] <= curve.ci_high[i]
    # common random numbers across a nested family: measured errors are monotone
    assert np.all(np.diff(curve.fa_hat) > 0.0)
    assert np.all(np.diff(curve.p_md) < 0.0)


def _sweep_case(rule):
    """(detector family, problem, (k, delta, rho)) for one rule of the sweep test."""
    from ummtest import lan_models

    if rule.startswith("plug-in"):
        model = (lan_models.GaussianLocationModel(2) if rule == "plug-in-gaussian"
                 else lan_models.DiscreteModel(np.full(3, 1.0 / 3.0)))
        setup = lan_models.TrainingSetup(n=40, n_x=80)
        theta1 = lan_models.local_alternative(np.array([2.0, 0.0]), model, 40)
        return lan_models.AummDetector, lan_models.LanProblem(model, theta1, setup), (2, 2.0, 2.0)
    prob = nlp_detect.NlpProblem(k=2, mu1=np.array([2.0, 0.0]), rho=3.0)
    fam = {
        "matched-filter": lambda p: nlp_detect.LrtDetector(p_fa=p),
        "energy": nlp_detect.GlrtDetector,
        "training": nlp_detect.UmmTrainDetector,
        "training-frozen-x": lambda p: nlp_detect.UmmTrainDetector(p, x=np.array([1.5, 0.4])),
    }[rule]
    return fam, prob, (2, 2.0, 3.0)


@pytest.mark.parametrize("rule", ["matched-filter", "energy", "training", "training-frozen-x",
                                  "plug-in-gaussian", "plug-in-discrete"])
def test_sweep_equals_its_points(rule, monkeypatch):
    # a sweep is its grid points run one at a time, bit for bit, but draws
    # each block once whatever the number of levels and hypotheses
    from ummtest import lan_models

    fam, problem, (k, delta, rho) = _sweep_case(rule)
    grid = np.array([0.05, 0.1, 0.3])
    cfg = McConfig(trials=5000, seed=11)  # two blocks, the second one short
    nblocks = 2
    calls = []
    draw = montecarlo.block_uniforms
    monkeypatch.setattr(montecarlo, "block_uniforms", lambda *a: calls.append(a) or draw(*a))

    curve = roc_sweep(fam, problem, grid, cfg)
    assert len(calls) == nblocks
    for i, p in enumerate(grid):
        e0 = estimate_error_probs(fam(float(p)), problem, "H0", cfg)
        e1 = estimate_error_probs(fam(float(p)), problem, "H1", cfg)
        assert (curve.fa_hat[i], curve.fa_ci_low[i], curve.fa_ci_high[i]) == (
            e0.p_hat, e0.ci_low, e0.ci_high)
        assert (curve.p_md[i], curve.ci_low[i], curve.ci_high[i]) == (
            e1.p_hat, e1.ci_low, e1.ci_high)

    # the Rao-Blackwellized curves: one kernel for the grid, equal to its points
    del calls[:]
    if rule == "plug-in-discrete":
        model, theta1, setup = problem.model, problem.theta1, problem.setup
        curve = lambda g: lan_models.discrete_aumm_curve(model, theta1, setup, g, cfg)
    else:
        curve = lambda g: nlp_detect.umm_curve(delta, rho, k, g, cfg)
    rb = curve(grid)
    assert len(calls) == nblocks
    for i, p in enumerate(grid):
        e = curve([float(p)])
        assert (rb.p_md[i], rb.ci_low[i], rb.ci_high[i]) == (e.p_md[0], e.ci_low[0], e.ci_high[0])


def test_sweep_builds_its_regions_once(monkeypatch):
    # the H0 and H1 kernels of a sweep share one set of thresholds: one
    # chi-square quantile per level, not one per level and hypothesis
    calls = []
    inv = specfun.chisq_tail_inv
    monkeypatch.setattr(specfun, "chisq_tail_inv", lambda *a: calls.append(a) or inv(*a))
    prob = nlp_detect.NlpProblem(k=3, delta=2.0)
    curve = roc_sweep(nlp_detect.GlrtDetector, prob, [0.05, 0.1, 0.3], McConfig(trials=500))
    assert len(calls) == 3
    assert np.all(np.diff(curve.fa_hat) > 0.0) and np.all(np.diff(curve.p_md) < 0.0)


def test_sweep_needs_one_ball_center():
    # a fixed-region kernel computes one statistic per trial for all levels
    prob = nlp_detect.NlpProblem(k=2, mu1=np.array([2.0, 0.0]), rho=3.0)
    dets = [nlp_detect.UmmTrainDetector(0.1, x=np.array([1.0, 0.0])),
            nlp_detect.UmmTrainDetector(0.2, x=np.array([0.0, 1.0]))]
    with pytest.raises(ConfigError):
        dets[0].mc_kernel(dets, prob, (False,))


def test_single_hypothesis_evaluates_one_tail_per_trial(monkeypatch):
    # a one-hypothesis estimate of the training test computes that
    # hypothesis only: one conditional p-value per trial, from one draw
    elements, draws = [], []
    tail = nlp_detect._chisq_tail_vec
    draw = montecarlo.block_uniforms

    def counted(k, lam, t):
        elements.append(np.broadcast(lam, t).size)
        return tail(k, lam, t)

    monkeypatch.setattr(nlp_detect, "_chisq_tail_vec", counted)
    monkeypatch.setattr(montecarlo, "block_uniforms", lambda *a: draws.append(a) or draw(*a))
    prob = nlp_detect.NlpProblem(k=2, delta=2.0, rho=3.0)
    cfg = McConfig(trials=5000, seed=3)
    for hyp in ("H0", "H1"):
        del elements[:], draws[:]
        estimate_error_probs(nlp_detect.UmmTrainDetector(0.1), prob, hyp, cfg)
        assert sum(elements) == cfg.trials
        assert len(draws) == 2
    # a sweep evaluates both hypotheses in one tail call per block
    del elements[:]
    roc_sweep(nlp_detect.UmmTrainDetector, prob, [0.05, 0.1, 0.3], cfg)
    assert elements == [2 * BLOCK, 2 * (cfg.trials - BLOCK)]


def test_sweep_rejects_a_kernel_with_a_wrong_level_count():
    # a sweep's kernel returns G levels under H0, then G under H1
    class _Odd:
        nu = 1

        def values(self, u):
            return np.zeros((3, u.shape[0]))

    class _Det:
        def __init__(self, p):
            pass

        @staticmethod
        def mc_kernel(detectors, problem, hypotheses):
            return _Odd()

    with pytest.raises(ConfigError):
        roc_sweep(_Det, None, [0.1, 0.2], McConfig(trials=200))
