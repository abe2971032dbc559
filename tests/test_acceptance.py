"""End-to-end acceptance checks for the shipped claims.

One test per claim, in release order; ``pytest -v tests/test_acceptance.py``
prints a pass/fail line for each.  Every Monte Carlo check runs at a frozen
seed with its tolerance derived from the binomial standard error (3 sigma
unless stated), so the suite is deterministic and honest: nothing below
compares a simulation to itself.
"""

import math

import numpy as np

from ummtest import asymptotics, cli, lan_models, nlp_detect, specfun
from ummtest.lan_models import DiscreteModel, TrainingSetup, local_coord
from ummtest.montecarlo import McConfig, estimate_error_probs, roc_sweep

Z95 = 1.959963984540054  # two-sided 95% normal quantile


def _se(p, trials):
    return math.sqrt(p * (1.0 - p) / trials)


def _read_csv(path):
    """Parse a CLI table: skip '#' comments, return (header, rows-as-strings)."""
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


# ---------------------------------------------------------------------------
# matched filter: simulation vs the closed-form error curve

def test_matched_filter_curve_agrees_with_simulation():
    grid = [0.05, 0.1, 0.2, 0.5]
    problem = nlp_detect.NlpProblem(k=2, delta=2.0)
    cfg = McConfig(trials=100_000, seed=0)
    sim = roc_sweep(lambda p: nlp_detect.LrtDetector(p_fa=p), problem, grid, cfg)
    exact = nlp_detect.lrt_curve(2.0, grid)
    for i, p in enumerate(grid):
        q = float(exact.p_md[i])
        assert abs(sim.fa_hat[i] - p) < 3.0 * _se(p, cfg.trials)
        assert abs(sim.p_md[i] - q) < 3.0 * _se(q, cfg.trials)


# ---------------------------------------------------------------------------
# energy test: simulation vs closed form, and invariance to the direction
# of the alternative mean

def test_energy_curve_agrees_with_simulation_and_direction_invariance():
    grid = [0.05, 0.1, 0.2, 0.5]
    for k, delta in ((2, 2.0), (8, 3.0)):
        problem = nlp_detect.NlpProblem(k=k, delta=delta)
        cfg = McConfig(trials=100_000, seed=0)
        sim = roc_sweep(nlp_detect.GlrtDetector, problem, grid, cfg)
        exact = nlp_detect.glrt_curve(k, delta, grid)
        for i, p in enumerate(grid):
            q = float(exact.p_md[i])
            assert abs(sim.fa_hat[i] - p) < 3.0 * _se(p, cfg.trials)
            assert abs(sim.p_md[i] - q) < 3.0 * _se(q, cfg.trials)

    # same separation, two directions: the measured miss rates must agree
    det = nlp_detect.GlrtDetector(0.1)
    r2 = math.sqrt(2.0)
    est_a = estimate_error_probs(
        det, nlp_detect.NlpProblem(k=2, mu1=[2.0, 0.0]), "H1",
        McConfig(trials=100_000, seed=1))
    est_b = estimate_error_probs(
        det, nlp_detect.NlpProblem(k=2, mu1=[r2, r2]), "H1",
        McConfig(trials=100_000, seed=2))
    combined = math.hypot(_se(est_a.p_hat, est_a.trials),
                          _se(est_b.p_hat, est_b.trials))
    assert abs(est_a.p_hat - est_b.p_hat) < 3.0 * combined


# ---------------------------------------------------------------------------
# training test: the false-alarm rate is exactly the nominal level
# conditionally on the training sample, whatever that sample happened to be

def test_training_rule_holds_conditional_false_alarm_level():
    problem = nlp_detect.NlpProblem(k=2, delta=2.0, rho=5.0)
    trials = 100_000
    bound = 3.0 * _se(0.1, trials)
    for i, xn in enumerate(np.geomspace(0.1, 10.0, 20)):
        det = nlp_detect.UmmTrainDetector(0.1, x=[float(xn), 0.0])
        est = estimate_error_probs(det, problem, "H0",
                                   McConfig(trials=trials, seed=100 + i))
        assert abs(est.p_hat - 0.1) < bound, f"|x| = {xn:.4g}"


# ---------------------------------------------------------------------------
# monotone family: matched filter <= training tests (better with more
# training) <= energy test <= the data-free bound, with every separation
# resolved beyond Monte Carlo error

# pooled references for the training-test points: 2e6-trial runs done once,
# recorded with their standard errors
_TRAIN_REF = {
    (1.0, 0.05): (0.438448, 6.1e-5),
    (1.0, 0.10): (0.307367, 6.1e-5),
    (1.0, 0.30): (0.111656, 4.6e-5),
    (5.0, 0.05): (0.379366, 1.8e-5),
    (5.0, 0.10): (0.251568, 1.5e-5),
    (5.0, 0.30): (0.077121, 7.6e-6),
    (20.0, 0.05): (0.365877, 4.6e-6),
    (20.0, 0.10): (0.240082, 3.8e-6),
    (20.0, 0.30): (0.071724, 1.7e-6),
}


def test_training_curves_are_ordered_between_matched_filter_and_energy_test():
    grid = [0.05, 0.1, 0.3]
    lrt = nlp_detect.lrt_curve(2.0, grid).p_md
    glrt = nlp_detect.glrt_curve(2, 2.0, grid).p_md
    trivial = 1.0 - np.asarray(grid)

    reps = 10
    mean = {}
    se = {}
    for rho in (1.0, 5.0, 20.0):
        runs = np.array([
            nlp_detect.umm_curve(2.0, rho, 2, grid,
                                 McConfig(trials=10_000, seed=s)).p_md
            for s in range(reps)
        ])
        mean[rho] = runs.mean(axis=0)
        se[rho] = runs.std(axis=0, ddof=1) / math.sqrt(reps)
        for j, p in enumerate(grid):
            ref, ref_se = _TRAIN_REF[(rho, p)]
            tol = 3.0 * math.hypot(se[rho][j], ref_se)
            assert abs(mean[rho][j] - ref) < tol, (rho, p)

    # adjacent gaps must exceed the combined 95% Monte Carlo error
    for j in range(len(grid)):
        chain = [
            (float(lrt[j]), 0.0),
            (float(mean[20.0][j]), float(se[20.0][j])),
            (float(mean[5.0][j]), float(se[5.0][j])),
            (float(mean[1.0][j]), float(se[1.0][j])),
            (float(glrt[j]), 0.0),
            (float(trivial[j]), 0.0),
        ]
        for (lo, lo_se), (hi, hi_se) in zip(chain, chain[1:]):
            assert hi - lo > Z95 * math.hypot(lo_se, hi_se), grid[j]


# ---------------------------------------------------------------------------
# emitted geometry: the CLI's standardized-plane picture

def test_emitted_region_geometry_centers_and_radii(tmp_path):
    out = tmp_path / "regions.csv"
    assert cli.main(["regions", "--delta", "2", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    i_rec = header.index("record")
    i_rho = header.index("rho")
    i_cx = header.index("center_x")
    i_cy = header.index("center_y")
    i_rad = header.index("radius")

    disks = [r for r in rows if r[i_rec] == "disk"]
    assert [float(r[i_rho]) for r in disks] == [0.0, 1.0, 5.0, 20.0]
    centers = [(float(r[i_cx]), float(r[i_cy])) for r in disks]
    assert centers == [(0.0, 0.0), (-2.0, 0.0), (-10.0, 0.0), (-40.0, 0.0)]
    radii = [float(r[i_rad]) for r in disks]
    assert all(a < b for a, b in zip(radii, radii[1:]))
    assert abs(radii[0] - math.sqrt(-2.0 * math.log(0.1))) < 1e-9


# ---------------------------------------------------------------------------
# local coordinates in the multinomial family: the squared norm is the
# Pearson statistic, for any type and any null

def test_local_coordinate_norm_equals_pearson_statistic():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        m = int(rng.integers(2, 11))
        p0 = rng.dirichlet(np.full(m, 2.0))
        if p0.min() < 1e-4:  # keep the null interior
            p0 = (p0 + 1e-3) / (1.0 + m * 1e-3)
        model = DiscreteModel(p0)
        n = int(rng.integers(20, 400))
        ptype = rng.multinomial(n, rng.dirichlet(np.full(m, 3.0))) / n
        lc = local_coord(ptype[: m - 1], model, n)
        stat = lan_models.pearson_stat(ptype, model.p_null, n)
        assert abs(lc.hardness**2 - stat) <= 1e-10 * max(1.0, stat)


# ---------------------------------------------------------------------------
# plug-in rule on a three-cell multinomial: its miss probability converges
# to the Gaussian-limit value as the blocklength grows

def test_discrete_model_error_converges_to_gaussian_limit():
    model = DiscreteModel(np.full(3, 1.0 / 3.0))
    mc = McConfig(trials=10_000, seed=0)
    blocklengths = (200, 800, 3200)

    # no training: alternative along (1, -1), scaled to local size 2
    devs = []
    for n in blocklengths:
        eps = math.sqrt(4.0 / (6.0 * n))
        theta1 = model.theta0 + eps * np.array([1.0, -1.0])
        lc = local_coord(theta1, model, n)
        assert abs(lc.hardness - 2.0) < 1e-9
        est = lan_models.discrete_aumm_curve(model, theta1,
                                             TrainingSetup(n=n, n_x=0), [0.1], mc)
        ref = nlp_detect.umm_curve(2.0, 0.0, 2, [0.1], mc)
        devs.append(abs(est.p_md[0] - ref.p_md[0]))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 5e-3

    # equal training and test blocks (rho = 1), alternative on the first axis
    devs = []
    for n in blocklengths:
        theta1 = lan_models.local_alternative([2.0, 0.0], model, n)
        est = lan_models.discrete_aumm_curve(model, theta1,
                                             TrainingSetup(n=n, n_x=n), [0.1], mc)
        ref = nlp_detect.umm_curve(2.0, 1.0, 2, [0.1], mc)
        devs.append(abs(est.p_md[0] - ref.p_md[0]))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 5e-3


# ---------------------------------------------------------------------------
# high dimensions: the exact energy-test point approaches the limiting
# tradeoff curve of its hardness parameter

def _point_to_curve(h, p0, q0):
    """sup-metric distance from (p0, q0) to the curve q = Q(h - Q^{-1}(p))."""
    def dist(p):
        q = specfun.normal_tail(h - specfun.normal_tail_inv(p))
        return max(abs(p - p0), abs(q - q0))

    lo, hi = 1e-6, 1.0 - 1e-6
    for _ in range(4):
        ps = np.linspace(lo, hi, 2001)
        ds = [dist(float(p)) for p in ps]
        i = int(np.argmin(ds))
        lo, hi = ps[max(i - 1, 0)], ps[min(i + 1, len(ps) - 1)]
    return dist(0.5 * (lo + hi))


def test_exact_point_approaches_limit_curve_in_high_dimension():
    gaps = []
    vertical = []
    for k in (128, 500, 1000, 5000):
        delta = (2.0 * k) ** 0.25  # delta^2 = sqrt(2k): the critical scaling
        h = asymptotics.hardness_param(delta, 0.0, k)
        q0 = float(nlp_detect.glrt_curve(k, delta, [0.1]).p_md[0])
        gaps.append(_point_to_curve(h, 0.1, q0))
        vertical.append(abs(q0 - specfun.normal_tail(h - specfun.normal_tail_inv(0.1))))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert all(a > b for a, b in zip(vertical, vertical[1:]))
    assert gaps[-1] <= 0.02
    assert vertical[-1] <= 0.02


# ---------------------------------------------------------------------------
# budget split: with the defaults the whole budget goes to the test block,
# and the reported grid values match the closed-form objective

def test_budget_split_prefers_test_block_and_matches_formula():
    for k in (1_000, 10_000):
        for a in (1.0, 10.0, 100.0):
            al = asymptotics.allocate(a, k)
            assert al.rho_star == 0.0, (a, k)
            r = al.rho
            s = 1.0 + 2.0 * r
            direct = a * s / ((1.0 + r) * np.sqrt(2.0 * k * s + 4.0 * (1.0 + r) * a))
            assert np.max(np.abs(al.hardness - direct)) <= 1e-12


# ---------------------------------------------------------------------------
# special functions: closed forms, independently derived pins, Monte Carlo
# pins, and the quality of the normal quantile approximation

def test_special_function_reference_suite():
    # closed forms
    for t in (0.1, 1.0, 4.0, 20.0):
        assert abs(specfun.chisq_tail(2, 0.0, t) - math.exp(-0.5 * t)) < 1e-11
        q = 2.0 * specfun.normal_tail(math.sqrt(t))
        assert abs(specfun.chisq_tail(1, 0.0, t) - q) < 1e-11
    for tau in (0.5, 1.0, 4.0, 30.0):
        ref = math.log(tau / (4.0 * math.pi * math.sinh(tau)))
        assert abs(specfun.log_vmf_const(3, tau) - ref) < 1e-12
        half = math.log(math.sqrt(2.0 / (math.pi * tau)) * math.sinh(tau))
        assert abs(specfun.log_bessel_i(0.5, tau) - half) < 1e-11

    # pins computed offline with 50-digit arithmetic
    assert abs(specfun.normal_tail(1.2816) - 9.9991500097675157e-02) < 1e-12
    assert abs(specfun.normal_tail_inv(0.1) - 1.2815515655446004) < 1e-12
    assert abs(specfun.normal_tail(8.0) - 6.2209605742717908e-16) < 1e-27
    assert abs(specfun.log_bessel_i(0.0, 50.0) - 47.127575501871804584) < 1e-9
    assert abs(specfun.log_bessel_i(31.0, 100.0) - 91.988975079706840893) < 1e-9
    assert abs(specfun.log_bessel_i(2.5, 10_000.0) - 9994.4755912658072361) < 1e-7
    assert abs(specfun.log_vmf_const(3, 1.0) - (-2.6924636085404864266)) < 1e-9
    assert abs(specfun.log_vmf_const(3, 2.0) - (-3.1262444390235136136)) < 1e-9

    # pins measured by direct simulation (10^7 draws; 3 sigma)
    t = -2.0 * math.log(0.1)
    assert abs(specfun.chisq_tail(2, 4.0, t) - 0.54226740) < 4.726e-4
    assert abs(specfun.chisq_tail_inv(2, 4.0, 0.1) - 12.06151467) < 1.099e-2


# ---------------------------------------------------------------------------
# reproducibility: simulate output is byte-identical across worker counts
# and across reruns at the same seed

def test_simulation_output_bytes_invariant_to_workers(tmp_path):
    base = ["simulate", "--detector", "umm-train", "--k", "2", "--delta", "2",
            "--rho", "1", "--p-fa", "0.1", "--trials", "10000", "--seed", "7"]
    blobs = []
    for name, workers in (("w1.csv", "1"), ("w8.csv", "8"), ("w8-again.csv", "8")):
        out = tmp_path / name
        assert cli.main(base + ["--workers", workers, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
