"""The benchmark workloads, built from a seed.

A workload is one round: a fixed list of operations, run in order, every
round alike.  An operation is either an ``ummtest`` command line passed to
``ummtest.cli.main`` or one call of a public ``ummtest.specfun`` function.
Each operation belongs to a family that decides how its output is checked:

  energy-sweep    sweeps (Monte Carlo) + closed-form cells + known faults
  training-curve  training (Monte Carlo) + plugin (Monte Carlo, lan_models)

Every input an operation receives comes from the seed: Monte Carlo seeds,
and for the closed-form cells the (k, lambda, p) points inside fixed cells.
The cells keep the cost of a round the same from seed to seed, so the seed
moves the inputs but not the amount of work.

Inputs that need a special function to build (a quantile to evaluate a tail
at, a log constant to invert) are made with scipy here, in the parent
process, and reach the timed process as plain numbers.
"""

import math
import random

# Monte Carlo rows are counted at this many trials per row: a sweep point
# simulated with 5000 trials counts as 5 rows.
TRIALS_PER_ROW = 1000

# Inputs the program gets wrong on every seed, each with the defect behind
# it.  They stay in the ``energy-sweep`` round and count as failed operations
# until the defects are mended.
KNOWN_FAULTS = {
    "fault:chisq_tail_inv(2,0,1e-300)":
        "absolute stopping test |tail - p| < 1e-12 in specfun.chisq_tail_inv",
    "fault:chisq_tail_inv(2,1e4,1e-12)":
        "absolute stopping test |tail - p| < 1e-12 in specfun.chisq_tail_inv",
    "fault:chisq_tail_inv(1,0,1-1e-9)":
        "absolute stopping test |tail - p| < 1e-12 in specfun.chisq_tail_inv",
    "fault:curve-glrt-k8-d10":
        "nlp_detect.glrt_curve forms the lower tail as 1 - chisq_tail",
}

WORKLOADS = ("energy-sweep", "training-curve")

# Copies of the closed-form cells in one energy-sweep round, each with its own
# draws.  They ride along at a small share of the round (about 9%): on their
# own, as a workload, their pure-Python time spread too much from run to run.
CLOSED_FORM_COPIES = 3


def _cli(op_id, argv, rows, trials=0, points=0):
    return {"id": op_id, "kind": "cli", "argv": argv, "rows": rows,
            "trials": trials, "points": points}


def _specfun(op_id, fn, args):
    return {"id": op_id, "kind": "specfun", "fn": fn, "args": args, "rows": 1,
            "trials": 0, "points": 0}


def _grid_points(spec):
    """Nominal p_fa grid of a start:stop:count spec, as ummtest builds it."""
    start, stop, count = spec.split(":")
    start, stop, count = float(start), float(stop), int(count)
    if count == 1:
        return [start]
    return [start + (stop - start) * i / (count - 1) for i in range(count)]


def _mc_op(op_id, argv, grid, trials, seed, workers=1):
    points = len(_grid_points(grid))
    argv = argv + ["--grid", grid, "--trials", str(trials)]
    if workers != 1:
        argv += ["--workers", str(workers)]
    op = _cli(op_id, argv, points * trials / TRIALS_PER_ROW, trials, points)
    op["seed"] = seed
    return op


def round_argv(op, r):
    """Command line of ``op`` in round ``r``.

    A Monte Carlo operation draws a fresh seed in every round, so that a run
    averages its cost over many seeds rather than carrying the cost of one.
    """
    if "seed" not in op:
        return list(op["argv"])
    seed = random.Random(f"{op['seed']}:{r}").randrange(2**32)
    return op["argv"] + ["--seed", str(seed)]


def _sweeps(rng):
    # trial counts are not a multiple of the 4096-trial block, so every
    # simulation also runs a short final block
    s = lambda: rng.randrange(2**32)
    sim = ["simulate", "--detector"]
    return [
        _mc_op("glrt-k2", sim + ["glrt", "--k", "2", "--delta", "2.5"], "0.05:0.3:3", 5000, s()),
        _mc_op("glrt-k8-w2", sim + ["glrt", "--k", "8", "--delta", "3.5"], "0.05:0.3:3", 5000, s(),
               workers=2),
        _mc_op("glrt-k32", sim + ["glrt", "--k", "32", "--delta", "5"], "0.1:0.1:1", 5000, s()),
        _mc_op("lrt", sim + ["lrt", "--k", "2", "--delta", "2"], "0.05:0.3:3", 5000, s()),
    ]


def _training(rng):
    s = lambda: rng.randrange(2**32)
    base = ["--detector", "umm-train", "--k", "2", "--delta", "2"]
    ops = [
        _mc_op(f"curve-rho{rho}", ["curve"] + base + ["--rho", str(rho)], "0.1:0.3:2", 3000, s())
        for rho in (1, 5, 20)
    ]
    # more than one 4096-trial block, so the second worker has work
    ops.append(_mc_op("simulate-rho5-w2", ["simulate"] + base + ["--rho", "5"], "0.1:0.3:2",
                      5000, s(), workers=2))
    return ops


def _plugin(rng):
    s = lambda: rng.randrange(2**32)
    lan = ["simulate", "--model", "discrete", "--n", "1000", "--nx", "1000", "--delta", "2"]
    # rows also carry dev_from_limit, which runs umm_pmd at the same size
    return [
        _mc_op("discrete-k8", lan + ["--k", "8"], "0.1:0.1:1", 2500, s()),
        _mc_op("discrete-k2", lan + ["--k", "2"], "0.1:0.1:1", 2500, s()),
    ]


def _log_jitter(rng, x, decades):
    return x * 10.0 ** (decades * (rng.random() - 0.5))


def _closed_form_cells(rng, tag):
    from scipy import special, stats

    ops = []
    delta = round(1.5 + rng.random(), 6)
    ops.append(_cli(f"curve-lrt#{tag}", ["curve", "--detector", "lrt", "--delta", repr(delta),
                                         "--grid", "0.01:0.5:20"], 20))
    # p_md of the energy test stays above 0.05 on this grid: 1 - chisq_tail
    # keeps its relative error below 1e-9 there
    delta = round(2.5 + 0.5 * rng.random(), 6)
    ops.append(_cli(f"curve-glrt#{tag}", ["curve", "--detector", "glrt", "--k", "8",
                                          "--delta", repr(delta), "--grid", "0.05:0.5:10"], 10))
    delta = round(2.5 + rng.random(), 6)
    rho = round(1.0 + rng.random(), 6)
    ops.append(_cli(f"curve-asymptotic#{tag}", ["curve", "--detector", "asymptotic", "--k", "100",
                                                "--delta", repr(delta), "--rho", repr(rho),
                                                "--grid", "0.01:0.5:20"], 20))
    delta = round(1.5 + rng.random(), 6)
    p_fa = round(0.05 + 0.15 * rng.random(), 6)
    # four disks of 257 rows each plus the two matched-filter segment ends
    ops.append(_cli(f"regions#{tag}", ["regions", "--delta", repr(delta), "--p-fa", repr(p_fa)],
                    4 * 257 + 2))
    n = 50 + rng.randrange(100)
    ops.append(_cli(f"allocate#{tag}", ["allocate", "--k", "1000", "--n", str(n), "--delta", "1"],
                    123))

    # scalar special functions over cells that reach both tails; p stays in
    # [7e-4, 0.992] for the chi-square inverse, where its absolute stopping
    # test still gives 1e-9 relative accuracy (the known faults show the
    # test failing outside that range)
    cells = [(0.0, 1e-3), (3.0, 0.02), (30.0, 0.5), (200.0, 0.99)]
    for i, k in enumerate((1, 2, 8, 32)):
        for lam0, p0 in cells[i:] + cells[:i]:
            lam = round(lam0 * (0.9 + 0.2 * rng.random()), 6)
            p = _log_jitter(rng, p0, 0.3) if p0 < 0.5 else p0 + 0.004 * (rng.random() - 0.5)
            ops.append(_specfun(f"chisq_tail_inv({k},{lam0:g},{p0:g})#{tag}", "chisq_tail_inv",
                                [k, lam, p]))
    tails = [(0.0, 1e-4), (5.0, 0.05), (50.0, 0.5), (300.0, 0.9999)]
    for i, k in enumerate((1, 2, 8, 32)):
        for lam0, q0 in tails[i:] + tails[:i]:
            lam = round(lam0 * (0.9 + 0.2 * rng.random()), 6)
            q = _log_jitter(rng, q0, 0.3) if q0 < 0.5 else q0
            t = float(stats.chi2.isf(q, k) if lam == 0.0 else stats.ncx2.isf(q, k, lam))
            ops.append(_specfun(f"chisq_tail({k},{lam0:g},q={q0:g})#{tag}", "chisq_tail",
                                [k, lam, t]))
    for p0, decades in ((1e-20, 1.0), (1e-6, 1.0), (0.03, 0.5), (0.3, 0.2)):
        ops.append(_specfun(f"normal_tail_inv({p0:g})#{tag}", "normal_tail_inv",
                            [_log_jitter(rng, p0, decades)]))
    ops.append(_specfun(f"normal_tail_inv(0.8)#{tag}", "normal_tail_inv",
                        [0.8 + 0.1 * (rng.random() - 0.5)]))
    ops.append(_specfun(f"normal_tail_inv(1-1e-6)#{tag}", "normal_tail_inv",
                        [1.0 - _log_jitter(rng, 1e-6, 1.0)]))
    for k, tau0 in ((2, 0.7), (3, 4.0), (8, 15.0), (32, 60.0), (100, 250.0)):
        tau = _log_jitter(rng, tau0, 0.2)
        nu = 0.5 * k - 1.0
        log_c = (nu * math.log(tau) - 0.5 * k * math.log(2.0 * math.pi)
                 - (math.log(special.ive(nu, tau)) + tau))
        ops.append(_specfun(f"vmf_const_inv({k},tau={tau0:g})#{tag}", "vmf_const_inv",
                            [k, log_c]))
        ops[-1]["tau"] = tau
    return ops


def _known_faults():
    return [
        _specfun("fault:chisq_tail_inv(2,0,1e-300)", "chisq_tail_inv", [2, 0.0, 1e-300]),
        _specfun("fault:chisq_tail_inv(2,1e4,1e-12)", "chisq_tail_inv", [2, 1e4, 1e-12]),
        _specfun("fault:chisq_tail_inv(1,0,1-1e-9)", "chisq_tail_inv", [1, 0.0, 1 - 1e-9]),
        _cli("fault:curve-glrt-k8-d10", ["curve", "--detector", "glrt", "--k", "8",
                                         "--delta", "10", "--grid", "0.1:0.1:1"], 1),
    ]


def _warmup(argv):
    """The set-up operation: a Monte Carlo call at one grid point and few
    trials, so that set-up time holds numpy's lazy imports and first-call
    costs rather than the work of a round."""
    return _mc_op("warmup", argv, "0.1:0.1:1", 200, 0)


def _family(name, ops):
    for op in ops:
        op["family"] = name
    return ops


def energy_sweep(rng):
    ops = _family("sweep", _sweeps(rng))
    for tag in range(CLOSED_FORM_COPIES):
        ops += _family("closed-form", _closed_form_cells(rng, tag))
    # the known faults take no input from the seed
    ops += _family("closed-form", _known_faults())
    # once per run, untimed, the two-worker sweep of round 0 runs again at one
    # worker and must give the same bytes
    warm = _warmup(["simulate", "--detector", "lrt", "--k", "2", "--delta", "2"])
    return {"ops": ops, "warmup": warm, "same_bytes": "glrt-k8-w2"}


def training_curve(rng):
    ops = _family("training", _training(rng)) + _family("plugin", _plugin(rng))
    warm = _warmup(["curve", "--detector", "umm-train", "--k", "2", "--delta", "2", "--rho", "1"])
    return {"ops": ops, "warmup": warm, "same_bytes": None}


def build(workload, seed):
    """The round of ``workload`` for ``seed``: ops, warm-up op, extra checks."""
    make = {"energy-sweep": energy_sweep, "training-curve": training_curve}[workload]
    spec = make(random.Random(f"{workload}:{seed}"))
    spec["workload"] = workload
    spec["seed"] = seed
    return spec
