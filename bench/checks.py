"""Output checks, run in the parent process with scipy as the reference.

Each family's checker takes the text every operation of that family
produced and returns, per operation id, the list of problems found (empty
when the output is correct).  Monte Carlo figures are compared at Z binomial standard errors;
closed forms at a relative error of REL.
"""

import functools
import math

import numpy as np
from scipy import stats

Z = 5.0
REL = 1e-9
N_REF = 20_000  # trials of each scipy-side Monte Carlo reference

# Largest |p_md - Gaussian limit| allowed for the plug-in rule at n = n_x =
# 1000 on top of the Monte Carlo error; the README records the gaps measured.
LAN_GAP = 0.02


def _flags(argv):
    out = {}
    for i, a in enumerate(argv):
        if a.startswith("--"):
            out[a[2:]] = argv[i + 1]
    return out


def _table(text):
    body = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    cols = body[0].split(",")
    return [dict(zip(cols, ln.split(","))) for ln in body[1:]]


def _grid(spec):
    start, stop, count = spec.split(":")
    return np.unique(np.clip(np.linspace(float(start), float(stop), int(count)), 1e-6, 1 - 1e-6))


def _se(p, n):
    return math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)


def _rel_ok(a, b):
    return abs(a - b) <= REL * abs(b)


def _lrt_md(p, delta):
    return float(stats.norm.cdf(stats.norm.isf(p) - delta))


def _glrt_md(p, k, delta):
    return float(stats.ncx2.cdf(stats.chi2.isf(p, k), k, delta * delta))


@functools.lru_cache(maxsize=None)
def _umm_limit(seed, p, k, delta, rho):
    """Conditional Monte Carlo of the training test's miss probability.

    Averages P(miss | x) = F_{k, th1}(F^{-1}_{k, th0}(1 - p)) over training
    draws x ~ N(mu1, I / rho); returns the mean and its standard error.
    """
    rng = np.random.default_rng([seed, 1])
    mu1 = np.zeros(k)
    mu1[0] = delta
    rx = rho * (mu1 + rng.standard_normal((N_REF, k)) / math.sqrt(rho))
    th0 = np.einsum("ij,ij->i", rx, rx)
    th1 = np.einsum("ij,ij->i", rx + mu1, rx + mu1)
    v = stats.ncx2.cdf(stats.ncx2.isf(p, k, th0), k, th1)
    return float(v.mean()), float(v.std() / math.sqrt(N_REF))


class _Problems(dict):
    def need(self, op_id, ok, msg):
        self.setdefault(op_id, [])
        if not ok:
            self[op_id].append(msg)


def _check_sim_rows(bad, op_id, rows, grid, n, md_ref):
    bad.need(op_id, len(rows) == len(grid), f"{len(rows)} rows for {len(grid)} grid points")
    md = []
    for p, row, ref in zip(grid, rows, md_ref):
        fa, m = float(row["p_fa"]), float(row["p_md"])
        lo, hi = float(row["ci_low"]), float(row["ci_high"])
        md.append(m)
        bad.need(op_id, abs(fa - p) <= Z * _se(p, n), f"p_fa {fa} against nominal {p}")
        if ref is not None:
            bad.need(op_id, abs(m - ref) <= Z * _se(ref, n), f"p_md {m} against {ref} at {p}")
        bad.need(op_id, lo <= m <= hi, f"p_md {m} outside [{lo}, {hi}]")
        bad.need(op_id, row["provenance"] == "simulated", "provenance")
    bad.need(op_id, all(b <= a for a, b in zip(md, md[1:])), f"p_md not monotone: {md}")
    return md


def sweep(spec, texts, extra):
    bad = _Problems()
    for op in spec["ops"]:
        f = _flags(op["argv"])
        k, delta, n = int(f["k"]), float(f["delta"]), int(f["trials"])
        grid = _grid(f["grid"])
        if f["detector"] == "glrt":
            ref = [_glrt_md(p, k, delta) for p in grid]
        else:
            ref = [_lrt_md(p, delta) for p in grid]
        _check_sim_rows(bad, op["id"], _table(texts[op["id"]]), grid, n, ref)
    if "same_bytes" in extra:
        bad.need(spec["same_bytes"], extra["same_bytes"] == texts[spec["same_bytes"]],
                 "output bytes differ between --workers 1 and --workers 2")
    return bad


def training(spec, texts, extra):
    bad = _Problems()
    curves = {}
    for op in spec["ops"]:
        f = _flags(op["argv"])
        k, delta, rho, n = int(f["k"]), float(f["delta"]), float(f["rho"]), int(f["trials"])
        grid = _grid(f["grid"])
        rows = _table(texts[op["id"]])
        lrt = [_lrt_md(p, delta) for p in grid]
        glrt = [_glrt_md(p, k, delta) for p in grid]
        if op["argv"][0] == "simulate":
            md = _check_sim_rows(bad, op["id"], rows, grid, n, [None] * len(grid))
            sim = (op["id"], rho, md, n)
        else:
            bad.need(op["id"], len(rows) == len(grid), "row count")
            md = [float(r["p_md"]) for r in rows]
            for r, m in zip(rows, md):
                bad.need(op["id"], float(r["ci_low"]) <= m <= float(r["ci_high"]), "ci")
            bad.need(op["id"], all(b <= a + 1e-9 for a, b in zip(md, md[1:])),
                     f"p_md not monotone along the grid: {md}")
            curves[rho] = (op["id"], md, n)
        # the paper's ordering: matched filter <= training test <= energy test
        for p, m, lo, hi in zip(grid, md, lrt, glrt):
            tol = Z * _se(m, n)
            bad.need(op["id"], lo - tol <= m <= hi + tol,
                     f"p_md {m} at {p} outside [{lo}, {hi}]")
    rhos = sorted(curves)
    for a, b in zip(rhos, rhos[1:]):
        (_, ma, na), (ib, mb, nb) = curves[a], curves[b]
        for x, y in zip(ma, mb):
            bad.need(ib, y <= x + Z * math.hypot(_se(x, na), _se(y, nb)),
                     f"p_md rises from rho={a} to rho={b}: {x} -> {y}")
    # one pinned point against scipy conditional Monte Carlo
    op_id, md, n = curves[5.0]
    ref, se_ref = _umm_limit(spec["seed"], float(grid[0]), k, delta, 5.0)
    bad.need(op_id, abs(md[0] - ref) <= Z * math.hypot(_se(md[0], n), se_ref),
             f"p_md {md[0]} against scipy conditional Monte Carlo {ref}")
    sim_id, rho, sim_md, sim_n = sim
    for x, y in zip(curves[rho][1], sim_md):
        bad.need(sim_id, abs(x - y) <= Z * math.hypot(_se(x, n), _se(y, sim_n)),
                 f"simulated p_md {y} against the curve's {x}")
    return bad


@functools.lru_cache(maxsize=None)
def _plugin_reference(seed, k, n, nx, delta, p):
    """Full simulation of the plug-in rule on a uniform (k+1)-cell alphabet.

    numpy's multinomial sampler draws the count vectors; scipy's ncx2.isf
    gives each trial's threshold.  Returns (p_md, p_fa) estimates.
    """
    rng = np.random.default_rng([seed, 2])
    m = k + 1
    p0 = np.full(m, 1.0 / m)
    fisher = np.diag(1.0 / p0[:k]) + 1.0 / p0[k]
    w, v = np.linalg.eigh(fisher)
    root = (v * np.sqrt(w)) @ v.T
    mu = np.zeros(k)
    mu[0] = delta
    theta1 = p0[:k] + (v / np.sqrt(w)) @ v.T @ mu / math.sqrt(n)
    p1 = np.append(theta1, 1.0 - theta1.sum())
    rho = nx / n

    def local(counts, size):
        return (counts[:, :k] / size - p0[:k]) @ (math.sqrt(n) * root).T

    mux = rho * local(rng.multinomial(nx, p1, size=N_REF), nx)
    thr = stats.ncx2.isf(p, k, np.einsum("ij,ij->i", mux, mux))
    s1 = mux + local(rng.multinomial(n, p1, size=N_REF), n)
    s0 = mux + local(rng.multinomial(n, p0, size=N_REF), n)
    miss = np.einsum("ij,ij->i", s1, s1) < thr
    alarm = np.einsum("ij,ij->i", s0, s0) >= thr
    return float(miss.mean()), float(alarm.mean())


def plugin(spec, texts, extra):
    bad = _Problems()
    for op in spec["ops"]:
        f = _flags(op["argv"])
        k, delta, n = int(f["k"]), float(f["delta"]), int(f["trials"])
        size, nx = int(f["n"]), int(f["nx"])
        grid = _grid(f["grid"])
        rows = _table(texts[op["id"]])
        bad.need(op["id"], len(rows) == len(grid), "row count")
        for p, row in zip(grid, rows):
            md, fa, dev = float(row["p_md"]), float(row["p_fa"]), float(row["dev_from_limit"])
            md_ref, fa_ref = _plugin_reference(spec["seed"], k, size, nx, delta, p)
            bad.need(op["id"], abs(md - md_ref) <= Z * math.hypot(_se(md, n), _se(md_ref, N_REF)),
                     f"p_md {md} against the plug-in simulation {md_ref} at {p}")
            bad.need(op["id"], abs(fa - fa_ref) <= Z * math.hypot(_se(fa, n), _se(fa_ref, N_REF)),
                     f"p_fa {fa} against the plug-in simulation {fa_ref} at {p}")
            bad.need(op["id"], float(row["ci_low"]) <= md <= float(row["ci_high"]), "ci")
            # dev_from_limit = |p_md - umm_pmd|: umm_pmd must match scipy's limit,
            # and the plug-in rule must sit near it
            lim, se_lim = _umm_limit(spec["seed"], p, k, delta, nx / size)
            se_umm = _se(lim, n)
            bad.need(op["id"], abs(dev - abs(md - lim)) <= Z * math.hypot(se_umm, se_lim),
                     f"dev_from_limit {dev} against |p_md - limit| = {abs(md - lim)}")
            bad.need(op["id"], dev <= Z * math.hypot(_se(md, n), se_umm) + LAN_GAP,
                     f"dev_from_limit {dev} too large")
    return bad


def _curve_against(bad, op_id, text, grid, ref):
    rows = _table(text)
    bad.need(op_id, len(rows) == len(grid), f"{len(rows)} rows for {len(grid)} grid points")
    for g, row in zip(map(float, grid), rows):
        p, m = float(row["p_fa"]), float(row["p_md"])
        bad.need(op_id, _rel_ok(p, g), f"p_fa {p!r} against grid point {g!r}")
        r = ref(g)
        bad.need(op_id, _rel_ok(m, r), f"p_md {m!r} against {r!r} at p_fa {g}")


def _hardness(delta, rho, k):
    s = 1.0 + 2.0 * rho
    return delta * delta * s / math.sqrt(2.0 * k * s + 4.0 * (1.0 + rho) ** 2 * delta * delta)


def _allocation_hardness(a, k, rho):
    s = 1.0 + 2.0 * rho
    return a * s / ((1.0 + rho) * math.sqrt(2.0 * k * s + 4.0 * (1.0 + rho) * a))


def _check_regions(bad, op_id, text, delta, p_fa):
    rows = _table(text)
    bad.need(op_id, len(rows) == 4 * 257 + 2, f"{len(rows)} rows")
    disks = [r for r in rows if r["record"] == "disk"]
    bad.need(op_id, [float(r["rho"]) for r in disks] == [0.0, 1.0, 5.0, 20.0], "disk rho list")
    for d in disks:
        rho = float(d["rho"])
        lam = (rho * delta) ** 2
        r2 = float(stats.chi2.isf(p_fa, 2) if lam == 0.0 else stats.ncx2.isf(p_fa, 2, lam))
        radius, cx, cy = float(d["radius"]), float(d["center_x"]), float(d["center_y"])
        bad.need(op_id, _rel_ok(radius * radius, r2), f"radius^2 {radius**2!r} against {r2!r}")
        bad.need(op_id, abs(cx + rho * delta) <= 1e-12 * max(1.0, rho * delta) and cy == 0.0,
                 f"center ({cx}, {cy}) against ({-rho * delta}, 0)")
        for b in (r for r in rows if r["record"] == "boundary" and float(r["rho"]) == rho):
            dist = math.hypot(float(b["center_x"]) - cx, float(b["center_y"]) - cy)
            bad.need(op_id, _rel_ok(dist, radius), f"boundary point off the circle: {dist!r}")
    z = float(stats.norm.isf(p_fa))
    for s in (r for r in rows if r["record"] == "segment"):
        bad.need(op_id, _rel_ok(float(s["center_x"]), z), f"segment x {s['center_x']} against {z!r}")


def _check_allocate(bad, op_id, text, k, a):
    rows = _table(text)
    grid = np.concatenate([[0.0], np.logspace(-3.0, 3.0, 121)])
    pts = [r for r in rows if r["kind"] == "grid"]
    opt = [r for r in rows if r["kind"] == "optimum"]
    bad.need(op_id, len(pts) == grid.size and len(opt) == 1, "row count")
    best = 0.0
    for r, g in zip(pts, grid):
        rho, h = float(r["rho"]), float(r["hardness"])
        ref = _allocation_hardness(a, k, g)
        best = max(best, ref)
        bad.need(op_id, _rel_ok(rho, g) or rho == g, f"grid rho {rho!r} against {g!r}")
        bad.need(op_id, _rel_ok(h, ref), f"hardness {h!r} against {ref!r} at rho {g}")
    for r in opt:
        rho, h = float(r["rho"]), float(r["hardness"])
        bad.need(op_id, _rel_ok(h, _allocation_hardness(a, k, rho)), "optimum hardness")
        bad.need(op_id, h >= 0.99 * best * (1.0 - REL), f"optimum {h!r} below the grid peak {best!r}")


def _specfun_ref(op):
    fn, args = op["fn"], op["args"]
    if fn == "chisq_tail_inv":
        k, lam, p = args
        return float(stats.chi2.isf(p, k) if lam == 0.0 else stats.ncx2.isf(p, k, lam))
    if fn == "chisq_tail":
        k, lam, t = args
        return float(stats.chi2.sf(t, k) if lam == 0.0 else stats.ncx2.sf(t, k, lam))
    if fn == "normal_tail_inv":
        return float(stats.norm.isf(args[0]))
    if fn == "vmf_const_inv":
        return op["tau"]
    raise ValueError(f"no reference for specfun.{fn}")


def closed_form(spec, texts, extra):
    bad = _Problems()
    for op in spec["ops"]:
        op_id, text = op["id"], texts[op["id"]]
        if text.startswith("error:"):
            continue
        if op["kind"] == "specfun":
            got, ref = float(text), _specfun_ref(op)
            bad.need(op_id, _rel_ok(got, ref), f"{got!r} against scipy {ref!r}")
            continue
        f = _flags(op["argv"])
        if op["argv"][0] == "curve":
            delta = float(f["delta"])
            if f["detector"] == "lrt":
                ref = lambda p: _lrt_md(p, delta)
            elif f["detector"] == "glrt":
                ref = lambda p: _glrt_md(p, int(f["k"]), delta)
            else:
                e = _hardness(delta, float(f["rho"]), int(f["k"]))
                ref = lambda p: _lrt_md(p, e)
            _curve_against(bad, op_id, text, _grid(f["grid"]), ref)
        elif op["argv"][0] == "regions":
            _check_regions(bad, op_id, text, float(f["delta"]), float(f["p-fa"]))
        else:
            _check_allocate(bad, op_id, text, int(f["k"]), float(f["n"]) * float(f["delta"]) ** 2)
    return bad


CHECKERS = {
    "sweep": sweep,
    "closed-form": closed_form,
    "training": training,
    "plugin": plugin,
}


def check(spec, family, texts, extra):
    """Problems per operation id of one family, for one round's outputs.

    ``texts`` maps the family's operation ids to their outputs.  ``extra``
    carries the untimed second run of the byte-identity check, for the round
    it belongs to.  The scipy Monte Carlo references draw from the run's
    seed and are computed once per run.
    """
    ops = [op for op in spec["ops"] if op["family"] == family]
    bad = _Problems({op["id"]: [] for op in ops})
    errors = [op["id"] for op in ops if texts[op["id"]].startswith("error:")]
    for op_id in errors:
        bad[op_id].append(texts[op_id])
    if errors and family != "closed-form":
        return bad  # the Monte Carlo checks compare operations with each other
    for op_id, problems in CHECKERS[family](dict(spec, ops=ops), texts, extra).items():
        bad[op_id].extend(problems)
    return bad
