"""Command-line front end.

Four subcommands emit plot-ready tables: `curve` (analytic or
training-averaged tradeoff curves), `simulate` (Monte Carlo validation of
those curves, with measured false-alarm rates and Wilson intervals),
`regions` (acceptance-region geometry for the two-dimensional location
problem), and `allocate` (train/test budget splits).

Every run is deterministic given its configuration: output files carry no
timestamps, the RNG is seeded explicitly, and worker count never changes
the bytes produced.  Options may come from a key=value config file
(`--config run.cfg`, each key once), with command-line flags taking precedence.

A run is a command plus the options that pick its code path; `_RUNS` lists
the options each run reads, each required or with its default.  An option
the run does not read exits 2, set by flag or by config key.  The `# config:`
header lists exactly the options that were set, never a default, plus the
model of a `simulate` run, and leaves out those in `_UNPRINTED`.

Exit codes: 0 success; 1 a `--against` comparison failed; 2 bad usage or
configuration.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__, asymptotics, lan_models, montecarlo, nlp_detect
from .errors import ConfigError, UmmtestError
from .montecarlo import McConfig

# dests that may appear in a config file, with their parsed types
_CONVERT = {
    "detector": str, "model": str, "grid": str, "rho": str,
    "format": str, "out": str, "against": str,
    "k": int, "n": int, "nx": int, "trials": int, "seed": int, "workers": int,
    "delta": float, "p_fa": float,
}

_CURVE_COLUMNS = ["p_fa", "p_md", "ci_low", "ci_high", "provenance"]

_REQUIRED = object()  # marks an option that has no default

# options that direct the output or never change its numbers; no header lists them
_UNPRINTED = frozenset(["config", "format", "out", "against", "workers"])

_OUT = {"config": None, "format": "csv", "out": None}
_MC = {"trials": 10_000, "seed": 0, "workers": 1}
_CURVE = {**_OUT, "detector": _REQUIRED, "delta": _REQUIRED, "grid": "0.05:0.95:19"}
_SIM = {**_OUT, **_MC, "model": "nlp", "delta": _REQUIRED, "p_fa": None, "grid": "0.1:0.1:1",
        "against": None}
_NLP = {**_SIM, "detector": _REQUIRED, "k": _REQUIRED}
_LAN = {**_SIM, "n": _REQUIRED, "nx": 0, "rho": None}

# each run, and the options it reads with their defaults
_RUNS = {
    "curve --detector lrt": _CURVE,
    "curve --detector glrt": {**_CURVE, "k": _REQUIRED},
    "curve --detector umm-train": {**_CURVE, **_MC, "k": _REQUIRED, "rho": _REQUIRED},
    "curve --detector asymptotic --k": {**_CURVE, "k": _REQUIRED, "rho": 0.0},
    "curve --detector asymptotic without --k": _CURVE,
    "simulate --model nlp --detector lrt": _NLP,
    "simulate --model nlp --detector glrt": _NLP,
    "simulate --model nlp --detector umm-train": {**_NLP, "rho": 0.0},
    "simulate --model gaussian": {**_LAN, "k": _REQUIRED},
    "simulate --model discrete": {**_LAN, "k": 2},
    "simulate --model ar": _LAN,  # first-order: no --k
    "regions": {**_OUT, "k": 2, "delta": _REQUIRED, "p_fa": 0.1, "rho": "0,1,5,20"},
    "allocate": {**_OUT, "k": _REQUIRED, "n": _REQUIRED, "delta": _REQUIRED, "rho": None},
}


# ---------------------------------------------------------------------------
# option plumbing

def _parse_grid(spec: str) -> np.ndarray:
    """start:stop:count, endpoints clipped into the open unit interval."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be start:stop:count, got {spec!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"grid must be start:stop:count with numeric parts, got {spec!r}")
    if count < 1:
        raise ConfigError(f"grid count must be at least 1, got {count}")
    g = np.linspace(start, stop, count) if count > 1 else np.array([start])
    g = np.unique(np.clip(g, 1e-6, 1.0 - 1e-6))
    return g


def _as_float(val, name: str) -> float:
    try:
        return float(val)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {val!r}")


def _parse_rho_list(spec: str):
    try:
        vals = [float(s) for s in spec.split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigError(f"rho list must be comma-separated numbers, got {spec!r}")
    if not vals:
        raise ConfigError(f"rho list is empty: {spec!r}")
    return vals


def _load_config_file(path: str, args) -> None:
    """Fill options the command line left unset; unknown keys are fatal."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path!r}: {e}")
    seen = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        dest = key.replace("-", "_")
        if dest not in _CONVERT:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if dest in seen:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {seen[dest]}")
        seen[dest] = lineno
        if getattr(args, dest, None) is None:  # flags win over the file
            try:
                setattr(args, dest, _CONVERT[dest](val))
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {val!r}")


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _run_of(args) -> str:
    """The key of the run in ``_RUNS`` that args select."""
    run = args.command
    if run == "simulate":
        if args.model is None:
            args.model = "nlp"  # set, so the header names the model
        run += f" --model {args.model}"
    if run in ("curve", "simulate --model nlp"):
        if args.detector is None:
            raise ConfigError("missing required option --detector")
        run += f" --detector {args.detector}"
    if run == "curve --detector asymptotic":
        run += " without --k" if args.k is None else " --k"
    if run not in _RUNS:
        runs = ", ".join(r for r in _RUNS if r.startswith(args.command + " "))
        raise ConfigError(f"no run {run!r}; the {args.command} runs are: {runs}")
    return run


def _resolve(args) -> None:
    """Check the options set in args against their run's row of ``_RUNS``,
    keep the header of those set, then fill in the row's defaults."""
    run = _run_of(args)
    row = _RUNS[run]
    given = {dest: val for dest, val in vars(args).items()
             if val is not None and dest not in ("command", "func")}
    ignored = sorted(dest for dest in given if dest not in row)
    if ignored:
        raise ConfigError(f"{run} does not read {', '.join(map(_flag, ignored))}")
    if "p_fa" in given and "grid" in given:
        raise ConfigError("give either --p-fa or --grid, not both")
    args.header = _config_pairs(given)
    for dest, default in row.items():
        if dest not in given:
            if default is _REQUIRED:
                raise ConfigError(f"missing required option {_flag(dest)}")
            setattr(args, dest, default)
    if "delta" in row:
        nlp_detect._check_delta(args.delta)


# ---------------------------------------------------------------------------
# output

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v) + 0.0)  # + 0.0 normalizes -0.0


def _config_pairs(given: dict):
    """The header line's options: those set, less ``_UNPRINTED``, sorted."""
    return [(dest.replace("_", "-"), _fmt(val)) for dest, val in sorted(given.items())
            if dest not in _UNPRINTED]


def _write_table(args, columns, rows, seed=None) -> None:
    if args.format == "csv":
        lines = [f"# ummtest {__version__}"]
        lines.append("# config: " + " ".join(f"{k}={v}" for k, v in args.header))
        if seed is not None:
            lines.append(f"# seed: {seed}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(row.get(c)) for c in columns))
        text = "\n".join(lines) + "\n"
    elif args.format == "json":
        doc = {
            "tool": "ummtest",
            "version": __version__,
            "config": dict(args.header),
            "columns": columns,
            "rows": [{c: row.get(c) for c in columns if row.get(c) is not None}
                     for row in rows],
        }
        if seed is not None:
            doc["seed"] = seed
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        raise ConfigError(f"format must be csv or json, got {args.format!r}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_csv_table(path: str):
    """Header comments are skipped; returns (columns, rows of strings)."""
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except OSError as e:
        raise ConfigError(f"cannot read {path!r}: {e}")
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    if not body:
        raise ConfigError(f"{path!r} has no table rows")
    columns = body[0].split(",")
    rows = [dict(zip(columns, ln.split(","))) for ln in body[1:]]
    return columns, rows


# ---------------------------------------------------------------------------
# curve

def _curve_rows(curve) -> list:
    rows = []
    for i in range(curve.p_fa.size):
        rows.append({
            "p_fa": float(curve.p_fa[i]),
            "p_md": float(curve.p_md[i]),
            "ci_low": None if curve.ci_low is None else float(curve.ci_low[i]),
            "ci_high": None if curve.ci_high is None else float(curve.ci_high[i]),
            "provenance": curve.provenance,
        })
    rows.sort(key=lambda r: r["p_fa"])
    return rows


def cmd_curve(args) -> int:
    grid = _parse_grid(args.grid)
    if args.detector == "lrt":
        curve = nlp_detect.lrt_curve(args.delta, grid)
    elif args.detector == "glrt":
        curve = nlp_detect.glrt_curve(args.k, args.delta, grid)
    elif args.detector == "umm-train":
        mc = McConfig(trials=args.trials, seed=args.seed, workers=args.workers)
        curve = nlp_detect.umm_curve(args.delta, _as_float(args.rho, "--rho"), args.k, grid, mc)
    elif args.k is None:  # asymptotic: --delta is the hardness itself
        curve = asymptotics.asymptotic_curve(args.delta, grid)
    else:  # asymptotic: the hardness of (delta, rho, k)
        rho = _as_float(args.rho, "--rho")
        curve = asymptotics.asymptotic_curve(
            asymptotics.hardness_param(args.delta, rho, args.k), grid)
    _write_table(args, _CURVE_COLUMNS, _curve_rows(curve))
    return 0


# ---------------------------------------------------------------------------
# simulate

_NLP_FAMILIES = {"lrt": lambda p: nlp_detect.LrtDetector(p_fa=p),
                 "glrt": nlp_detect.GlrtDetector, "umm-train": nlp_detect.UmmTrainDetector}


def _simulate_nlp(args, grid, mc):
    # the training test alone reads --rho; the other rules see no training
    rho = _as_float(args.rho, "--rho") if args.detector == "umm-train" else 0.0
    problem = nlp_detect.NlpProblem(k=args.k, delta=args.delta, rho=rho)
    curve = montecarlo.roc_sweep(_NLP_FAMILIES[args.detector], problem, grid, mc)
    return _CURVE_COLUMNS, _sim_rows(curve.fa_hat, curve)


def _sim_rows(fa_hat, md):
    """Rows of a simulated curve md, with the measured (not nominal) p_fa;
    an exact (analytic) md is its own zero-width interval."""
    lo, hi = (md.p_md, md.p_md) if md.ci_low is None else (md.ci_low, md.ci_high)
    return [{
        "p_fa": float(fa_hat[i]),
        "p_md": float(md.p_md[i]),
        "ci_low": float(lo[i]),
        "ci_high": float(hi[i]),
        "provenance": "simulated",
    } for i in range(md.p_md.size)]


def _build_lan_model(args):
    if args.model == "gaussian":
        return lan_models.GaussianLocationModel(args.k)
    if args.model == "discrete":
        return lan_models.DiscreteModel(np.full(args.k + 1, 1.0 / (args.k + 1)))
    return lan_models.ArModel(np.array([0.5]))


def _simulate_lan(args, grid, mc):
    model = _build_lan_model(args)
    rho = None if args.rho is None else _as_float(args.rho, "--rho")  # None: nx / n
    setup = lan_models.TrainingSetup(n=args.n, n_x=args.nx, rho=rho)
    mu = np.zeros(model.k)
    mu[0] = float(args.delta)
    theta1 = lan_models.local_alternative(mu, model, args.n)
    problem = lan_models.LanProblem(model, theta1, setup)

    # three-symbol models get the conditional estimator (exact test-block
    # sections given training), everything else the plain indicator average
    use_disk = isinstance(model, lan_models.DiscreteModel) and model.k == 2
    with_dev = not isinstance(model, lan_models.GaussianLocationModel)

    columns = list(_CURVE_COLUMNS) + (["dev_from_limit"] if with_dev else [])
    if use_disk:
        dets = [lan_models.AummDetector(float(p)) for p in grid]
        fa = montecarlo.run_kernel(lan_models.AummDetector.mc_kernel(dets, problem, (False,)), mc)
        md = lan_models.discrete_aumm_curve(model, theta1, setup, grid, mc)
    else:
        md = montecarlo.roc_sweep(lan_models.AummDetector, problem, grid, mc)
        fa = md.fa_hat
    rows = _sim_rows(fa, md)
    if with_dev:
        ref = nlp_detect.umm_curve(float(args.delta), problem.rho, model.k, grid, mc)
        for row, r in zip(rows, ref.p_md.tolist()):
            row["dev_from_limit"] = abs(row["p_md"] - r)
    return columns, rows


def _check_against(path: str, rows) -> int:
    """Exit 1 unless every simulated interval covers the reference p_md."""
    columns, ref_rows = _read_csv_table(path)
    if "p_md" not in columns:
        raise ConfigError(f"{path!r} has no p_md column")
    if len(ref_rows) != len(rows):
        raise ConfigError(
            f"row count mismatch: {path!r} has {len(ref_rows)}, this run produced {len(rows)}"
        )
    misses = []
    for i, (ref, row) in enumerate(zip(ref_rows, rows)):
        target = _as_float(ref.get("p_md"), f"{path!r} row {i}: p_md")
        lo, hi = row["ci_low"], row["ci_high"]
        if not (lo <= target <= hi):
            misses.append(f"row {i}: reference p_md={target!r} outside [{lo!r}, {hi!r}]")
    if misses:
        print("\n".join(misses), file=sys.stderr)
        return 1
    print(f"against: all {len(rows)} intervals cover the reference", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    grid = _parse_grid(args.grid) if args.p_fa is None else np.array([float(args.p_fa)])
    mc = McConfig(trials=args.trials, seed=args.seed, workers=args.workers)
    if args.model == "nlp":
        columns, rows = _simulate_nlp(args, grid, mc)
    else:
        columns, rows = _simulate_lan(args, grid, mc)
    _write_table(args, columns, rows, seed=mc.seed)
    if args.against is not None:
        return _check_against(args.against, rows)
    return 0


# ---------------------------------------------------------------------------
# regions

def cmd_regions(args) -> int:
    k, delta, p_fa = args.k, args.delta, float(args.p_fa)
    rhos = sorted(_parse_rho_list(args.rho))

    mu1 = np.zeros(k)
    mu1[0] = float(delta)
    train = nlp_detect.UmmTrainDetector(p_fa, x=mu1)
    disks = []
    for rho in rhos:
        problem = nlp_detect.NlpProblem(k=k, mu1=mu1, rho=rho)
        disks.append((rho, train.region(problem)))

    columns = ["record", "rho", "center_x", "center_y", "radius"]
    rows = []
    for rho, b in disks:
        rows.append({
            "record": "disk",
            "rho": rho,
            "center_x": float(b.center[0]),
            "center_y": float(b.center[1]) if k > 1 else 0.0,
            "radius": float(b.radius),
        })
        if k == 2:
            t = 2.0 * math.pi * np.arange(256) / 256.0
            xs = b.center[0] + b.radius * np.cos(t)
            ys = b.center[1] + b.radius * np.sin(t)
            for x, y in zip(xs, ys):
                rows.append({
                    "record": "boundary",
                    "rho": rho,
                    "center_x": float(x),
                    "center_y": float(y),
                })
    if k == 2:
        # matched-filter boundary as a segment spanning the figure
        problem = nlp_detect.NlpProblem(k=k, mu1=mu1, rho=0.0)
        h = nlp_detect.LrtDetector(p_fa=p_fa).region(problem)
        nrm = float(h.normal @ h.normal)
        p0 = (h.offset / nrm) * h.normal
        u = np.array([-h.normal[1], h.normal[0]]) / math.sqrt(nrm)
        span = max(abs(r["center_x"]) + r["radius"] for r in rows if r["record"] == "disk")
        for sgn in (-1.0, 1.0):
            pt = p0 + sgn * span * u
            rows.append({
                "record": "segment",
                "center_x": float(pt[0]),
                "center_y": float(pt[1]),
            })
    _write_table(args, columns, rows)
    return 0


# ---------------------------------------------------------------------------
# allocate

def cmd_allocate(args) -> int:
    k, n, delta = args.k, args.n, args.delta
    if n < 1:
        raise ConfigError(f"total blocklength n must be positive, got {n}")
    a = float(n) * float(delta) ** 2  # information budget
    grid = None if args.rho is None else np.array(_parse_rho_list(args.rho))
    alloc = asymptotics.allocate(a, k, rho_grid=grid)
    columns = ["kind", "rho", "hardness"]
    rows = [
        {"kind": "grid", "rho": float(r), "hardness": float(h)}
        for r, h in zip(alloc.rho, alloc.hardness)
    ]
    rows.append({
        "kind": "optimum",
        "rho": alloc.rho_star,
        "hardness": float(asymptotics.allocation_hardness(a, k, alloc.rho_star)),
    })
    _write_table(args, columns, rows)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common(sp):
    sp.add_argument("--config", help="key=value file; flags override it")
    sp.add_argument("--format", choices=["csv", "json"], help="output format (default csv)")
    sp.add_argument("--out", help="output path (default stdout)")


def _add_mc(sp):
    sp.add_argument("--trials", type=int, help="Monte Carlo trials (default 10000)")
    sp.add_argument("--seed", type=int, help="RNG seed (default 0)")
    sp.add_argument("--workers", type=int, help="threads; never changes output bytes (default 1)")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process: parsing reads it and
    fills a fresh namespace on every call, so calls share no options."""
    parser = argparse.ArgumentParser(
        prog="ummtest",
        description="Error-tradeoff curves, detectors, and Monte Carlo validation "
                    "for universal binary hypothesis testing.",
    )
    parser.add_argument("--version", action="version", version=f"ummtest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("curve", help="analytic or training-averaged tradeoff curve")
    sp.add_argument("--detector", choices=["lrt", "glrt", "umm-train", "asymptotic"])
    sp.add_argument("--k", type=int, help="dimension")
    sp.add_argument("--delta", type=float,
                    help="separation; for --detector asymptotic without --k, "
                         "the effective hardness itself")
    sp.add_argument("--rho", help="training ratio")
    sp.add_argument("--grid", help="false-alarm grid start:stop:count (default 0.05:0.95:19)")
    _add_mc(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_curve)

    sp = sub.add_parser("simulate", help="Monte Carlo run against a detector or model")
    sp.add_argument("--detector", help="lrt | glrt | umm-train (nlp model)")
    sp.add_argument("--model", help="nlp (default) | gaussian | discrete | ar")
    sp.add_argument("--k", type=int, help="dimension / free cells")
    sp.add_argument("--delta", type=float, help="separation (local, for models)")
    sp.add_argument("--rho", help="training ratio override")
    sp.add_argument("--n", type=int, help="test blocklength (models)")
    sp.add_argument("--nx", type=int, help="training blocklength (models)")
    sp.add_argument("--p-fa", type=float, dest="p_fa",
                    help="single false-alarm level (default 0.1)")
    sp.add_argument("--grid", help="false-alarm grid start:stop:count")
    sp.add_argument("--against",
                    help="reference CSV; exit 1 unless every interval covers its p_md")
    _add_mc(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("regions", help="acceptance-region geometry (standardized plane)")
    sp.add_argument("--k", type=int, help="dimension (default 2)")
    sp.add_argument("--delta", type=float, help="separation")
    sp.add_argument("--rho", help="comma-separated training ratios (default 0,1,5,20)")
    sp.add_argument("--p-fa", type=float, dest="p_fa", help="false-alarm level (default 0.1)")
    _add_common(sp)
    sp.set_defaults(func=cmd_regions)

    sp = sub.add_parser("allocate", help="train/test split study at fixed budget")
    sp.add_argument("--k", type=int, help="dimension")
    sp.add_argument("--n", type=int, help="total blocklength")
    sp.add_argument("--delta", type=float, help="per-observation separation")
    sp.add_argument("--rho", help="comma-separated ratio grid (default built-in)")
    _add_common(sp)
    sp.set_defaults(func=cmd_allocate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            _load_config_file(args.config, args)
        _resolve(args)
        return args.func(args)
    except UmmtestError as e:
        print(f"ummtest: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
