"""Command-line front end.

Four subcommands emit plot-ready tables: `curve` (analytic or
training-averaged tradeoff curves), `simulate` (Monte Carlo validation of
those curves, with measured false-alarm rates and Wilson intervals),
`regions` (acceptance-region geometry for the two-dimensional location
problem), and `allocate` (train/test budget splits).

Every run is deterministic given its configuration: output files carry no
timestamps, the RNG is seeded explicitly, and worker count never changes
the bytes produced.  Options may come from a key=value config file
(`--config run.cfg`), with command-line flags taking precedence.

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


def _require(args, flag: str):
    val = getattr(args, flag.replace("-", "_"))
    if val is None:
        raise ConfigError(f"missing required option --{flag}")
    return val


def _load_config_file(path: str, args) -> None:
    """Fill options the command line left unset; unknown keys are fatal."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path!r}: {e}")
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
        if not hasattr(args, dest):
            raise ConfigError(
                f"{path}:{lineno}: key {key!r} does not apply to this subcommand"
            )
        if getattr(args, dest) is None:  # flags win over the file
            try:
                setattr(args, dest, _CONVERT[dest](val))
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {val!r}")


def _mc_config(args) -> McConfig:
    return McConfig(
        trials=args.trials if args.trials is not None else 10_000,
        seed=args.seed if args.seed is not None else 0,
        workers=args.workers if args.workers is not None else 1,
    )


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


def _config_pairs(args, skip=("out", "format", "config", "against", "workers", "func")):
    """Resolved options for the header line, in sorted order.

    Worker count is excluded on purpose: it must never change output bytes.
    """
    pairs = []
    for dest in sorted(vars(args)):
        if dest in skip or dest == "command":
            continue
        val = getattr(args, dest)
        if val is None or callable(val):
            continue
        pairs.append((dest.replace("_", "-"), _fmt(val)))
    return pairs


def _write_table(args, columns, rows, seed=None) -> None:
    fmt = args.format if args.format is not None else "csv"
    cfg = _config_pairs(args)
    if fmt == "csv":
        lines = [f"# ummtest {__version__}"]
        lines.append("# config: " + " ".join(f"{k}={v}" for k, v in cfg))
        if seed is not None:
            lines.append(f"# seed: {seed}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(row.get(c)) for c in columns))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        doc = {
            "tool": "ummtest",
            "version": __version__,
            "config": dict(cfg),
            "columns": columns,
            "rows": [{c: row.get(c) for c in columns if row.get(c) is not None}
                     for row in rows],
        }
        if seed is not None:
            doc["seed"] = seed
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
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
    detector = _require(args, "detector")
    grid = _parse_grid(args.grid if args.grid is not None else "0.05:0.95:19")
    if detector == "lrt":
        curve = nlp_detect.lrt_curve(_require(args, "delta"), grid)
    elif detector == "glrt":
        curve = nlp_detect.glrt_curve(_require(args, "k"), _require(args, "delta"), grid)
    elif detector == "umm-train":
        rho = _as_float(_require(args, "rho"), "--rho")
        curve = nlp_detect.umm_curve(
            _require(args, "delta"), rho, _require(args, "k"), grid, _mc_config(args)
        )
    elif detector == "asymptotic":
        # with --k the hardness is computed from (delta, rho, k); without it
        # --delta is taken as the effective hardness itself
        delta = _require(args, "delta")
        if args.k is not None:
            rho = _as_float(args.rho, "--rho") if args.rho is not None else 0.0
            hardness = asymptotics.hardness_param(delta, rho, args.k)
        elif args.rho is not None:
            raise ConfigError("--rho needs --k: without it --delta is the hardness itself")
        else:
            hardness = delta
        curve = asymptotics.asymptotic_curve(hardness, grid)
    else:
        raise ConfigError(
            f"detector must be lrt, glrt, umm-train, or asymptotic, got {detector!r}"
        )
    _write_table(args, _CURVE_COLUMNS, _curve_rows(curve))
    return 0


# ---------------------------------------------------------------------------
# simulate

def _nlp_family(detector: str):
    if detector == "lrt":
        return lambda p: nlp_detect.LrtDetector(p_fa=p)
    if detector == "glrt":
        return lambda p: nlp_detect.GlrtDetector(p)
    if detector == "umm-train":
        return lambda p: nlp_detect.UmmTrainDetector(p)
    raise ConfigError(
        f"detector must be lrt, glrt, or umm-train for simulation, got {detector!r}"
    )


def _simulate_nlp(args, grid, mc):
    problem = nlp_detect.NlpProblem(
        k=_require(args, "k"),
        delta=_require(args, "delta"),
        rho=_as_float(args.rho, "--rho") if args.rho is not None else 0.0,
    )
    curve = montecarlo.roc_sweep(_nlp_family(_require(args, "detector")), problem, grid, mc)
    return _CURVE_COLUMNS, _sim_rows(curve.fa_hat, curve)


def _sim_rows(fa_hat, md):
    """Rows of a simulated curve md, with the measured (not nominal) p_fa."""
    return [{
        "p_fa": float(fa_hat[i]),
        "p_md": float(md.p_md[i]),
        "ci_low": float(md.ci_low[i]),
        "ci_high": float(md.ci_high[i]),
        "provenance": "simulated",
    } for i in range(md.p_md.size)]


def _build_lan_model(args):
    kind = args.model
    if kind == "gaussian":
        return lan_models.GaussianLocationModel(_require(args, "k"))
    if kind == "discrete":
        k = args.k if args.k is not None else 2
        m = k + 1
        return lan_models.DiscreteModel(np.full(m, 1.0 / m))
    if kind == "ar":
        if args.k is not None and args.k != 1:
            raise ConfigError("the ar model is first-order; --k must be 1 or omitted")
        return lan_models.ArModel(np.array([0.5]))
    raise ConfigError(f"model must be nlp, gaussian, discrete, or ar, got {kind!r}")


def _simulate_lan(args, grid, mc):
    if args.detector is not None:  # every model but nlp runs the plug-in rule
        raise ConfigError(f"--detector applies to --model nlp only, not to {args.model}")
    model = _build_lan_model(args)
    d = _require(args, "delta")
    n = _require(args, "n")
    nx = args.nx if args.nx is not None else 0
    setup = lan_models.TrainingSetup(
        n=n, n_x=nx, rho=_as_float(args.rho, "--rho") if args.rho is not None else None
    )
    mu = np.zeros(model.k)
    mu[0] = float(d)
    theta1 = lan_models.local_alternative(mu, model, n)
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
        ref = nlp_detect.umm_curve(float(d), problem.rho, model.k, grid, mc)
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
    if args.p_fa is not None and args.grid is not None:
        raise ConfigError("give either --p-fa or --grid, not both")
    if args.p_fa is not None:
        grid = np.array([float(args.p_fa)])
    else:
        grid = _parse_grid(args.grid if args.grid is not None else "0.1:0.1:1")
    mc = _mc_config(args)
    model_kind = args.model if args.model is not None else "nlp"
    args.model = model_kind
    if model_kind == "nlp":
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
    k = args.k if args.k is not None else 2
    delta = _require(args, "delta")
    p_fa = float(args.p_fa) if args.p_fa is not None else 0.1
    rhos = sorted(_parse_rho_list(args.rho if args.rho is not None else "0,1,5,20"))

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
    k = _require(args, "k")
    n = _require(args, "n")
    delta = _require(args, "delta")
    if n < 1:
        raise ConfigError(f"total blocklength n must be positive, got {n}")
    a = float(n) * float(delta) ** 2  # information budget
    grid = None
    if args.rho is not None:
        grid = np.array(_parse_rho_list(args.rho))
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
    sp.add_argument("--format", choices=["csv", "json"], default=None,
                    help="output format (default csv)")
    sp.add_argument("--out", help="output path (default stdout)")


def _add_mc(sp):
    sp.add_argument("--trials", type=int, default=None, help="Monte Carlo trials (default 10000)")
    sp.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    sp.add_argument("--workers", type=int, default=None,
                    help="threads; never changes output bytes (default 1)")


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
    sp.add_argument("--k", type=int, default=None, help="dimension")
    sp.add_argument("--delta", type=float, default=None,
                    help="separation; for --detector asymptotic without --k, "
                         "the effective hardness itself")
    sp.add_argument("--rho", default=None, help="training ratio")
    sp.add_argument("--grid", default=None,
                    help="false-alarm grid start:stop:count (default 0.05:0.95:19)")
    _add_mc(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_curve)

    sp = sub.add_parser("simulate", help="Monte Carlo run against a detector or model")
    sp.add_argument("--detector", default=None, help="lrt | glrt | umm-train (nlp model)")
    sp.add_argument("--model", default=None,
                    help="nlp (default) | gaussian | discrete | ar")
    sp.add_argument("--k", type=int, default=None, help="dimension / free cells")
    sp.add_argument("--delta", type=float, default=None, help="separation (local, for models)")
    sp.add_argument("--rho", default=None, help="training ratio override")
    sp.add_argument("--n", type=int, default=None, help="test blocklength (models)")
    sp.add_argument("--nx", type=int, default=None, help="training blocklength (models)")
    sp.add_argument("--p-fa", type=float, default=None, dest="p_fa",
                    help="single false-alarm level (default 0.1)")
    sp.add_argument("--grid", default=None, help="false-alarm grid start:stop:count")
    sp.add_argument("--against", default=None,
                    help="reference CSV; exit 1 unless every interval covers its p_md")
    _add_mc(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("regions", help="acceptance-region geometry (standardized plane)")
    sp.add_argument("--k", type=int, default=None, help="dimension (default 2)")
    sp.add_argument("--delta", type=float, default=None, help="separation")
    sp.add_argument("--rho", default=None,
                    help="comma-separated training ratios (default 0,1,5,20)")
    sp.add_argument("--p-fa", type=float, default=None, dest="p_fa",
                    help="false-alarm level (default 0.1)")
    _add_common(sp)
    sp.set_defaults(func=cmd_regions)

    sp = sub.add_parser("allocate", help="train/test split study at fixed budget")
    sp.add_argument("--k", type=int, default=None, help="dimension")
    sp.add_argument("--n", type=int, default=None, help="total blocklength")
    sp.add_argument("--delta", type=float, default=None, help="per-observation separation")
    sp.add_argument("--rho", default=None, help="comma-separated ratio grid (default built-in)")
    _add_common(sp)
    sp.set_defaults(func=cmd_allocate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            _load_config_file(args.config, args)
        return args.func(args)
    except UmmtestError as e:
        print(f"ummtest: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
