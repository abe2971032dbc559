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

`_OPTIONS` and `_RUNS` are the only option tables.  `_OPTIONS` gives each
option's type, choices and help.  A run is a command plus the options that
pick its code path; `_RUNS` lists the options each run reads, each required
or with its default.  The parser, the config-file types and the defaults in
`--help` are built from the two.  An option the run does not read exits 2,
set by flag or by config key.  The `# config:` header lists exactly the
options that were set, never a default, plus the model of a `simulate` run,
and leaves out those in `_UNPRINTED`.

Every option is checked before any work, the `--against` reference and the
`--grid` points included, so a bad one exits 2 with no table written.

`lan_models` and `asymptotics` are imported inside the functions that read
them, so a run that uses neither loads neither.

Exit codes: 0 success; 1 a `--against` comparison failed; 2 bad usage or
configuration.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__, montecarlo, nlp_detect
from .errors import ConfigError, UmmtestError, positive_int, positive_real
from .montecarlo import McConfig

# every option by dest, with its add_argument keywords; a config file's
# value is converted by the option's type
_OPTIONS = {
    "detector": {"help": "lrt | glrt | umm-train | asymptotic (curve only)"},
    "model": {"help": "nlp | gaussian | discrete | ar"},
    "k": {"type": int, "help": "dimension / free cells"},
    "delta": {"type": float, "help": "separation (local, for models); for curve --detector "
                                     "asymptotic without --k, the effective hardness itself"},
    "rho": {"help": "training ratio; for regions and allocate, a comma-separated list"},
    "n": {"type": int, "help": "test blocklength (allocate: total blocklength)"},
    "nx": {"type": int, "help": "training blocklength"},
    "p_fa": {"type": float, "help": "single false-alarm level"},
    "grid": {"help": "false-alarm grid start:stop:count"},
    "against": {"help": "reference CSV; exit 1 unless every interval covers its p_md"},
    "trials": {"type": int, "help": "Monte Carlo trials"},
    "seed": {"type": int, "help": "RNG seed"},
    "workers": {"type": int, "help": "threads; never changes output bytes"},
    "config": {"help": "key=value file; flags override it"},
    "format": {"choices": ["csv", "json"], "help": "output format"},
    "out": {"help": "output path (default stdout)"},
}

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
    """start:stop:count, sorted, every point inside the open unit interval."""
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
    return montecarlo._check_grid(montecarlo._sorted_unique(g))


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
        if dest not in _OPTIONS or dest == "config":
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if dest in seen:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {seen[dest]}")
        seen[dest] = lineno
        if getattr(args, dest, None) is None:  # flags win over the file
            try:
                setattr(args, dest, _OPTIONS[dest].get("type", str)(val))
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {val!r}")


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _run_of(args) -> str:
    """The key of the run in ``_RUNS`` that args select."""
    run = args.command
    if run == "simulate":
        if args.model is None:
            args.model = _SIM["model"]  # set, so the header names the model
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
        positive_real(args.delta, "delta")
    if "k" in row:
        positive_int(args.k, "dimension k")
    if args.format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {args.format!r}")


# ---------------------------------------------------------------------------
# output

def _fmt(v) -> str:
    """One table cell: a float as the shortest repr that reads back to it,
    -0.0 as 0.0; an integer (bool and numpy integers too) in decimal; a str
    as itself; None as empty.  Most cells are built-in floats, so they are
    tested first; for them float(v) is v, so the first branch writes the
    text of the last line, without its call."""
    if type(v) is float:
        return repr(v + 0.0)  # + 0.0 normalizes -0.0
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


def _write_table(args, table, seed=None) -> None:
    """Write ``table``, a dict of equal-length columns; a None cell is a field
    its row lacks: blank in CSV, left out of the row in JSON."""
    columns = list(table)
    if args.format == "csv":
        lines = [f"# ummtest {__version__}"]
        lines.append("# config: " + " ".join(f"{k}={v}" for k, v in args.header))
        if seed is not None:
            lines.append(f"# seed: {seed}")
        lines.append(",".join(columns))
        lines += map(",".join, zip(*([_fmt(v) for v in col] for col in table.values())))
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "tool": "ummtest",
            "version": __version__,
            "config": dict(args.header),
            "columns": columns,
            "rows": [{c: v for c, v in zip(columns, row) if v is not None}
                     for row in zip(*table.values())],
        }
        if seed is not None:
            doc["seed"] = seed
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
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

def _curve_table(curve, fa=None) -> dict:
    """The columns of a tradeoff curve.  A simulated table passes its measured
    (not nominal) false-alarm rates ``fa``, and an exact (analytic) p_md is
    then its own zero-width interval."""
    lo, hi = curve.ci_low, curve.ci_high
    if fa is not None and lo is None:
        lo = hi = curve.p_md
    blank = [None] * curve.p_md.size
    return {
        "p_fa": (curve.p_fa if fa is None else fa).tolist(),
        "p_md": curve.p_md.tolist(),
        "ci_low": blank if lo is None else lo.tolist(),
        "ci_high": blank if hi is None else hi.tolist(),
        "provenance": [curve.provenance if fa is None else "simulated"] * len(blank),
    }


# the location-problem rules of `curve` and `simulate --model nlp`, by --detector
_DETECTORS = {"lrt": nlp_detect.LrtDetector, "glrt": nlp_detect.GlrtDetector,
              "umm-train": nlp_detect.UmmTrainDetector}


def _mc(args):
    """The run's Monte Carlo settings; None for a run that reads no --trials."""
    if args.trials is None:
        return None
    return McConfig(trials=args.trials, seed=args.seed, workers=args.workers)


def _nlp_problem(args):
    """The location problem of a `curve` or `simulate --model nlp` run.  The
    training test alone reads --rho; the matched filter's curve reads no --k
    and takes k = 1, which its closed form does not use."""
    rho = _as_float(args.rho, "--rho") if args.detector == "umm-train" else 0.0
    return nlp_detect.NlpProblem(k=args.k or 1, delta=args.delta, rho=rho)


def cmd_curve(args) -> int:
    grid = _parse_grid(args.grid)
    if args.detector in _DETECTORS:
        mc = _mc(args)
        curve = _DETECTORS[args.detector].curve(_nlp_problem(args), grid, mc)
    else:
        from . import asymptotics

        hardness = args.delta  # without --k, --delta is the hardness itself
        if args.k is not None:  # the hardness of (delta, rho, k)
            hardness = asymptotics.hardness_param(args.delta, _as_float(args.rho, "--rho"), args.k)
        curve = asymptotics.asymptotic_curve(hardness, grid)
    _write_table(args, _curve_table(curve))
    return 0


# ---------------------------------------------------------------------------
# simulate

def _simulate_nlp(args, grid, mc):
    curve = montecarlo.roc_sweep(_DETECTORS[args.detector], _nlp_problem(args), grid, mc)
    return _curve_table(curve, curve.fa_hat)


def _simulate_lan(args, grid, mc):
    from . import lan_models

    if args.model == "gaussian":
        model = lan_models.GaussianLocationModel(args.k)
    elif args.model == "discrete":
        model = lan_models.DiscreteModel(np.full(args.k + 1, 1.0 / (args.k + 1)))
    else:
        model = lan_models.ArModel(np.array([0.5]))
    rho = None if args.rho is None else _as_float(args.rho, "--rho")  # None: nx / n
    setup = lan_models.TrainingSetup(n=args.n, n_x=args.nx, rho=rho)
    mu = np.zeros(model.k)
    mu[0] = float(args.delta)
    theta1 = lan_models.local_alternative(mu, model, args.n)
    problem = lan_models.LanProblem(model, theta1, setup)
    curve = lan_models.AummDetector.curve(problem, grid, mc)
    table = _curve_table(curve, curve.fa_hat)
    if not isinstance(model, lan_models.GaussianLocationModel):
        limit = nlp_detect.NlpProblem(k=model.k, delta=float(args.delta), rho=problem.rho)
        ref = nlp_detect.UmmTrainDetector.curve(limit, grid, mc)
        table["dev_from_limit"] = np.abs(curve.p_md - ref.p_md).tolist()
    return table


def _read_reference(path: str, count: int) -> list:
    """The p_md column of an --against reference, one value per grid point;
    read before the run, so a bad reference costs no work and writes no table."""
    columns, ref_rows = _read_csv_table(path)
    if "p_md" not in columns:
        raise ConfigError(f"{path!r} has no p_md column")
    if len(ref_rows) != count:
        raise ConfigError(
            f"row count mismatch: {path!r} has {len(ref_rows)}, this run produces {count}"
        )
    return [_as_float(ref.get("p_md"), f"{path!r} row {i}: p_md") for i, ref in enumerate(ref_rows)]


def _check_against(targets, table) -> int:
    """Exit 1 unless every simulated interval covers the reference p_md."""
    misses = []
    for i, (target, lo, hi) in enumerate(zip(targets, table["ci_low"], table["ci_high"])):
        if not (lo <= target <= hi):
            misses.append(f"row {i}: reference p_md={target!r} outside [{lo!r}, {hi!r}]")
    if misses:
        print("\n".join(misses), file=sys.stderr)
        return 1
    print(f"against: all {len(targets)} intervals cover the reference", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    grid = _parse_grid(args.grid) if args.p_fa is None else montecarlo._check_grid([args.p_fa])
    targets = None if args.against is None else _read_reference(args.against, grid.size)
    mc = _mc(args)
    table = (_simulate_nlp if args.model == "nlp" else _simulate_lan)(args, grid, mc)
    _write_table(args, table, seed=mc.seed)
    if targets is not None:
        return _check_against(targets, table)
    return 0


# ---------------------------------------------------------------------------
# regions

def cmd_regions(args) -> int:
    k, delta, p_fa = args.k, args.delta, float(args.p_fa)
    rhos = sorted(_parse_rho_list(args.rho))

    mu1 = np.zeros(k)
    mu1[0] = float(delta)
    train = nlp_detect.UmmTrainDetector(p_fa, x=mu1)
    table = {c: [] for c in ("record", "rho", "center_x", "center_y", "radius")}

    def extend(record, rho, xs, ys, radius=None):
        """Append one record per point (xs[i], ys[i])."""
        n = len(xs)
        for c, col in zip(table, ([record] * n, [rho] * n, xs, ys, [radius] * n)):
            table[c] += col

    reach = []  # |center_x| + radius of each disk
    for rho in rhos:
        b = train.region(nlp_detect.NlpProblem(k=k, mu1=mu1, rho=rho))
        cx, r = float(b.center[0]), float(b.radius)
        extend("disk", rho, [cx], [float(b.center[1]) if k > 1 else 0.0], r)
        reach.append(abs(cx) + r)
        if k == 2:
            t = 2.0 * math.pi * np.arange(256) / 256.0
            extend("boundary", rho, (b.center[0] + b.radius * np.cos(t)).tolist(),
                   (b.center[1] + b.radius * np.sin(t)).tolist())
    if k == 2:
        # matched-filter boundary as a segment spanning the figure
        problem = nlp_detect.NlpProblem(k=k, mu1=mu1, rho=0.0)
        h = nlp_detect.LrtDetector(p_fa=p_fa).region(problem)
        nrm = float(h.normal @ h.normal)
        p0 = (h.offset / nrm) * h.normal
        u = np.array([-h.normal[1], h.normal[0]]) / math.sqrt(nrm)
        xs, ys = zip(*((p0 + sgn * max(reach) * u).tolist() for sgn in (-1.0, 1.0)))
        extend("segment", None, xs, ys)
    _write_table(args, table)
    return 0


# ---------------------------------------------------------------------------
# allocate

def cmd_allocate(args) -> int:
    from . import asymptotics

    k, n, delta = args.k, args.n, args.delta
    if n < 1:
        raise ConfigError(f"total blocklength n must be positive, got {n}")
    a = float(n) * float(delta) ** 2  # information budget
    grid = None if args.rho is None else np.array(_parse_rho_list(args.rho))
    alloc = asymptotics.allocate(a, k, rho_grid=grid)
    _write_table(args, {
        "kind": ["grid"] * alloc.rho.size + ["optimum"],
        "rho": alloc.rho.tolist() + [alloc.rho_star],
        "hardness": alloc.hardness.tolist()
                    + [float(asymptotics.allocation_hardness(a, k, alloc.rho_star))],
    })
    return 0


# ---------------------------------------------------------------------------
# parser

_COMMANDS = {
    "curve": (cmd_curve, "analytic or training-averaged tradeoff curve"),
    "simulate": (cmd_simulate, "Monte Carlo run against a detector or model"),
    "regions": (cmd_regions, "acceptance-region geometry (standardized plane)"),
    "allocate": (cmd_allocate, "train/test split study at fixed budget"),
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process: parsing reads it and
    fills a fresh namespace on every call, so calls share no options.

    Each command takes the options its runs read in ``_RUNS``; a help line
    names a default when every run of the command that reads the option has
    the same one, and it is neither required nor None."""
    parser = argparse.ArgumentParser(
        prog="ummtest",
        description="Error-tradeoff curves, detectors, and Monte Carlo validation "
                    "for universal binary hypothesis testing.",
    )
    parser.add_argument("--version", action="version", version=f"ummtest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, text) in _COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        rows = [row for run, row in _RUNS.items() if run.split()[0] == command]
        for dest, kwargs in _OPTIONS.items():
            defaults = {row[dest] for row in rows if dest in row}
            if not defaults:
                continue
            default, *rest = defaults
            if not rest and default is not _REQUIRED and default is not None:
                kwargs = {**kwargs, "help": f"{kwargs['help']} (default {default})"}
            sp.add_argument(_flag(dest), **kwargs)
        sp.set_defaults(func=func)
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
