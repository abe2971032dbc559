"""End-to-end checks of the command-line front end (in-process main())."""

import json
import math

import numpy as np
import pytest

from ummtest import __version__, cli, lan_models, linalg, montecarlo, specfun
from ummtest.asymptotics import allocation_hardness, hardness_param
from ummtest.cli import main
from ummtest.nlp_detect import glrt_curve, lrt_curve


def _read(path):
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    header = body[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in body[1:]]
    return comments, header, rows


def test_help_and_version_exit_zero():
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    with pytest.raises(SystemExit) as e:
        main([])  # a subcommand is required
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["curve", "--format", "yaml"])  # invalid choice, argparse exits
    assert e.value.code == 2


def test_curve_lrt_csv(tmp_path):
    out = tmp_path / "lrt.csv"
    assert main(["curve", "--detector", "lrt", "--delta", "2",
                 "--grid", "0.05:0.95:10", "--out", str(out)]) == 0
    comments, header, rows = _read(out)
    assert comments[0] == f"# ummtest {__version__}"
    assert comments[1].startswith("# config: ")
    assert "delta=2.0" in comments[1] and "detector=lrt" in comments[1]
    assert header == ["p_fa", "p_md", "ci_low", "ci_high", "provenance"]
    assert len(rows) == 10
    ref = lrt_curve(2.0, np.linspace(0.05, 0.95, 10))
    for row, pm in zip(rows, ref.p_md):
        assert float(row["p_md"]) == pm  # repr round-trips exactly
        assert row["ci_low"] == "" and row["ci_high"] == ""
        assert row["provenance"] == "analytic"


def test_curve_asymptotic_modes(tmp_path):
    out1 = tmp_path / "a1.csv"
    assert main(["curve", "--detector", "asymptotic", "--delta", "0.5",
                 "--grid", "0.1:0.9:5", "--out", str(out1)]) == 0
    _, _, rows1 = _read(out1)
    ref1 = lrt_curve(0.5, np.linspace(0.1, 0.9, 5))
    assert [float(r["p_md"]) for r in rows1] == list(ref1.p_md)

    out2 = tmp_path / "a2.csv"
    assert main(["curve", "--detector", "asymptotic", "--delta", "2",
                 "--rho", "1", "--k", "64", "--grid", "0.1:0.9:5",
                 "--out", str(out2)]) == 0
    _, _, rows2 = _read(out2)
    h = hardness_param(2.0, 1.0, 64)
    ref2 = lrt_curve(h, np.linspace(0.1, 0.9, 5))
    assert [float(r["p_md"]) for r in rows2] == list(ref2.p_md)


def test_curve_asymptotic_rejects_rho_without_k(tmp_path, capsys):
    # without --k, --delta is the hardness itself and rho has no role
    out = tmp_path / "a.csv"
    assert main(["curve", "--detector", "asymptotic", "--delta", "2", "--rho", "3",
                 "--out", str(out)]) == 2
    assert "curve --detector asymptotic without --k does not read --rho" in capsys.readouterr().err
    assert not out.exists()


def test_curve_missing_option_exits_two(capsys):
    assert main(["curve", "--detector", "glrt", "--delta", "2"]) == 2
    assert "missing required option --k" in capsys.readouterr().err
    assert main(["curve", "--detector", "umm-train", "--delta", "2",
                 "--k", "2", "--rho", "fast"]) == 2
    assert "--rho must be a number" in capsys.readouterr().err


def test_curve_umm_train_simulated(tmp_path):
    out = tmp_path / "umm.csv"
    assert main(["curve", "--detector", "umm-train", "--delta", "2", "--k", "2",
                 "--rho", "1", "--grid", "0.05:0.3:3", "--trials", "2000",
                 "--out", str(out)]) == 0
    _, _, rows = _read(out)
    assert len(rows) == 3
    for row in rows:
        assert row["provenance"] == "simulated"
        lo, pm, hi = (float(row[c]) for c in ("ci_low", "p_md", "ci_high"))
        assert lo <= pm <= hi
    # between the matched filter and the no-training curve
    grid = np.linspace(0.05, 0.3, 3)
    lo_ref = lrt_curve(2.0, grid).p_md
    hi_ref = glrt_curve(2, 2.0, grid).p_md
    mids = np.array([float(r["p_md"]) for r in rows])
    assert np.all(mids > lo_ref) and np.all(mids < hi_ref)


def test_simulate_worker_invariance(tmp_path):
    base = ["simulate", "--detector", "glrt", "--k", "2", "--delta", "2",
            "--p-fa", "0.1", "--trials", "4096", "--seed", "3"]
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--workers", "8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(base[:-1] + ["4", "--out", str(c)]) == 0  # different seed
    assert a.read_bytes() != c.read_bytes()
    comments, header, rows = _read(a)
    assert "# seed: 3" in comments
    assert len(rows) == 1
    # measured false-alarm rate is reported, not the nominal level
    assert abs(float(rows[0]["p_fa"]) - 0.1) < 0.02
    assert float(rows[0]["p_fa"]) != 0.1


def test_simulate_against_reference(tmp_path, capsys):
    ref = tmp_path / "ref.csv"
    assert main(["curve", "--detector", "glrt", "--delta", "2", "--k", "2",
                 "--grid", "0.1:0.1:1", "--out", str(ref)]) == 0
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--detector", "glrt", "--k", "2", "--delta", "2",
               "--p-fa", "0.1", "--trials", "20000", "--seed", "0",
               "--out", str(out), "--against", str(ref)])
    err = capsys.readouterr().err
    assert rc == 0
    assert "against: all 1 intervals cover the reference" in err

    bad = tmp_path / "bad.csv"
    bad.write_text("p_fa,p_md\n0.1,0.9\n")
    rc = main(["simulate", "--detector", "glrt", "--k", "2", "--delta", "2",
               "--p-fa", "0.1", "--trials", "20000", "--seed", "0",
               "--out", str(out), "--against", str(bad)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "row 0" in err and "outside" in err

    two = tmp_path / "two.csv"
    two.write_text("p_fa,p_md\n0.1,0.4\n0.2,0.3\n")
    rc = main(["simulate", "--detector", "glrt", "--k", "2", "--delta", "2",
               "--p-fa", "0.1", "--trials", "20000", "--seed", "0",
               "--out", str(out), "--against", str(two)])
    assert rc == 2
    assert "row count mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("table, shown", [
    ("p_fa,p_md\n0.1,abc\n", "'abc'"),  # p_md is not a number
    ("p_fa,p_md\n0.1\n", "None"),  # the row is shorter than the header
], ids=["not-a-number", "short-row"])
def test_simulate_against_malformed_reference_exits_two(tmp_path, capsys, table, shown):
    # a bad reference is a configuration error, not a failed comparison
    ref = tmp_path / "ref.csv"
    ref.write_text(table)
    rc = main(["simulate", "--detector", "glrt", "--k", "2", "--delta", "2",
               "--p-fa", "0.1", "--trials", "1000", "--out", str(tmp_path / "sim.csv"),
               "--against", str(ref)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{str(ref)!r} row 0: p_md must be a number, got {shown}" in err


def test_simulate_rejects_both_point_and_grid(capsys):
    assert main(["simulate", "--detector", "glrt", "--k", "2", "--delta", "2",
                 "--p-fa", "0.1", "--grid", "0.1:0.3:3"]) == 2
    assert "not both" in capsys.readouterr().err


def test_simulate_lan_gaussian(tmp_path):
    out = tmp_path / "g.csv"
    assert main(["simulate", "--model", "gaussian", "--k", "2", "--delta", "2",
                 "--n", "100", "--nx", "100", "--p-fa", "0.1",
                 "--trials", "4096", "--out", str(out)]) == 0
    _, header, rows = _read(out)
    assert header == ["p_fa", "p_md", "ci_low", "ci_high", "provenance"]
    assert len(rows) == 1
    assert abs(float(rows[0]["p_fa"]) - 0.1) < 0.03
    assert abs(float(rows[0]["p_md"]) - 0.3074) < 0.05


def test_simulate_lan_discrete_reports_limit_gap(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["simulate", "--model", "discrete", "--delta", "2",
                 "--n", "200", "--nx", "200", "--p-fa", "0.1",
                 "--trials", "4096", "--out", str(out)]) == 0
    _, header, rows = _read(out)
    assert header[-1] == "dev_from_limit"
    dev = float(rows[0]["dev_from_limit"])
    assert 0.0 <= dev < 0.05


def test_simulate_lan_rho_without_training_exits_two(tmp_path, capsys):
    # with --nx 0 no rule uses a training block, and a positive --rho would
    # only move dev_from_limit to the wrong limit curve
    base = ["simulate", "--model", "discrete", "--k", "2", "--n", "200", "--nx", "0",
            "--delta", "2", "--p-fa", "0.1", "--trials", "1000"]
    assert main(base + ["--rho", "3"]) == 2
    assert "needs training samples" in capsys.readouterr().err
    out = tmp_path / "d.csv"
    assert main(base + ["--rho", "0", "--out", str(out)]) == 0
    # the exact lattice value is its own zero-width interval
    _, _, rows = _read(out)
    assert rows[0]["ci_low"] == rows[0]["p_md"] == rows[0]["ci_high"]


def test_simulate_lan_rejects_a_detector(tmp_path, capsys):
    # every model but nlp runs the plug-in rule, so --detector would only
    # mislabel the table's config header
    out = tmp_path / "d.csv"
    assert main(["simulate", "--model", "discrete", "--detector", "lrt", "--k", "2",
                 "--n", "200", "--nx", "200", "--delta", "2", "--p-fa", "0.1",
                 "--trials", "1000", "--out", str(out)]) == 2
    assert "simulate --model discrete does not read --detector" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_lan_computes_one_matrix_root(tmp_path, monkeypatch):
    # the model's J^{1/2} serves the alternative, both kernels and the label
    calls = []
    root = linalg.sym_sqrt
    monkeypatch.setattr(linalg, "sym_sqrt", lambda m: calls.append(m) or root(m))
    assert main(["simulate", "--model", "discrete", "--k", "2", "--n", "200", "--nx", "200",
                 "--delta", "2", "--p-fa", "0.1", "--trials", "1000",
                 "--out", str(tmp_path / "d.csv")]) == 0
    assert len(calls) == 1


def test_simulate_lan_ar_k_guard(capsys):
    assert main(["simulate", "--model", "ar", "--k", "2", "--delta", "1",
                 "--n", "300", "--p-fa", "0.1", "--trials", "200"]) == 2
    assert "simulate --model ar does not read --k" in capsys.readouterr().err


def test_regions_geometry(tmp_path):
    out = tmp_path / "r.csv"
    assert main(["regions", "--delta", "2", "--out", str(out)]) == 0
    _, header, rows = _read(out)
    assert header == ["record", "rho", "center_x", "center_y", "radius"]
    disks = [r for r in rows if r["record"] == "disk"]
    bounds = [r for r in rows if r["record"] == "boundary"]
    segs = [r for r in rows if r["record"] == "segment"]
    assert len(disks) == 4 and len(bounds) == 4 * 256 and len(segs) == 2
    # disk centers sit at -rho * delta on the first axis; radii from the
    # noncentral quantile at ||rho x||^2
    for row in disks:
        rho = float(row["rho"])
        assert float(row["center_x"]) == -rho * 2.0
        assert float(row["center_y"]) == 0.0
        ref = math.sqrt(specfun.chisq_tail_inv(2, rho * rho * 4.0, 0.1))
        assert abs(float(row["radius"]) - ref) < 1e-12
    # rho = 0 rows must print a clean origin, not -0.0
    zero = [r for r in disks if float(r["rho"]) == 0.0][0]
    assert zero["center_x"] == "0.0" and zero["center_y"] == "0.0"
    # boundary points lie on their circles
    for row in bounds[:256]:
        x, y = float(row["center_x"]), float(row["center_y"])
        r0 = float(disks[0]["radius"])
        assert abs(math.hypot(x, y) - r0) < 1e-9
    # the matched-filter line is vertical at delta * Qinv(p_fa) / delta
    xs = {float(r["center_x"]) for r in segs}
    assert len(xs) == 1
    assert abs(xs.pop() - specfun.normal_tail_inv(0.1)) < 1e-9
    ys = sorted(float(r["center_y"]) for r in segs)
    assert ys[0] == -ys[1] and ys[1] > 40.0


def test_allocate_table(tmp_path):
    out = tmp_path / "al.csv"
    assert main(["allocate", "--k", "1000", "--n", "25", "--delta", "2",
                 "--out", str(out)]) == 0
    _, header, rows = _read(out)
    assert header == ["kind", "rho", "hardness"]
    grid_rows = [r for r in rows if r["kind"] == "grid"]
    opt = [r for r in rows if r["kind"] == "optimum"]
    assert len(grid_rows) == 122 and len(opt) == 1
    for row in grid_rows[:10]:
        ref = allocation_hardness(100.0, 1000, float(row["rho"]))
        assert float(row["hardness"]) == ref
    assert opt[0]["rho"] == "0.0"

    out2 = tmp_path / "al2.csv"
    assert main(["allocate", "--k", "1000", "--n", "25", "--delta", "2",
                 "--rho", "0,0.5,1", "--out", str(out2)]) == 0
    _, _, rows2 = _read(out2)
    assert [r["rho"] for r in rows2 if r["kind"] == "grid"] == ["0.0", "0.5", "1.0"]


def test_config_file_merge_and_errors(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\ndetector = lrt\ndelta = 1.0\ngrid = 0.1:0.9:5\n")
    out1 = tmp_path / "c1.csv"
    assert main(["curve", "--config", str(cfg), "--out", str(out1)]) == 0
    _, _, rows1 = _read(out1)
    assert len(rows1) == 5
    assert float(rows1[0]["p_md"]) == lrt_curve(1.0, np.linspace(0.1, 0.9, 5)).p_md[0]

    # command-line flags beat the file
    out2 = tmp_path / "c2.csv"
    assert main(["curve", "--config", str(cfg), "--delta", "2",
                 "--out", str(out2)]) == 0
    _, _, rows2 = _read(out2)
    assert float(rows2[0]["p_md"]) == lrt_curve(2.0, np.linspace(0.1, 0.9, 5)).p_md[0]

    bad = tmp_path / "bad.cfg"
    bad.write_text("detektor = lrt\n")
    assert main(["curve", "--config", str(bad)]) == 2
    assert "unknown config key 'detektor'" in capsys.readouterr().err

    badval = tmp_path / "badval.cfg"
    badval.write_text("detector = lrt\ndelta = fast\n")
    assert main(["curve", "--config", str(badval)]) == 2
    assert "bad value" in capsys.readouterr().err

    assert main(["curve", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert "cannot read config file" in capsys.readouterr().err

    # a repeated key is an error, not first-wins, whichever spelling it takes
    twice = tmp_path / "twice.cfg"
    twice.write_text("detector = lrt\ndelta = 1\ngrid = 0.1:0.9:5\ndelta = 2\n")
    assert main(["curve", "--config", str(twice)]) == 2
    assert f"{twice}:4: key 'delta' repeats line 2" in capsys.readouterr().err
    twice.write_text("p-fa = 0.1\np_fa = 0.2\n")
    assert main(["regions", "--delta", "2", "--config", str(twice)]) == 2
    assert f"{twice}:2: key 'p_fa' repeats line 1" in capsys.readouterr().err


def test_json_output(tmp_path):
    out = tmp_path / "c.json"
    assert main(["curve", "--detector", "glrt", "--delta", "2", "--k", "4",
                 "--grid", "0.1:0.5:3", "--format", "json",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["tool"] == "ummtest" and doc["version"] == __version__
    assert doc["columns"] == ["p_fa", "p_md", "ci_low", "ci_high", "provenance"]
    assert len(doc["rows"]) == 3
    ref = glrt_curve(4, 2.0, np.linspace(0.1, 0.5, 3))
    assert doc["rows"][0]["p_md"] == ref.p_md[0]
    # analytic curves have no interval fields at all in json
    assert "ci_low" not in doc["rows"][0]
    assert doc["config"]["detector"] == "glrt"


def test_bad_grid_exits_two(capsys):
    assert main(["curve", "--detector", "lrt", "--delta", "2",
                 "--grid", "0.5"]) == 2
    assert "start:stop:count" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["discrete", "gaussian"])
def test_simulate_plugin_worker_invariance(tmp_path, model):
    # more than one 4096-trial block, so the three workers share the work
    base = ["simulate", "--model", model, "--k", "2", "--n", "40", "--nx", "80",
            "--delta", "2", "--grid", "0.05:0.3:3", "--trials", "5000", "--seed", "4"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(base + ["--workers", "1", "--out", str(a)]) == 0
    assert main(base + ["--workers", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _, header, rows = _read(a)
    assert len(rows) == 3
    assert ("dev_from_limit" in header) == (model == "discrete")


def test_back_to_back_calls_share_no_options(capsys):
    # the parser is built once per process; each call parses into its own
    # namespace, so an option given once does not stick to later calls
    base = ["simulate", "--detector", "glrt", "--k", "2", "--delta", "2", "--trials", "500"]
    cli._build_parser.cache_clear()
    assert main(base) == 0
    first = capsys.readouterr().out
    assert main(base + ["--seed", "3"]) == 0
    assert "# seed: 3" in capsys.readouterr().out
    assert main(base) == 0
    again = capsys.readouterr().out
    assert "# seed: 0" in again
    assert again == first
    assert cli._build_parser.cache_info().misses == 1


def test_discrete_disk_false_alarms_draw_under_h0_only(tmp_path, monkeypatch):
    # the false-alarm column of the three-symbol path draws its test
    # estimates from the null alone; the miss column is the exact section
    # average and draws training estimates only, through the same
    # draw_estimates
    draws = []
    draw = lan_models.DiscreteModel.draw_estimates

    def recorded(self, theta, n, u):
        draws.append((np.array(theta), n))
        return draw(self, theta, n, u)

    monkeypatch.setattr(lan_models.DiscreteModel, "draw_estimates", recorded)
    n, nx = 60, 90
    assert main(["simulate", "--model", "discrete", "--k", "2", "--delta", "2",
                 "--n", str(n), "--nx", str(nx), "--grid", "0.05:0.3:3",
                 "--trials", "5000", "--out", str(tmp_path / "d.csv")]) == 0
    tests = [theta for theta, size in draws if size == n]
    assert len(tests) == 2  # one per block
    assert all(np.array_equal(theta, np.full(2, 1.0 / 3.0)) for theta in tests)
    trains = [theta for theta, size in draws if size == nx]
    assert len(trains) == 2 * len(tests)  # one training draw per block in each column
    assert len(draws) == len(tests) + len(trains)


# ---------------------------------------------------------------------------
# the run table: each run reads the options of its row of cli._RUNS

# a command line of each run, with its required options
_BASE = {
    "curve --detector lrt": ["curve", "--detector", "lrt", "--delta", "2"],
    "curve --detector glrt": ["curve", "--detector", "glrt", "--k", "2", "--delta", "2"],
    "curve --detector umm-train": ["curve", "--detector", "umm-train", "--k", "2",
                                   "--delta", "2", "--rho", "1"],
    "curve --detector asymptotic --k": ["curve", "--detector", "asymptotic", "--k", "64",
                                        "--delta", "2"],
    "curve --detector asymptotic without --k": ["curve", "--detector", "asymptotic",
                                                "--delta", "2"],
    "simulate --model nlp --detector lrt": ["simulate", "--detector", "lrt", "--k", "2",
                                            "--delta", "2"],
    "simulate --model nlp --detector glrt": ["simulate", "--detector", "glrt", "--k", "2",
                                             "--delta", "2"],
    "simulate --model nlp --detector umm-train": ["simulate", "--detector", "umm-train",
                                                  "--k", "2", "--delta", "2"],
    "simulate --model gaussian": ["simulate", "--model", "gaussian", "--k", "2",
                                  "--delta", "2", "--n", "40"],
    "simulate --model discrete": ["simulate", "--model", "discrete", "--delta", "2",
                                  "--n", "40"],
    "simulate --model ar": ["simulate", "--model", "ar", "--delta", "1", "--n", "40"],
    "regions": ["regions", "--delta", "2"],
    "allocate": ["allocate", "--k", "10", "--n", "20", "--delta", "1"],
}

# a value of every option, valid wherever the option is read
_SAMPLE = {
    "detector": "lrt", "model": "nlp", "k": "3", "delta": "2.5", "rho": "1",
    "grid": "0.1:0.2:2", "p_fa": "0.1", "n": "40", "nx": "40", "trials": "200",
    "seed": "5", "workers": "2", "format": "csv", "out": "t.csv", "against": "ref.csv",
}


def _options(command):
    """Every dest that the subcommand's parser accepts."""
    return set(vars(cli._build_parser().parse_args([command]))) - {"command", "func"}


def test_run_table_matches_the_parser():
    assert set(_BASE) == set(cli._RUNS)
    for run, row in cli._RUNS.items():
        assert set(row) <= _options(run.split()[0]), run
    assert set(_SAMPLE) == set(cli._CONVERT)


def _outside(keys_of):
    # --k picks the other asymptotic run, so it is never outside that pair
    pairs = [(run, dest) for run, row in cli._RUNS.items()
             for dest in sorted(keys_of(run.split()[0]) - set(row))
             if not (dest == "k" and run.startswith("curve --detector asymptotic"))]
    return pytest.mark.parametrize("run, dest", pairs, ids=[f"{r}|{d}" for r, d in pairs])


@_outside(_options)
def test_option_outside_the_run_exits_two_by_flag(tmp_path, capsys, run, dest):
    out = tmp_path / "t.csv"
    assert main(_BASE[run] + [cli._flag(dest), _SAMPLE[dest], "--out", str(out)]) == 2
    assert f"{run} does not read {cli._flag(dest)}" in capsys.readouterr().err
    assert not out.exists()


@_outside(lambda command: set(cli._CONVERT))
def test_option_outside_the_run_exits_two_by_config_key(tmp_path, capsys, run, dest):
    cfg, out = tmp_path / "run.cfg", tmp_path / "t.csv"
    cfg.write_text(f"{dest} = {_SAMPLE[dest]}\n")
    assert main(_BASE[run] + ["--config", str(cfg), "--out", str(out)]) == 2
    assert f"{run} does not read {cli._flag(dest)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("run", list(cli._RUNS))
def test_header_lists_exactly_the_options_set(tmp_path, run):
    # every option of the row set at once; --p-fa and --grid take turns
    row = cli._RUNS[run]
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("# no keys\n")
    base = _BASE[run] + ["--config", str(cfg)]
    extra = [d for d in row if cli._flag(d) not in base and d not in ("config", "out", "against")]
    for drop in ("grid", "p_fa"):
        argv = list(base)
        for dest in extra:
            if not (dest == drop and {"grid", "p_fa"} <= set(row)):
                argv += [cli._flag(dest), _SAMPLE[dest]]
        out = tmp_path / "t.csv"
        assert main(argv + ["--out", str(out)]) == 0, argv
        comments, _, _ = _read(out)
        header = dict(kv.split("=", 1) for kv in comments[1][len("# config: "):].split())
        shown = {a[2:] for a in argv if a.startswith("--")} - {
            "config", "format", "out", "against", "workers"}
        if run.startswith("simulate"):  # the resolved model, set or not
            shown.add("model")
            assert f"--model {header['model']}" in run
        assert set(header) == shown, (argv, header)


@pytest.mark.parametrize("argv, message", [
    (["curve", "--detector", "lrt", "--k", "5", "--delta", "2", "--grid", "0.1:0.1:1"],
     "curve --detector lrt does not read --k"),
    (["simulate", "--detector", "glrt", "--k", "2", "--delta", "2", "--n", "100",
      "--nx", "7", "--trials", "200"],
     "simulate --model nlp --detector glrt does not read --n, --nx"),
    # an analytic curve runs no Monte Carlo
    (["curve", "--detector", "glrt", "--k", "2", "--delta", "2", "--trials", "500",
      "--seed", "9"],
     "curve --detector glrt does not read --seed, --trials"),
    (["simulate", "--model", "ar", "--k", "1", "--delta", "1", "--n", "300",
      "--p-fa", "0.1", "--trials", "200"],
     "simulate --model ar does not read --k"),
], ids=["lrt-k", "glrt-n-nx", "glrt-trials", "ar-k1"])
def test_ignored_options_exit_two(tmp_path, capsys, argv, message):
    out = tmp_path / "t.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["allocate", "--k", "10", "--n", "20", "--delta", "-1"],
    ["regions", "--delta", "-2"],
    ["simulate", "--model", "gaussian", "--k", "2", "--n", "40", "--delta", "-2"],
    ["simulate", "--model", "discrete", "--n", "40", "--delta", "-2", "--trials", "500"],
], ids=["allocate", "regions", "gaussian", "discrete"])
def test_nonpositive_delta_exits_two_before_any_work(tmp_path, capsys, monkeypatch, argv):
    def no_work(*a, **kw):
        raise AssertionError("a simulation ran")

    monkeypatch.setattr(montecarlo, "run_kernel", no_work)
    out = tmp_path / "t.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert "delta must be a positive real" in capsys.readouterr().err
    assert not out.exists()
