"""The program runs on numpy alone, and each run loads only what it uses.

Each check runs the command line in a fresh interpreter in which importing
scipy or mpmath fails, so a stray import of either under ``src/`` fails here.
The same fresh interpreters show which modules a run leaves loaded: none
that its command does not read.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# runs cli.main on argv[2:], then writes the loaded module names to stderr
_RUN = """
import sys
sys.modules["scipy"] = sys.modules["mpmath"] = None
sys.path.insert(0, sys.argv[1])
from ummtest import cli
code = cli.main(sys.argv[2:])
sys.stderr.write(" ".join(sorted(sys.modules)) + "\\n")
sys.exit(code)
"""

# modules that only some runs need: numpy.ma (loaded by a plain np.unique),
# the thread pool (by more than one worker) and the two modules that only
# the LAN models and the asymptotics commands read
_OPTIONAL = ("numpy.ma", "concurrent.futures", "ummtest.lan_models", "ummtest.asymptotics")

_NLP = ["--k", "2", "--delta", "2", "--grid", "0.1:0.3:2"]


def _run(argv):
    """(stdout, loaded optional modules) of one fresh run, which must exit 0."""
    res = subprocess.run([sys.executable, "-c", _RUN, SRC] + argv,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    loaded = set(res.stderr.splitlines()[-1].split())
    return res.stdout, {m for m in _OPTIONAL if m in loaded}


@pytest.mark.parametrize("argv", [
    ["curve", "--detector", "umm-train", "--k", "2", "--delta", "2", "--rho", "1",
     "--grid", "0.1:0.3:2", "--trials", "500"],
    ["simulate", "--model", "discrete", "--k", "2", "--n", "100", "--nx", "100",
     "--delta", "2", "--grid", "0.1:0.3:2", "--trials", "500"],
])
def test_cli_runs_without_scipy(argv):
    out, _ = _run(argv)
    assert "simulated" in out


@pytest.mark.parametrize("argv", [
    ["curve", "--detector", "lrt", "--delta", "2", "--grid", "0.1:0.3:2"],
    ["curve", "--detector", "umm-train", "--rho", "1", "--trials", "500"] + _NLP,
    ["simulate", "--detector", "glrt", "--trials", "5000"] + _NLP,
    ["regions", "--delta", "2"],
])
def test_location_runs_load_no_optional_module(argv):
    assert _run(argv)[1] == set()


@pytest.mark.parametrize("argv, needs", [
    (["simulate", "--model", "discrete", "--k", "2", "--n", "100", "--nx", "100",
      "--delta", "2", "--grid", "0.1:0.3:2", "--trials", "500"], {"ummtest.lan_models"}),
    (["curve", "--detector", "asymptotic", "--delta", "1", "--grid", "0.1:0.3:2"],
     {"ummtest.asymptotics"}),
    (["allocate", "--k", "4", "--n", "100", "--delta", "0.3"], {"ummtest.asymptotics"}),
])
def test_a_run_loads_the_module_it_reads_and_not_numpy_ma(argv, needs):
    assert _run(argv)[1] == needs


def test_two_workers_load_the_pool_and_print_the_bytes_of_one():
    # 5000 trials are two blocks, so the second worker has one to run
    argv = ["simulate", "--detector", "glrt", "--trials", "5000", "--seed", "4"] + _NLP
    one, loaded_one = _run(argv + ["--workers", "1"])
    two, loaded_two = _run(argv + ["--workers", "2"])
    assert two == one
    assert loaded_one == set() and loaded_two == {"concurrent.futures"}


def test_submodules_load_on_first_attribute_access():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ummtest; "
            "print(sorted(m for m in sys.modules if m.startswith('ummtest.'))); "
            "print(ummtest.lan_models.DiscreteModel.__name__, "
            "ummtest.asymptotics.allocate.__name__); "
            "print('ummtest.lan_models' in sys.modules, 'numpy.ma' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["[]", "DiscreteModel allocate", "True False"]
