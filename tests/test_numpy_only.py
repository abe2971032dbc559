"""The program runs on numpy alone: scipy and mpmath are test-only tools.

Each check runs the command line in a fresh interpreter in which importing
scipy or mpmath fails, so a stray import of either under ``src/`` fails here.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_RUN = """
import sys
sys.modules["scipy"] = sys.modules["mpmath"] = None
sys.path.insert(0, sys.argv[1])
from ummtest import cli
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("argv", [
    ["curve", "--detector", "umm-train", "--k", "2", "--delta", "2", "--rho", "1",
     "--grid", "0.1:0.3:2", "--trials", "500"],
    ["simulate", "--model", "discrete", "--k", "2", "--n", "100", "--nx", "100",
     "--delta", "2", "--grid", "0.1:0.3:2", "--trials", "500"],
])
def test_cli_runs_without_scipy(argv):
    res = subprocess.run([sys.executable, "-c", _RUN, SRC] + argv,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "simulated" in res.stdout
