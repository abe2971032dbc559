"""Universal-minimax hypothesis testing.

Analytic error-tradeoff curves for the normal location problem (LRT, GLRT,
training-data detectors), plug-in detectors for locally asymptotically
normal models, high-dimension asymptotics, and a deterministic Monte Carlo
harness that validates every curve by simulation.

The submodules load on first use (PEP 562): ``import ummtest`` imports
none of them, and ``ummtest.lan_models`` imports that module when it is
first read, so a process pays only for the modules it touches.
"""

__version__ = "0.1.0"

_SUBMODULES = ("errors", "specfun", "linalg", "montecarlo", "nlp_detect", "lan_models",
               "asymptotics")


def __getattr__(name):
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")  # binds the submodule as a global here
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
