"""Print the error-tradeoff family for the two-dimensional location problem.

The matched filter knows the alternative's direction, the energy test knows
nothing but the separation, and the training tests sit between the two,
improving as the labeled sample grows.  The table makes the ordering visible
at a glance; the footer shows the Monte Carlo interval behind one of the
training points.
"""

import numpy as np

from ummtest import nlp_detect
from ummtest.montecarlo import McConfig

K = 2
DELTA = 2.0
GRID = np.array([0.02, 0.05, 0.10, 0.20, 0.30, 0.50])
RHOS = (20.0, 5.0, 1.0)


def main():
    problem = nlp_detect.NlpProblem(K, delta=DELTA)
    lrt = nlp_detect.LrtDetector.curve(problem, GRID)
    glrt = nlp_detect.GlrtDetector.curve(problem, GRID)
    mc = McConfig(trials=100_000, seed=11)
    train = {rho: nlp_detect.UmmTrainDetector.curve(
        nlp_detect.NlpProblem(K, delta=DELTA, rho=rho), GRID, mc) for rho in RHOS}

    head = ["p_fa", "matched"] + [f"rho={rho:g}" for rho in RHOS] + ["energy"]
    print(f"miss probabilities, k={K}, separation {DELTA:g}")
    print("  ".join(f"{h:>8s}" for h in head))
    for i, p in enumerate(GRID):
        cells = [lrt.p_md[i]] + [train[rho].p_md[i] for rho in RHOS] + [glrt.p_md[i]]
        print(f"{p:8.2f}  " + "  ".join(f"{c:8.4f}" for c in cells))

    c = train[1.0]
    i = int(np.argmin(np.abs(GRID - 0.1)))
    print(f"\nrho=1 point at p_fa={GRID[i]:g}: "
          f"{c.p_md[i]:.4f}  (95% interval {c.ci_low[i]:.4f}..{c.ci_high[i]:.4f}, "
          f"{mc.trials} trials, seed {mc.seed})")
    print("each training column lies between its neighbors: more labeled "
          "data moves the curve toward the matched filter.")


if __name__ == "__main__":
    main()
