"""Draw the acceptance regions of the location-problem tests in coordinates.

All regions live in the standardized plane after centering the training
sample: the training test accepts inside a disk around -rho * x, so with
x on the first axis the centers march left and the radii grow as rho
increases, while the matched filter accepts a half-plane.
"""

import math

import numpy as np

from ummtest import nlp_detect

K = 2
DELTA = 2.0
P_FA = 0.1


def main():
    mu1 = np.array([DELTA, 0.0])
    print(f"acceptance regions at level {P_FA:g}, k={K}, separation {DELTA:g}")
    print(f"{'rho':>6s}  {'center':>16s}  {'radius':>8s}")
    train = nlp_detect.UmmTrainDetector(P_FA, x=mu1)
    for rho in (0.0, 1.0, 5.0, 20.0):
        b = train.region(nlp_detect.NlpProblem(k=K, mu1=mu1, rho=rho))
        cx, cy = b.center + 0.0  # drop negative zeros
        print(f"{rho:6g}  ({cx:8.2f}, {cy:4.1f})  {b.radius:8.4f}")

    problem = nlp_detect.NlpProblem(k=K, mu1=mu1, rho=0.0)
    h = nlp_detect.LrtDetector(p_fa=P_FA).region(problem)
    t = h.offset / float(h.normal @ h.normal) * h.normal[0]
    print(f"\nmatched filter: accepts the half-plane z_1 < {t:.4f} "
          f"(= Q^{{-1}}({P_FA:g}) at this separation)")
    print(f"rho=0 disk radius is sqrt(-2 ln {P_FA:g}) = "
          f"{math.sqrt(-2.0 * math.log(P_FA)):.4f}: the energy test.")


if __name__ == "__main__":
    main()
