"""Show the critical separation scale in high dimension.

When the squared separation grows like sqrt(2k), the energy test's error
point neither collapses to the corner nor drifts to the trivial diagonal:
it settles on the limiting tradeoff curve indexed by a single hardness
number.  The table tracks the exact finite-k point against that curve.
"""

from ummtest import asymptotics, nlp_detect, specfun

P_FA = 0.1


def main():
    print("separation delta^2 = sqrt(2k), energy test at p_fa = %g" % P_FA)
    print(f"{'k':>6s}  {'delta':>7s}  {'hardness':>8s}  {'exact':>8s}  "
          f"{'limit':>8s}  {'gap':>8s}")
    for k in (8, 32, 128, 500, 1000, 5000, 20000):
        delta = (2.0 * k) ** 0.25
        h = asymptotics.hardness_param(delta, 0.0, k)
        problem = nlp_detect.NlpProblem(k, delta=delta)
        exact = float(nlp_detect.GlrtDetector.curve(problem, [P_FA]).p_md[0])
        limit = specfun.normal_tail(h - specfun.normal_tail_inv(P_FA))
        print(f"{k:6d}  {delta:7.3f}  {h:8.4f}  {exact:8.4f}  "
              f"{limit:8.4f}  {abs(exact - limit):8.5f}")
    print("\nhardness tends to 1 under this scaling and the gap closes:")
    print("in high dimension the whole operating curve is the one-number")
    print("limit curve, which is what the allocation tools optimize.")


if __name__ == "__main__":
    main()
