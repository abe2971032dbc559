# Oracle: trained-minimax detector miss probability by FULL simulation (draw
# both the training block X and the observation Y, apply the rule, count).
# Thresholds via scipy.stats.ncx2 -- independent of the package under test.
#
# Case pinned for tests: p_fa=0.1, delta=2, rho=5, k=2, 1e6 trials.
# Also: high-precision conditional-MC references (2e6 trials) for the
# rho in {1,5,20} x p_fa in {0.05,0.1,0.3} curve-ordering check.
import numpy as np
from scipy.stats import ncx2, norm, chi2

k, delta = 2, 2.0
mu1 = np.array([delta, 0.0])

# ---- full simulation at rho=5, p_fa=0.1 ----
rho, p_fa, N = 5.0, 0.1, 1_000_000
rng = np.random.default_rng(77)
x = mu1 + rng.standard_normal((N, k)) / np.sqrt(rho)
y = mu1 + rng.standard_normal((N, k))
theta0 = ((rho * x) ** 2).sum(axis=1)
thr = ncx2.isf(p_fa, k, theta0)
stat = ((rho * x + y) ** 2).sum(axis=1)
miss = np.mean(stat < thr)
se = np.sqrt(miss * (1 - miss) / N)
print(f"training-test p_md full-sim = {miss:.6f}  3*se = {3*se:.2e}")

z01 = norm.isf(0.1)
p_lrt = norm.sf(delta - z01)
p_glrt = ncx2.cdf(chi2.isf(p_fa, k), k, delta ** 2)
print(f"analytic LRT  p_md = {p_lrt:.6f}")
print(f"analytic GLRT p_md = {p_glrt:.6f}")

# ---- conditional-MC references (average of conditional miss probs) ----
print("\nreference p_md values (conditional MC, 2e6 trials), k=2, delta=2:")
Nr = 2_000_000
for rho_r in (1.0, 5.0, 20.0):
    rng = np.random.default_rng(int(1000 + rho_r))
    x = mu1 + rng.standard_normal((Nr, k)) / np.sqrt(rho_r)
    th0 = ((rho_r * x) ** 2).sum(axis=1)
    th1 = ((rho_r * x + mu1) ** 2).sum(axis=1)
    for pf in (0.05, 0.1, 0.3):
        thr = ncx2.isf(pf, k, th0)
        m = ncx2.cdf(thr, k, th1)
        est, see = m.mean(), m.std(ddof=1) / np.sqrt(Nr)
        print(f"  rho={rho_r:4.0f} p_fa={pf:4.2f}: p_md = {est:.6f}  se = {see:.1e}")

print("\nanalytic anchors:")
for pf in (0.05, 0.1, 0.3):
    zl = norm.isf(pf)
    print(f"  p_fa={pf:4.2f}: LRT {norm.sf(delta - zl):.6f}  "
          f"GLRT(rho=0) {ncx2.cdf(chi2.isf(pf, k), k, delta**2):.6f}  "
          f"trivial {1 - pf:.6f}")
