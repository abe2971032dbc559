# Reference values for the high-dimension limit checks, plus the
# AR(2) autocovariance oracle.
import numpy as np
from scipy.stats import ncx2, norm, chi2
from scipy.signal import lfilter

z = norm.isf


def hardness(delta, rho, k):
    d2 = delta * delta
    return d2 * (1 + 2 * rho) / np.sqrt(2 * k * (1 + 2 * rho) + 4 * (1 + rho) ** 2 * d2)


# --- check: exact energy-test point vs limiting curve, gap decreasing in k ---
print("limit-curve gap, rho=0, d^2 = sqrt(2k), p_fa = 0.1")
for k in (128, 500, 1000, 5000):
    d2 = np.sqrt(2.0 * k)
    delta = np.sqrt(d2)
    p_md = ncx2.cdf(chi2.isf(0.1, k), k, d2)
    E = hardness(delta, 0.0, k)
    # min over curve points of max-coordinate distance
    pfa_grid = np.linspace(1e-6, 1 - 1e-6, 200001)
    pmd_curve = norm.sf(E - z(pfa_grid))
    gap = np.min(np.maximum(np.abs(pfa_grid - 0.1), np.abs(pmd_curve - p_md)))
    vert = abs(norm.sf(E - z(0.1)) - p_md)
    print(f"  k={k:5d}: exact p_md={p_md:.6f} E={E:.6f} vert={vert:.6f} gap={gap:.6f}")

# --- check: normal-approximation quantile error decreasing in k (lam=0, p=0.1) ---
print("normal-approx inverse error, lam=0, p=0.1")
for k in (10, 100, 1000):
    approx = np.sqrt(2.0 * k) * z(0.1) + k
    err = abs(chi2.sf(approx, k) - 0.1)
    print(f"  k={k:5d}: approx={approx:.4f} prob-scale err={err:.6f}")

# --- check: allocation argmax should sit at rho=0 for large k ---
print("allocation curve endpoints")
for k in (1000, 10000):
    for a in (1.0, 10.0, 100.0):
        rho = np.linspace(0, 1, 101)
        En = a * (1 + 2 * rho) / ((1 + rho) * np.sqrt(2 * k * (1 + 2 * rho) + 4 * (1 + rho) * a))
        i = np.argmax(En)
        print(f"  k={k:5d} a={a:5.0f}: argmax rho={rho[i]:.3f}  E(0)={En[0]:.6f} E(0.01)={En[1]:.6f} E(1)={En[-1]:.6f}")

# --- AR(2) stationary autocovariance oracle: theory + 1e6-sample sim ---
print("AR(2) theta=(0.5,-0.3), sigma=1")
th1, th2, s2 = 0.5, -0.3, 1.0
# solve for gamma_0, gamma_1, gamma_2
A = np.array([
    [1.0, -th1, -th2],
    [-th1, 1.0 - th2, 0.0],
    [-th2, -th1, 1.0],
])
g = np.linalg.solve(A, np.array([s2, 0.0, 0.0]))
print(f"  theory gamma = {g}")
rng = np.random.default_rng(5)
e = rng.standard_normal(4_000_000)
y = lfilter([1.0], [1.0, -th1, -th2], e)[100:]
emp = [np.mean(y[: len(y) - l] * y[l:]) for l in range(3)]
print(f"  empirical    = {np.array(emp)}")

# --- mpmath pins for tests/test_asymptotics.py (50 digits) ---
import mpmath as mp

mp.mp.dps = 50


def alloc_h(a, k, r):
    return a * (1 + 2 * r) / ((1 + r) * mp.sqrt(2 * k * (1 + 2 * r) + 4 * (1 + r) * a))


def alloc_dlog(a, k, r):
    # d/drho of log alloc_h, term by term
    return 2 / (1 + 2 * r) - 1 / (1 + r) - (2 * k + 2 * a) / (2 * k * (1 + 2 * r) + 4 * (1 + r) * a)


def alloc_argmax(a, k):
    # the derivative's sign change on (0, 1/2), then the quadratic's root as a cross-check
    a, k = mp.mpf(a), mp.mpf(k)
    r = mp.findroot(lambda x: alloc_dlog(a, k, x), (mp.mpf(0), mp.mpf("0.5")), solver="illinois")
    c = 4 * (k + a)
    u = (3 * c + mp.sqrt(9 * c * c - 32 * c * k)) / (4 * c)
    assert abs(r - (u - 1)) <= mp.mpf(10) ** -35 * r
    return r, alloc_h(a, k, r)


print("allocate: maximizer and peak (ALLOC_MAX)")
r, h = alloc_argmax(100, 1000)
print(f"  a=100 k=1000: rho*={mp.nstr(r, 20)} peak={mp.nstr(h, 20)}")
for k in (1, 10, 1000, 10**5, 10**7):
    for a in (1e-6, 1e-3, 1.0, 100.0, 1e4, 1e6):
        r, h = alloc_argmax(a, k)  # a as the double the tests pass
        print(f"    ({k}, {a!r}, {mp.nstr(r, 17)}, {mp.nstr(h, 17)}),")


def block_root(k, rho, delta, t):
    # n delta^2 = D solves s^2 D^2 - 4 t^2 (1+rho)^2 D - 2 k s t^2 = 0; delta is the double it reads as
    k, rho, delta, t = (mp.mpf(x) for x in (k, rho, delta, t))
    s, u = 1 + 2 * rho, 1 + rho
    D = (4 * t**2 * u**2 + mp.sqrt(16 * t**4 * u**4 + 8 * k * s**3 * t**2)) / (2 * s**2)
    return D / delta**2


print("blocklength_for_dimension: exact root n (the float hardness moves in steps of float(n)'s spacing)")
for case in ((128, 0.0, 1.0, 1.0), (128, 0.0, 1e-8, 1.0), (1e7, 0.0, 1e-12, 10.0), (128, 0.0, 1.74e-9, 1.0)):
    n = block_root(*case)
    print(f"  {case}: n={mp.nstr(n, 25)} ceil={int(mp.ceil(n))} above 2^62: {n > 2**62}")
