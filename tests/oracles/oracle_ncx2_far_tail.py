# Oracle: noncentral chi-square upper tails far out, where scipy.stats.ncx2.sf
# returns 0 or loses digits, evaluated in high precision with mpmath.  Freeze
# into tests.
#
#   P(X > t) = sum_j Pois(j; lam/2) Q(k/2 + j, t/2)
#
# summed outward from the largest term until a term falls below 1e-30 of the
# running sum (every term is positive, and away from the largest term they
# fall off faster than geometrically).
import mpmath as mp

mp.mp.dps = 40


def ncx2_sf(k, lam, t):
    a, h, x = mp.mpf(k) / 2, mp.mpf(lam) / 2, mp.mpf(t) / 2

    def term(j):
        w = mp.exp(j * mp.log(h) - h - mp.loggamma(j + 1))
        return w * mp.gammainc(a + j, x, mp.inf, regularized=True)

    # index of the largest density term: (j + 1)(j + a) = h x
    top = int((mp.sqrt((a - 1) ** 2 + 4 * h * x) - a - 1) / 2)
    best = max(range(max(top - 50, 0), top + 50), key=term)
    total = term(best)
    for step in (1, -1):
        j = best + step
        while j >= 0:
            tj = term(j)
            total += tj
            if tj < total * mp.mpf(10) ** -30:
                break
            j += step
    return total


def gamma_q_cf(b, x):
    # Q(b, x) for x > b - 1 by the Lentz continued fraction
    tiny = mp.mpf(10) ** -300
    bb = x + 1 - b
    c, d = 1 / tiny, 1 / bb
    frac = d
    n = 1
    while True:
        an = -n * (n - b)
        bb += 2
        d = an * d + bb
        d = tiny if abs(d) < tiny else d
        c = bb + an / c
        c = tiny if abs(c) < tiny else c
        d = 1 / d
        frac *= d * c
        if abs(d * c - 1) < mp.mpf(10) ** -45:
            return mp.exp(b * mp.log(x) - x - mp.loggamma(b)) * frac
        n += 1


def ncx2_sf_far(k, lam, t):
    # the same sum where gammainc does not converge (lam >= 1e5): Q at 12
    # spreads below the largest term by the continued fraction, then upward
    # Q(b + 1, x) = Q(b, x) + x^b e^-x / Gamma(b + 1), which is stable
    a, h, x = mp.mpf(k) / 2, mp.mpf(lam) / 2, mp.mpf(t) / 2
    top = int((mp.sqrt((a - 1) ** 2 + 4 * h * x) - a - 1) / 2)
    j = max(int(top - 12 * mp.sqrt(top)), 0)
    q = gamma_q_cf(a + j, x)
    total = mp.mpf(0)
    while True:
        term = mp.exp(j * mp.log(h) - h - mp.loggamma(j + 1)) * q
        total += term
        if j > top and term < total * mp.mpf(10) ** -30:
            return total
        j += 1
        q += mp.exp((a + j - 1) * mp.log(x) - x - mp.loggamma(a + j))


for k, lam, t in [(1, 1.0, 1447.58), (8, 400.0, 2647.18), (1, 10000.0, 16448.29),
                  (1000, 10000.0, 20000.0)]:
    print(f"ncx2_sf(k={k}, lam={lam}, t={t}) = {mp.nstr(ncx2_sf(k, lam, t), 20)}")
# between the Chernoff cut-off and the least normal, where scipy reads 0
for k, lam, t in [(1, 1e5, 119012.7368688536), (1, 1e5, 124082.5), (2, 1e5, 125300.35),
                  (2, 1e6, 1078002.04)]:
    print(f"ncx2_sf(k={k}, lam={lam}, t={t}) = {mp.nstr(ncx2_sf_far(k, lam, t), 20)}")

# the quantile at k=2, lam=1e4, p=1e-12, by secant steps on log P(X > t)
target = mp.log(mp.mpf("1e-12"))
t0, t1 = mp.mpf("11457.4"), mp.mpf("11457.5")
f0, f1 = mp.log(ncx2_sf(2, 1e4, t0)) - target, mp.log(ncx2_sf(2, 1e4, t1)) - target
while abs(t1 - t0) > mp.mpf(10) ** -25:
    t0, f0, t1 = t1, f1, t1 - f1 * (t1 - t0) / (f1 - f0)
    f1 = mp.log(ncx2_sf(2, 1e4, t1)) - target
print(f"ncx2_isf(k=2, lam=1e4, p=1e-12) = {mp.nstr(t1, 20)}")
print(f"chi2_isf(k=2, p=1e-300) = -2 log(1e-300) = {mp.nstr(-2 * mp.log(mp.mpf('1e-300')), 20)}")
