# Oracle: tails that end in Q(1/2, x) = erfc(sqrt x), in high precision with
# mpmath.  Run once; freeze the printed values into tests.
#
# NORMAL_FAR: the standard normal tail Q(z) = erfc(z / sqrt 2) / 2 beyond
# z = 8, out to z = 37, where it nears the least normal double; scipy's
# norm.sf is itself about 2e-13 off there.
#
# CHI2_ODD_CENTRAL: the central chi-square tail Q(k/2, t/2) at odd k, for
# tails from 1e-2 to 1e-300.  t solves the tail = p in mpmath and is rounded
# to 8 significant digits; the reference is taken at that double.
import mpmath as mp

mp.mp.dps = 40

print("NORMAL_FAR = [  # (z, Q(z))")
for i in range(1, 25):
    z = 8.0 + 1.25 * i if i < 24 else 37.0
    q = mp.erfc(mp.mpf(z) / mp.sqrt(2)) / 2
    print(f"    ({z!r}, {mp.nstr(q, 20)}),")
print("]")

print("CHI2_ODD_CENTRAL = [  # (k, t, P(X > t))")
for k in (1, 3):
    a = mp.mpf(k) / 2
    for e in (2, 5, 10, 20, 50, 100, 150, 200, 250, 300):
        target = -e * mp.log(10)
        t = mp.findroot(lambda t: mp.log(mp.gammainc(a, t / 2, mp.inf, regularized=True)) - target,
                        2.0 * e * mp.log(10))
        t = float(mp.nstr(t, 8))
        q = mp.gammainc(a, mp.mpf(t) / 2, mp.inf, regularized=True)
        print(f"    ({k}, {t!r}, {mp.nstr(q, 20)}),")
print("]")
