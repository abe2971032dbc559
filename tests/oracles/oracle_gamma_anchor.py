# Oracle: the regularized upper incomplete gamma Q(b, x) at the anchors of the
# noncentral chi-square engine, with the density term e = x^(b-1) e^-x /
# Gamma(b) it is computed from, in high precision with mpmath.  Freeze into
# tests.
#
# b spans integer and half-integer orders from 1/2 to 1e4, and x = b + c sqrt(b)
# runs from 8 spreads below b to 8 above (x <= 0 is left out).  x is rounded
# to a double first, and the references are taken at that double.
import math

import mpmath as mp

mp.mp.dps = 40

print("GAMMA_ANCHOR = [  # (b, x, e, Q(b, x))")
for b in (0.5, 1.0, 1.5, 10.0, 10.5, 77.0, 900.0, 900.5, 1e4):
    for c in (-8.0, -3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0, 8.0):
        x = b + c * math.sqrt(b)
        if x <= 0.0:
            continue
        bm, xm = mp.mpf(b), mp.mpf(x)
        e = mp.exp((bm - 1) * mp.log(xm) - xm - mp.loggamma(bm))
        q = mp.gammainc(bm, xm, mp.inf, regularized=True)
        print(f"    ({b!r}, {x!r}, {mp.nstr(e, 20)}, {mp.nstr(q, 20)}),")
print("]")
