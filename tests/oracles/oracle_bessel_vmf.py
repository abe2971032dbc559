# Oracle: log-Bessel and matched-density normalizer values from closed forms /
# power series, evaluated in high precision with mpmath.  Freeze into tests.
#
#   I_{1/2}(tau) = sqrt(2/(pi*tau)) * sinh(tau)          (closed form)
#   I_1(2)       = sum_m 1/(m! (m+1)!)                   (power series)
#   c_3(tau)     = tau / (4*pi*sinh(tau))                (k=3 normalizer)
#   radius: solve c_3(tau) = T*c_3(Delta*sqrt(theta0)) for tau, radius = tau/Delta
import mpmath as mp

mp.mp.dps = 40

# log I_{1/2}(1)
i_half_1 = mp.sqrt(2 / (mp.pi * 1)) * mp.sinh(1)
print(f"I_1/2(1)            = {mp.nstr(i_half_1, 20)}")
print(f"log I_1/2(1)        = {mp.nstr(mp.log(i_half_1), 20)}")

# I_1(2) by series
s = mp.mpf(0)
for m in range(0, 60):
    s += mp.mpf(1) / (mp.factorial(m) * mp.factorial(m + 1))
print(f"I_1(2) series       = {mp.nstr(s, 20)}")
print(f"log I_1(2)          = {mp.nstr(mp.log(s), 20)}")
print(f"mpmath besseli(1,2) = {mp.nstr(mp.besseli(1, 2), 20)}")


def log_c3(tau):
    return mp.log(tau / (4 * mp.pi * mp.sinh(tau)))


print(f"log c_3(1)          = {mp.nstr(log_c3(1), 20)}")
print(f"log c_3(2)          = {mp.nstr(log_c3(2), 20)}")
print(f"log c_3(0+) limit   = {mp.nstr(mp.log(1 / (4 * mp.pi)), 20)}")

# Bayes-rule radius at k=3, Delta=2, rho=1, ||x||=2, T=0.5:
# theta0 = ||rho x||^2 = 4, target = T*c_3(Delta*sqrt(theta0)) = 0.5*c_3(4)
target = mp.mpf("0.5") * 4 / (4 * mp.pi * mp.sinh(4))
tau_star = mp.findroot(lambda t: t / (4 * mp.pi * mp.sinh(t)) - target, mp.mpf(5))
print(f"tau* (k=3 case)     = {mp.nstr(tau_star, 20)}")
print(f"radius = tau*/Delta = {mp.nstr(tau_star / 2, 20)}")

# log I_0(1) for a small-argument unit check of the integer-order base
print(f"log I_0(1)          = {mp.nstr(mp.log(mp.besseli(0, 1)), 20)}")
# a couple of stress values used to sanity-check the implementation later
for (nu, tau) in [(0, 50), (31, 100), (15.5, 3), (2.5, 10000), (31, 10000)]:
    val = mp.log(mp.besseli(nu, tau))
    print(f"log I_{nu}({tau})   = {mp.nstr(val, 20)}")
# edge pins (LOG_BESSEL_EDGE): tiny tau, order >> tau, large tau, a
# non-half-integer order, the top of the stated domain, tau = 1e10, the least
# subnormal tau and an order far above 1/tau
for (nu, tau) in [(0.5, "1e-200"), (4999, 2000), (499, "1e8"), (99, "2e5"), (0.3, 7),
                  (0, "1e10"), (3.7, 5e-324), ("1e10", "1e-300")]:
    val = mp.log(mp.besseli(mp.mpf(nu), mp.mpf(tau)))
    print(f"log I_{nu}({tau})   = {mp.nstr(val, 22)}")
print(f"log c_3(1e-300)     = {mp.nstr(log_c3(mp.mpf('1e-300')), 20)}")
