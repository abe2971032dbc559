# Oracle: log c_k(tau), the von Mises-Fisher normalizing constant, evaluated in
# high precision with mpmath.  Freeze into tests/test_specfun.py and
# tests/test_acceptance.py.
#
#   c_k(tau) = tau^(k/2-1) / ((2 pi)^(k/2) I_{k/2-1}(tau))
#   c_3(tau) = tau / (4 pi sinh(tau))                    (closed form)
#   c_k(0)   = 2^(k/2-1) Gamma(k/2) / (2 pi)^(k/2)       (the uniform limit)
import mpmath as mp

mp.mp.dps = 60


def log_c(k, tau):
    nu = mp.mpf(k) / 2 - 1
    tau = mp.mpf(tau)
    return nu * mp.log(tau) - mp.mpf(k) / 2 * mp.log(2 * mp.pi) - mp.log(mp.besseli(nu, tau))


def log_c3(tau):
    tau = mp.mpf(tau)
    return mp.log(tau / (4 * mp.pi * mp.sinh(tau)))


print(f"log c_3(1)          = {mp.nstr(log_c3(1), 20)}")
print(f"log c_3(2)          = {mp.nstr(log_c3(2), 20)}")
print(f"log c_3(0+) limit   = {mp.nstr(mp.log(1 / (4 * mp.pi)), 20)}")
print(f"log c_3(1e-300)     = {mp.nstr(log_c3('1e-300'), 20)}")
# pins at every k: small tau, k >> tau, tau up to 1e10, and the largest k the
# least tau reaches (LOG_VMF_PINS and LOG_VMF_EDGE)
for k, tau in [(2, 1), (4, 2), (2, 50), (64, 100), (33, 3), (7, 10000), (64, 10000),
               (3, "1e-200"), (10000, 2000), (1000, "1e8"), (200, "2e5"), (2, "1e10"),
               (20000000002, "1e-300")]:
    print(f"log c_{k}({tau})   = {mp.nstr(log_c(k, tau), 22)}")
