# Oracle: standard normal upper-tail values by quadrature of the density in
# mpmath at 50 significant digits (independent of any implementation under
# test).  Run once; freeze printed values into tests.
import mpmath as mp

mp.mp.dps = 50


def phi(t):
    return mp.exp(-t * t / 2) / mp.sqrt(2 * mp.pi)


def tail(z):
    # integrate the density from z (a double, as the tests pass it) to infinity
    return mp.quad(phi, [mp.mpf(z), mp.inf])


def tail_inv(p):
    # bisection on the quadrature tail, to a bracket far narrower than a double's ulp
    p = mp.mpf(p)
    lo, hi = mp.mpf(-40), mp.mpf(40)
    while hi - lo > mp.mpf(10) ** -30:
        mid = (lo + hi) / 2
        if tail(mid) > p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def show(label, v):
    print(f"{label:<17}= {mp.nstr(v, 20, min_fixed=0, max_fixed=0)}")


if __name__ == "__main__":
    show("Q(1.2816)", tail(1.2816))
    z01 = tail_inv("0.1")
    show("Qinv(0.1)", z01)
    show("Q(2 - Qinv(0.1))", tail(2.0 - float(z01)))  # as the tests form it
    show("Q(1)", tail(1))
    show("Qinv(0.025)", tail_inv("0.025"))
    # symmetry spot value used in a unit test
    show("Q(0.25)", tail(0.25))
    show("Q(8)", tail(8))
