"""Hardness collapse, closed-form regimes, budget split, block sizing.

Reference values cross-checked by tests/oracles/oracle_asym.py (sympy-free,
direct formula evaluation plus a brute-force argmax scan); the allocation
maximizers and peaks and the block-length roots come from its mpmath section.
"""

import math

import numpy as np
import pytest

from ummtest.asymptotics import (
    Allocation,
    allocate,
    allocation_hardness,
    asymptotic_curve,
    blocklength_for_dimension,
    hardness_high_k,
    hardness_high_rho,
    hardness_param,
)
from ummtest.errors import ConfigError, DomainError
from ummtest.nlp_detect import LrtDetector, NlpProblem


def test_hardness_param_values_and_monotonicity():
    # k-only denominator at rho = 0: E = d^2 / sqrt(2k + 4 d^2)
    assert abs(hardness_param(1.0, 0.0, 128) - 1.0 / math.sqrt(260.0)) < 1e-15
    ds = np.linspace(0.2, 6.0, 30)
    vals = [hardness_param(d, 1.0, 64) for d in ds]
    assert np.all(np.diff(vals) > 0.0)
    rhos = np.linspace(0.0, 40.0, 30)
    vals = [hardness_param(2.0, r, 64) for r in rhos]
    assert np.all(np.diff(vals) > 0.0)
    ks = [8, 16, 64, 256, 4096]
    vals = [hardness_param(2.0, 1.0, k) for k in ks]
    assert np.all(np.diff(vals) < 0.0)


def test_hardness_param_validation():
    with pytest.raises(DomainError):
        hardness_param(0.0, 1.0, 8)
    with pytest.raises(DomainError):
        hardness_param(2.0, -1.0, 8)
    with pytest.raises(ConfigError):
        hardness_param(2.0, 1.0, 0)
    with pytest.raises(ConfigError):
        hardness_param(2.0, 1.0, 2.5)


def test_training_rich_regime():
    # approximation error decays like 1/rho at fixed (delta, k)
    gaps = [abs(hardness_param(2.0, r, 8) - hardness_high_rho(2.0, r))
            for r in (5.0, 50.0, 500.0)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 5e-3
    # and the limit of the limit: hardness tends to delta itself
    assert abs(hardness_param(2.0, 1e9, 8) - 2.0) < 1e-6


def test_dimension_rich_regime():
    # relative error shrinks along the k ~ delta^8 scaling
    rel = []
    for k in (100, 10_000, 1_000_000):
        d = (2.0 * k) ** 0.125
        e = hardness_param(d, 1.0, k)
        rel.append(abs(e - hardness_high_k(d, 1.0, k)) / e)
    assert rel[0] > rel[1] > rel[2]
    assert rel[2] < 1e-4


def test_asymptotic_curve_is_a_matched_filter_curve():
    grid = np.linspace(0.05, 0.95, 19)
    h = hardness_param(2.0, 1.0, 64)
    c = asymptotic_curve(h, grid)
    ref = LrtDetector.curve(NlpProblem(1, delta=h), grid)
    assert np.array_equal(c.p_md, ref.p_md)
    assert c.provenance == "analytic"
    assert c.problem == f"limit hardness={h:g}"
    with pytest.raises(DomainError):
        asymptotic_curve(0.0, grid)
    with pytest.raises(DomainError):
        asymptotic_curve(1.0, [0.5, 0.1])


def test_allocation_hardness_identity():
    # splitting the budget matches folding the per-rule sample into delta
    for a, k, r in [(100.0, 1000, 0.3), (10.0, 64, 2.0), (5.0, 8, 0.0),
                    (250.0, 4096, 17.0)]:
        lhs = allocation_hardness(a, k, r)
        rhs = hardness_param(math.sqrt(a / (1.0 + r)), r, k)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, lhs)
    assert abs(allocation_hardness(10.0, 100, 1.0) - 0.5752237416355278) < 1e-12
    assert abs(allocation_hardness(100.0, 1000, 0.0) - 2.041241452319315) < 1e-12
    v = allocation_hardness(10.0, 100, [0.0, 1.0, 2.0])
    assert v.shape == (3,)
    with pytest.raises(DomainError):
        allocation_hardness(-1.0, 100, 0.0)
    with pytest.raises(DomainError):
        allocation_hardness(10.0, 100, [-0.5])


def test_allocate_flat_peak_prefers_no_training():
    # the interior bump is within a percent of rho = 0, so the tie rule
    # sends everything to the test block
    for k in (1000, 5000, 20_000):
        al = allocate(100.0, k)
        assert isinstance(al, Allocation)
        assert al.rho_star == 0.0
        assert al.peak >= allocation_hardness(100.0, k, 0.0) - 1e-12
        assert np.array_equal(al.hardness, allocation_hardness(100.0, k, al.rho))


def test_allocate_raw_argmax():
    al = allocate(100.0, 1000, tie_tol=0.0)
    assert abs(al.rho_star - 0.07856437033638546) <= 1e-15 * 0.07856437033638546
    assert abs(al.peak - 2.047436284730359) < 1e-12
    # the closed-form point genuinely beats both neighbours on the default grid
    assert al.peak > allocation_hardness(100.0, 1000, 0.0)


def test_allocate_custom_grid_and_validation():
    al = allocate(10.0, 100, rho_grid=[2.0, 0.5, 0.0, 1.0])
    assert np.array_equal(al.rho, [0.0, 0.5, 1.0, 2.0])
    assert al.rho_star == 0.0
    # rho* (0.497 and 0.0786) outside the grid's span is clipped to its end
    assert allocate(1000.0, 10, rho_grid=[1.0, 2.0], tie_tol=0.0).rho_star == 1.0
    assert allocate(100.0, 1000, rho_grid=[0.0, 0.01], tie_tol=0.0).rho_star == 0.01
    with pytest.raises(ConfigError):
        allocate(10.0, 100, rho_grid=[])
    for bad in (-0.1, float("nan")):
        with pytest.raises(ConfigError):
            allocate(10.0, 100, tie_tol=bad)
    with pytest.raises(DomainError):
        allocate(0.0, 100)


# ---- frozen oracle values (tests/oracles/oracle_asym.py, mpmath) ----

ALLOC_MAX = [  # (k, a, argmax rho*, peak of allocation_hardness)
    (1, 1e-06, 9.9999700001299988e-7, 7.0710607408118052e-7),
    (1, 0.001, 0.00099701292943806568, 0.00070640108439317166),
    (1, 1.0, 0.30901699437494742, 0.42466444105781742),
    (1, 100.0, 0.49669237638434146, 5.4252663133204483),
    (1, 10000.0, 0.49996666925904117, 54.431291059130631),
    (1, 1000000.0, 0.49999966666692593, 544.33087250823351),
    (10, 1e-06, 9.9999970000012995e-8, 2.2360677538930366e-7),
    (10, 0.001, 9.9970012992904409e-5, 0.00022358444154099883),
    (10, 1.0, 0.078564370336385461, 0.20474362847303591),
    (10, 100.0, 0.46905872816165339, 5.271327139823804),
    (10, 10000.0, 0.49966692570801034, 54.414971100280709),
    (10, 1000000.0, 0.49999666669259237, 544.32923952505099),
    (1000, 1e-06, 9.9999999699999997e-10, 2.2360679752637216e-8),
    (1000, 0.001, 9.9999700001299995e-7, 2.2360657414362844e-5),
    (1000, 1.0, 0.00099701292943806565, 0.022338363682952447),
    (1000, 100.0, 0.078564370336385461, 2.0474362847303591),
    (1000, 10000.0, 0.46905872816165339, 52.71327139823804),
    (1000, 1000000.0, 0.49966692570801034, 544.14971100280709),
    (100000, 1e-06, 9.9999999996999995e-12, 2.2360679774774289e-9),
    (100000, 0.001, 9.9999997000000132e-9, 2.2360679551391104e-6),
    (100000, 1.0, 9.99970001299929e-6, 0.0022360456172672149),
    (100000, 100.0, 0.00099701292943806565, 0.22338363682952447),
    (100000, 10000.0, 0.078564370336385461, 20.474362847303591),
    (100000, 1000000.0, 0.46905872816165339, 527.1327139823804),
    (10000000, 1e-06, 9.9999999999969995e-14, 2.236067977499566e-10),
    (10000000, 0.001, 9.9999999970000002e-11, 2.2360679772761829e-7),
    (10000000, 1.0, 9.9999970000013e-8, 0.00022360677538930367),
    (10000000, 100.0, 9.99970001299929e-6, 0.022360456172672149),
    (10000000, 10000.0, 0.00099701292943806565, 2.2338363682952447),
    (10000000, 1000000.0, 0.078564370336385461, 204.74362847303591),
]


@pytest.mark.parametrize("k, a, rho, peak", ALLOC_MAX)
def test_allocate_closed_form_against_mpmath(k, a, rho, peak):
    al = allocate(a, k, tie_tol=0.0)
    assert abs(al.peak - peak) <= 1e-14 * peak
    # the closed-form point, unless a grid point evaluates to the peak itself
    # (k = 1e5, a = 1e-3: rho = 0)
    on_grid = al.rho_star in al.rho and allocation_hardness(a, k, al.rho_star) == al.peak
    assert on_grid or abs(al.rho_star - rho) <= 1e-14 * rho


def test_blocklength_for_dimension():
    n = blocklength_for_dimension(128, 0.0, 1.0, 1.0)
    assert n == 19
    # minimality
    assert hardness_param(math.sqrt(float(n)), 0.0, 128) >= 1.0
    assert hardness_param(math.sqrt(float(n - 1)), 0.0, 128) < 1.0
    # mpmath's root is 181245154965970985.46; float(n) is spaced by 32 there
    assert blocklength_for_dimension(128, 0.0, 1e-8, 1.0) == 181245154965970992
    # (8, 0, 0.5, 4.8) steps up one from its start and (1, 0, 0.1, 2.45) down one;
    # at k = 1e6, rho = 5 the answer is 4.3e14
    for k, rho, d, t in [(64, 1.0, 0.5, 0.8), (1000, 4.0, 1.0, 2.0), (128, 0.0, 1e-8, 1.0),
                         (8, 0.0, 0.5, 4.8), (1, 0.0, 0.1, 2.45), (10**6, 5.0, 1e-6, 1.0)]:
        m = blocklength_for_dimension(k, rho, d, t)
        assert hardness_param(math.sqrt(float(m)) * d, rho, k) >= t
        if m > 1:
            assert hardness_param(math.sqrt(float(m - 1)) * d, rho, k) < t
    assert blocklength_for_dimension(2, 0.0, 50.0, 0.1) == 1
    # roots near 4.5e28 and 6.0e18, both above 2^62; at delta = 1e200
    # delta^2 overflows and hardness_param reads nan at every n
    for k, rho, d, t in [(1e7, 0.0, 1e-12, 10.0), (128, 0.0, 1.74e-9, 1.0),
                         (128, 0.0, 1e200, 1.0)]:
        with pytest.raises(DomainError):
            blocklength_for_dimension(k, rho, d, t)


def test_scaled_forms_at_the_ends_of_the_floats():
    # scaled forms: no OverflowError, nan or warning at either end of the floats
    assert abs(hardness_param(1.0, 1e300, 8) - 1.0) <= 1e-15  # -> delta as rho -> inf
    assert abs(hardness_param(1e200, 0.0, 128) - 0.5e200) <= 1e-15 * 0.5e200  # -> delta / 2
    assert hardness_param(1e-200, 0.0, 128) == 0.0  # delta^2 / 16 underflows
    d = 1e-150
    assert abs(hardness_param(d, 1.0, 64) - hardness_high_k(d, 1.0, 64)) <= 1e-15 * d * d
    assert blocklength_for_dimension(8, 1e300, 1.0, 2.0) == 4
    al = allocate(1e307, 8)
    assert math.isfinite(al.peak) and al.peak >= allocation_hardness(1e307, 8, 0.5)
    assert al.rho_star in al.rho
    assert math.isfinite(allocate(1e-300, 8, tie_tol=0.0).rho_star)
    assert abs(hardness_high_k(1e100, 1.0, 8) - 1e200 * math.sqrt(3.0 / 16.0)) <= 1e-15 * 1e200
    with pytest.raises(DomainError, match="overflows"):
        hardness_high_k(1e200, 1.0, 8)
    for d in (1e-300, 1.0, 1e300):
        for rho in (0.0, 1e-300, 1.0, 1e300, 1.7e308):
            for k in (1, 10**9, 10**300):
                assert math.isfinite(hardness_param(d, rho, k))
                assert math.isfinite(allocation_hardness(d, k, rho))


def test_blocklength_scales_like_sqrt_k():
    r = (blocklength_for_dimension(400_000, 0.0, 1.0, 1.0)
         / blocklength_for_dimension(100_000, 0.0, 1.0, 1.0))
    assert 1.9 < r < 2.1
    with pytest.raises(DomainError):
        blocklength_for_dimension(128, 0.0, 1.0, 0.0)
