"""The five input rules, and the public entry points that call them.

Each rule accepts exactly its domain: the property tests draw from the
whole of a type (signed zeros, infinities, NaN and subnormals among the
floats, every numpy integer width, bools) and compare the verdict with the
domain written out.  The entry-point table pins the class each public
function raises on an input outside its domain, and the message texts that
the command line and the tests read.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ummtest import asymptotics, errors, specfun
from ummtest.errors import ConfigError, DomainError
from ummtest.lan_models import (
    ArModel,
    DiscreteModel,
    GaussianLocationModel,
    LanProblem,
    TrainingSetup,
    ar_autocov,
    local_alternative,
    local_coord,
)
from ummtest.nlp_detect import GlrtDetector, LrtDetector, NlpProblem, UmmTrainDetector

_INT_TYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def _refused(rule, value, *args):
    try:
        rule(value, *args, "x")
    except DomainError as e:
        assert str(e).startswith("x must ")
        return True
    return False


def _numpy_ints():
    def of(t):
        info = np.iinfo(t)
        return st.integers(int(info.min), int(info.max)).map(t)
    return st.sampled_from(_INT_TYPES).flatmap(of)


# ---------------------------------------------------------------------------
# each rule accepts exactly its domain

@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(), _numpy_ints()))
@example(0)
@example(1)
@example(-1)
@example(2 ** 70)
def test_positive_int_takes_every_integer_from_one(v):
    if v >= 1:
        out = errors.positive_int(v, "x")
        assert type(out) is int and out == v
    else:
        assert _refused(errors.positive_int, v)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.booleans(), st.builds(np.bool_, st.booleans()), st.floats(),
                 st.floats(width=32).map(np.float32), st.just(None), st.text(max_size=3),
                 st.integers(1, 5).map(lambda n: np.arange(n))))
@example(1.0)
@example(np.float64(3.0))
def test_positive_int_refuses_bools_floats_and_other_types(v):
    assert _refused(errors.positive_int, v)


_REALS = st.one_of(st.floats(), st.floats(width=32).map(np.float32),
                   st.floats().map(np.float64), st.integers(-10 ** 6, 10 ** 6))
_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
          1.0, 1.0 - 2 ** -53, 1.0 + 2 ** -52, 1.7976931348623157e308]


def _real_rule_case(rule, v, inside):
    if inside(float(v)):
        out = rule(v, "x")
        assert type(out) is float and out == float(v)
        assert math.copysign(1.0, out) == math.copysign(1.0, float(v))
    else:
        assert _refused(rule, v)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_REALS, st.sampled_from(_EDGES)))
def test_positive_real_takes_the_finite_positive_reals(v):
    _real_rule_case(errors.positive_real, v, lambda x: 0.0 < x < math.inf)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_REALS, st.sampled_from(_EDGES)))
def test_nonnegative_real_takes_the_finite_reals_from_zero(v):
    _real_rule_case(errors.nonnegative_real, v, lambda x: 0.0 <= x < math.inf)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_REALS, st.sampled_from(_EDGES), st.booleans()))
def test_level_takes_the_open_unit_interval(v):
    if 0.0 < float(v) < 1.0:
        assert errors.level(v, "x") is v
    else:
        assert _refused(errors.level, v)


def test_real_rules_read_a_bool_as_its_number():
    # as the hand-written checks they replace did: True is the real 1
    assert errors.positive_real(True, "x") == 1.0
    assert errors.nonnegative_real(False, "x") == 0.0
    assert _refused(errors.positive_real, False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=3).map(tuple),
       st.lists(st.integers(0, 3), max_size=3).map(tuple))
def test_float_array_takes_exactly_its_shape(got, want):
    value = np.ones(got, dtype=np.int64)
    if got == want:
        out = errors.float_array(value, want, "x")
        assert out.dtype == np.float64 and out.shape == want
    else:
        with pytest.raises(ConfigError, match=r"^x must have shape "):
            errors.float_array(value, want, "x")


def test_float_array_keeps_the_values_of_a_float_array():
    a = np.array([1.5, -0.0, 5e-324])
    assert errors.float_array(a, (3,), "x") is a
    assert errors.float_array([1, 2], (2,), "x").tolist() == [1.0, 2.0]


# ---------------------------------------------------------------------------
# the public entry points that call a rule

_THETA = np.array([0.3, 0.3])
_GRID = [0.1, 0.5]


def _discrete():
    return DiscreteModel(np.full(3, 1.0 / 3.0))


# (call, exception class, the start of its message or None)
_REFUSALS = {
    "NlpProblem k=0": (lambda: NlpProblem(0, delta=1.0), DomainError,
                       "dimension k must be a positive integer"),
    "NlpProblem k=2.0": (lambda: NlpProblem(2.0, delta=1.0), DomainError, None),
    "NlpProblem delta=0": (lambda: NlpProblem(2, delta=0.0), DomainError,
                           "delta must be a positive real"),
    "NlpProblem delta=inf": (lambda: NlpProblem(2, delta=math.inf), DomainError, None),
    "NlpProblem delta=nan": (lambda: NlpProblem(2, delta=math.nan), DomainError, None),
    "NlpProblem rho=-1": (lambda: NlpProblem(2, delta=1.0, rho=-1.0), DomainError,
                          "rho must be a finite nonnegative real"),
    "NlpProblem rho=inf": (lambda: NlpProblem(2, delta=1.0, rho=math.inf), DomainError, None),
    "NlpProblem mu1 shape": (lambda: NlpProblem(2, mu1=[1.0, 0.0, 0.0]), ConfigError, None),
    "NlpProblem mu0 shape": (lambda: NlpProblem(2, mu1=[1.0, 0.0], mu0=[0.0]), ConfigError, None),
    "NlpProblem cov shape": (lambda: NlpProblem(2, mu1=[1.0, 0.0], cov=np.eye(3)), ConfigError,
                             None),
    "LrtDetector p_fa=0": (lambda: LrtDetector(0.0), DomainError, "p_fa must lie in (0, 1)"),
    "GlrtDetector p_fa=1": (lambda: GlrtDetector(1.0), DomainError, None),
    "UmmTrainDetector p_fa=nan": (lambda: UmmTrainDetector(math.nan), DomainError, None),
    "GaussianLocationModel k=0": (lambda: GaussianLocationModel(0), DomainError,
                                  "k must be a positive integer"),
    "GaussianLocationModel k=2.0": (lambda: GaussianLocationModel(2.0), DomainError, None),
    "GaussianLocationModel sample theta": (
        lambda: GaussianLocationModel(2).sample([0.0], 5, np.random.default_rng(0)),
        ConfigError, None),
    "ArModel sigma=0": (lambda: ArModel([0.5], sigma=0.0), DomainError, None),
    "ArModel sigma=nan": (lambda: ArModel([0.5], sigma=math.nan), DomainError, None),
    "ar_autocov sigma=-1": (lambda: ar_autocov([0.5], -1.0, 3), DomainError, None),
    "ar_autocov lags=0": (lambda: ar_autocov([0.5], 1.0, 0), DomainError, None),
    "ar_autocov lags=3.0": (lambda: ar_autocov([0.5], 1.0, 3.0), DomainError, None),
    "local_coord n=0": (lambda: local_coord(_THETA, _discrete(), 0), DomainError, None),
    "local_alternative n=2.0": (lambda: local_alternative(_THETA, _discrete(), 2.0), DomainError,
                                None),
    "LanProblem theta shape": (
        lambda: LanProblem(_discrete(), [0.3], TrainingSetup(n=10)), ConfigError, None),
    "asymptotic_curve hardness=0": (lambda: asymptotics.asymptotic_curve(0.0, _GRID),
                                    DomainError, None),
    "asymptotic_curve hardness=inf": (lambda: asymptotics.asymptotic_curve(math.inf, _GRID),
                                      DomainError, None),
    "hardness_param delta=0": (lambda: asymptotics.hardness_param(0.0, 1.0, 4), DomainError,
                               "delta must be a positive real"),
    "hardness_high_rho rho=nan": (lambda: asymptotics.hardness_high_rho(1.0, math.nan),
                                  DomainError, "rho must be a finite nonnegative real"),
    "hardness_high_k rho=-1": (lambda: asymptotics.hardness_high_k(1.0, -1.0, 4), DomainError,
                               None),
    "allocation_hardness a=0": (lambda: asymptotics.allocation_hardness(0.0, 4, 1.0),
                                DomainError, None),
    "allocate a=nan": (lambda: asymptotics.allocate(math.nan, 4), DomainError, None),
    "blocklength_for_dimension target=0": (
        lambda: asymptotics.blocklength_for_dimension(4, 1.0, 1.0, 0.0), DomainError, None),
    "blocklength_for_dimension delta=-1": (
        lambda: asymptotics.blocklength_for_dimension(4, 1.0, -1.0, 1.0), DomainError, None),
    "normal_tail_inv p=0": (lambda: specfun.normal_tail_inv(0.0), DomainError, None),
    "normal_tail_inv p=nan": (lambda: specfun.normal_tail_inv(math.nan), DomainError, None),
    "chisq_tail lam=-1": (lambda: specfun.chisq_tail(2, -1.0, 1.0), DomainError, None),
    "chisq_tail lam=inf": (lambda: specfun.chisq_tail(2, math.inf, 1.0), DomainError, None),
    "chisq_tail t=-1": (lambda: specfun.chisq_tail(2, 0.0, -1.0), DomainError, None),
    "chisq_tail t=nan": (lambda: specfun.chisq_tail(2, 0.0, math.nan), DomainError, None),
    "chisq_tail_inv p=1": (lambda: specfun.chisq_tail_inv(2, 0.0, 1.0), DomainError, None),
    "chisq_tail_inv lam=nan": (lambda: specfun.chisq_tail_inv(2, math.nan, 0.5), DomainError,
                               None),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_entry_points_refuse_inputs_outside_their_domain(case):
    call, cls, message = _REFUSALS[case]
    with pytest.raises(cls) as info:
        call()
    assert type(info.value) is cls
    if message is not None:
        assert str(info.value).startswith(message)


# sigma = inf gave a matrix of infinities (ar_autocov) or a divide warning
# (ArModel), and True passed as the count 1
_NEW_REFUSALS = {
    "ArModel sigma=inf": lambda: ArModel([0.5], sigma=math.inf),
    "ar_autocov sigma=inf": lambda: ar_autocov([0.5], math.inf, 3),
    "NlpProblem k=True": lambda: NlpProblem(True, delta=1.0),
    "GaussianLocationModel k=True": lambda: GaussianLocationModel(True),
    "local_coord n=True": lambda: local_coord(_THETA, _discrete(), True),
    "ar_autocov lags=True": lambda: ar_autocov([0.5], 1.0, True),
}


@pytest.mark.parametrize("case", sorted(_NEW_REFUSALS))
def test_infinite_scale_and_bool_count_are_refused(case):
    with pytest.raises(DomainError):
        _NEW_REFUSALS[case]()


def test_entry_points_keep_their_values_on_numpy_inputs():
    # a numpy count and a numpy real give what their Python values give
    assert NlpProblem(np.int64(3), delta=np.float64(1.5)).k == 3
    a = local_coord(_THETA, _discrete(), np.int32(40))
    b = local_coord(_THETA, _discrete(), 40)
    assert np.array_equal(a.mu, b.mu) and a.hardness == b.hardness
    assert np.array_equal(ar_autocov([0.5], np.float32(2.0), np.uint8(3)),
                          ar_autocov([0.5], 2.0, 3))
    assert specfun.chisq_tail(2, np.float64(1.0), 3) == specfun.chisq_tail(2, 1.0, 3.0)
