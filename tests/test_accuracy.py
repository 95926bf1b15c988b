"""Accuracy in ulps where the closed forms could cancel, against references
in exact or 60-digit arithmetic built from the double inputs exactly."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tgd import Params, hazard, pmf, summarize, survival


def _pmf_and_hazard(q: float, a: float, y: int) -> tuple[float, float]:
    """pmf(y) and hazard(y) = pmf(y) / survival(y), each rounded once."""
    with localcontext() as ctx:
        ctx.prec = 60
        q, a = Decimal(q), Decimal(a)
        z = q**y
        mass = (1 - q) * z * ((1 - a) + a * z * (1 + q))
        return float(mass), float(mass / (z * ((1 - a) + a * z)))


def _ulps(value: float, ref: float) -> float:
    return abs(value - ref) / math.ulp(ref)


# the hazard of the maximum of two draws at y = 0 is (1 - q)**2, far below
# the rounding error of any quantity near 1 that it could be formed from
@pytest.mark.parametrize("q", [1.0 - 1e-15, 0.9999])
def test_small_hazard_keeps_its_digits(q):
    ref = _pmf_and_hazard(q, -1.0, 0)[1]
    assert _ulps(hazard(Params(q, -1.0), 0), ref) <= 2.0


def test_pmf_where_one_plus_alpha_q_cancels():
    q, a = 1.0 - 1.8e-11, -0.998
    ref = _pmf_and_hazard(q, a, 0)[0]
    assert _ulps(pmf(Params(q, a), 0), ref) <= 2.0


def test_min_case_mean_near_one():
    # alpha = 1 is GD(q**2), whose mean q**2/(1 - q**2) loses digits when
    # 1 - q**2 is formed after rounding q**2
    q = 1.0 - 1.25e-8
    exact = Fraction(q) ** 2 / (1 - Fraction(q) ** 2)
    mean = summarize(Params(q, 1.0)).mean
    assert abs(Fraction(mean) - exact) <= Fraction(1e-15) * exact


# 1 - q down to 1e-15, and q anywhere in (0, 1)
near_one = st.one_of(
    st.floats(min_value=-15.0, max_value=-0.01).map(lambda e: 1.0 - 10.0**e),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
ys = st.one_of(st.integers(0, 100), st.integers(0, 10**6))


# alpha = 1 is left out: its hazard is 1 - fl(q*q), equal bit for bit to its
# GD(q*q) twin's (tests/test_core.py), and not the pmf's (1 - q)*(1 + q)
@settings(max_examples=200)
@given(near_one, st.floats(min_value=-1.0, max_value=1.0, exclude_max=True), ys)
def test_hazard_times_survival_is_pmf(q, a, y):
    params = Params(q, a)
    s = survival(params, y)
    if s >= 1e-290:
        mass = pmf(params, y)
        assert abs(hazard(params, y) * s - mass) <= 4.0 * 2.0**-52 * mass


@given(near_one, ys)
def test_geometric_hazard_is_exactly_one_minus_q(q, y):
    assert hazard(Params(q, 0.0), y) == 1.0 - q
