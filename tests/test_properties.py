"""Hypothesis property tests over the whole parameter box."""

import warnings
from datetime import timedelta

from hypothesis import given, settings, strategies as st

from conftest import bridge_cdf
from tgd import (
    Params,
    RandomStream,
    cdf,
    from_continuous_rate,
    hazard,
    pmf,
    quantile,
    reversed_hazard,
    sample_inverse,
    sample_many,
    survival,
    transmuted_exponential_cdf,
)

qs = st.floats(min_value=0.001, max_value=0.999)
alphas = st.floats(min_value=-1.0, max_value=1.0)
ys = st.integers(min_value=0, max_value=300)
levels = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


@given(qs, alphas, ys)
def test_pmf_is_probability(q, a, y):
    v = pmf(Params(q, a), y)
    assert 0.0 <= v <= 1.0


@given(qs, alphas, ys)
def test_pmf_is_cdf_increment(q, a, y):
    p = Params(q, a)
    assert abs(pmf(p, y) - (cdf(p, y) - cdf(p, y - 1))) < 1e-12


@given(qs, alphas, ys)
def test_survival_complements_cdf(q, a, y):
    p = Params(q, a)
    assert abs(survival(p, y) - (1.0 - cdf(p, y - 1))) < 1e-12


@given(qs, alphas, ys)
def test_cdf_monotone(q, a, y):
    p = Params(q, a)
    assert cdf(p, y + 1) >= cdf(p, y)


@given(qs, alphas, levels)
def test_quantile_adjunction(q, a, p):
    params = Params(q, a)
    y = quantile(params, p)
    slack = min(1e-12, 0.5 * p)
    assert cdf(params, y) >= p - slack
    if y > 0:
        assert cdf(params, y - 1) < p - slack


@given(qs, alphas, levels)
def test_inverse_sampler_matches_quantile(q, a, u):
    params = Params(q, a)
    assert sample_inverse(params, u) == quantile(params, u)


# any q in (0, 1), weighted toward 1 - q down to 1e-15, where draws reach
# beyond 2**53 and the array pass hands most draws to the scalar search
open_qs = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=-15.0, max_value=-0.01).map(lambda e: 1.0 - 10.0**e),
)


@settings(max_examples=60, deadline=timedelta(seconds=1))
@given(open_qs, alphas, st.integers(min_value=0, max_value=2**64 - 1))
def test_inverse_batch_matches_per_draw(q, a, seed):
    params = Params(q, a)
    stream = RandomStream(seed)
    expected = [sample_inverse(params, stream.uniform()) for _ in range(200)]
    assert list(sample_many(params, 200, seed).values) == expected


# the whole admitted domain: q down to 1e-300, 1 - q down to 1e-15, and y
# up to 2**63 - 1, where q**y underflows
domain_qs = st.one_of(
    st.floats(min_value=1e-300, max_value=1.0, exclude_max=True),
    st.floats(min_value=-300.0, max_value=-0.01).map(lambda e: 10.0**e),
    st.floats(min_value=-15.0, max_value=-0.01).map(lambda e: 1.0 - 10.0**e),
)
domain_ys = st.one_of(st.integers(0, 2**63 - 1), st.integers(0, 2000))


@settings(max_examples=200, deadline=timedelta(seconds=1))
@given(domain_qs, alphas, domain_ys)
def test_point_functions_are_probabilities_over_the_domain(q, a, y):
    params = Params(q, a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (pmf, cdf, survival, hazard, reversed_hazard):
            assert 0.0 <= f(params, y) <= 1.0


@given(qs, alphas, ys)
def test_bridge_mixture_matches_cdf(q, a, y):
    p = Params(q, a)
    assert abs(bridge_cdf(p, y) - cdf(p, y)) < 1e-12


@settings(max_examples=60)
@given(st.floats(min_value=0.01, max_value=5.0), alphas, st.integers(0, 80))
def test_discretizes_transmuted_exponential(beta, a, y):
    params = from_continuous_rate(beta, a)
    inc = transmuted_exponential_cdf(y + 1.0, beta, a) - transmuted_exponential_cdf(
        float(y), beta, a
    )
    assert abs(pmf(params, y) - inc) < 1e-12


@given(qs, alphas)
def test_mean_from_pgf_slope(q, a):
    # the pgf is differentiable at 1 from below with slope E[Y]
    from tgd import pgf

    p = Params(q, a)
    h = 1e-7
    mean = (1.0 - a) * q / (1.0 - q) + a * q * q / (1.0 - q * q)
    fm2 = 2.0 * ((1.0 - a) * (q / (1.0 - q)) ** 2 + a * (q * q / (1.0 - q * q)) ** 2)
    slope = (pgf(p, 1.0) - pgf(p, 1.0 - h)) / h
    assert abs(slope - mean) <= h * (fm2 + 1.0) + 1e-7 * (1.0 + mean)
