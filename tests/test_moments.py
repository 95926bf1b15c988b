"""Moment pipeline: Stirling conversion, factorial moments, shape measures,
all cross-checked against the truncated-sum oracle."""

import math

import pytest

from tgd import (
    ParameterError,
    Params,
    Tolerance,
    central_moment,
    factorial_cumulant,
    factorial_moment,
    index_of_dispersion,
    kurtosis_beta2,
    oracle_sum,
    raw_moment,
    skewness_beta1,
    stirling2,
    summarize,
)

P55 = Params(0.5, 0.5)


def falling_factorial(y, r):
    out = 1
    for k in range(r):
        out *= y - k
    return out


class TestStirling2:
    @pytest.mark.parametrize(
        "n,k,expected",
        [(3, 2, 3), (4, 2, 7), (0, 0, 1), (5, 5, 1), (9, 9, 1), (4, 1, 1), (20, 10, 5917584964655)],
    )
    def test_values(self, n, k, expected):
        assert stirling2(n, k) == expected

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            stirling2(21, 3)
        with pytest.raises(ParameterError):
            stirling2(3, 4)
        with pytest.raises(ParameterError):
            stirling2(3, -1)


class TestFactorialMoment:
    def test_first_is_mean(self):
        assert factorial_moment(P55, 1) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_second(self):
        assert factorial_moment(P55, 2) == pytest.approx(10.0 / 9.0, rel=1e-14)

    def test_geometric_reduction(self):
        for q in (0.2, 0.5, 0.8):
            p = Params(q, 0.0)
            for r in (1, 2, 3, 4, 6):
                expected = math.factorial(r) * (q / (1.0 - q)) ** r
                assert factorial_moment(p, r) == pytest.approx(expected, rel=1e-13)

    def test_mixture_decomposition(self, grid):
        # exact algebraic identity against the two geometric components
        for p in grid:
            for r in (1, 2, 3, 4):
                g1 = math.factorial(r) * (p.q / (1.0 - p.q)) ** r
                g2 = math.factorial(r) * (p.q**2 / (1.0 - p.q**2)) ** r
                expected = (1.0 - p.alpha) * g1 + p.alpha * g2
                assert factorial_moment(p, r) == pytest.approx(expected, rel=1e-12)

    def test_against_oracle(self):
        got = factorial_moment(P55, 2)
        want = oracle_sum(P55, lambda y: y * (y - 1))
        assert got == pytest.approx(want, rel=1e-10)

    def test_order_validation(self):
        with pytest.raises(ParameterError):
            factorial_moment(P55, 0)

    def test_overflow_signalled(self):
        # r! itself leaves the double range
        with pytest.raises(OverflowError):
            factorial_moment(Params(0.9, 0.0), 400)
        # r! stays finite but the product overflows
        with pytest.raises(OverflowError):
            factorial_moment(Params(0.9, 0.0), 150)

    def test_matches_pgf_derivatives(self, small_grid):
        # r-th derivative of the pgf at z = 1 is the r-th factorial moment;
        # central differences with step 1e-4, relative 1e-4, r in {1, 2}
        from tgd import pgf

        h = 1e-4
        for p in small_grid:
            if p.q * (1.0 + h) >= 1.0:
                continue
            d1 = (pgf(p, 1.0 + h) - pgf(p, 1.0 - h)) / (2.0 * h)
            assert d1 == pytest.approx(factorial_moment(p, 1), rel=1e-4)
            d2 = (pgf(p, 1.0 + h) - 2.0 * pgf(p, 1.0) + pgf(p, 1.0 - h)) / (h * h)
            assert d2 == pytest.approx(factorial_moment(p, 2), rel=1e-4)


class TestRawMoment:
    def test_second(self):
        assert raw_moment(P55, 2) == pytest.approx(16.0 / 9.0, rel=1e-14)

    def test_geometric_mean(self):
        assert raw_moment(Params(0.5, 0.0), 1) == pytest.approx(1.0, rel=1e-15)

    def test_third_against_oracle(self):
        want = oracle_sum(P55, lambda y: y**3)
        assert raw_moment(P55, 3) == pytest.approx(want, rel=1e-10)

    def test_order_validation(self):
        for r in (0, 5):
            with pytest.raises(ParameterError):
                raw_moment(P55, r)


class TestCentralMoment:
    def test_variance(self):
        assert central_moment(P55, 2) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_geometric_variance(self):
        for q in (0.2, 0.5, 0.9):
            assert central_moment(Params(q, 0.0), 2) == pytest.approx(
                q / (1.0 - q) ** 2, rel=1e-12
            )

    def test_third_against_oracle(self):
        mean = factorial_moment(P55, 1)
        want = oracle_sum(P55, lambda y: (y - mean) ** 3)
        assert central_moment(P55, 3) == pytest.approx(want, rel=1e-10)

    def test_order_validation(self):
        for r in (1, 5):
            with pytest.raises(ParameterError):
                central_moment(P55, r)


class TestFactorialCumulant:
    def test_first_is_mean(self):
        assert factorial_cumulant(P55, 1) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_second(self):
        # kappa_(2) = m_(2) - m_(1)**2 = 10/9 - 4/9
        assert factorial_cumulant(P55, 2) == pytest.approx(2.0 / 3.0, rel=1e-13)

    def test_geometric_reduction(self):
        for q in (0.3, 0.6):
            p = Params(q, 0.0)
            for r in (1, 2, 3, 4):
                expected = math.factorial(r - 1) * (q / (1.0 - q)) ** r
                assert factorial_cumulant(p, r) == pytest.approx(expected, rel=1e-12)


class TestShapeMeasures:
    def test_dispersion_interior(self):
        assert index_of_dispersion(P55) == pytest.approx(2.0, rel=1e-14)

    def test_dispersion_geometric(self):
        for q in (0.25, 0.5, 0.8):
            assert index_of_dispersion(Params(q, 0.0)) == pytest.approx(
                1.0 / (1.0 - q), rel=1e-12
            )

    def test_dispersion_exceeds_one(self, grid):
        for p in grid:
            assert index_of_dispersion(p) > 1.0 + 1e-12

    def test_beta1_geometric(self):
        # (2 - p)**2 / (1 - p) form evaluates to (1+q)**2/q
        assert skewness_beta1(Params(0.5, 0.0)) == pytest.approx(4.5, rel=1e-12)
        assert skewness_beta1(Params(0.5, 1.0)) == pytest.approx(6.25, rel=1e-12)

    def test_beta2_geometric(self):
        assert kurtosis_beta2(Params(0.5, 0.0)) == pytest.approx(9.5, rel=1e-12)
        assert kurtosis_beta2(Params(0.5, 1.0)) == pytest.approx(11.25, rel=1e-12)

    def test_beta1_interior_against_oracle(self):
        mean = factorial_moment(P55, 1)
        mu2 = oracle_sum(P55, lambda y: (y - mean) ** 2)
        mu3 = oracle_sum(P55, lambda y: (y - mean) ** 3)
        assert skewness_beta1(P55) == pytest.approx(mu3**2 / mu2**3, rel=1e-9)

    def test_beta2_interior_against_oracle(self):
        mean = factorial_moment(P55, 1)
        mu2 = oracle_sum(P55, lambda y: (y - mean) ** 2)
        mu4 = oracle_sum(P55, lambda y: (y - mean) ** 4)
        assert kurtosis_beta2(P55) == pytest.approx(mu4 / mu2**2, rel=1e-9)


class TestSummarize:
    def test_interior_bundle(self):
        ms = summarize(P55)
        assert ms.mean == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert ms.variance == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert ms.index_of_dispersion == pytest.approx(2.0, rel=1e-14)
        assert ms.raw[0] == ms.mean == ms.factorial[0]
        assert ms.central[0] == ms.variance
        assert ms.variance == pytest.approx(ms.raw[1] - ms.mean**2, rel=1e-13)
        assert ms.beta1 >= 0.0

    def test_geometric_bundle(self):
        ms = summarize(Params(0.5, 0.0))
        assert ms.mean == pytest.approx(1.0, rel=1e-14)
        assert ms.variance == pytest.approx(2.0, rel=1e-14)
        assert ms.index_of_dispersion == pytest.approx(2.0, rel=1e-14)
        assert ms.beta1 == pytest.approx(4.5, rel=1e-12)
        assert ms.beta2 == pytest.approx(9.5, rel=1e-12)

    def test_min_case_bundle(self):
        ms = summarize(Params(0.5, 1.0))
        assert ms.mean == pytest.approx(1.0 / 3.0, rel=1e-13)
        assert ms.index_of_dispersion > 1.0

    @pytest.mark.parametrize("q, alpha", [(1e-300, -1.0), (1e-120, 0.3), (1e-200, 1.0)])
    def test_underflowing_ratio_is_refused(self, q, alpha):
        # mu2**3 (or, at alpha = 1, the mean itself) underflows to 0
        with pytest.raises(ParameterError, match="underflows to 0"):
            summarize(Params(q, alpha))

    def test_evaluates_each_factorial_moment_once(self, monkeypatch):
        # the closed form runs once per order; raw, central, cumulant and
        # shape values all derive from those four numbers
        from tgd import moments

        orders = []
        closed_form = moments._factorial_moment_at

        def counted(q, a, r):
            orders.append(r)
            return closed_form(q, a, r)

        monkeypatch.setattr(moments, "_factorial_moment_at", counted)
        summarize(P55)
        assert sorted(orders) == [1, 2, 3, 4]

    def test_fields_equal_the_per_order_functions(self, grid):
        for p in grid:
            ms = summarize(p)
            assert ms.mean == factorial_moment(p, 1) and ms.variance == central_moment(p, 2)
            assert ms.factorial == tuple(factorial_moment(p, r) for r in (1, 2, 3, 4))
            assert ms.raw == tuple(raw_moment(p, r) for r in (1, 2, 3, 4))
            assert ms.central == tuple(central_moment(p, r) for r in (2, 3, 4))
            assert ms.factorial_cumulant == tuple(factorial_cumulant(p, r) for r in (1, 2, 3, 4))
            assert ms.index_of_dispersion == index_of_dispersion(p)
            assert (ms.beta1, ms.beta2) == (skewness_beta1(p), kurtosis_beta2(p))

    def test_falling_factorial_consistency(self, small_grid):
        for p in small_grid:
            for r in (1, 2, 3, 4):
                want = oracle_sum(p, lambda y, r=r: falling_factorial(y, r), Tolerance(1e-12))
                assert factorial_moment(p, r) == pytest.approx(want, rel=1e-9)
