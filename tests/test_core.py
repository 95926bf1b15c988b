"""Pointwise distribution functions: parameter validation, closed forms,
quantiles, mode, hazard classification."""

import math
import time

import numpy as np
import pytest

from tgd import (
    HazardBehavior,
    ParameterError,
    Params,
    cdf,
    from_continuous_rate,
    hazard,
    hazard_class,
    is_unimodal,
    median,
    mode,
    oracle_mode,
    oracle_quantile,
    pgf,
    pmf,
    quantile,
    reversed_hazard,
    survival,
    transmuted_exponential_cdf,
)
from tgd.core import _least_reaching
from tgd.oracle import pmf_by_terms


class TestParams:
    def test_interior_point(self):
        p = Params(0.5, 0.5)
        assert (p.q, p.alpha, p.p) == (0.5, 0.5, 0.5)

    def test_alpha_endpoints_allowed(self):
        assert Params(0.5, -1.0).alpha == -1.0
        assert Params(0.5, 1.0).alpha == 1.0

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_q_rejected(self, q):
        with pytest.raises(ParameterError, match="q"):
            Params(q, 0.0)

    @pytest.mark.parametrize("alpha", [-1.0000001, 1.0000001, float("nan")])
    def test_alpha_rejected(self, alpha):
        with pytest.raises(ParameterError, match="alpha"):
            Params(0.5, alpha)

    def test_p_complement_exact(self):
        for q in (0.05, 0.3, 0.9375):
            assert Params(q, 0.0).p == 1.0 - q


class TestFromContinuousRate:
    def test_ln2_is_half(self):
        p = from_continuous_rate(math.log(2.0), 0.0)
        assert p.q == pytest.approx(0.5, abs=1e-15)
        assert p.alpha == 0.0

    def test_pmf_matches_continuous_increments(self):
        beta = math.log(2.0)
        p = from_continuous_rate(beta, 0.5)
        expected = transmuted_exponential_cdf(1.0, beta, 0.5) - transmuted_exponential_cdf(
            0.0, beta, 0.5
        )
        assert pmf(p, 0) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("beta", [-1.0, 0.0, float("nan")])
    def test_bad_rate_rejected(self, beta):
        with pytest.raises(ParameterError, match="beta"):
            from_continuous_rate(beta, 0.0)

    @pytest.mark.parametrize("x, alpha, match", [
        (1.0, 5.0, "alpha"),
        (1.0, -3.0, "alpha"),
        (1.0, float("nan"), "alpha"),
        (float("nan"), 0.5, "x"),
    ])
    def test_continuous_cdf_domain(self, x, alpha, match):
        # alpha = 5 or -3 would put the cdf outside [0, 1]; nan would pass
        # through silently
        with pytest.raises(ParameterError, match=match):
            transmuted_exponential_cdf(x, 1.0, alpha)


class TestPmf:
    def test_geometric_case(self):
        assert pmf(Params(0.5, 0.0), 3) == pytest.approx(0.0625, abs=1e-15)

    def test_interior_point(self):
        assert pmf(Params(0.5, 0.5), 0) == pytest.approx(0.625, abs=1e-15)

    def test_min_of_two_case(self):
        assert pmf(Params(0.5, 1.0), 2) == pytest.approx(0.046875, abs=1e-15)

    def test_max_of_two_case(self):
        # (1 - q**(y+1))**2 - (1 - q**y)**2 at q=0.5, y=1
        assert pmf(Params(0.5, -1.0), 1) == pytest.approx(0.3125, abs=1e-15)

    def test_negative_y_rejected(self):
        with pytest.raises(ParameterError, match="y"):
            pmf(Params(0.5, 0.5), -1)

    def test_non_integer_rejected(self):
        with pytest.raises(ParameterError, match="y"):
            pmf(Params(0.5, 0.5), 1.5)


class TestCdfSurvival:
    def test_cdf_values(self):
        p = Params(0.5, 0.5)
        assert cdf(p, 0) == pytest.approx(0.625, abs=1e-15)
        assert cdf(p, 1) == pytest.approx(0.84375, abs=1e-15)

    def test_cdf_empty_event(self):
        assert cdf(Params(0.9, -0.7), -1) == 0.0

    def test_survival_values(self):
        p = Params(0.5, 0.5)
        assert survival(p, 1) == pytest.approx(0.375, abs=1e-15)
        assert survival(p, 0) == 1.0
        assert survival(Params(0.5, 0.0), 3) == pytest.approx(0.125, abs=1e-15)

    def test_tail_identity_spot(self, small_grid):
        for p in small_grid:
            for y in range(0, 60, 7):
                assert survival(p, y) == pytest.approx(1.0 - cdf(p, y - 1), abs=1e-12)

    def test_bridge_identity(self, small_grid):
        # the transmutation map is a mixture of the geometric law with the
        # min (alpha >= 0) or max (alpha < 0) of an independent pair
        for p in small_grid:
            for y in range(0, 40, 3):
                f = 1.0 - p.q ** (y + 1)
                if p.alpha >= 0:
                    mix = (1.0 - p.alpha) * f + p.alpha * (2.0 * f - f * f)
                else:
                    mix = (1.0 + p.alpha) * f + (-p.alpha) * f * f
                assert cdf(p, y) == pytest.approx(mix, abs=1e-12)


class TestHazard:
    def test_geometric_constant(self):
        p = Params(0.25, 0.0)
        assert all(hazard(p, y) == pytest.approx(0.75, abs=1e-15) for y in range(20))

    def test_min_case_constant(self):
        p = Params(0.5, 1.0)
        assert all(hazard(p, y) == pytest.approx(0.75, abs=1e-15) for y in range(20))

    def test_interior_decreasing(self):
        p = Params(0.5, 0.5)
        assert hazard(p, 0) == pytest.approx(0.625, abs=1e-15)
        assert hazard(p, 1) == pytest.approx(0.21875 / 0.375, abs=1e-15)

    def test_matches_ratio_definition(self, small_grid):
        for p in small_grid:
            for y in range(25):
                assert hazard(p, y) == pytest.approx(
                    pmf(p, y) / survival(p, y), rel=1e-12
                )

    def test_limit_is_geometric_rate(self, grid):
        for p in grid:
            if -1.0 < p.alpha < 1.0 and p.q <= 0.9:
                assert abs(hazard(p, 200) - (1.0 - p.q)) < 1e-6

    # (q, y) where q**y is subnormal or underflows to 0
    @pytest.mark.parametrize("q, y", [
        (0.5, 1074), (0.5, 1100), (0.4394220579490936, 244136509204),
        (0.9992291711358011, 963056),
    ])
    def test_min_case_survives_underflow(self, q, y):
        assert hazard(Params(q, 1.0), y) == hazard(Params(q * q, 0.0), y)

    def test_min_case_is_geometric_of_q_squared(self):
        for q in (0.05, 0.3, 0.5, 0.7, 0.95, 0.99, 0.999):
            min_law, twin = Params(q, 1.0), Params(q * q, 0.0)
            assert all(hazard(min_law, y) == hazard(twin, y) for y in range(2001))


class TestReversedHazard:
    def test_unit_at_origin(self, small_grid):
        for p in small_grid:
            assert reversed_hazard(p, 0) == pytest.approx(1.0, abs=1e-14)

    def test_exactly_one_at_origin_for_q_near_one(self):
        # 1 - q log-spaced on [1e-4, 0.95], and closer to 1, where the
        # float ratio pmf(0) / cdf(0) rounds above 1 or divides by zero
        omegas = np.logspace(-4.0, math.log10(0.95), 24).tolist() + [1e-6, 1e-9]
        for om in omegas:
            for a in np.linspace(-1.0, 1.0, 9).tolist():
                assert reversed_hazard(Params(1.0 - om, a), 0) == 1.0

    def test_geometric_value(self):
        assert reversed_hazard(Params(0.5, 0.0), 1) == pytest.approx(0.25 / 0.75, abs=1e-15)

    def test_interior_value(self):
        assert reversed_hazard(Params(0.5, 0.5), 1) == pytest.approx(
            0.21875 / 0.84375, abs=1e-15
        )

    @pytest.mark.parametrize("q", [1.0 - 1e-7, 1.0 - 1e-9])
    def test_keeps_its_digits_for_q_near_one(self, q):
        # at alpha = -1 the ratio pmf(1) / cdf(1) is 1 - 1/(1+q)**2; the
        # expanded cdf 1 + (a-1)*z - a*z**2 cancels here (0.75060 for
        # 0.74999997 at 1 - 1e-7, and 0 at 1 - 1e-9)
        want = 1.0 - 1.0 / (1.0 + q) ** 2
        assert reversed_hazard(Params(q, -1.0), 1) == pytest.approx(want, rel=1e-12)


class TestHazardClass:
    def test_increasing(self):
        hc = hazard_class(Params(0.5, -0.5))
        assert hc.behavior is HazardBehavior.INCREASING
        assert hc.rate is None

    def test_decreasing(self):
        assert hazard_class(Params(0.5, 0.5)).behavior is HazardBehavior.DECREASING

    def test_constant_geometric(self):
        hc = hazard_class(Params(0.25, 0.0))
        assert hc.behavior is HazardBehavior.CONSTANT
        assert hc.rate == pytest.approx(0.75, abs=1e-15)

    def test_constant_min_case(self):
        hc = hazard_class(Params(0.5, 1.0))
        assert hc.behavior is HazardBehavior.CONSTANT
        assert hc.rate == pytest.approx(0.75, abs=1e-15)


class TestPgf:
    def test_normalization(self, small_grid):
        for p in small_grid:
            assert pgf(p, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_recovers_pmf0(self):
        assert pgf(Params(0.5, 0.5), 0.0) == pytest.approx(0.625, abs=1e-15)

    def test_geometric_value(self):
        assert pgf(Params(0.5, 0.0), 0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ParameterError, match="q\\*z"):
            pgf(Params(0.5, 0.0), 2.0)

    def test_derivative_recovers_mean(self, small_grid):
        h = 1e-6
        for p in small_grid:
            mean = (1.0 - p.alpha) * p.q / (1.0 - p.q) + p.alpha * p.q**2 / (
                1.0 - p.q**2
            )
            slope = (pgf(p, 1.0) - pgf(p, 1.0 - h)) / h
            fm2 = 2.0 * (
                (1.0 - p.alpha) * (p.q / (1.0 - p.q)) ** 2
                + p.alpha * (p.q**2 / (1.0 - p.q**2)) ** 2
            )
            assert abs(slope - mean) <= h * (fm2 + 1.0)


class TestQuantile:
    def test_interior(self):
        assert quantile(Params(0.5, 0.5), 0.5) == 0

    def test_heavy_tail_negative_alpha(self):
        assert quantile(Params(0.9, -0.5), 0.5) == 9

    def test_min_case(self):
        assert quantile(Params(0.9, 1.0), 0.5) == 3

    def test_geometric_exact_hit(self):
        assert quantile(Params(0.5, 0.0), 0.5) == 0

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7, float("nan")])
    def test_level_domain(self, p):
        with pytest.raises(ParameterError, match="quantile level"):
            quantile(Params(0.5, 0.5), p)

    def test_adjunction_spot(self, small_grid):
        # quantile(p) = y iff cdf(y) reaches p and cdf(y-1) does not, where
        # "reaches" carries the sub-1e-12 slack that resolves exact hits
        for params in small_grid:
            for k in range(1, 20):
                p = k / 20
                y = quantile(params, p)
                assert cdf(params, y) >= p - 1e-12
                assert y == 0 or cdf(params, y - 1) < p - 1e-12

    def test_matches_oracle_spot(self, small_grid):
        for params in small_grid:
            for k in range(1, 20):
                p = k / 20
                assert quantile(params, p) == oracle_quantile(params, p)

    def test_bounded_where_the_hit_slack_exceeds_the_pmf(self):
        # the answer lies about 2e10 below the closed-form solution at p
        params, p = Params(1 - 1e-10, -1.0), 1 - 1e-12
        start = time.perf_counter()
        y = quantile(params, p)
        assert time.perf_counter() - start < 0.01
        assert cdf(params, y) >= p - 1e-12 > cdf(params, y - 1)

    @pytest.mark.parametrize("params, p", [
        (Params(1 - 1e-10, -1.0), 1 - 1e-12),
        (Params(1 - 1e-10, 0.4), 0.3),
        (Params(0.5, 0.5), 0.625),
        (Params(0.9, -0.5), 0.5),
    ])
    def test_search_does_not_depend_on_the_guess(self, params, p):
        want = quantile(params, p)
        thr = p - min(1e-12, 0.5 * p)
        for guess in (0, want // 2, want - 1, want, want + 1, 2 * want + 7, 2**62):
            assert _least_reaching(params.q, params.alpha, max(guess, 0), thr) == want


class TestMedian:
    def test_examples(self):
        assert median(Params(0.5, 0.5)) == 0
        assert median(Params(0.9, -0.5)) == 9
        assert median(Params(0.9, 1.0)) == 3


class TestModeShape:
    def test_unimodal_region(self):
        assert is_unimodal(Params(0.6, -0.9))
        assert not is_unimodal(Params(0.6, -0.3))
        assert not is_unimodal(Params(0.3, -0.99))

    def test_mode_examples(self):
        assert mode(Params(0.5, 0.5)) == 0
        assert mode(Params(0.5, -1.0)) == 1
        assert mode(Params(0.3, -0.9)) == 0

    @staticmethod
    def _at_exact_threshold(p) -> bool:
        # pmf(1) = pmf(0) exactly when alpha = -1/(q*(2+q)); float noise then
        # breaks the tie arbitrarily, so such points are excluded
        t = p.q * (2.0 + p.q)
        return t > 1.0 and abs(p.alpha + 1.0 / t) < 1e-9

    def test_mode_matches_oracle(self, grid):
        for p in grid:
            if not self._at_exact_threshold(p):
                assert mode(p) == oracle_mode(p)

    def test_mode_is_bounded_for_q_near_one(self):
        # the peak sits near y = log(2)/1e-10, about 6.9e9
        p = Params(1.0 - 1e-10, -1.0)
        start = time.perf_counter()
        m = mode(p)
        assert time.perf_counter() - start < 0.01
        here = pmf_by_terms(p, m)
        assert pmf_by_terms(p, m + 1) <= here * (1.0 + 1e-12)
        assert pmf_by_terms(p, m - 1) <= here * (1.0 + 1e-12)

    def test_unimodal_iff_positive_mode(self, grid):
        for p in grid:
            if not self._at_exact_threshold(p):
                assert is_unimodal(p) == (mode(p) >= 1)
