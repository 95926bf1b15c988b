"""Brute-force reference machinery: tail bounds, truncated sums, scans."""

import json
import math
import time

import pytest

from tgd import (
    ParameterError,
    Params,
    Tolerance,
    cdf,
    mode,
    oracle_cdf,
    oracle_mode,
    oracle_quantile,
    oracle_sum,
    pmf,
    pmf_by_terms,
    survival,
    tail_bound,
)
from tgd.cli import main
from tgd.oracle import _BLOCK

# tails longer than one block: about 27600 support points at eps 1e-12
LONG_TAILS = [Params(0.999, a) for a in (-1.0, -0.4, 0.0, 0.6, 1.0)]
WEIGHTS = {
    "constant": lambda y: 1.0,
    "mean": lambda y: y,
    "falling2": lambda y: y * (y - 1),
    "raw4": lambda y: y**4,
}


# Scalar references: the same scans one support point at a time, y a Python
# int, against which the block passes are checked.


def scalar_tail_bound(params, eps):
    y = max(0, math.ceil(math.log(eps / 2.0) / math.log(params.q)))
    while survival(params, y) >= eps:
        y += 1
    while y > 0 and survival(params, y - 1) < eps:
        y -= 1
    return y


def scalar_sum(params, weight, eps):
    def tail(y):
        return abs(weight(y)) * survival(params, y)

    def cutoff(threshold):
        y = scalar_tail_bound(params, min(threshold, 0.5))
        while not (tail(y) < threshold and tail(y + 1) <= tail(y)):
            y += 1
        return y

    def total(y_max):
        return math.fsum(weight(y) * pmf_by_terms(params, y) for y in range(y_max + 1))

    y_max = cutoff(eps)
    s = total(y_max)
    if 0.0 < abs(s) < 1.0:
        s = total(max(y_max, cutoff(eps * abs(s))))
    return s


def scalar_running_sums(params, stop):
    acc = 0.0
    for y in range(stop):
        acc += pmf_by_terms(params, y)
        yield y, acc


def scalar_quantile(params, p):
    thr = p - min(1e-12, 0.5 * p)
    cap = scalar_tail_bound(params, 1e-15) + 1
    return next((y for y, acc in scalar_running_sums(params, cap + 1) if acc >= thr), cap)


def scalar_mode(params):
    ys = range(scalar_tail_bound(params, 1e-15) + 1)
    return max(ys, key=lambda y: (pmf_by_terms(params, y), -y))


def mode_at(target):
    """Params(q, -1) whose mode is ``target``, by bisection on q."""
    lo, hi = 0.5, 1.0 - 1e-9
    for _ in range(100):
        q = 0.5 * (lo + hi)
        m = mode(Params(q, -1.0))
        if m == target:
            return Params(q, -1.0)
        lo, hi = (q, hi) if m < target else (lo, q)
    raise AssertionError(f"no q found with mode {target}")


class TestTolerance:
    def test_valid(self):
        assert Tolerance(1e-10).eps == 1e-10

    @pytest.mark.parametrize("eps", [0.0, 1.0, -1e-3, 2.0])
    def test_invalid(self, eps):
        with pytest.raises(ParameterError):
            Tolerance(eps)


class TestPmfByTerms:
    def test_agrees_with_factored_form(self, grid):
        for p in grid:
            for y in (0, 1, 2, 5, 20, 100):
                assert pmf_by_terms(p, y) == pytest.approx(pmf(p, y), abs=1e-14)


class TestTailBound:
    def test_half_life(self):
        for alpha in (-1.0, -0.3, 0.0, 0.7, 1.0):
            assert tail_bound(Params(0.5, alpha), Tolerance(1e-12)) <= 42

    def test_slow_tail(self):
        for alpha in (-1.0, 0.0, 1.0):
            assert tail_bound(Params(0.9, alpha), Tolerance(1e-12)) <= 269

    def test_exact_threshold(self):
        p = Params(0.5, 0.0)
        assert tail_bound(p, Tolerance(0.5)) == 2
        assert survival(p, 2) < 0.5 <= survival(p, 1)

    def test_is_minimal(self, small_grid):
        for p in small_grid:
            y = tail_bound(p, Tolerance(1e-9))
            assert survival(p, y) < 1e-9
            assert y == 0 or survival(p, y - 1) >= 1e-9

    def test_bisection_equals_the_walk(self, grid):
        for p in grid + LONG_TAILS + [mode_at(_BLOCK)]:
            for eps in (0.5, 1e-9, 1e-12, 1e-15):
                assert tail_bound(p, Tolerance(eps)) == scalar_tail_bound(p, eps), (p, eps)

    def test_bounded_work_as_q_nears_one(self):
        # the walk down from 2*q**y would take about log(2)/(1 - q) steps
        start = time.perf_counter()
        for a in (-1.0, 0.0, 1.0):
            p = Params(1.0 - 1e-15, a)
            y = tail_bound(p, Tolerance(1e-12))
            assert survival(p, y) < 1e-12 <= survival(p, y - 1)
        assert time.perf_counter() - start < 0.1


class TestOracleSum:
    def test_normalization(self):
        total = oracle_sum(Params(0.5, 0.5), lambda y: 1.0, Tolerance(1e-12))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_mean(self):
        got = oracle_sum(Params(0.5, 0.5), lambda y: y, Tolerance(1e-12))
        assert got == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_second_factorial(self):
        got = oracle_sum(Params(0.5, 0.5), lambda y: y * (y - 1), Tolerance(1e-12))
        assert got == pytest.approx(10.0 / 9.0, abs=1e-9)

    def test_normalization_grid(self, grid):
        for p in grid:
            total = oracle_sum(p, lambda y: 1.0, Tolerance(1e-12))
            assert 1.0 - 1e-12 <= total <= 1.0 + 1e-13

    def test_a_zero_of_the_weight_is_no_cut_off(self):
        # the tail bound at eps 0.5 is y = 1, where y*(y - 1) vanishes while
        # the weighted tail beyond it holds all of the second factorial
        # moment, 0.1935
        got = oracle_sum(Params(0.3, 0.5), lambda y: y * (y - 1), Tolerance(0.5))
        assert abs(got - 0.19345489675157046) <= 0.5 * got

    def test_float_tolerance_accepted(self):
        assert oracle_sum(Params(0.3, 0.2), lambda y: 1.0, 1e-10) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("name", WEIGHTS)
    def test_blocks_equal_the_scalar_sum(self, grid, name):
        weight = WEIGHTS[name]
        for p in grid + LONG_TAILS:
            want = scalar_sum(p, weight, 1e-12)
            got = oracle_sum(p, weight, Tolerance(1e-12))
            assert abs(got - want) <= 1e-15 * abs(want), (p, got, want)

    @pytest.mark.parametrize("name", WEIGHTS)
    def test_blocks_equal_the_scalar_sum_at_loose_tolerance(self, small_grid, name):
        weight = WEIGHTS[name]
        for p in small_grid + LONG_TAILS:
            want = scalar_sum(p, weight, 0.5)
            assert abs(oracle_sum(p, weight, Tolerance(0.5)) - want) <= 1e-15 * abs(want), p


class TestOracleCdf:
    def test_equals_the_running_sum(self):
        # a sequential sum of n positive terms is within (n - 1) units of
        # roundoff of its exact value, so two such sums within twice that
        for p in LONG_TAILS:
            for y, acc in scalar_running_sums(p, _BLOCK + 2):
                if y in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1):
                    assert abs(oracle_cdf(p, y) - acc) <= 2 * y * 2.0**-53 * acc, (p, y)

    def test_values(self):
        assert oracle_cdf(Params(0.5, 0.0), 1) == 0.75
        assert oracle_cdf(Params(0.5, 0.0), -1) == 0.0


class TestOracleQuantile:
    def test_values(self):
        assert oracle_quantile(Params(0.5, 0.5), 0.5) == 0
        assert oracle_quantile(Params(0.9, -0.5), 0.5) == 9
        assert oracle_quantile(Params(0.5, 0.0), 0.5) == 0

    def test_level_domain(self):
        with pytest.raises(ParameterError):
            oracle_quantile(Params(0.5, 0.5), 0.0)

    def test_reaches_level(self, small_grid):
        for p in small_grid:
            for level in (0.05, 0.5, 0.95):
                y = oracle_quantile(p, level)
                assert cdf(p, y) >= level - 1e-12

    def test_equals_the_scalar_scan(self, grid):
        for p in grid + LONG_TAILS:
            for level in (0.05, 0.5, 0.95, 1.0 - 1e-9):
                assert oracle_quantile(p, level) == scalar_quantile(p, level), (p, level)

    def test_equals_the_scalar_scan_at_block_edges(self):
        for a in (-1.0, 0.3, 1.0):
            p = Params(0.9999, a)
            sums = dict(scalar_running_sums(p, _BLOCK + 3))
            for y in (_BLOCK - 2, _BLOCK - 1, _BLOCK, _BLOCK + 1):
                # the exact running sum at y, and just past it
                for level in (sums[y], 0.5 * (sums[y] + sums[y + 1])):
                    want = scalar_quantile(p, level)
                    assert want in (y, y + 1)
                    assert oracle_quantile(p, level) == want, (p, y, level)


class TestOracleMode:
    def test_values(self):
        assert oracle_mode(Params(0.5, -1.0)) == 1
        assert oracle_mode(Params(0.5, 0.5)) == 0
        assert oracle_mode(Params(0.6, -0.9)) >= 1

    def test_is_argmax(self, small_grid):
        for p in small_grid:
            m = oracle_mode(p)
            for y in range(0, 50):
                assert pmf_by_terms(p, m) >= pmf_by_terms(p, y) - 1e-15

    def test_equals_the_scalar_scan(self, grid):
        for p in grid + LONG_TAILS:
            assert oracle_mode(p) == scalar_mode(p), p

    @pytest.mark.parametrize("target", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_equals_the_scalar_scan_at_block_edges(self, target):
        p = mode_at(target)
        assert scalar_mode(p) == target
        assert oracle_mode(p) == target


def test_summary_audit_of_a_long_tail_is_fast(capsys):
    # oracle tails of 54536 (eps 1e-12) to 69000 (1e-15) support points,
    # and longer for the weighted moment sums
    start = time.perf_counter()
    code = main(["summary", "--q", "0.9995", "--alpha", "0.3", "--audit"])
    assert time.perf_counter() - start < 0.3
    rec = json.loads(capsys.readouterr().out)
    assert code == 0 and rec["audit_tail_bound"] == 54536
    assert rec["audit_max_deviation"] < 1e-9
