"""Profile-curve fits: pinned misreports of the former multi-start search,
a brute-force grid guard against a missed optimum, the criterion-10
samples held against the values the 81-start Nelder-Mead search reached,
the moment fit's rivals held against the exact moment cubic, and its
digits on exact moments near q = 1."""

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import full_grid
from tgd import (
    Params,
    Tolerance,
    dataset_from_counts,
    fit_mle,
    fit_moments,
    ingest,
    log_likelihood,
    pmf,
    raw_moment,
    sample_many,
    tail_bound,
)
from tgd.oracle import pmf_by_terms

# values reached by the 81-start bounded Nelder-Mead search that the profile
# search replaced, on the samples of test_criterion_10_estimators
NELDER_MEAD = json.loads((Path(__file__).parent / "nelder_mead_values.json").read_text())


def rounded_population(params: Params) -> dict[int, int]:
    """{y: round(1e5 * pmf)} up to the 1e-12 tail bound."""
    y_max = tail_bound(params, Tolerance(1e-12))
    return {y: round(1e5 * pmf(params, y)) for y in range(y_max + 1)}


@pytest.mark.parametrize("truth", [Params(0.5, 0.5), Params(0.3, -1.0)])
def test_mle_on_rounded_population_converges_alone(truth):
    # the multi-start search reported converged=False here: at (0.5, 0.5)
    # its best start ran out of evaluations, and at (0.3, -1) it reported
    # (0.300009, -1.0) as a rival although the profile has a single maximum
    report = fit_mle(dataset_from_counts(rounded_population(truth)))
    assert report.converged
    assert report.alternatives == ()
    assert abs(report.params.q - truth.q) < 1e-3
    assert abs(report.params.alpha - truth.alpha) < 1e-2


# --------------------------------------------------------------------------
# brute-force guard: no optimum on a dense (q, alpha) grid beats the fit

GRID_Q = np.linspace(0.0025, 0.9975, 200)
GRID_ALPHA = np.linspace(-1.0, 1.0, 81)
Y_MAX = 30
# the oracle and the closed forms round differently; nothing else separates
# the fit from a grid value it must reach
LL_TOL = 1e-9
MOMENT_TOL = 1e-12


@pytest.fixture(scope="module")
def grid_tables():
    """log pmf (from the oracle) for y = 0..Y_MAX, mean and E[Y**2] at every
    grid point."""
    params = [Params(float(q), float(a)) for q in GRID_Q for a in GRID_ALPHA]
    log_pmf = np.log([[pmf_by_terms(p, y) for p in params] for y in range(Y_MAX + 1)])
    mean = np.array([raw_moment(p, 1) for p in params])
    raw2 = np.array([raw_moment(p, 2) for p in params])
    return log_pmf, mean, raw2


histograms = st.dictionaries(
    st.integers(min_value=0, max_value=Y_MAX),
    st.integers(min_value=1, max_value=50),
    min_size=1,
    max_size=8,
).filter(lambda h: sum(h.values()) >= 2)


@settings(max_examples=100, deadline=None)
@given(counts=histograms)
def test_fits_reach_the_grid_optimum(grid_tables, counts):
    log_pmf, mean, raw2 = grid_tables
    ds = dataset_from_counts(counts)

    ys = list(counts)
    grid_ll = float(np.max(np.array([counts[y] for y in ys]) @ log_pmf[ys]))
    ll = fit_mle(ds).objective
    assert ll >= grid_ll - LL_TOL * (1.0 + abs(grid_ll))

    grid_obj = float(np.min((mean - ds.mean) ** 2 + (raw2 - ds.m2) ** 2))
    obj = fit_moments(ds).objective
    assert obj <= grid_obj + MOMENT_TOL * (1.0 + ds.m2) ** 2


# --------------------------------------------------------------------------
# the criterion-10 samples reach at least the Nelder-Mead values


def test_mle_at_least_nelder_mead_on_criterion_10_samples():
    cases = [(Params(0.6, -0.5), 10**4, 100 + s) for s in range(20)]
    cases.append((Params(0.5, 0.5), 10**5, 7))
    for truth, n, seed in cases:
        ds = ingest(sample_many(truth, n, seed).values)
        before = NELDER_MEAD["mle"][f"{truth.q},{truth.alpha},{n},{seed}"]
        assert fit_mle(ds).objective >= before - 1e-9 * abs(before), (truth, seed)


def test_moments_at_most_nelder_mead_on_criterion_10_samples():
    for truth in full_grid():
        if truth.q > 0.9:
            continue
        y_max = tail_bound(truth, Tolerance(1e-12))
        ds = dataset_from_counts({y: 4.0 * pmf(truth, y) for y in range(y_max + 1)})
        before = NELDER_MEAD["moments"][f"{truth.q},{truth.alpha}"]
        assert fit_moments(ds).objective <= before + 3e-20 * (1.0 + ds.m2) ** 2, truth


def test_mle_of_a_huge_value_warns_nothing():
    # the profile slope is about mean/q, past 1e154 at small q, and the
    # sign tests once multiplied neighbouring values, which overflowed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = fit_mle(ingest([0, 1, 10**152]))
    assert report.boundary == ("q",)


def test_mle_score_underflow_warns_nothing():
    # q**2000 underflows for q below about 0.7, so the score at alpha = 1
    # reads -inf over much of the scanned q range
    ds = dataset_from_counts({0: 50, 1: 10, 2000: 1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = fit_mle(ds)
    assert math.isfinite(report.objective)
    for q in (0.2, 0.5, 0.9, 0.99):
        for a in (-1.0, 0.0, 1.0):
            assert report.objective >= log_likelihood(Params(q, a), ds)


# --------------------------------------------------------------------------
# exact moments: the fit reports every pair the moment cubic admits


def moment_cubic_pairs(m1: float, m2: float) -> list[tuple[float, float]]:
    """Every (q, alpha) in (0, 1) x [-1, 1] with mean m1 and E[Y**2] m2.

    The mean fixes alpha = (m1 - r1)/(r2 - r1), with r1 = q/(1-q) and
    r2 = q**2/(1-q**2) the means at alpha = 0 and 1; putting it into the
    second factorial moment f2 = m2 - m1 leaves the cubic
    (m1(1-q) - q) q (1+2q) = (f2/2)(1-q)**2 (1+q) - q**2 (1+q)."""
    q = np.polynomial.Polynomial([0.0, 1.0])
    f2 = m2 - m1
    cubic = ((m1 * (1 - q) - q) * q * (1 + 2 * q)
             - (f2 / 2) * (1 - q) ** 2 * (1 + q) + q**2 * (1 + q))
    pairs = []
    for root in cubic.roots():
        x = root.real
        if abs(root.imag) <= 1e-9 and 0.0 < x < 1.0:
            r1, r2 = x / (1 - x), x * x / (1 - x * x)
            a = (m1 - r1) / (r2 - r1)
            if abs(a) <= 1.0 + 1e-9:
                pairs.append((x, a))
    return pairs


# truths whose two preimages lie within one panel of a 1001-node scan over
# q, which missed the rival; the last two came from a random draw of truths
MISSED_RIVALS = [
    (0.06636255461336732, 0.8965363437814062),
    (0.7209707082137772, 0.6733973585572905),
    (0.25913562767537346, 0.7504565074039438),
    (0.43568564732863135, 0.7037147472112273),
]
# a Kronecker sequence over q in [0.05, 0.95] and alpha in [-1, 1]
MOMENT_TRUTHS = [(0.05 + 0.9 * (i * 0.6180339887498949 % 1.0),
                  -1.0 + 2.0 * (i * 0.41421356237309515 % 1.0)) for i in range(1, 401)]


def _moment_fit_candidates(q: float, a: float) -> tuple[int, int]:
    truth = Params(q, a)
    m1, m2 = raw_moment(truth, 1), raw_moment(truth, 2)
    y_max = tail_bound(truth, Tolerance(1e-12))
    ds = dataset_from_counts({y: 4.0 * pmf(truth, y) for y in range(y_max + 1)})
    report = fit_moments(dataclasses.replace(ds, mean=m1, m2=m2))
    return 1 + len(report.alternatives), len(moment_cubic_pairs(m1, m2))


def test_moment_fit_reports_every_exact_preimage():
    counts = {t: _moment_fit_candidates(*t) for t in MOMENT_TRUTHS if t not in MISSED_RIVALS}
    assert {t: c for t, c in counts.items() if c[0] != c[1]} == {}


@pytest.mark.parametrize("truth", MISSED_RIVALS)
def test_moment_fit_misses_a_rival_inside_one_panel(truth):
    reported, admitted = _moment_fit_candidates(*truth)
    assert reported == admitted


# --------------------------------------------------------------------------
# exact moments near q = 1, and data far past the box


def exact_moment_fit(truth: Params):
    """The moment fit of a dataset holding the exact moments of ``truth``,
    and its second moment."""
    m1, m2 = raw_moment(truth, 1), raw_moment(truth, 2)
    ds = dataclasses.replace(dataset_from_counts({0: 1, 1: 1}), mean=m1, m2=m2)
    return fit_moments(ds), m2


@pytest.mark.parametrize("one_minus_q", [1e-3, 1e-4, 1e-5, 1e-6])
def test_moment_fit_keeps_its_digits_near_q_one(one_minus_q):
    truth = Params(1.0 - one_minus_q, 0.3)
    report, _ = exact_moment_fit(truth)
    errors = [abs((1.0 - p.q) / (1.0 - truth.q) - 1.0) + abs(p.alpha - truth.alpha)
              for p in (report.params,) + report.alternatives]
    assert min(errors) <= 1e-9, report


def test_moment_fit_lists_the_rival_near_q_one():
    # both preimages lie within one panel of a 1001-node scan over q
    report, _ = exact_moment_fit(Params(0.999, 0.3))
    assert (round(report.params.q, 12), round(report.params.alpha, 9)) == (0.999, 0.3)
    assert [(round(p.q, 5), round(p.alpha, 4)) for p in report.alternatives] == [(0.99935, 0.9032)]


@settings(max_examples=200, deadline=None)
@given(log_one_minus_q=st.floats(-6.0, math.log10(0.95)), alpha=st.floats(-1.0, 1.0))
def test_moment_fit_matches_exact_moments(log_one_minus_q, alpha):
    report, m2 = exact_moment_fit(Params(1.0 - 10.0**log_one_minus_q, alpha))
    assert report.objective <= 1e-20 * (1.0 + m2) ** 2


@pytest.mark.parametrize("counts", [{0: 1, 1: 2, 10**70: 1}, {0: 1, 1: 2, 10**76: 1}, {5 * 10**76: 3}],
                         ids=["1e70", "1e76", "5e76-thrice"])
def test_moment_fit_of_huge_values_warns_nothing(counts):
    # the mean lies far past the box, so the fit ends on its corner, as it
    # did with the scan; the polynomials are scaled so that no power of the
    # moments overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = fit_moments(dataset_from_counts(counts))
    assert report.params == Params(1e-6, -1.0)
    assert report.boundary == ("q", "alpha")
    assert len(report.alternatives) == 1
