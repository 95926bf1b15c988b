"""Estimation: ingestion, the two matching fits, moment matching, MLE."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tgd

from tgd import (
    AmbiguousFitError,
    EstimationError,
    Method,
    Params,
    Tolerance,
    cdf,
    dataset_from_counts,
    fit,
    fit_mle,
    fit_moments,
    fit_proportions,
    fit_quantiles,
    ingest,
    log_likelihood,
    moment_objective,
    pmf,
    sample_many,
    tail_bound,
)
from tgd.oracle import pmf_by_terms

P55 = Params(0.5, 0.5)


def population_dataset(params: Params, scale: float = 4.0):
    """Fractional-count histogram proportional to the exact pmf, truncated
    once the tail mass drops below 1e-12."""
    y_max = tail_bound(params, Tolerance(1e-12))
    return dataset_from_counts({y: scale * pmf(params, y) for y in range(y_max + 1)})


class TestIngest:
    def test_small_sample(self):
        ds = ingest([0, 0, 1])
        assert ds.counts == {0: 2.0, 1: 1.0}
        assert ds.n == 3
        assert ds.mean == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert ds.m2 == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_moments_cached(self):
        ds = ingest([0, 1, 2, 2])
        assert ds.mean == pytest.approx(1.25, abs=1e-15)
        assert ds.m2 == pytest.approx(2.25, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(EstimationError, match="empty"):
            ingest([])

    def test_negative_reports_index(self):
        with pytest.raises(EstimationError, match="index 2"):
            ingest([0, 1, -3])

    def test_non_integer_reports_index(self):
        with pytest.raises(EstimationError, match="index 1"):
            ingest([0, 1.5, 2])

    def test_integral_floats_accepted(self):
        assert ingest([0.0, 2.0]).counts == {0: 1.0, 2: 1.0}


class TestDatasetFromCounts:
    def test_fractional_counts(self):
        ds = dataset_from_counts({0: 0.5, 2: 1.5})
        assert ds.n == 2.0
        assert ds.mean == pytest.approx(1.5, abs=1e-15)

    def test_validation(self):
        with pytest.raises(EstimationError):
            dataset_from_counts({-1: 2.0})
        with pytest.raises(EstimationError):
            dataset_from_counts({0: -1.0})
        with pytest.raises(EstimationError):
            dataset_from_counts({0: 0.0})

    @pytest.mark.parametrize("counts", [
        {0: math.inf, 1: 1.0},  # once accepted with n = inf, mean = nan
        {0: 1, 1: 10**400},  # float(count) overflows
        {0: 1, 10**200: 1},  # the second moment overflows
        {0: math.nan},
    ], ids=["inf-count", "huge-count", "huge-value", "nan-count"])
    def test_overflowing_data_refused(self, counts):
        with pytest.raises(EstimationError):
            dataset_from_counts(counts)

    def test_values_up_to_2_63(self):
        ds = dataset_from_counts({0: 1, 2**63: 3})
        assert ds.n == 4.0 and ds.mean == 0.75 * 2.0**63 and ds.m2 == 0.75 * 2.0**126


class TestFitProportions:
    def test_interior_roundtrip(self):
        p = fit_proportions(0.625, 0.21875)
        assert p.q == pytest.approx(0.5, abs=1e-8)
        assert p.alpha == pytest.approx(0.5, abs=1e-8)

    def test_geometric(self):
        p = fit_proportions(0.5, 0.25)
        assert p.q == pytest.approx(0.5, abs=1e-8)
        assert p.alpha == pytest.approx(0.0, abs=1e-8)

    def test_min_case_reports_geometric_form(self):
        # stats of (0.5, alpha=1) equal those of the geometric law GD(0.25);
        # the fit reports the plain-geometric representation of that law
        p = fit_proportions(0.75, 0.1875)
        assert p.q == pytest.approx(0.25, abs=1e-8)
        assert p.alpha == pytest.approx(0.0, abs=1e-8)
        assert pmf(p, 0) == pytest.approx(pmf(Params(0.5, 1.0), 0), abs=1e-12)
        assert pmf(p, 1) == pytest.approx(pmf(Params(0.5, 1.0), 1), abs=1e-12)

    def test_preconditions(self):
        with pytest.raises(EstimationError):
            fit_proportions(0.0, 0.5)
        with pytest.raises(EstimationError):
            fit_proportions(0.7, 0.4)

    def test_inconsistent_pair(self):
        # nearly all mass on zero but a fat tail elsewhere fits no member
        with pytest.raises(EstimationError, match="inconsistent|ambiguous"):
            fit_proportions(0.98, 0.0001)

    def test_fold_region_is_ambiguous(self):
        # two distinct interior parameter pairs share these (p0, p1); the
        # solver must surface both rather than pick silently
        truth = Params(0.15, 0.8)
        with pytest.raises(AmbiguousFitError) as exc:
            fit_proportions(pmf(truth, 0), pmf(truth, 1))
        cands = exc.value.candidates
        assert len(cands) >= 2
        assert any(
            abs(c.q - truth.q) < 1e-6 and abs(c.alpha - truth.alpha) < 1e-6
            for c in cands
        )
        for c in cands:  # every candidate reproduces the inputs
            assert pmf(c, 0) == pytest.approx(pmf(truth, 0), abs=1e-9)
            assert pmf(c, 1) == pytest.approx(pmf(truth, 1), abs=1e-9)

    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.0, 0.3, 0.9])
    def test_exact_roundtrip_up_to_q_near_one(self, alpha):
        # the truth comes back, alone or among the candidates, up to
        # q = 1 - 1e-6, where q itself resolves 1 - q only to about 1e-10
        for s in np.geomspace(1e-6, 0.95, 40):
            truth = Params(1.0 - s, alpha)
            p0, p1 = pmf(truth, 0), pmf(truth, 1)
            try:
                cands = [fit_proportions(p0, p1)]
            except AmbiguousFitError as exc:
                cands = list(exc.candidates)
            assert any(abs((1.0 - c.q) - s) <= 1e-8 * s and abs(c.alpha - alpha) <= 1e-8
                       for c in cands), (s, cands)
            for c in cands:
                assert abs(pmf_by_terms(c, 0) - p0) <= 1e-12, (s, c)
                assert abs(pmf_by_terms(c, 1) - p1) <= 1e-12, (s, c)

    @pytest.mark.parametrize("q, bound", [(0.05, 1e-15), (1e-3, 1e-13)])
    def test_exact_roundtrip_at_small_q(self, q, bound):
        # the Newton polish runs on the cubic in q where q < 1/2, since the
        # cubic in 1 - q cancels there
        truth = Params(q, -1.0)
        p0, p1 = pmf(truth, 0), pmf(truth, 1)
        c = fit_proportions(p0, p1)
        assert c.q == pytest.approx(q, rel=1e-10)
        assert max(abs(pmf(c, 0) - p0), abs(pmf(c, 1) - p1)) <= bound

    def test_two_pairs_reproduce_q_near_one(self):
        truth = Params(0.9999, 0.5)
        with pytest.raises(AmbiguousFitError) as exc:
            fit_proportions(pmf(truth, 0), pmf(truth, 1))
        rival, found = exc.value.candidates
        assert found.q == pytest.approx(0.9999, abs=1e-12)
        assert found.alpha == pytest.approx(0.5, abs=1e-8)
        assert rival.q == pytest.approx(0.999875, abs=1e-6)
        assert rival.alpha == pytest.approx(0.2, abs=1e-4)


class TestFitQuantiles:
    def test_interior_roundtrip(self):
        p = fit_quantiles(0, 0.625, 1, 0.84375)
        assert p.q == pytest.approx(0.5, abs=1e-8)
        assert p.alpha == pytest.approx(0.5, abs=1e-8)

    def test_geometric(self):
        p = fit_quantiles(0, 0.5, 1, 0.75)
        assert p.q == pytest.approx(0.5, abs=1e-8)
        assert p.alpha == pytest.approx(0.0, abs=1e-8)

    def test_negative_alpha_roundtrip(self):
        truth = Params(0.5, -0.5)
        p = fit_quantiles(0, cdf(truth, 0), 1, cdf(truth, 1))
        assert p.q == pytest.approx(0.5, abs=1e-8)
        assert p.alpha == pytest.approx(-0.5, abs=1e-8)

    def test_agrees_with_proportions(self):
        # F(0) and F(1) carry the same information as (p0, p1)
        truth = Params(0.7, -0.3)
        a = fit_proportions(pmf(truth, 0), pmf(truth, 1))
        b = fit_quantiles(0, cdf(truth, 0), 1, cdf(truth, 1))
        assert a.q == pytest.approx(b.q, abs=1e-8)
        assert a.alpha == pytest.approx(b.alpha, abs=1e-8)

    @pytest.mark.parametrize("truth, t1, t2", [
        (Params(0.9, -0.8), 60, 120),
        (Params(0.99, -0.5), 300, 900),
    ])
    def test_underflowing_anchor_power_warns_nothing(self, truth, t1, t2):
        # q**(t1 + 1) underflows to 0 over the low end of the scanned q range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = fit_quantiles(t1, cdf(truth, t1), t2, cdf(truth, t2))
        assert p.q == pytest.approx(truth.q, abs=1e-8)
        assert p.alpha == pytest.approx(truth.alpha, abs=1e-8)

    def test_preconditions(self):
        with pytest.raises(EstimationError):
            fit_quantiles(1, 0.3, 1, 0.6)
        with pytest.raises(EstimationError):
            fit_quantiles(0, 0.6, 1, 0.3)
        with pytest.raises(EstimationError):
            fit_quantiles(-1, 0.3, 1, 0.6)


class TestMomentObjective:
    def test_zero_at_truth(self):
        assert moment_objective(P55, 2.0 / 3.0, 16.0 / 9.0) == pytest.approx(0.0, abs=1e-28)
        assert moment_objective(Params(0.5, 0.0), 1.0, 3.0) == pytest.approx(0.0, abs=1e-28)

    def test_self_consistency(self, small_grid):
        from tgd import raw_moment

        for p in small_grid:
            m1, m2 = raw_moment(p, 1), raw_moment(p, 2)
            assert moment_objective(p, m1, m2) == pytest.approx(0.0, abs=1e-20)


class TestFitMoments:
    def test_noiseless_interior(self):
        # (m1, m2) = (2/3, 16/9) has two exact preimages: (0.5, 0.5) and
        # (0.5829036315924..., 0.8278064245605...); the fit must surface both
        report = fit_moments(population_dataset(P55))
        assert report.method is Method.MOMENTS
        assert report.objective < 1e-12
        assert report.params.q == pytest.approx(0.5, abs=1e-5)
        assert report.params.alpha == pytest.approx(0.5, abs=1e-5)
        assert not report.converged
        assert len(report.alternatives) == 1
        companion = report.alternatives[0]
        assert companion.q == pytest.approx(0.5829036315924428, abs=1e-5)
        assert companion.alpha == pytest.approx(0.8278064245605038, abs=1e-5)

    def test_noiseless_geometric(self):
        report = fit_moments(population_dataset(Params(0.5, 0.0)))
        assert report.objective < 1e-12
        assert report.params.q == pytest.approx(0.5, abs=1e-5)
        assert report.params.alpha == pytest.approx(0.0, abs=1e-4)

    def test_min_case_reports_geometric_form(self):
        report = fit_moments(population_dataset(Params(0.5, 1.0)))
        assert report.objective < 1e-12
        assert report.params.q == pytest.approx(0.25, abs=1e-5)
        assert report.params.alpha == pytest.approx(0.0, abs=1e-4)

    def test_fold_region_reports_alternatives(self):
        truth = Params(0.1, 0.9)
        report = fit_moments(population_dataset(truth))
        assert not report.converged
        candidates = (report.params,) + report.alternatives
        assert len(candidates) >= 2
        assert any(
            abs(c.q - truth.q) < 1e-4 and abs(c.alpha - truth.alpha) < 1e-4
            for c in candidates
        )

    def test_monte_carlo_pinned(self):
        batch = sample_many(Params(0.6, -0.5), 10**5, 11)
        report = fit_moments(ingest(batch.values))
        assert abs(report.params.q - 0.6) < 0.02
        assert abs(report.params.alpha + 0.5) < 0.15

    def test_needs_two_observations(self):
        with pytest.raises(EstimationError):
            fit_moments(ingest([3]))


class TestLogLikelihood:
    def test_single_point(self):
        ds = ingest([0])
        assert log_likelihood(P55, ds) == pytest.approx(math.log(0.625), abs=1e-12)

    def test_geometric_form(self):
        ds = ingest([0, 1, 2, 5])
        q = 0.37
        want = 4 * math.log(1.0 - q) + sum(y * math.log(q) for y in (0, 1, 2, 5))
        assert log_likelihood(Params(q, 0.0), ds) == pytest.approx(want, abs=1e-10)

    def test_min_case(self):
        ds = ingest([2])
        assert log_likelihood(Params(0.5, 1.0), ds) == pytest.approx(
            math.log(0.046875), abs=1e-12
        )

    def test_coherent_with_pmf(self, small_grid):
        ds = ingest([0, 0, 1, 2, 3, 3, 7, 10])
        for p in small_grid:
            direct = sum(c * math.log(pmf(p, y)) for y, c in ds.counts.items())
            assert log_likelihood(p, ds) == pytest.approx(direct, abs=1e-10)


class TestFitMle:
    def test_population_recovery(self):
        report = fit_mle(population_dataset(P55))
        assert report.method is Method.MLE
        assert report.converged
        assert report.params.q == pytest.approx(0.5, abs=1e-4)
        assert report.params.alpha == pytest.approx(0.5, abs=1e-4)

    def test_objective_is_log_likelihood(self):
        ds = ingest(sample_many(P55, 2000, 5).values)
        report = fit_mle(ds)
        assert report.objective == pytest.approx(
            log_likelihood(report.params, ds), abs=1e-9
        )

    def test_dominates_fixed_point(self):
        ds = ingest(sample_many(P55, 10**4, 21).values)
        report = fit_mle(ds)
        assert report.objective >= log_likelihood(P55, ds)

    def test_all_zeros_hits_boundary(self):
        report = fit_mle(ingest([0] * 50))
        assert report.params.q <= 1e-6 + 1e-9
        assert report.converged
        assert "q" in report.boundary

    def test_needs_two_observations(self):
        with pytest.raises(EstimationError):
            fit_mle(ingest([0]))


class TestFitDispatcher:
    def test_proportions_from_dataset(self):
        # negative-alpha region: the (p0, p1) map is injective there, so
        # sampling noise cannot push the pair outside the model image
        batch = sample_many(Params(0.6, -0.5), 20000, 3)
        report = fit(ingest(batch.values), "proportions")
        assert report.method is Method.PROPORTIONS
        assert report.converged
        assert report.objective < 1e-9
        assert abs(report.params.q - 0.6) < 0.05

    def test_quantiles_from_dataset_default_anchors(self):
        batch = sample_many(Params(0.8, -0.5), 20000, 13)
        report = fit(ingest(batch.values), Method.QUANTILES)
        assert report.method is Method.QUANTILES
        assert abs(report.params.q - 0.8) < 0.05

    def test_quantiles_explicit_anchors(self):
        truth = Params(0.5, -0.5)
        ds = ingest([0, 1, 2])  # ignored by explicit anchors except for the report
        report = fit(ds, "quantiles", quantile_anchors=(0, cdf(truth, 0), 1, cdf(truth, 1)))
        assert report.params.q == pytest.approx(0.5, abs=1e-8)
        assert report.params.alpha == pytest.approx(-0.5, abs=1e-8)

    def test_log_likelihood_always_reported(self):
        ds = ingest(sample_many(Params(0.6, -0.5), 5000, 17).values)
        reports = [fit(ds, m) for m in Method]
        for r in reports:
            assert r.log_likelihood == pytest.approx(
                log_likelihood(r.params, ds), abs=1e-9
            )
        best = max(r.log_likelihood for r in reports)
        mle = next(r for r in reports if r.method is Method.MLE)
        assert mle.log_likelihood == pytest.approx(best, abs=1e-6)


def test_import_loads_no_scipy():
    # the fits solve their own roots; scipy is a test-only dependency, and
    # numpy.polynomial alone would add milliseconds to every import
    code = ("import sys, tgd, tgd.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))")
    env = dict(os.environ, PYTHONPATH=str(Path(tgd.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
