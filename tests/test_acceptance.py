"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite finishes on one desk machine in a few minutes.
"""

import io
import json
import math
import statistics
import time
from contextlib import redirect_stdout

import pytest
from scipy.stats import chi2

from _printed_variants import (
    variant_factorial_cumulant,
    variant_fourth_factorial_moment,
    variant_pgf_single_fraction,
    variant_second_factorial_moment,
    variant_second_raw_moment,
    variant_variance,
)
from conftest import GRID_Q
from tgd import (
    AmbiguousFitError,
    Params,
    Tolerance,
    cdf,
    central_moment,
    dataset_from_counts,
    factorial_moment,
    fit_mle,
    fit_moments,
    fit_proportions,
    fit_quantiles,
    from_continuous_rate,
    hazard,
    ingest,
    kurtosis_beta2,
    log_likelihood,
    mode,
    oracle_mode,
    oracle_quantile,
    oracle_sum,
    pmf,
    quantile,
    raw_moment,
    sample_many,
    skewness_beta1,
    survival,
    tail_bound,
    transmuted_exponential_cdf,
)
from tgd.cli import main as cli_main


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_01_normalization_and_consistency(grid):
    start = time.perf_counter()
    ok = True
    for p in grid:
        y_max = tail_bound(p, Tolerance(1e-10))
        total = math.fsum(pmf(p, y) for y in range(y_max + 1))
        ok &= 1.0 - 1e-10 <= total <= 1.0
        for y in range(201):
            ok &= abs(pmf(p, y) - (cdf(p, y) - cdf(p, y - 1))) < 1e-12
            ok &= abs(survival(p, y) - (1.0 - cdf(p, y - 1))) < 1e-12
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(1, "normalization & consistency", ok, f"{elapsed:.1f}s")


def test_criterion_02_particular_cases():
    ok = True
    for q in GRID_Q:
        plain = Params(q, 0.0)
        lower = Params(q, 1.0)
        upper = Params(q, -1.0)
        for y in range(201):
            geo = (1.0 - q) * q**y
            ok &= abs(pmf(plain, y) - geo) < 1e-12
            ok &= abs(cdf(plain, y) - (1.0 - q ** (y + 1))) < 1e-12
            ok &= abs(hazard(plain, y) - (1.0 - q)) < 1e-12
            q2 = q * q
            ok &= abs(pmf(lower, y) - (1.0 - q2) * q2**y) < 1e-12
            ok &= abs(cdf(lower, y) - (1.0 - q2 ** (y + 1))) < 1e-12
            ok &= abs(hazard(lower, y) - (1.0 - q2)) < 1e-12
            max_two = (1.0 - q ** (y + 1)) ** 2 - (1.0 - q**y) ** 2
            ok &= abs(pmf(upper, y) - max_two) < 1e-12
    _report(2, "particular-case reductions", ok)


def test_criterion_03_mode_threshold():
    ok = True
    for q in (0.45, 0.6, 0.75, 0.9):
        thr = -1.0 / (q * (2.0 + q))
        below = [max(-1.0, thr - d) for d in (1e-6, 1e-3, 0.02)] + [
            -1.0, (thr - 1.0) / 2.0
        ]
        above = [min(1.0, thr + d) for d in (1e-6, 1e-3, 0.02)] + [0.0, 0.5, 1.0]
        for a in below:
            if a < thr - 1e-9:
                p = Params(q, a)
                ok &= mode(p) >= 1
                ok &= mode(p) == oracle_mode(p)
        for a in above:
            if a > thr + 1e-9:
                p = Params(q, a)
                ok &= mode(p) == 0
                ok &= oracle_mode(p) == 0
    _report(3, "unimodality threshold", ok)


def test_criterion_04_transmuted_exponential_equivalence(grid):
    ok = True
    for p in grid:
        beta = -math.log(p.q)
        for y in range(101):
            inc = transmuted_exponential_cdf(
                y + 1.0, beta, p.alpha
            ) - transmuted_exponential_cdf(float(y), beta, p.alpha)
            ok &= abs(pmf(p, y) - inc) < 1e-12
        ok &= from_continuous_rate(beta, p.alpha).q == pytest.approx(p.q, abs=1e-15)
    _report(4, "discretized transmuted exponential", ok)


def test_criterion_05_moment_pipeline(grid):
    ok = True
    worst = 0.0
    for p in grid:
        mean = factorial_moment(p, 1)
        checks = []
        for r in (1, 2, 3, 4):
            # weights act on float64 arrays of support points; a falling
            # factorial y(y-1)...(y-r+1) has a zero factor wherever y < r
            oracle_fm = oracle_sum(p, lambda y, r=r: math.prod(y - k for k in range(r)))
            checks.append((factorial_moment(p, r), oracle_fm))
            checks.append((raw_moment(p, r), oracle_sum(p, lambda y, r=r: y**r)))
        mu = {
            r: oracle_sum(p, lambda y, r=r, m=mean: (y - m) ** r) for r in (2, 3, 4)
        }
        for r in (2, 3, 4):
            checks.append((central_moment(p, r), mu[r]))
        checks.append((skewness_beta1(p), mu[3] ** 2 / mu[2] ** 3))
        checks.append((kurtosis_beta2(p), mu[4] / mu[2] ** 2))
        for got, want in checks:
            rel = abs(got - want) / max(abs(want), 1e-300)
            worst = max(worst, rel)
            ok &= rel <= 1e-9

    # erratum audit: these variants must agree ...
    for p in grid:
        ok &= abs(variant_second_raw_moment(p.q, p.alpha) - raw_moment(p, 2)) <= 1e-6 * max(
            1.0, raw_moment(p, 2)
        )
        ok &= abs(
            variant_second_factorial_moment(p.q, p.alpha) - factorial_moment(p, 2)
        ) <= 1e-6 * max(1.0, factorial_moment(p, 2))
    # ... and these must keep deviating (pinned errata)
    p55 = Params(0.5, 0.5)
    ok &= abs(variant_fourth_factorial_moment(0.5, 0.5) - factorial_moment(p55, 4)) > 1e-6
    ok &= abs(variant_variance(0.5, 0.5) - central_moment(p55, 2)) > 1e-6
    ok &= abs(variant_pgf_single_fraction(0.5, 0.5, 0.0) - pmf(p55, 0)) > 1e-6
    kappa2 = factorial_moment(p55, 2) - factorial_moment(p55, 1) ** 2
    ok &= abs(variant_factorial_cumulant(0.5, 0.5, 2) - kappa2) > 1e-6
    _report(5, "moment pipeline vs oracle + erratum audit", ok, f"worst rel {worst:.1e}")


def test_criterion_06_overdispersion(grid):
    ok = True
    for p in grid:
        iod = central_moment(p, 2) / factorial_moment(p, 1)
        ok &= iod > 1.0 + 1e-12
    _report(6, "overdispersion", ok)


def test_criterion_07_quantiles(grid):
    ok = True
    for p in grid:
        for k in range(1, 100):
            level = k / 100.0
            ok &= quantile(p, level) == oracle_quantile(p, level)
    pinned = Params(0.9, -0.5)
    ok &= quantile(pinned, 0.5) == 9
    ok &= quantile(Params(0.5, 0.0), 0.5) == 0  # degenerate alpha = 0 branch
    _report(7, "closed-form quantile vs scan oracle", ok)


def test_criterion_08_hazard_classification(grid):
    ok = True
    for p in grid:
        h = [hazard(p, y) for y in range(102)]
        diffs = [h[y + 1] - h[y] for y in range(101)]
        if p.alpha == 0.0:
            ok &= all(abs(v - (1.0 - p.q)) < 1e-12 for v in h)
        elif p.alpha == 1.0:
            ok &= all(abs(v - (1.0 - p.q * p.q)) < 1e-12 for v in h)
        elif p.alpha < 0.0:
            # strictly increasing at the head; once increments fall below
            # double resolution the sequence may wiggle by an ulp, so the
            # sign check carries the library's round-off slack
            ok &= diffs[0] > 0.0
            ok &= all(d >= -1e-15 for d in diffs)
        else:
            ok &= diffs[0] < 0.0
            ok &= all(d <= 1e-15 for d in diffs)
    _report(8, "hazard monotonicity & constants", ok)


def _chi_square_pass(params: Params, values, significance=1e-3) -> bool:
    n = len(values)
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    k = 0
    while n * pmf(params, k) >= 10.0:
        k += 1
    expected = [n * pmf(params, y) for y in range(k)]
    observed = [counts.get(y, 0) for y in range(k)]
    tail_e = n * (1.0 - cdf(params, k - 1)) if k > 0 else float(n)
    tail_o = n - sum(observed)
    if k > 0 and tail_e < 10.0:
        expected[-1] += tail_e
        observed[-1] += tail_o
    else:
        expected.append(tail_e)
        observed.append(tail_o)
    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    return stat < chi2.ppf(1.0 - significance, len(expected) - 1)


def _ks_two_sample(xs, ys) -> float:
    n, m = len(xs), len(ys)
    cx, cy = {}, {}
    for v in xs:
        cx[v] = cx.get(v, 0) + 1
    for v in ys:
        cy[v] = cy.get(v, 0) + 1
    d = ax = ay = 0.0
    for s in sorted(set(cx) | set(cy)):
        ax += cx.get(s, 0)
        ay += cy.get(s, 0)
        d = max(d, abs(ax / n - ay / m))
    return d


def test_criterion_09_samplers():
    ok = True
    n = 10**5
    params_set = [
        Params(q, a) for q in (0.2, 0.5, 0.8) for a in (-1.0, -0.5, 0.5, 1.0)
    ]
    ks_critical = math.sqrt(-0.5 * math.log(1e-3 / 2.0)) * math.sqrt(2.0 / n)
    for i, p in enumerate(params_set):
        inv = sample_many(p, n, 20260 + i, "inverse").values
        br = sample_many(p, n, 30260 + i, "bridge").values
        ok &= _chi_square_pass(p, inv)
        ok &= _chi_square_pass(p, br)
        ok &= _ks_two_sample(inv, br) < ks_critical
    _report(9, "sampler goodness-of-fit & agreement", ok)


def _matches(c: Params, q: float, a: float, tol: float) -> bool:
    return abs(c.q - q) <= tol and abs(c.alpha - a) <= tol


def _roundtrip_matching(fitter, truth: Params, tol: float) -> bool:
    """Noiseless inversion must recover the seeded parameters, their
    canonical geometric twin when alpha = 1, or report a verified ambiguity
    whose candidate list contains the truth."""
    try:
        got = fitter()
    except AmbiguousFitError as exc:
        return any(_matches(c, truth.q, truth.alpha, tol) for c in exc.candidates)
    if truth.alpha == 1.0:
        return _matches(got, truth.q**2, 0.0, tol)
    return _matches(got, truth.q, truth.alpha, tol)


def test_criterion_10_estimators(grid):
    ok = True

    # noiseless proportion / cdf-point round-trips over the whole grid
    for truth in grid:
        p0, p1 = pmf(truth, 0), pmf(truth, 1)
        ok &= _roundtrip_matching(lambda: fit_proportions(p0, p1), truth, 1e-8)
        c0, c1 = cdf(truth, 0), cdf(truth, 1)
        ok &= _roundtrip_matching(
            lambda: fit_quantiles(0, c0, 1, c1), truth, 1e-8
        )

    # noiseless moment inversion for q <= 0.9; fold points must surface the
    # truth among the reported candidates
    for truth in grid:
        if truth.q > 0.9:
            continue
        y_max = tail_bound(truth, Tolerance(1e-12))
        ds = dataset_from_counts({y: 4.0 * pmf(truth, y) for y in range(y_max + 1)})
        report = fit_moments(ds)
        candidates = (report.params,) + report.alternatives
        if truth.alpha == 1.0:
            ok &= any(_matches(c, truth.q**2, 0.0, 1e-4) for c in candidates)
        else:
            ok &= any(_matches(c, truth.q, truth.alpha, 1e-4) for c in candidates)

    # MLE consistency smoke: 20 pinned seeds at n = 1e4
    truth = Params(0.6, -0.5)
    dq, da = [], []
    for s in range(20):
        batch = sample_many(truth, 10**4, 100 + s)
        rep = fit_mle(ingest(batch.values))
        dq.append(abs(rep.params.q - 0.6))
        da.append(abs(rep.params.alpha + 0.5))
    ok &= statistics.median(dq) < 0.01
    ok &= statistics.median(da) < 0.1

    # pinned MLE at n = 1e5
    truth = Params(0.5, 0.5)
    ds = ingest(sample_many(truth, 10**5, 7).values)
    rep = fit_mle(ds)
    ok &= abs(rep.params.q - 0.5) < 0.01
    ok &= abs(rep.params.alpha - 0.5) < 0.08
    ok &= rep.objective >= log_likelihood(truth, ds)
    _report(10, "estimator round-trips & pinned fits", ok)


def _run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def test_criterion_11_cli_determinism(tmp_path):
    ok = True
    data = tmp_path / "sampled.txt"
    cases = [
        ["eval", "--q", "0.5", "--alpha", "0.5", "--y", "2"],
        ["table", "--q", "0.7", "--alpha", "-0.3", "--ymax", "25"],
        ["sample", "--q", "0.5", "--alpha", "0.5", "--n", "200", "--seed", "11"],
        ["summary", "--q", "0.9", "--alpha", "-0.5"],
    ]
    for argv in cases:
        code1, out1 = _run_cli(argv)
        code2, out2 = _run_cli(argv)
        ok &= code1 == 0 and code2 == 0 and out1 == out2

    # sample | fit round-trip without reformatting, twice, byte-identical
    code, out = _run_cli(
        ["sample", "--q", "0.5", "--alpha", "0.5", "--n", "20000", "--seed", "7"]
    )
    ok &= code == 0
    data.write_text(out)
    fit_argv = ["fit", "--input", str(data), "--method", "mle"]
    code1, fit1 = _run_cli(fit_argv)
    code2, fit2 = _run_cli(fit_argv)
    ok &= code1 == 0 and code2 == 0 and fit1 == fit2
    rec = json.loads(fit1)
    ok &= abs(rec["q"] - 0.5) < 0.05 and abs(rec["alpha"] - 0.5) < 0.25
    _report(11, "CLI determinism & round-trip", ok)
