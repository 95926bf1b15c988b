"""Reference values and correctness checks for the benchmark's ops.

Every check compares an output of tgd against a value computed here along
a route that shares no closed form with the code under test:

* point masses come from ``tgd.oracle.pmf_by_terms`` (the literal
  two-term mixture sum);
* cdf and survival values come from cumulative sums of those masses for
  small y, and otherwise from the mixture of two geometric laws evaluated
  through ``expm1``/``exp`` of ``y*log(q)``;
* raw moments come from the Eulerian-polynomial moments of the geometric
  law, mixed with weights (1 - alpha, alpha) over GD(q) and GD(q**2);
* quantiles and modes are checked by their defining inequalities, and
  against ``tgd.oracle.oracle_quantile`` / ``oracle_mode`` where those
  brute-force scans are cheap.

A check returns ``None`` when the output is right and a one-line reason
otherwise.  Tolerances follow the conditioning of each quantity, so that a
correctly rounded result is never rejected.
"""

from __future__ import annotations

import math

from tgd import Params
from tgd.oracle import oracle_mode, oracle_quantile, pmf_by_terms

# the closed-form quantile treats cdf values within this distance of the
# level as having reached it (tgd.core._HIT_SLACK); the oracle does the same
HIT_SLACK = 1e-12
# absolute accuracy asked of a cdf value in [0, 1]
CDF_ABS = 1e-12
# relative accuracy asked of masses, tails, hazards and moments
REL = 1e-9
# cumulative sums are used as the cdf reference up to this y
CUMSUM_MAX_Y = 64
# brute-force oracles are used where their scan stays this short
ORACLE_MAX_SCAN = 800


def ref_cdf(q: float, a: float, y: int) -> float:
    """P(Y <= y) without the closed form of tgd.core.cdf."""
    if y < 0:
        return 0.0
    if y <= CUMSUM_MAX_Y:
        p = Params(q, a)
        return math.fsum(pmf_by_terms(p, k) for k in range(y + 1))
    # geometric cdf F = 1 - q**(y+1); the mixture (1-a)*F + a*(2F - F**2)
    # factors as F*(1 + a*(1 - F))
    x = (y + 1) * math.log(q)
    big_f = -math.expm1(x)
    return big_f * (1.0 + a * math.exp(x))


def ref_survival(q: float, a: float, y: int) -> float:
    """P(Y >= y) as the mixture of the geometric tails q**y and q**(2y)."""
    if y <= 0:
        return 1.0
    z = math.exp(y * math.log(q))
    return (1.0 - a) * z + a * z * z


def ref_pmf_scale(q: float, a: float, y: int) -> float:
    """Sum of the absolute mixture terms of P(Y = y): the scale of its
    rounding error."""
    z = math.exp(y * math.log(q))
    return abs(1.0 - a) * z * (1.0 - q) + abs(a) * z * z * (1.0 - q) * (1.0 + q)


def ref_hazard(q: float, a: float, y: int) -> float:
    """P(Y = y) / P(Y >= y) with the common factor q**y divided out."""
    if a == 1.0:
        return (1.0 - q) * (1.0 + q)  # GD(q**2) has the constant hazard 1 - q**2
    z = math.exp(y * math.log(q))
    return (1.0 - q) * ((1.0 - a) + a * z * (1.0 + q)) / ((1.0 - a) + a * z)


def ref_raw_moments(q: float, a: float) -> tuple[float, float, float, float]:
    """E[Y**k], k = 1..4, as (1-a)*m_k(GD(q)) + a*m_k(GD(q**2)).

    For GD(r) with mass (1-r)*r**y, E[Y**k] = r*A_k(r)/(1-r)**k with the
    Eulerian polynomials A_1 = 1, A_2 = 1 + r, A_3 = 1 + 4r + r**2 and
    A_4 = 1 + 11r + 11r**2 + r**3.
    """

    def geometric(r: float, one_minus_r: float) -> tuple[float, float, float, float]:
        eulerian = (1.0, 1.0 + r, 1.0 + r * (4.0 + r), 1.0 + r * (11.0 + r * (11.0 + r)))
        return tuple(r * e / one_minus_r ** (k + 1) for k, e in enumerate(eulerian))

    g1 = geometric(q, 1.0 - q)
    g2 = geometric(q * q, (1.0 - q) * (1.0 + q))
    return tuple((1.0 - a) * u + a * v for u, v in zip(g1, g2))


def _close(value: float, ref: float, abs_tol: float, rel_tol: float = 0.0) -> bool:
    return abs(value - ref) <= abs_tol + rel_tol * abs(ref)


def _mismatch(what: str, value, ref) -> str:
    return f"{what}: got {value!r}, reference {ref!r}"


# --------------------------------------------------------------------------
# evaluate: point requests


def check_pmf(q: float, a: float, y: int, value: float) -> str | None:
    ref = pmf_by_terms(Params(q, a), y)
    if not abs(value - ref) <= 1e-12 * ref_pmf_scale(q, a, y) + 1e-300:
        return _mismatch("pmf", value, ref)
    return None


def check_cdf(q: float, a: float, y: int, value: float) -> str | None:
    ref = ref_cdf(q, a, y)
    if not _close(value, ref, CDF_ABS):
        return _mismatch("cdf", value, ref)
    return None


def check_survival(q: float, a: float, y: int, value: float) -> str | None:
    if y <= CUMSUM_MAX_Y:
        ref = 1.0 - ref_cdf(q, a, y - 1)
        ok = _close(value, ref, CDF_ABS)
    else:
        ref = ref_survival(q, a, y)
        ok = _close(value, ref, 1e-300, REL)
    return None if ok else _mismatch("survival", value, ref)


def check_hazard(q: float, a: float, y: int, value: float) -> str | None:
    """The hazard is formed as 1 - ratio, so its error is absolute near
    1e-16.  Near underflow it is held to the precision of the ratio of the
    correctly rounded mass and tail, which are subnormal there."""
    ref = ref_hazard(q, a, y)
    rel = REL
    mass, tail = pmf_by_terms(Params(q, a), y), ref_survival(q, a, y)
    if mass > 0.0 and tail > 0.0:
        rel += min(1.0, math.ulp(0.0) * (1.0 / mass + 1.0 / tail))
    if not _close(value, ref, 1e-14, rel):
        return _mismatch("hazard", value, ref)
    return None


def check_reversed_hazard(q: float, a: float, y: int, value: float) -> str | None:
    c = ref_cdf(q, a, y)
    ref = pmf_by_terms(Params(q, a), y) / c
    # an absolute cdf error of CDF_ABS becomes a relative error CDF_ABS / cdf
    if not _close(value, ref, 1e-300, REL + CDF_ABS / c):
        return _mismatch("reversed_hazard", value, ref)
    return None


def check_quantile(q: float, a: float, p: float, value: int) -> str | None:
    """``value`` must be the smallest y with cdf(y) >= p (within the hit
    slack), and agree with the oracle where the oracle's scan is short."""
    if not isinstance(value, int) or value < 0:
        return f"quantile: {value!r} is not a support point"
    thr = p - min(HIT_SLACK, 0.5 * p)
    if ref_cdf(q, a, value) < thr - CDF_ABS:
        return f"quantile({p!r}) = {value}: cdf there is {ref_cdf(q, a, value)!r} < level"
    if value > 0 and ref_cdf(q, a, value - 1) >= thr + CDF_ABS:
        return f"quantile({p!r}) = {value}: cdf({value - 1}) already reaches the level"
    if value <= ORACLE_MAX_SCAN and q <= 0.99:
        ref = oracle_quantile(Params(q, a), p)
        if ref != value and abs(ref_cdf(q, a, min(ref, value)) - thr) > CDF_ABS:
            return _mismatch(f"quantile({p!r}) vs oracle_quantile", value, ref)
    return None


def check_mode(q: float, a: float, value: int) -> str | None:
    """``value`` must be a maximiser of the mass, the smaller one on a tie."""
    if not isinstance(value, int) or value < 0:
        return f"mode: {value!r} is not a support point"
    params = Params(q, a)
    here = pmf_by_terms(params, value)
    slack = 1e-12 * here
    if pmf_by_terms(params, value + 1) > here + slack:
        return f"mode = {value}: the mass still rises at {value + 1}"
    if value > 0 and pmf_by_terms(params, value - 1) > here + slack:
        return f"mode = {value}: the mass at {value - 1} is larger"
    if q <= 0.95:
        ref = oracle_mode(params)
        if ref != value and abs(pmf_by_terms(params, ref) - here) > slack:
            return _mismatch("mode vs oracle_mode", value, ref)
    return None


def check_hazard_class(q: float, a: float, hc) -> str | None:
    """Increasing for alpha < 0, constant for alpha in {0, 1}, decreasing
    otherwise; a constant class carries the hazard rate."""
    want = "increasing" if a < 0.0 else ("constant" if a in (0.0, 1.0) else "decreasing")
    if hc.behavior.value != want:
        return _mismatch("hazard_class", hc.behavior.value, want)
    if want == "constant" and not _close(hc.rate, ref_hazard(q, a, 0), 1e-14, REL):
        return _mismatch("hazard_class rate", hc.rate, ref_hazard(q, a, 0))
    return None


def check_moments(q: float, a: float, ms) -> str | None:
    """Mean, variance and raw moments 1..4 of a ``tgd.MomentSet``."""
    raw = ref_raw_moments(q, a)
    for k in range(4):
        if not _close(ms.raw[k], raw[k], 0.0, REL):
            return _mismatch(f"raw moment {k + 1}", ms.raw[k], raw[k])
    if not _close(ms.mean, raw[0], 0.0, REL):
        return _mismatch("mean", ms.mean, raw[0])
    var = raw[1] - raw[0] * raw[0]
    if not abs(ms.variance - var) <= REL * raw[1]:
        return _mismatch("variance", ms.variance, var)
    return None


def check_audit(result) -> str | None:
    """An audit request returns the closed forms next to the oracle's
    values; they must agree as ``tgd summary --audit`` requires."""
    closed_raw, med, mo, oracle_raw, oracle_med, oracle_mo = result
    for k in range(4):
        o = oracle_raw[k]
        if abs(closed_raw[k] - o) / max(1.0, abs(o)) > REL:
            return _mismatch(f"audit raw moment {k + 1}", closed_raw[k], o)
    if med != oracle_med:
        return _mismatch("audit median", med, oracle_med)
    if mo != oracle_mo:
        return _mismatch("audit mode", mo, oracle_mo)
    return None


# --------------------------------------------------------------------------
# fit and simulate


def log_likelihood(q: float, a: float, counts: dict[int, int]) -> float:
    """Count-weighted log likelihood from the literal two-term masses."""
    params = Params(q, a)
    return math.fsum(c * math.log(pmf_by_terms(params, y)) for y, c in counts.items())


def sample_moments(counts: dict[int, int]) -> tuple[float, float]:
    n = sum(counts.values())
    m1 = math.fsum(y * c for y, c in counts.items()) / n
    m2 = math.fsum(y * y * c for y, c in counts.items()) / n
    return m1, m2


def moment_objective(q: float, a: float, m1: float, m2: float) -> float:
    raw = ref_raw_moments(q, a)
    return (raw[0] - m1) ** 2 + (raw[1] - m2) ** 2


def _ll_tol(ll: float) -> float:
    return 1e-9 * abs(ll) + 1e-6


def check_reported_fit(record: dict, counts: dict[int, int]) -> str | None:
    """The reported parameters lie in the box and the reported log
    likelihood is the one at those parameters."""
    q, a = record["q"], record["alpha"]
    if not (0.0 < q < 1.0 and -1.0 <= a <= 1.0):
        return f"fit: ({q!r}, {a!r}) lies outside the parameter box"
    ll = log_likelihood(q, a, counts)
    if not abs(record["log_likelihood"] - ll) <= _ll_tol(ll):
        return _mismatch("fit log_likelihood at the reported parameters", record["log_likelihood"], ll)
    return None


def check_optimizing_fit(record: dict, counts: dict[int, int], gen: tuple[float, float]) -> str | None:
    """An mle fit must reach at least the likelihood of the generating
    parameters; a moments fit must reach at most their moment objective."""
    bad = check_reported_fit(record, counts)
    if bad:
        return bad
    q, a = record["q"], record["alpha"]
    if record["method"] == "mle":
        ll = log_likelihood(q, a, counts)
        if not abs(record["objective"] - ll) <= _ll_tol(ll):
            return _mismatch("mle objective", record["objective"], ll)
        ll_gen = log_likelihood(gen[0], gen[1], counts)
        if ll < ll_gen - _ll_tol(ll_gen):
            return f"mle: log likelihood {ll!r} below {ll_gen!r} at the generating parameters"
        return None
    m1, m2 = sample_moments(counts)
    scale = (1.0 + m2) ** 2
    obj = moment_objective(q, a, m1, m2)
    if not abs(record["objective"] - obj) <= 1e-6 * obj + 1e-12 * scale:
        return _mismatch("moments objective at the reported parameters", record["objective"], obj)
    obj_gen = moment_objective(gen[0], gen[1], m1, m2)
    if obj > obj_gen * (1.0 + 1e-6) + 1e-12 * scale:
        return f"moments: objective {obj!r} above {obj_gen!r} at the generating parameters"
    return None


def empirical_anchors(counts: dict[int, int]) -> tuple[int, float, int, float] | None:
    """Smallest values where the empirical cdf reaches 1/4 and 3/4, with
    the empirical cdf there; ``None`` when they coincide."""
    n = sum(counts.values())
    total = 0
    t1 = t2 = None
    p1 = p2 = 0.0
    for y in sorted(counts):
        total += counts[y]
        if t1 is None and total / n >= 0.25:
            t1, p1 = y, total / n
        if total / n >= 0.75:
            t2, p2 = y, total / n
            break
    if t1 is None or t2 is None or t1 == t2:
        return None
    return t1, p1, t2, p2


MATCH_TOL = 1e-8


def check_matching_fit(record: dict, counts: dict[int, int]) -> str | None:
    """A proportions fit reproduces the shares of 0 and 1; a quantiles fit
    reproduces the empirical cdf at its two default anchors."""
    bad = check_reported_fit(record, counts)
    if bad:
        return bad
    q, a = record["q"], record["alpha"]
    n = sum(counts.values())
    if record["method"] == "proportions":
        params = Params(q, a)
        for y in (0, 1):
            got = pmf_by_terms(params, y)
            want = counts.get(y, 0) / n
            if abs(got - want) > MATCH_TOL:
                return f"proportions: mass at {y} is {got!r}, sample share {want!r}"
        return None
    anchors = empirical_anchors(counts)
    if anchors is None:
        return "quantiles: a fit was reported although the default anchors coincide"
    t1, p1, t2, p2 = anchors
    for t, want in ((t1, p1), (t2, p2)):
        got = ref_cdf(q, a, t)
        if abs(got - want) > MATCH_TOL:
            return f"quantiles: cdf({t}) is {got!r}, empirical {want!r}"
    return None


# the matching scan: q on a logistic grid over tgd's box [1e-6, 1 - 1e-6],
# and recovered alpha this close to +-1 counts as admissible (as in tgd)
SCAN_POINTS = 4000
SCAN_LOGIT = math.log((1.0 - 1e-6) / 1e-6)
ALPHA_SLACK = 1e-9
SAME_LAW_TOL = 1e-9


def _mixture_cdf(q: float, a: float, t: int) -> float:
    """P(Y <= t) = F*(1 + a*(1 - F)) with the geometric cdf F, for any a."""
    big_f = -math.expm1((t + 1) * math.log(q))
    return big_f * (1.0 + a * (1.0 - big_f))


def _matching_equation(method: str, counts: dict[int, int]):
    """(alpha(q), residual(q)): the first statistic solved for alpha, and
    the miss of the second one at (q, alpha(q))."""
    n = sum(counts.values())
    if method == "proportions":
        p0, p1 = counts.get(0, 0) / n, counts.get(1, 0) / n

        def alpha(q):  # P(Y = 0) = (1 - q)*(1 + alpha*q)
            return (p0 / (1.0 - q) - 1.0) / q

        def residual(q):  # P(Y = 1) = (1 - q)*q*((1 - alpha) + alpha*q*(1 + q))
            a = alpha(q)
            return (1.0 - q) * q * ((1.0 - a) + a * q * (1.0 + q)) - p1

        return alpha, residual
    t1, p1, t2, p2 = empirical_anchors(counts)

    def alpha(q):
        f1 = -math.expm1((t1 + 1) * math.log(q))
        return (p1 / f1 - 1.0) / (1.0 - f1)

    def residual(q):
        return _mixture_cdf(q, alpha(q), t2) - p2

    return alpha, residual


def matching_solutions(method: str, counts: dict[int, int]) -> list[tuple[float, float]]:
    """Every distinct TGD(q, alpha) that reproduces the statistics of a
    matching fit: sign changes of the residual on a grid, each bisected to
    the last bit, keeping the roots whose alpha is admissible.  Two roots
    that name one law (TGD(q, 1) is TGD(q**2, 0)) count once."""
    alpha, residual = _matching_equation(method, counts)

    def value(q):
        try:
            return residual(q)
        except (ZeroDivisionError, OverflowError, ValueError):
            return math.nan

    qs = [1.0 / (1.0 + math.exp(-SCAN_LOGIT * (2.0 * i / SCAN_POINTS - 1.0))) for i in range(SCAN_POINTS + 1)]
    vs = [value(q) for q in qs]
    found: list[tuple[float, float]] = []
    for lo, hi, v_lo, v_hi in zip(qs, qs[1:], vs, vs[1:]):
        if math.isnan(v_lo) or math.isnan(v_hi) or (v_lo != 0.0 and (v_lo > 0.0) == (v_hi > 0.0)):
            continue
        while v_lo != 0.0:
            mid = 0.5 * (lo + hi)
            v_mid = value(mid) if lo < mid < hi else math.nan
            if math.isnan(v_mid):
                break
            if v_mid != 0.0 and (v_mid > 0.0) == (v_lo > 0.0):
                lo, v_lo = mid, v_mid
            else:
                hi, v_hi = mid, v_mid
        q = lo if abs(v_lo) <= abs(v_hi) else hi
        a = alpha(q)
        if abs(a) <= 1.0 + ALPHA_SLACK:
            found.append((q, max(-1.0, min(1.0, a))))
    distinct: list[tuple[float, float]] = []
    for q, a in found:
        if not any(all(abs(_mixture_cdf(q, a, t) - _mixture_cdf(q2, a2, t)) <= SAME_LAW_TOL
                       for t in (0, 1, 2, 5, 13))
                   for q2, a2 in distinct):
            distinct.append((q, a))
    return distinct


def check_matching_refusal(method: str, message: str, counts: dict[int, int]) -> str | None:
    """A refused matching fit is right only when the sample warrants it:
    statistics out of range (a zero share, p0 + p1 >= 1, or coinciding
    quantile anchors), no admissible pair reproducing them (inconsistent),
    or more than one (ambiguous), as :func:`matching_solutions` finds."""
    n = sum(counts.values())
    if method == "proportions":
        p0, p1 = counts.get(0, 0) / n, counts.get(1, 0) / n
        if p0 == 0.0 or p1 == 0.0 or p0 + p1 >= 1.0:
            return None
    elif empirical_anchors(counts) is None:
        return None
    found = matching_solutions(method, counts)
    if "inconsistent" in message:
        return None if not found else f"{method}: refused as inconsistent, but {found[0]!r} reproduces them"
    if "ambiguous" in message:
        return None if len(found) > 1 else f"{method}: refused as ambiguous, but the scan finds {found!r}"
    return f"{method}: refused a fit the sample admits: {message}"


def inverse_draw_ok(q: float, a: float, u: float, value: int) -> bool:
    """``value`` is the smallest y with cdf(y) >= u (0 for u = 0)."""
    if u == 0.0:
        return value == 0
    thr = u - min(HIT_SLACK, 0.5 * u)
    if ref_cdf(q, a, value) < thr - CDF_ABS:
        return False
    return value == 0 or ref_cdf(q, a, value - 1) < thr + CDF_ABS


def geometric_draw(q: float, u: float) -> int:
    """GD(q) variate for one uniform: the g with q**(g+1) < 1 - u <= q**g."""
    if u <= 0.0:
        return 0
    tail = 1.0 - u
    g = max(0, int(math.log(tail) / math.log(q)))
    while q ** (g + 1) >= tail * (1.0 + 1e-12):
        g += 1
    while g > 0 and q**g < tail * (1.0 - 1e-12):
        g -= 1
    return g


def replay_bridge(q: float, a: float, uniforms, positions) -> dict[int, int]:
    """Replay the bridge sampler's use of the stream: one branch uniform,
    then one uniform for a single geometric draw (probability 1 - |alpha|)
    or two for a pair, of which the minimum (alpha >= 0) or maximum is
    emitted.  Returns the expected value at each wanted position."""
    wanted = set(positions)
    out: dict[int, int] = {}
    single_weight = 1.0 - abs(a)
    it = iter(uniforms)
    last = max(wanted)
    for i in range(last + 1):
        branch = next(it)
        if branch < single_weight:
            comps = (next(it),)
        else:
            comps = (next(it), next(it))
        if i in wanted:
            draws = [geometric_draw(q, u) for u in comps]
            value = draws[0] if len(draws) == 1 else (min(draws) if a >= 0.0 else max(draws))
            out[i] = value
    return out
