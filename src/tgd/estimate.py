"""Parameter estimation for TGD(q, alpha) from samples of non-negative integers.

Four procedures are implemented:

* proportions  -- match the observed fractions of zeros and ones;
* quantiles    -- match the cdf at two observed points;
* moments      -- least-squares match of the first two raw moments;
* mle          -- maximize the log likelihood.

The first two reduce to one-dimensional root-finding because both defining
equations are linear in alpha: for proportions what is left is a cubic in
1 - q, whose turning point splits (0, 1) into two monotone pieces with at
most one root each.  The last two set alpha to its optimum for each q and
find the stationary points of the resulting profile curve.  For moments
these are in closed form: in t = q/(1 - q) they are roots of four
polynomials, found as eigenvalues, with no scan.  The quantile residual and
the likelihood's profile slope are array functions of q, scanned on a grid
over [1e-6, 1-1e-6].  Every bracket, the proportions cubic's included, is
narrowed by one refiner (false position with the Illinois halving) that
evaluates its function once per pass for every bracket.

Identifiability caveats, handled explicitly rather than silently:

* alpha = 1 describes the same distribution as (q**2, alpha=0), so fits on
  data from either always report the plain-geometric representation.
* Neither (p0, p1) nor (m1, m2) pins down (q, alpha) everywhere: there is a
  fold region where two distinct interior parameter pairs reproduce the same
  pair of statistics exactly.  The matching fits raise AmbiguousFitError
  carrying every candidate; the optimizing fits return the best point with
  ``converged=False`` and the rivals in ``FitReport.alternatives``.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import Params, _cdf_at, _pmf_at
from .moments import _factorial_moment_at

__all__ = [
    "EstimationError",
    "AmbiguousFitError",
    "Dataset",
    "Method",
    "FitReport",
    "ingest",
    "dataset_from_counts",
    "fit_proportions",
    "fit_quantiles",
    "moment_objective",
    "fit_moments",
    "log_likelihood",
    "fit_mle",
    "fit",
    "empirical_cdf_anchors",
]

Q_BOX = (1e-6, 1.0 - 1e-6)
ALPHA_BOX = (-1.0, 1.0)
_SCAN_PANELS = 1000
_ROOT_XTOL = 1e-13
_ROOT_PASSES = 100  # guard on the bracket refiner; bisection alone needs 34
_ALPHA_CLAMP = 1e-9  # recovered alpha this close to +-1 is clamped, not rejected
_BOUNDARY_TOL = 1e-9
_DUALITY_TOL = 1e-6
_DIP_TOL = 1e-4  # residual dips this small are inspected for tangent roots
_TANGENT_TOL = 1e-11  # a refined dip this close to zero counts as a root
_NEWTON_MAXITER = 100
_ALPHA_XTOL = 1e-15


class EstimationError(ValueError):
    """The data cannot be explained, or preconditions are violated."""


class AmbiguousFitError(EstimationError):
    """More than one admissible parameter pair reproduces the inputs exactly.

    ``candidates`` lists every solution found, ordered by increasing alpha.
    """

    def __init__(self, message: str, candidates: Sequence[Params]):
        super().__init__(message)
        self.candidates = tuple(candidates)


# --------------------------------------------------------------------------
# datasets


@dataclass(frozen=True)
class Dataset:
    """Count histogram of a sample with cached raw-moment statistics.

    ``counts`` maps value -> multiplicity.  Multiplicities are floats so that
    population histograms (exact pmf weights) can be fitted; real data always
    arrives through :func:`ingest`, which keeps them integral.
    """

    counts: Mapping[int, float]
    n: float
    mean: float
    m2: float


def ingest(values: Iterable[int]) -> Dataset:
    """Build a dataset from raw observations, validating each distinct one.

    A one-dimensional integer ndarray is tallied in one ``np.unique`` pass.
    """
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iu":
        if not values.size:
            raise EstimationError("cannot ingest an empty sample")
        negative = np.flatnonzero(values < 0)
        if negative.size:
            i = int(negative[0])
            raise EstimationError(f"negative value {values[i].item()!r} at index {i}")
        distinct, counts = np.unique(values, return_counts=True)
        return dataset_from_counts(dict(zip(distinct.tolist(), counts.tolist())))
    seq = list(values)
    if not seq:
        raise EstimationError("cannot ingest an empty sample")
    counts: dict[int, int] = {}
    for v, c in Counter(seq).items():  # in order of first occurrence
        try:
            iv = operator.index(v)
        except TypeError:
            fv = float(v)
            if not fv.is_integer():
                raise EstimationError(
                    f"non-integer value {v!r} at index {seq.index(v)}"
                ) from None
            iv = int(fv)
        if iv < 0:
            raise EstimationError(f"negative value {v!r} at index {seq.index(v)}")
        counts[iv] = counts.get(iv, 0) + c
    return dataset_from_counts(counts)


def dataset_from_counts(counts: Mapping[int, float]) -> Dataset:
    """Build a dataset from a value -> count map; counts may be fractional.

    Non-finite counts, and data whose count total, mean or second moment
    overflow a float, are refused rather than carried as inf or nan.
    """
    clean: dict[int, float] = {}
    for value, count in counts.items():
        iv = operator.index(value)
        if iv < 0:
            raise EstimationError(f"negative value {value!r} in counts")
        try:
            c = float(count)
        except OverflowError:
            c = math.inf
        if not 0.0 <= c < math.inf:
            raise EstimationError(f"count for value {value!r} must be finite and >= 0, got {c!r}")
        if c > 0.0:
            clean[iv] = clean.get(iv, 0.0) + c
    if not clean:
        raise EstimationError("counts hold no mass")
    try:
        n = math.fsum(clean.values())
        mean = math.fsum(y * c for y, c in clean.items()) / n
        m2 = math.fsum(y * y * c for y, c in clean.items()) / n
    except OverflowError:
        n = mean = m2 = math.inf
    if not all(map(math.isfinite, (n, mean, m2))):
        raise EstimationError("the count total, mean or second moment of the data overflows a float")
    return Dataset(counts=dict(sorted(clean.items())), n=n, mean=mean, m2=m2)


class Method(Enum):
    PROPORTIONS = "proportions"
    QUANTILES = "quantiles"
    MOMENTS = "moments"
    MLE = "mle"


@dataclass(frozen=True)
class FitReport:
    """Estimation outcome.

    ``objective`` is the final residual magnitude (matching fits), sum of
    squared moment errors (moments) or log likelihood (mle);
    ``log_likelihood`` is always evaluated at the fitted parameters so
    methods can be compared.  ``iterations`` counts the q at which the
    residual or the profile curve was evaluated: for quantiles and mle the
    scan nodes and the refinement points, and for mle also the candidate
    optima.  For moments it counts the candidates: the box ends and the
    polynomial roots in the box.  For proportions it counts the evaluations
    of the cubic: the box ends, the turning point, the refinement points and
    one Newton step per root.
    ``boundary`` names parameters that ended on the search box edge.  Optima
    tying the best are ordered by increasing alpha: ``params`` is the first
    and ``alternatives`` holds the distribution-distinct rest.
    """

    params: Params
    method: Method
    objective: float
    converged: bool
    iterations: int
    log_likelihood: float
    boundary: tuple[str, ...] = ()
    alternatives: tuple[Params, ...] = ()


# --------------------------------------------------------------------------
# matching fits: 1-D root finding after eliminating alpha


def _refine(f, lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray, f_hi: np.ndarray) -> list[float]:
    """One root of the array function ``f`` inside each bracket [lo, hi],
    where ``f_lo`` and ``f_hi`` have opposite signs: the point of smallest
    |f| among those evaluated.

    False position with the Illinois halving (Dowell & Jarratt, BIT 11,
    1971), run on every bracket at once: each pass evaluates ``f`` once, at
    one point per bracket still wider than ``_ROOT_XTOL``.  A step that
    leaves its bracket or is not finite falls back to the midpoint, one
    that lands within ``_ROOT_XTOL / 2`` of an end is held that far inside,
    and an end kept twice running has its value halved, so both ends close
    in.  A point where ``f`` is 0 or nan ends its bracket there.
    """
    lo, hi, f_lo, f_hi = lo.tolist(), hi.tolist(), f_lo.tolist(), f_hi.tolist()
    best = [(abs(fa), a) if abs(fa) <= abs(fb) else (abs(fb), b)
            for a, b, fa, fb in zip(lo, hi, f_lo, f_hi)]
    moved = [0] * len(lo)  # the end the last pass moved: -1 lo, +1 hi
    live = [i for i in range(len(lo)) if hi[i] - lo[i] > _ROOT_XTOL]
    for _ in range(_ROOT_PASSES):
        if not live:
            break
        xs = []
        for i in live:
            a, b, fa, fb = lo[i], hi[i], f_lo[i], f_hi[i]
            x = a - fa * (b - a) / (fb - fa)
            if a <= x <= b:
                xs.append(min(max(x, a + _ROOT_XTOL / 2), b - _ROOT_XTOL / 2))
            else:
                xs.append(0.5 * (a + b))
        for i, x, fx in zip(live, xs, f(np.array(xs)).tolist()):
            best[i] = min(best[i], (abs(fx), x))
            if fx * f_lo[i] > 0.0:
                if moved[i] == -1:
                    f_hi[i] *= 0.5
                lo[i], f_lo[i], moved[i] = x, fx, -1
            elif fx * f_hi[i] > 0.0:
                if moved[i] == 1:
                    f_lo[i] *= 0.5
                hi[i], f_hi[i], moved[i] = x, fx, 1
            else:
                lo[i] = hi[i] = x
        live = [i for i in live if hi[i] - lo[i] > _ROOT_XTOL]
    return [x for _, x in best]


def _panel_roots(f) -> tuple[list[float], int]:
    """Sorted roots in ``Q_BOX`` of the array function ``f``, scanned on
    ``_SCAN_PANELS`` equal panels, and the number of q at which ``f`` was
    evaluated.  A non-finite value of ``f`` reads as nan."""
    evaluated = 0

    def g(x: np.ndarray) -> np.ndarray:
        nonlocal evaluated
        if not len(x):
            return x
        evaluated += len(x)
        with np.errstate(all="ignore"):
            v = np.asarray(f(x), dtype=float)
        return np.where(np.isfinite(v), v, np.nan)

    def slope(x: np.ndarray) -> np.ndarray:
        # central difference; the step balances rounding against truncation
        # (cube root of double epsilon), clamped so the stencil stays inside
        # the open unit interval
        h = np.minimum(6e-6, np.minimum(x, 1.0 - x) / 2.0)
        v = g(np.concatenate([x + h, x - h]))
        return (v[:len(x)] - v[len(x):]) / (2.0 * h)

    qs = np.linspace(*Q_BOX, _SCAN_PANELS + 1)
    vals = g(qs)
    roots = qs[vals == 0.0].tolist()
    # signs are compared, not products, which can overflow; nan has none
    cross = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0)
    roots += _refine(g, qs[cross], qs[cross + 1], vals[cross], vals[cross + 1])

    # a same-sign dip of the residual toward zero marks either a tangent
    # (double) root or a root pair inside one panel; the plain sign scan sees
    # neither, so refine the extremum of every such dip: the root of the
    # slope, well-conditioned even at a double root, or the node itself
    # where the slope keeps its sign across the window
    va, vm, vb = vals[:-2], vals[1:-1], vals[2:]
    dip = (np.abs(vm) < _DIP_TOL) & (np.abs(vm) <= np.abs(va)) & (np.abs(vm) <= np.abs(vb))
    i = np.flatnonzero(dip & (np.sign(va) * np.sign(vm) > 0.0) & (np.sign(vm) * np.sign(vb) > 0.0)) + 1
    lo, ext, hi = qs[i - 1], qs[i], qs[i + 1]
    s_lo, s_hi = np.split(slope(np.concatenate([lo, hi])), 2)
    turns = np.sign(s_lo) * np.sign(s_hi) < 0.0
    ext[turns] = _refine(slope, lo[turns], hi[turns], s_lo[turns], s_hi[turns])
    f_ext = g(ext)
    # a refined dip this close to zero is a tangent (double) root, possibly
    # with a crossing below float noise; one that crosses zero holds two
    # simple roots
    tangent = np.abs(f_ext) <= _TANGENT_TOL
    roots += ext[tangent].tolist()
    j = np.flatnonzero(~tangent & (np.sign(f_ext) * np.sign(vals[i]) < 0.0))
    roots += _refine(g, np.concatenate([lo[j], ext[j]]), np.concatenate([ext[j], hi[j]]),
                     np.concatenate([vals[i[j] - 1], f_ext[j]]),
                     np.concatenate([f_ext[j], vals[i[j] + 1]]))

    # collapse duplicated detections of one root (a node evaluating to a few
    # ulps of noise can flip sign twice)
    return _distinct(roots, atol=1e-7), evaluated


def _distinct(qs, atol: float = 0.0, rtol: float = 0.0) -> list[float]:
    """qs in increasing order, each dropped that lies within atol + rtol*q
    of the one before it."""
    qs = sorted(qs)
    return [q for i, q in enumerate(qs) if i == 0 or q - qs[i - 1] > atol + rtol * q]


def _without_twins(cands: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Drop each (q, alpha = 1) whose twin (q**2, 0), the same distribution,
    lies in the box, unless that leaves nothing.  A search over the box meets
    the twin there, and the plain-geometric form wins."""
    return [c for c in cands if c[1] < 1.0 - _DUALITY_TOL or c[0] ** 2 < Q_BOX[0]] or cands


def _solve_matching(roots: list[float], evaluated: int, alpha_of_q, kind: str) -> tuple[Params, int]:
    # every (q, alpha) with q among the roots and admissible alpha;
    # alpha_of_q takes an array of q
    with np.errstate(all="ignore"):
        alphas = alpha_of_q(np.array(roots))
    candidates = [(q, min(1.0, max(-1.0, float(a))))
                  for q, a in zip(roots, alphas) if abs(a) <= 1.0 + _ALPHA_CLAMP]
    candidates = _without_twins(candidates)
    if not candidates:
        raise EstimationError(
            f"inconsistent {kind}: no admissible (q, alpha) reproduces them"
        )
    if len(candidates) > 1:
        ordered = sorted(candidates, key=lambda c: (c[1], c[0]))
        raise AmbiguousFitError(
            f"ambiguous {kind}: {len(candidates)} admissible parameter pairs "
            "reproduce them exactly; supply a different statistic to decide",
            [Params(q, a) for q, a in ordered],
        )
    q, a = candidates[0]
    return Params(q, a), evaluated


def _fit_proportions_full(p0: float, p1: float) -> tuple[Params, int]:
    p0, p1 = float(p0), float(p1)
    if not (p0 > 0.0 and p1 > 0.0):
        raise EstimationError(f"proportions must be positive, got p0={p0!r}, p1={p1!r}")
    if not p0 + p1 < 1.0:
        raise EstimationError(f"proportions must satisfy p0 + p1 < 1, got {p0 + p1!r}")
    # with s = 1 - q, pmf(0) = p0 gives alpha = (p0 - s)/(s*(1 - s)), and then
    # pmf(1) = p1 reads f(s) = s**3 - b*s**2 + 3*p0*s - c = 0.  Of the roots
    # of f', only the smaller one can lie below 1, so f rises up to it and
    # falls after it: each side holds at most one root.
    b, c = 2.0 + p0, p0 - p1
    evaluated = 0

    def cubic(s: np.ndarray) -> np.ndarray:
        nonlocal evaluated
        evaluated += len(s)
        return ((s - b) * s + 3.0 * p0) * s - c

    lo, hi = 1.0 - Q_BOX[1], 1.0 - Q_BOX[0]
    turn = 3.0 * p0 / (b + math.sqrt((1.0 - p0) * (4.0 - p0)))
    s = np.array(sorted({lo, min(max(turn, lo), hi), hi}))
    v = cubic(s)
    # f within the rounding of its Horner evaluation on the inputs, 7 unit
    # roundoffs of its terms (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2002, 5.1), is a root: at the turning point a double one,
    # at a box end one that may lie a few ulps of q outside
    zero = np.abs(v) <= 7 * 2.0**-53 * (((s + b) * s + 3.0 * p0) * s + p0 + p1)
    i = np.flatnonzero((v[:-1] * v[1:] < 0.0) & ~zero[:-1] & ~zero[1:])
    r = np.array(_refine(cubic, s[i], s[i + 1], v[i], v[i + 1]))
    # one Newton step takes each root below the refiner's width (Kahan 1986).
    # Where q < 1/2 the terms of f cancel (s is near 1), so there the step is
    # taken on the same cubic written in q, g(q) = f(1 - q)
    # = (1 - p0)(q + q**2) - q**3 - (1 - p0 - p1)
    in_s, q, d = r <= 0.5, 1.0 - r, 1.0 - p0
    rs, qs = r[in_s], q[~in_s]
    evaluated += len(qs)
    q[in_s] = 1.0 - (rs - cubic(rs) / ((3.0 * rs - 2.0 * b) * rs + 3.0 * p0))
    q[~in_s] = qs - (((d - qs) * qs + d) * qs - (d - p1)) / ((2.0 * d - 3.0 * qs) * qs + d)
    q = np.clip(q, 1.0 - s[i + 1], 1.0 - s[i])

    def alpha_of_q(q: np.ndarray) -> np.ndarray:
        return (p0 - (1.0 - q)) / (q * (1.0 - q))

    return _solve_matching(np.concatenate([1.0 - s[zero], q]).tolist(), evaluated,
                           alpha_of_q, "proportions")


def fit_proportions(p0: float, p1: float) -> Params:
    """Invert the observed fractions of zeros and ones.

    Both defining equations are linear in alpha, so alpha is eliminated via
    alpha(q) = (p0 - (1 - q)) / (q*(1 - q)), which leaves a cubic in
    s = 1 - q.  Its roots in the box are found directly: at most one on each
    side of its turning point, each refined in its bracket and polished by a
    Newton step, and a turning point where it vanishes is a double root.
    """
    return _fit_proportions_full(p0, p1)[0]


def _fit_quantiles_full(t1: int, p1: float, t2: int, p2: float) -> tuple[Params, int]:
    t1, t2 = operator.index(t1), operator.index(t2)
    p1, p2 = float(p1), float(p2)
    if t1 < 0 or not t1 < t2:
        raise EstimationError(f"need 0 <= t1 < t2, got t1={t1}, t2={t2}")
    if not 0.0 < p1 < p2 < 1.0:
        raise EstimationError(f"need 0 < p1 < p2 < 1, got p1={p1!r}, p2={p2!r}")

    def alpha_of_q(q: np.ndarray) -> np.ndarray:
        z = q ** float(t1 + 1)
        return (z + p1 - 1.0) / (z * (1.0 - z))

    def residual(q: np.ndarray) -> np.ndarray:
        return _cdf_at(q, alpha_of_q(q), t2, np) - p2

    return _solve_matching(*_panel_roots(residual), alpha_of_q, "quantiles")


def fit_quantiles(t1: int, p1: float, t2: int, p2: float) -> Params:
    """Invert two cdf observations cdf(t1) = p1, cdf(t2) = p2.

    Same alpha-elimination as :func:`fit_proportions`; from the first
    equation alpha(q) = (z + p1 - 1) / (z*(1 - z)) with z = q**(t1+1).  The
    remaining equation in q is scanned over the box and each sign change
    refined.
    """
    return _fit_quantiles_full(t1, p1, t2, p2)[0]


# --------------------------------------------------------------------------
# optimizing fits: searches over q of a profile curve
#
# For fixed q the log likelihood is concave in alpha and the moment objective
# is a convex quadratic in it, so each has one optimum alpha_hat(q) on [-1, 1].
# By the envelope theorem the profile curve's slope is the partial derivative
# in q taken at (q, alpha_hat(q)).


def moment_objective(params: Params, m1: float, m2: float) -> float:
    """(E[Y] - m1)**2 + (E[Y**2] - m2)**2 at the given parameters."""
    q, a = params.q, params.alpha
    mean = _factorial_moment_at(q, a, 1)
    return (mean - m1) ** 2 + (mean + _factorial_moment_at(q, a, 2) - m2) ** 2


def _weights(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values as floats and their shares of the counts."""
    return (np.fromiter(dataset.counts, float, len(dataset.counts)),
            np.fromiter(dataset.counts.values(), float, len(dataset.counts)) / dataset.n)


def log_likelihood(params: Params, dataset: Dataset) -> float:
    """Count-weighted log likelihood in the factored form
    n*(log(1-q) + ybar*log(q) + sum w*log[(1-alpha) + alpha*p]), with
    p = q**y*(1+q) and w the share of the counts at y, in the array form of
    the profile curve.  At alpha = 1 the bracket is p, whose log is formed
    directly so that large y cannot underflow it.
    """
    q, a = params.q, params.alpha
    ys, ws = _weights(dataset)
    log_p = ys * math.log(q) + math.log1p(q)  # p = q**y*(1+q)
    log_bracket = log_p if a == 1.0 else np.log((1.0 - a) + a * np.exp(log_p))
    return dataset.n * (math.log1p(-q) + dataset.mean * math.log(q) + float((ws * log_bracket).sum()))


def _likelihood_curve(dataset: Dataset):
    """qs -> (alpha_hat, slope of the profile log likelihood over n)."""
    ys, ws = _weights(dataset)

    def curve(qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        col = qs[:, None]
        log_p = ys * np.log(col) + np.log1p(col)  # p = q**y*(1+q)
        p = np.exp(log_p)
        # the score sum w*(p-1)/((1-a) + a*p) falls in a: alpha_hat is -1 or +1
        # where the score has the right sign there, else its root in between.
        # At a = +1 each term is 1 - 1/p, overflowing to -inf once p underflows.
        above_lo = ((p - 1.0) / (2.0 - p)) @ ws > 0.0
        with np.errstate(over="ignore"):
            inner = above_lo & ((-np.expm1(-log_p) * ws).sum(axis=1) < 0.0)
        a = np.where(above_lo, 1.0, -1.0)
        a[inner] = _score_root(p[inner], ws)
        # d/dq log[(1-a) + a*p] = a*(y/q + 1/(1+q)) * p/((1-a) + a*p), whose
        # ratio is 1 at a = 1, also where p underflows
        d = (1.0 - a)[:, None] + a[:, None] * p
        ratio = np.divide(p, d, out=np.ones_like(p), where=d > 0.0)
        dlog_p = ys / col + 1.0 / (1.0 + col)
        return a, -1.0 / (1.0 - qs) + dataset.mean / qs + a * ((dlog_p * ratio) @ ws)

    return curve


def _score_root(p: np.ndarray, ws: np.ndarray) -> np.ndarray:
    # per row, the root in (-1, 1) of sum w*(p-1)/((1-a) + a*p) by Newton's
    # method, bisecting the bracket [lo, hi] when a step would leave it
    b = p - 1.0
    x, lo, hi = np.zeros(len(p)), np.full(len(p), -1.0), np.ones(len(p))
    for _ in range(_NEWTON_MAXITER):
        r = b / ((1.0 - x)[:, None] + x[:, None] * p)
        g = r @ ws
        lo, hi = np.where(g > 0.0, x, lo), np.where(g < 0.0, x, hi)
        step = x + g / ((r * r) @ ws)
        step = np.where(((lo < step) & (step < hi)) | (step == x), step, 0.5 * (lo + hi))
        if np.all(np.abs(step - x) <= _ALPHA_XTOL):
            return step
        x = step
    return x


def _moment_stationary_qs(m1: float, m2: float) -> list[float]:
    """Every q in the box where the profile moment objective is stationary,
    in increasing order.

    In t = q/(1 - q) the residual (mean - m1, E[Y**2] - m2) at alpha = 0 is
    (t - m1, t + 2t**2 - m2), and alpha moves it along (1, e) with
    e = (6t**2 + 4t + 1)/(1 + 2t).  So inside the alpha box the objective is
    proportional to c**2/N, with the cubic c(t) = t**3 - 3*m1*t**2
    + (f2 - m1)*t + f2/2 (f2 = m2 - m1), whose roots are the exact
    preimages, and N = (1 + 2t)**2 + (6t**2 + 4t + 1)**2: it is stationary at
    the roots of c and of the sextic 2c'N - cN'.  On an edge alpha = +-1 it
    is F/(1 + 2t)**4 with F of degree 8, stationary where F'(1 + 2t) - 8F
    vanishes.  A root counts where alpha_hat lies on its piece of the
    profile.  The polynomials are written in s = t*h, with 1/h the root mean
    square of the data (at least 1), so that no coefficient exceeds O(1).
    """
    h = 1.0 / max(1.0, math.sqrt(m2))
    conv, g = np.convolve, np.array([1.0, h, 0.0])  # t(1 + t)*h**2
    lin, quad = np.array([2.0, h]), np.array([6.0, 4.0 * h, h * h])  # (1 + 2t)*h, (6t**2 + 4t + 1)*h**2
    sq, r1, r2 = conv(lin, lin), np.array([1.0, -m1 * h]), np.array([2.0, h, -m2 * h * h])
    cubic = np.polysub(conv(r1, quad), conv(r2, lin))  # 2c
    norm = np.polyadd(h * h * sq, conv(quad, quad))
    polys = [cubic, np.polysub(2.0 * conv(np.polyder(cubic), norm), conv(cubic, np.polyder(norm)))]
    for a in (-1.0, 1.0):
        # the residuals times (1 + 2t)*h**2 and ((1 + 2t)*h**2)**2
        mean, raw2 = conv(r1, lin) - a * g, conv(r2, sq) - a * conv(g, quad)
        f = np.polyadd(h * h * conv(conv(mean, mean), sq), conv(raw2, raw2))
        polys.append(np.polysub(conv(np.polyder(f), lin), 8.0 * f))
    # the roots are the eigenvalues of the companion matrices, which stack
    # once each polynomial is padded with zero roots to degree 8
    coef = np.array([np.append(p, np.zeros(9 - len(p))) for p in polys])
    comp = np.tile(np.eye(8, k=-1), (len(polys), 1, 1))
    comp[:, 0] = -coef[:, 1:] / coef[:, :1]
    r = np.linalg.eigvals(comp)
    rows, cols = np.nonzero((r.imag == 0.0) & (r.real > 0.0))
    s, coef = r.real[rows, cols], coef[rows]
    # one Newton step on each real root, kept where it does not raise |p|
    v, dv = np.polyval(coef.T, s), np.polyval((coef[:, :-1] * np.arange(8, 0, -1)).T, s)
    step = s - np.divide(v, dv, out=np.zeros_like(s), where=dv != 0.0)
    t = np.where(np.abs(np.polyval(coef.T, step)) <= np.abs(v), step, s) / h
    q = t / (1.0 + t)
    inside = (Q_BOX[0] < q) & (q < Q_BOX[1])
    q, edge = q[inside], np.array([0.0, 0.0, -1.0, 1.0])[rows[inside]]
    a = _moment_alpha(q, m1, m2)
    on_piece = np.where(edge == 0.0, np.abs(a) <= 1.0 + _ALPHA_CLAMP, edge * a >= 1.0 - _ALPHA_CLAMP)
    return _distinct(q[on_piece], rtol=1e-12)  # roots this close are one


def _moment_alpha(qs: np.ndarray, m1: float, m2: float) -> np.ndarray:
    """The least-squares alpha at each q, not clipped to [-1, 1]."""
    t = qs / (1.0 - qs)
    e = ((6.0 * t + 4.0) * t + 1.0) / (1.0 + 2.0 * t)
    return (1.0 + 2.0 * t) * ((t - m1) + e * ((1.0 + 2.0 * t) * t - m2)) / (t * (1.0 + t) * (1.0 + e * e))


def _fit_profile(roots: list[float], evaluated: int, alpha_of_q, dataset: Dataset, method: Method,
                 objective, sign: float, tie_tol) -> FitReport:
    """Minimise ``sign * objective`` along a profile curve whose stationary
    points in the box lie among ``roots``, with alpha at ``alpha_of_q`` (an
    array function of q): its distinct optima are the local minima among the
    box ends and those roots."""
    if dataset.n < 2:
        raise EstimationError(f"{method.value} fitting needs a sample of size >= 2")
    points = np.array([Q_BOX[0]] + [q for q in roots if Q_BOX[0] < q < Q_BOX[1]] + [Q_BOX[1]])
    cands = [(float(q), float(a)) for q, a in zip(points, alpha_of_q(points))]
    values = [objective(Params(q, a)) for q, a in cands]
    costs = [sign * v for v in values]
    # the curve is monotone between consecutive candidates, so a candidate
    # is a local minimum when neither neighbour is lower
    optima = [i for i, c in enumerate(costs) if c <= min(costs[max(i - 1, 0):i + 2])]
    best = min(costs[i] for i in optima)
    tied = [cands[i] for i in optima if costs[i] <= best + tie_tol(best)]
    # the curve at an alpha = 1 optimum's twin q**2 is at least as good
    tied = _without_twins(tied)
    tied.sort(key=lambda c: (c[1], c[0]))
    return _report(Params(*tied[0]), method, dataset, dict(zip(cands, values))[tied[0]],
                   evaluated + len(points), tuple(Params(q, a) for q, a in tied[1:]))


def fit_moments(dataset: Dataset) -> FitReport:
    """Least-squares moment matching of (mean, second raw moment).

    The candidates are the box ends and the real roots of four polynomials
    in the mean coordinate t = q/(1 - q) (see :func:`_moment_stationary_qs`),
    each with alpha at its closed-form least-squares value clipped to
    [-1, 1]; no grid is scanned.  ``converged`` is false when a
    distribution-distinct parameter pair matches the data equally well (the
    fold region of the moment map); the rivals are in ``alternatives``.
    Data whose squared second moment overflows a float are refused.
    """
    m1, m2 = dataset.mean, dataset.m2
    # the objective squares residuals as large as m2, so past m2 = 1.3e154
    # (far beyond data of the admitted domain, y < 2**63) it cannot be formed
    try:
        scale = (1.0 + m2) ** 2
    except OverflowError:
        raise EstimationError(
            f"moment fitting squares the second moment of the data ({m2:.3g}), "
            "which overflows a float"
        ) from None
    # a rival ties within the rounding floor, which scales like the squared
    # data magnitude, or within relative noise of a non-zero best
    return _fit_profile(_moment_stationary_qs(m1, m2), 0,
                        lambda qs: np.clip(_moment_alpha(qs, m1, m2), -1.0, 1.0), dataset, Method.MOMENTS,
                        lambda p: moment_objective(p, m1, m2), 1.0,
                        lambda best: max(3e-20 * scale, 1e-6 * best))


def fit_mle(dataset: Dataset) -> FitReport:
    """Maximum likelihood over the box; ``objective`` is the final log
    likelihood.

    Searches q along the profile log likelihood, with alpha at the root on
    [-1, 1] of its monotone score: the slope of the profile is scanned over
    the box and each sign change refined.  Same convergence reporting as
    :func:`fit_moments`.
    """
    curve = _likelihood_curve(dataset)
    return _fit_profile(*_panel_roots(lambda qs: curve(qs)[1]), lambda qs: curve(qs)[0], dataset,
                        Method.MLE, lambda p: log_likelihood(p, dataset), -1.0,
                        lambda best: 1e-9 * (1.0 + abs(best)))


# --------------------------------------------------------------------------
# dataset-driven dispatch (shared with the CLI)


def _ecdf(dataset: Dataset) -> tuple[list[int], list[float]]:
    """The distinct values in increasing order, and the empirical cdf below
    the first of them and at each, from one running sum over the counts:
    the cdf at t is ``cdf[number of values <= t]``."""
    counts = np.fromiter(dataset.counts.values(), float, len(dataset.counts))
    return list(dataset.counts), [0.0] + (np.cumsum(counts) / dataset.n).tolist()


def empirical_cdf_anchors(dataset: Dataset) -> tuple[int, float, int, float]:
    """Default (t1, p1, t2, p2) for the quantile fit: the smallest values at
    which the empirical cdf reaches 1/4 and 3/4, with the empirical cdf
    evaluated there.  t1 = t2 when one value holds the middle half."""
    ys, cdf = _ecdf(dataset)
    i1, i2 = (next(i for i, p in enumerate(cdf) if p >= level) for level in (0.25, 0.75))
    return ys[i1 - 1], cdf[i1], ys[i2 - 1], cdf[i2]


def _report(params: Params, method: Method, dataset: Dataset, objective: float,
            iterations: int, alternatives: tuple[Params, ...] = ()) -> FitReport:
    q, a = params.q, params.alpha
    boundary = []
    if q <= Q_BOX[0] + _BOUNDARY_TOL or q >= Q_BOX[1] - _BOUNDARY_TOL:
        boundary.append("q")
    if a <= ALPHA_BOX[0] + _BOUNDARY_TOL or a >= ALPHA_BOX[1] - _BOUNDARY_TOL:
        boundary.append("alpha")
    return FitReport(
        params=params,
        method=method,
        objective=objective,
        converged=not alternatives,
        iterations=iterations,
        # the mle objective is the log likelihood at params
        log_likelihood=objective if method is Method.MLE else log_likelihood(params, dataset),
        boundary=tuple(boundary),
        alternatives=alternatives,
    )


def fit(
    dataset: Dataset,
    method: Method | str,
    quantile_anchors: tuple[int | None, float | None, int | None, float | None] | None = None,
) -> FitReport:
    """Dispatch a dataset to one of the four estimators and wrap the result
    in a FitReport.

    ``quantile_anchors`` (t1, p1, t2, p2) sets the quantile method's cdf
    anchors.  A missing (None) t comes from the 25th/75th percentile scan of
    :func:`empirical_cdf_anchors`, which runs only then; a missing p is the
    empirical cdf at its t.  The fit is refused when the scan leaves
    t1 = t2.
    """
    method = Method(method)
    if method is Method.MOMENTS:
        return fit_moments(dataset)
    if method is Method.MLE:
        return fit_mle(dataset)
    if method is Method.PROPORTIONS:
        p0 = dataset.counts.get(0, 0.0) / dataset.n
        p1 = dataset.counts.get(1, 0.0) / dataset.n
        params, iters = _fit_proportions_full(p0, p1)
        resid = max(
            abs(_pmf_at(params.q, params.alpha, 0) - p0),
            abs(_pmf_at(params.q, params.alpha, 1) - p1),
        )
        return _report(params, method, dataset, resid, iters)
    t1, p1, t2, p2 = quantile_anchors or (None,) * 4
    if t1 is None or t2 is None:
        s1, _, s2, _ = empirical_cdf_anchors(dataset)
        t1, t2 = (s1 if t1 is None else t1), (s2 if t2 is None else t2)
        if t1 == t2:
            raise EstimationError("sample quantile anchors coincide; choose anchors explicitly")

    ys, cdf = _ecdf(dataset)
    p1 = cdf[sum(y <= t1 for y in ys)] if p1 is None else p1
    p2 = cdf[sum(y <= t2 for y in ys)] if p2 is None else p2
    params, iters = _fit_quantiles_full(t1, p1, t2, p2)
    resid = max(
        abs(_cdf_at(params.q, params.alpha, t1) - p1),
        abs(_cdf_at(params.q, params.alpha, t2) - p2),
    )
    return _report(params, method, dataset, resid, iters)
