"""Exact pointwise evaluation of the transmuted geometric distribution TGD(q, alpha).

The family is obtained by pushing the geometric cdf F(y) = 1 - q**(y+1)
through the quadratic rank transmutation map F -> (1 + alpha)*F - alpha*F**2.
Support is {0, 1, 2, ...}.  alpha = 0 recovers the plain geometric law GD(q),
alpha = 1 is the minimum of two independent GD(q) draws (equal in law to
GD(q**2)), and alpha = -1 is the maximum of two.

Everything in this module is a pure function of immutable values; instances
may be shared freely across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "ParameterError",
    "Params",
    "HazardBehavior",
    "HazardClass",
    "from_continuous_rate",
    "transmuted_exponential_cdf",
    "pmf",
    "cdf",
    "survival",
    "hazard",
    "reversed_hazard",
    "hazard_class",
    "pgf",
    "quantile",
    "median",
    "is_unimodal",
    "mode",
]


class ParameterError(ValueError):
    """An argument fell outside its mathematical domain."""


# Round-off this small is snapped onto [0, 1]; anything larger is a real bug
# and must surface, not be masked.
_CLAMP_SLACK = 1e-15

# Probability comparisons treat values within this distance of the target as
# having reached it, so that points where the cdf hits a rational probability
# exactly (in real arithmetic) resolve to the mathematical answer instead of
# depending on the last ulp of a particular evaluation order.
_HIT_SLACK = 1e-12


def _clamp_unit(x: float, what: str) -> float:
    if x < 0.0:
        if x > -_CLAMP_SLACK:
            return 0.0
        raise AssertionError(f"{what} = {x!r} escapes [0, 1] beyond round-off")
    if x > 1.0:
        if x <= 1.0 + _CLAMP_SLACK:
            return 1.0
        raise AssertionError(f"{what} = {x!r} escapes [0, 1] beyond round-off")
    return x


def _as_integer(y: object, name: str = "y") -> int:
    try:
        return operator.index(y)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {y!r}") from None


def _require_support_point(y: object) -> int:
    y = _as_integer(y)
    if y < 0:
        raise ParameterError(f"y must be a non-negative integer, got {y}")
    return y


@dataclass(frozen=True)
class Params:
    """Validated parameter pair of one TGD(q, alpha) distribution.

    q is the geometric survival ratio, strictly inside (0, 1).  alpha is the
    transmutation weight on the closed interval [-1, 1]; both endpoints are
    admitted because they are the valid max-of-two / min-of-two limit laws.
    The complement p = 1 - q is computed once at construction.
    """

    q: float
    alpha: float
    p: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        q = float(self.q)
        alpha = float(self.alpha)
        if not 0.0 < q < 1.0:
            raise ParameterError(f"q must lie strictly inside (0, 1), got {self.q!r}")
        if not -1.0 <= alpha <= 1.0:
            raise ParameterError(f"alpha must lie in [-1, 1], got {self.alpha!r}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "p", 1.0 - q)


def from_continuous_rate(beta: float, alpha: float) -> Params:
    """Parameters of the integer-floor discretization of the transmuted
    exponential law with rate ``beta``: q = exp(-beta).

    The resulting pmf satisfies pmf(y) = C(y+1) - C(y) where C is
    :func:`transmuted_exponential_cdf` with the same rate and weight.
    """
    beta = float(beta)
    if not beta > 0.0:
        raise ParameterError(f"beta must be positive, got {beta!r}")
    q = math.exp(-beta)
    if q == 0.0:
        raise ParameterError(f"beta = {beta!r} too large: exp(-beta) underflows to 0")
    if q == 1.0:
        raise ParameterError(f"beta = {beta!r} too small: exp(-beta) rounds to 1")
    return Params(q, alpha)


def transmuted_exponential_cdf(x: float, beta: float, alpha: float) -> float:
    """cdf of the transmuted exponential with rate ``beta`` and weight ``alpha``.

    Continuous counterpart of TGD used by the discretization identity; zero
    for x <= 0.  ParameterError for a nan x or an alpha outside [-1, 1].
    """
    if not beta > 0.0:
        raise ParameterError(f"beta must be positive, got {beta!r}")
    if not -1.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must lie in [-1, 1], got {alpha!r}")
    if math.isnan(x):
        raise ParameterError(f"x must be a number, got {x!r}")
    if x <= 0.0:
        return 0.0
    g = -math.expm1(-beta * x)
    return _clamp_unit((1.0 + alpha) * g - alpha * g * g, "cdf")


def pmf(params: Params, y: int) -> float:
    """P(Y = y).

    Evaluated in the factored form (1-q)*q**y*((1-alpha) + alpha*q**y*(1+q)),
    whose bracket is strictly positive over the whole parameter box, so the
    result cannot go negative by cancellation.
    """
    y = _require_support_point(y)
    return _clamp_unit(_pmf_at(params.q, params.alpha, y), "pmf")


def cdf(params: Params, y: int) -> float:
    """P(Y <= y); zero for negative y."""
    y = _as_integer(y)
    if y < 0:
        return 0.0
    return _clamp_unit(_cdf_at(params.q, params.alpha, y), "cdf")


# The closed forms of pmf, cdf and survival at y >= 0, unvalidated: for
# loops that validated their arguments once; (cdf, xp=np) for the quantile
# fit, which evaluates it on q and alpha arrays at any real alpha during
# elimination, and for the inverse sampler's array pass (y an int64 array);
# survival, at an integer or a float64 array of y, for the oracle's tail
# bound and cut-off walk.
# Where q**k >= 1/2 each is written in w = 1 - q**k so that no two nearly
# equal terms are subtracted, and nothing cancels as q -> 1.  w comes from
# expm1 on arrays and, on scalars, where q**k >= 15/16; below that the
# subtraction 1 - q**k is off by at most 16 ulps of w and costs no log and
# expm1.  Where q**k < 1/2 the expanded forms cannot cancel, and the cdf's
# rounds monotonically up to 1.


def _pmf_at(q, a, y):
    # (1-q)*q**y*((1-alpha) + alpha*q**y*(1+q))
    qy = q**y
    return (1.0 - q) * qy * _pmf_bracket(q, a, y, qy)


def _pmf_bracket(q, a, y, qy):
    # (1-alpha) + alpha*q**y*(1+q) at qy = q**y: the pmf over (1-q)*q**y, and
    # the hazard over (1-q)/((1-alpha) + alpha*q**y).  Where q**y >= 1/2 it
    # is (1-alpha)*(1 - q**y) + q**y*(1 + alpha*q), and where also q >= 1/2,
    # so that 1 - q is exact, 1 + alpha*q is (1+alpha) - alpha*(1-q): neither
    # cancels as alpha -> -1 and q -> 1
    if qy < 0.5:
        return (1.0 - a) + a * qy * (1.0 + q)
    u = 1.0 - qy if qy < 0.9375 else -math.expm1(y * math.log(q))
    return (1.0 - a) * u + qy * ((1.0 + a) - a * (1.0 - q) if q >= 0.5 else 1.0 + a * q)


def _cdf_at(q, a, y, xp=math):
    # (1 - z)*(1 + alpha*z) with z = q**(y+1), written as
    # w*((1 + alpha) - alpha*w) with w = 1 - z
    z = q ** (y + 1)
    if xp is math:
        if z < 0.5:
            return 1.0 - z * ((1.0 - a) + a * z)
        w = 1.0 - z if z < 0.9375 else -math.expm1((y + 1) * math.log(q))
        return w * ((1.0 + a) - a * w)
    w = -np.expm1((y + 1) * np.log(q))
    return np.where(z < 0.5, 1.0 - z * ((1.0 - a) + a * z), w * ((1.0 + a) - a * w))


def _survival_at(q, a, y):
    # (1-alpha)*z + alpha*z**2 with z = q**y; nothing cancels, since for
    # alpha < 0 the sum is at least z and neither term exceeds 2*z
    z = q**y
    return (1.0 - a) * z + a * z * z


def survival(params: Params, y: int) -> float:
    """Inclusive tail P(Y >= y); identically 1 for y <= 0.

    Satisfies survival(y) = 1 - cdf(y - 1).
    """
    y = _as_integer(y)
    if y <= 0:
        return 1.0
    return _clamp_unit(_survival_at(params.q, params.alpha, y), "survival")


def hazard(params: Params, y: int) -> float:
    """Hazard rate P(Y = y) / P(Y >= y), a value in (0, 1).

    Computed as (1-q)*B/((1-alpha) + alpha*q**y), with B the pmf's bracket,
    once the common factor q**y is cancelled: nothing nearly equal is
    subtracted, so the hazard keeps its digits where it is small, as q -> 1
    with alpha near -1.  At alpha = 0 and 1 the hazard is the constant
    1 - q and 1 - q**2, even where q**y underflows.
    """
    y = _require_support_point(y)
    q, a = params.q, params.alpha
    if a == 1.0:
        return 1.0 - q * q
    if a == 0.0:
        return 1.0 - q
    qy = q**y
    return _clamp_unit((1.0 - q) * _pmf_bracket(q, a, y, qy) / ((1.0 - a) + a * qy), "hazard")


def reversed_hazard(params: Params, y: int) -> float:
    """Reversed hazard rate P(Y = y) / P(Y <= y), a value in (0, 1].

    Exactly 1 at y = 0, where the two probabilities are the same event.
    """
    y = _require_support_point(y)
    if y == 0:
        return 1.0
    q, a = params.q, params.alpha
    return _clamp_unit(_pmf_at(q, a, y) / _cdf_at(q, a, y), "reversed hazard")


class HazardBehavior(Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    CONSTANT = "constant"


@dataclass(frozen=True)
class HazardClass:
    """Monotonicity class of the hazard rate; ``rate`` is set only when the
    hazard is constant and then lies in (0, 1)."""

    behavior: HazardBehavior
    rate: float | None = None


def hazard_class(params: Params) -> HazardClass:
    """Classify the hazard: increasing for alpha < 0, decreasing for
    0 < alpha < 1, constant for alpha in {0, 1}.

    Constant rates are read off the reduced hazard ratio at y = 0 (1 - q for
    alpha = 0 and 1 - q**2 for alpha = 1) rather than hard-coded.
    """
    a = params.alpha
    if a < 0.0:
        return HazardClass(HazardBehavior.INCREASING)
    if a == 0.0 or a == 1.0:
        return HazardClass(HazardBehavior.CONSTANT, hazard(params, 0))
    return HazardClass(HazardBehavior.DECREASING)


def pgf(params: Params, z: float) -> float:
    """Probability generating function E[z**Y] for |q*z| < 1.

    Evaluated as the two-component mixture
    (1-alpha)*(1-q)/(1-q*z) + alpha*(1-q**2)/(1-q**2*z), which reproduces
    pmf(0) at z = 0 and 1 at z = 1.
    """
    z = float(z)
    q, a = params.q, params.alpha
    if not abs(q * z) < 1.0:
        raise ParameterError(f"pgf requires |q*z| < 1, got q*z = {q * z!r}")
    q2 = q * q
    return (1.0 - a) * (1.0 - q) / (1.0 - q * z) + a * (1.0 - q2) / (1.0 - q2 * z)


def _quantile_root(a, p, xp=math):
    # Root in (0, 1] of alpha*z**2 + (1-alpha)*z - (1-p) = 0 with z = q**(y+1).
    # The expression 2*(1-p)/(sqrt(disc) + 1 - alpha) is the stable conjugate
    # form of the "+" quadratic root: it is cancellation-free for either sign
    # of alpha and degenerates continuously to the linear solution z = 1 - p
    # as alpha -> 0.  p may be a float or, with xp=np, an array.
    disc = (1.0 + a) ** 2 - 4.0 * a * p
    return 2.0 * (1.0 - p) / (xp.sqrt(disc) + 1.0 - a)


def _least_reaching(q: float, a: float, y: int, thr: float) -> int:
    """Smallest y' >= 0 with _cdf_at(q, a, y') >= thr, for 0 < thr < 1,
    searched from the guess y.

    One step from the guess settles the common case.  Otherwise the step
    doubles until it brackets the answer, lo < y' <= hi with
    cdf(lo) < thr <= cdf(hi) (cdf(-1) = 0 < thr), and bisection closes the
    bracket, so the work is logarithmic in the guess's error and the answer
    does not depend on the guess.
    """
    if _cdf_at(q, a, y) >= thr:
        if y == 0 or _cdf_at(q, a, y - 1) < thr:
            return y
        hi, step = y - 1, 2
        while (lo := hi - step) >= 0 and _cdf_at(q, a, lo) >= thr:
            hi, step = lo, 2 * step
        lo = max(lo, -1)
    else:
        if _cdf_at(q, a, y + 1) >= thr:
            return y + 1
        lo, step = y + 1, 2
        while _cdf_at(q, a, hi := lo + step) < thr:
            lo, step = hi, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _cdf_at(q, a, mid) >= thr:
            hi = mid
        else:
            lo = mid
    return hi


def quantile(params: Params, p: float) -> int:
    """Smallest y >= 0 with cdf(y) >= p, for p in (0, 1).

    The closed-form solution of the quadratic in q**(y+1) supplies the
    starting point; a search against the cdf (:func:`_least_reaching`) pins
    the exact integer.  It absorbs the off-by-one the raw floor formula
    commits whenever the quadratic root is hit exactly, and in few steps
    the long way down to the hit slack where the pmf is below it.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ParameterError(f"quantile level must lie in (0, 1), got {p!r}")
    q, a = params.q, params.alpha
    thr = p - min(_HIT_SLACK, 0.5 * p)
    y = math.ceil(math.log(_quantile_root(a, thr)) / math.log(q)) - 1
    return _least_reaching(q, a, y if y > 0 else 0, thr)


# numpy's vectorised power may differ from libm's pow by an ulp, which moves
# a cdf value by a few units of 2**-52.  The array pass settles a lane itself
# only when the cdf on both sides of its answer clears the level by this
# much, so that the scalar cdf crosses the level at the same y; any other
# lane goes through the scalar quantile.
_ARRAY_MARGIN = 2.0**-44


def _quantiles(params: Params, p: np.ndarray) -> np.ndarray:
    """:func:`quantile` at each level of a float64 array in [0, 1), as
    int64, with 0 at level 0; unvalidated, for the inverse sampler.

    Equal lane by lane to the scalar quantile: one vectorised step from the
    closed-form start settles the lanes it can tell apart with
    ``_ARRAY_MARGIN`` to spare, and the rest (near a jump, or further than
    one step from the start) run the scalar search.  y is int64 throughout,
    which counts exactly where a float stops at 2**53.
    """
    q, a = params.q, params.alpha
    thr = p - np.minimum(_HIT_SLACK, 0.5 * p)
    start = np.ceil(np.log(_quantile_root(a, thr, np)) / math.log(q)) - 1.0
    y = np.maximum(start, 0.0).astype(np.int64)
    c = _cdf_at(q, a, y, np)
    up = c < thr
    nb = _cdf_at(q, a, np.where(up, y + 1, y - 1), np)
    below, at = np.where(up, c, nb), np.where(up, nb, c)
    y += up
    settled = (at >= thr + _ARRAY_MARGIN) & ((below < thr - _ARRAY_MARGIN) | (y == 0))
    zero = p == 0.0
    y[zero] = 0
    for i in np.flatnonzero(~(settled | zero)):
        y[i] = quantile(params, float(p[i]))
    return y


def median(params: Params) -> int:
    """Smallest y with cdf(y) >= 1/2; the p = 0.5 quantile."""
    return quantile(params, 0.5)


def is_unimodal(params: Params) -> bool:
    """True when the pmf rises to an interior mode, i.e. pmf(1) > pmf(0).

    This happens exactly when q*(2+q) > 1 and alpha < -1/(q*(2+q)); the
    threshold q > sqrt(2) - 1 is evaluated in the product form to avoid a
    rounded literal.  Everywhere else the pmf is non-increasing from y = 0.
    """
    q, a = params.q, params.alpha
    t = q * (2.0 + q)
    return t > 1.0 and a < -1.0 / t


def mode(params: Params) -> int:
    """argmax of the pmf, ties broken toward the smaller y.

    In x = q**y the pmf is (1-q)*((1-alpha)*x + alpha*(1+q)*x**2), which for
    alpha < 0 peaks at x* = (alpha-1)/(2*alpha*(1+q)), in (0, 1) whenever
    the pmf is unimodal.  The integer mode is the floor or the ceiling of
    y* = log(x*)/log(q); the pmf is compared at one more point on either
    side, so rounding in y* cannot move the answer.
    """
    if not is_unimodal(params):
        return 0
    q, a = params.q, params.alpha
    y_star = math.log((a - 1.0) / (2.0 * a * (1.0 + q))) / math.log(q)
    ys = range(max(math.floor(y_star) - 1, 0), math.floor(y_star) + 3)
    return max(ys, key=lambda y: (_pmf_at(q, a, y), -y))
