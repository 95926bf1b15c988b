"""Moment pipeline for TGD(q, alpha).

The factorial moments of the two-component mixture,

    E[Y_(r)] = (1-alpha) * r! * (q/(1-q))**r + alpha * r! * (q**2/(1-q**2))**r,

are the single closed-form entry point.  Raw moments follow through Stirling
numbers of the second kind, central moments by binomial recentring, factorial
cumulants by the standard moment-to-cumulant conversion, and the shape
measures from the central moments.  No other published polynomial form is
used as an implementation path.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .core import ParameterError, Params

__all__ = [
    "MomentSet",
    "stirling2",
    "factorial_moment",
    "raw_moment",
    "central_moment",
    "factorial_cumulant",
    "index_of_dispersion",
    "skewness_beta1",
    "kurtosis_beta2",
    "summarize",
]

_STIRLING_MAX = 20
_MAX_ORDER = 4


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k), exact.

    Guarded at n <= 20 so the recurrence stays in exactly representable
    territory for every downstream float use.
    """
    n = operator.index(n)
    k = operator.index(k)
    if not 0 <= k <= n:
        raise ParameterError(f"stirling2 requires 0 <= k <= n, got n={n}, k={k}")
    if n > _STIRLING_MAX:
        raise ParameterError(f"stirling2 is limited to n <= {_STIRLING_MAX}, got n={n}")
    row = [1]  # S(0, 0)
    for m in range(1, n + 1):
        new = [0] * (m + 1)
        for j in range(1, m + 1):
            new[j] = j * (row[j] if j < len(row) else 0) + row[j - 1]
        row = new
    return row[k]


_STIRLING_ROWS = tuple(tuple(stirling2(r, j) for j in range(1, r + 1)) for r in range(1, 5))


def _check_order(r: int, lo: int, what: str) -> int:
    r = operator.index(r)
    if not lo <= r <= _MAX_ORDER:
        raise ParameterError(f"{what} order must lie in {lo}..{_MAX_ORDER}, got {r}")
    return r


def factorial_moment(params: Params, r: int) -> float:
    """r-th factorial moment E[Y*(Y-1)*...*(Y-r+1)], any r >= 1.

    OverflowError propagates once r! leaves the double range.
    """
    r = operator.index(r)
    if r < 1:
        raise ParameterError(f"factorial moment order must be >= 1, got {r}")
    value = _factorial_moment_at(params.q, params.alpha, r)
    if math.isinf(value):
        raise OverflowError(f"factorial moment of order {r} exceeds the float range")
    return value


def _factorial_moment_at(q, a: float, r: int):
    # the mixture closed form of the module docstring, unvalidated; q may be
    # a float or a numpy array.  1 - q*q is formed as (1-q)*(1+q), which
    # keeps its digits as q -> 1
    fact = float(math.factorial(r))
    ratio1 = q / (1.0 - q)
    ratio2 = (q * q) / ((1.0 - q) * (1.0 + q))
    return (1.0 - a) * fact * ratio1**r + a * fact * ratio2**r


def _pipeline(params: Params):
    # every quantity of orders 1..4 from one evaluation of the closed form per
    # order (none can overflow: q/(1-q) < 2**53): the factorial, raw, central
    # (2..4) moments and factorial cumulants, then (numerator, denominator,
    # name) of the dispersion index, beta1 and beta2
    q, a = params.q, params.alpha
    m1, m2, m3, m4 = fact = tuple(_factorial_moment_at(q, a, r) for r in range(1, 5))
    raw = tuple(sum(s * m for s, m in zip(row, fact)) for row in _STIRLING_ROWS)
    central = []
    for r in range(2, 5):  # binomial recentring about the mean
        total = 0.0
        for j, raw_j in enumerate((1.0,) + raw[:r]):
            total += math.comb(r, j) * (-m1) ** (r - j) * raw_j
        central.append(total)
    mu2, mu3, mu4 = central
    cumulant = (m1, m2 - m1 * m1, m3 - 3.0 * m2 * m1 + 2.0 * m1**3,
                m4 - 4.0 * m3 * m1 - 3.0 * m2 * m2 + 12.0 * m2 * m1 * m1 - 6.0 * m1**4)
    shapes = ((mu2, m1, "index of dispersion"), (mu3**2, mu2**3, "beta1"), (mu4, mu2**2, "beta2"))
    return fact, raw, tuple(central), cumulant, shapes


def raw_moment(params: Params, r: int) -> float:
    """r-th raw moment E[Y**r] for r in 1..4, via Stirling conversion."""
    r = _check_order(r, 1, "raw moment")
    return _pipeline(params)[1][r - 1]


def central_moment(params: Params, r: int) -> float:
    """r-th central moment E[(Y - E[Y])**r] for r in 2..4."""
    r = _check_order(r, 2, "central moment")
    return _pipeline(params)[2][r - 2]


def factorial_cumulant(params: Params, r: int) -> float:
    """r-th factorial cumulant for r in 1..4, converted from the factorial
    moments by the standard moment-to-cumulant relations."""
    r = _check_order(r, 1, "factorial cumulant")
    return _pipeline(params)[3][r - 1]


def _ratio(num: float, den: float, what: str) -> float:
    # a moment ratio whose denominator underflows to 0 (q near 0) is undefined
    # in floating point; refuse it rather than divide by zero
    if den == 0.0:
        raise ParameterError(f"{what} is undefined: its denominator underflows to 0")
    return num / den


def index_of_dispersion(params: Params) -> float:
    """Variance over mean; strictly greater than 1 everywhere on the
    parameter box (the family is always overdispersed).  ParameterError
    where the mean underflows to 0."""
    return _ratio(*_pipeline(params)[4][0])


def skewness_beta1(params: Params) -> float:
    """Pearson moment-ratio skewness mu3**2 / mu2**3 (non-negative).
    ParameterError where mu2**3 underflows to 0."""
    return _ratio(*_pipeline(params)[4][1])


def kurtosis_beta2(params: Params) -> float:
    """Pearson kurtosis mu4 / mu2**2.  ParameterError where mu2**2
    underflows to 0."""
    return _ratio(*_pipeline(params)[4][2])


@dataclass(frozen=True)
class MomentSet:
    """Bundle of every moment quantity for one parameter pair.

    ``raw``, ``factorial`` and ``factorial_cumulant`` hold orders 1..4;
    ``central`` holds orders 2..4.
    """

    mean: float
    variance: float
    raw: tuple[float, float, float, float]
    central: tuple[float, float, float]
    factorial: tuple[float, float, float, float]
    factorial_cumulant: tuple[float, float, float, float]
    index_of_dispersion: float
    beta1: float
    beta2: float


def summarize(params: Params) -> MomentSet:
    """Evaluate the full moment bundle for one parameter pair.

    Raises ParameterError where a moment ratio is undefined in floating
    point (q so small that mu2**3 or the mean underflows to 0).
    """
    fact, raw, central, cumulant, shapes = _pipeline(params)
    return MomentSet(fact[0], central[0], raw, central, fact, cumulant, *(_ratio(*s) for s in shapes))
