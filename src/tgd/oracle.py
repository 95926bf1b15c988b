"""Brute-force reference implementations: truncated sums and linear scans.

Every summed term is the mass function re-evaluated as the literal
two-component sum (1-alpha)*q**y*(1-q) + alpha*q**(2y)*(1-q**2), cdf values
are built by cumulative summation, and the mode by exhaustive scan, so
agreement with :mod:`tgd.core` and :mod:`tgd.moments` is genuine
cross-validation rather than shared code.  Only the truncation point is not:
:func:`tail_bound`, and through it every :func:`oracle_sum` cut-off, comes
from :func:`tgd.core.survival`.  Everything is O(tail length) by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import ParameterError, Params, survival

__all__ = [
    "Tolerance",
    "pmf_by_terms",
    "tail_bound",
    "oracle_sum",
    "oracle_quantile",
    "oracle_mode",
]

_SCAN_CAP = 10**7


@dataclass(frozen=True)
class Tolerance:
    """Permissible truncation mass when chopping the geometric tail."""

    eps: float = 1e-12

    def __post_init__(self) -> None:
        if not 0.0 < self.eps < 1.0:
            raise ParameterError(f"eps must lie in (0, 1), got {self.eps!r}")


def _eps(tol: Tolerance | float) -> float:
    if isinstance(tol, Tolerance):
        return tol.eps
    return Tolerance(float(tol)).eps


def pmf_by_terms(params: Params, y: int) -> float:
    """P(Y = y) as the literal two-term sum, with no factoring."""
    q, a = params.q, params.alpha
    return (1.0 - a) * q**y * (1.0 - q) + a * q ** (2 * y) * (1.0 - q * q)


def tail_bound(params: Params, tol: Tolerance | float = Tolerance()) -> int:
    """Smallest y with survival(y) < eps.

    Starts from the conservative bound survival(y) <= 2*q**y and tightens by
    direct evaluation.
    """
    eps = _eps(tol)
    q = params.q
    y = max(0, math.ceil(math.log(eps / 2.0) / math.log(q)))
    while survival(params, y) >= eps:
        y += 1
    while y > 0 and survival(params, y - 1) < eps:
        y -= 1
    return y


def oracle_sum(
    params: Params,
    weight: Callable[[int], float],
    tol: Tolerance | float = Tolerance(),
) -> float:
    """Sum of weight(y) * pmf(y) over the support, truncated once the
    weighted tail is negligible.

    ``weight`` must be polynomially bounded.  The cut-off from
    :func:`tail_bound` is pushed out until |weight(y)| * survival(y) drops
    below eps, and then refined once more against eps scaled by the magnitude
    of the partial sum, so the truncation error is small relative to the
    result even when the result itself is tiny.
    """
    eps = _eps(tol)

    def cutoff(threshold: float) -> int:
        y = tail_bound(params, min(threshold, 0.5))
        while abs(weight(y)) * survival(params, y) >= threshold and y < _SCAN_CAP:
            y += 1
        return y

    y_max = cutoff(eps)
    total = math.fsum(weight(y) * pmf_by_terms(params, y) for y in range(y_max + 1))
    refined = cutoff(min(eps, eps * abs(total)) if total != 0.0 else eps)
    if refined > y_max:
        total = math.fsum(
            weight(y) * pmf_by_terms(params, y) for y in range(refined + 1)
        )
    return total


def oracle_quantile(params: Params, p: float) -> int:
    """Smallest y whose cumulative mass reaches p, by direct accumulation.

    The comparison carries the same sub-1e-12 slack as the closed-form
    quantile so both resolve exact-hit points identically.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ParameterError(f"quantile level must lie in (0, 1), got {p!r}")
    thr = p - min(1e-12, 0.5 * p)
    acc = 0.0
    cap = tail_bound(params, Tolerance(1e-15)) + 1
    for y in range(cap + 1):
        acc += pmf_by_terms(params, y)
        if acc >= thr:
            return y
    return cap


def oracle_mode(params: Params) -> int:
    """argmax of the pmf by exhaustive scan, ties toward the smaller y."""
    y_max = tail_bound(params, Tolerance(1e-15))
    best_y = 0
    best_p = pmf_by_terms(params, 0)
    for y in range(1, y_max + 1):
        p = pmf_by_terms(params, y)
        if p > best_p:
            best_y, best_p = y, p
    return best_y
