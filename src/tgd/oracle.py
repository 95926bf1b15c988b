"""Brute-force reference implementations: truncated sums and linear scans.

Every summed term is the mass function re-evaluated as the literal
two-component sum (1-alpha)*q**y*(1-q) + alpha*q**(2y)*(1-q**2), cdf values
are built by cumulative summation, and the mode by exhaustive scan, so
agreement with :mod:`tgd.core` and :mod:`tgd.moments` is genuine
cross-validation rather than shared code.  Only the truncation point is not:
:func:`tail_bound`, and through it every :func:`oracle_sum` cut-off, comes
from the survival function of :mod:`tgd.core`.

Everything is O(tail length) by design, but no scan takes a Python call per
support point: each is a numpy pass over blocks of ``_BLOCK`` consecutive
support points, as float64 aranges.  A block's terms are evaluated at once;
sums go through :func:`math.fsum` block by block and the block sums are
joined with :func:`math.fsum`; running sums are one sequential
``np.cumsum`` carried from block to block, the same left-to-right additions
as a loop; maxima are ``np.argmax``, whose first maximum breaks ties toward
the smaller y.  Memory stays within a few blocks whatever the tail length.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .core import ParameterError, Params, _as_integer, _survival_at

__all__ = [
    "Tolerance",
    "pmf_by_terms",
    "tail_bound",
    "oracle_sum",
    "oracle_cdf",
    "oracle_quantile",
    "oracle_mode",
]

_SCAN_CAP = 10**7
_BLOCK = 8192


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


def _blocks(start: int, stop: int, size: int = _BLOCK) -> Iterator[np.ndarray]:
    """float64 aranges of at most ``size`` consecutive support points, in
    order, covering start .. stop - 1."""
    for lo in range(start, stop, size):
        yield np.arange(lo, min(lo + size, stop), dtype=np.float64)


def pmf_by_terms(params: Params, y):
    """P(Y = y) as the literal two-term sum, with no factoring.

    ``y`` is a support point or a float64 array of them.
    """
    q, a = params.q, params.alpha
    return (1.0 - a) * q**y * (1.0 - q) + a * q ** (2 * y) * (1.0 - q * q)


def tail_bound(params: Params, tol: Tolerance | float = Tolerance()) -> int:
    """Smallest y with survival(y) < eps.

    survival(y) lies between q**(2y) and 2*q**y, so the answer lies above
    log(eps)/(2 log q) and at most at log(eps/2)/log q; bisection on the
    survival function between those bounds pins it.
    """
    eps = _eps(tol)
    q, a = params.q, params.alpha
    log_q = math.log(q)

    def below(y: int) -> bool:
        return _survival_at(q, a, y) < eps

    hi = math.ceil(math.log(eps / 2.0) / log_q)
    while not below(hi):  # rounding in the bound
        hi += 1
    lo = min(math.floor(math.log(eps) / (2.0 * log_q)), hi - 1)
    if below(lo):  # rounding again; survival(0) = 1 >= eps
        lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid):
            hi = mid
        else:
            lo = mid
    return hi


def oracle_sum(
    params: Params,
    weight: Callable[[np.ndarray], np.ndarray | float],
    tol: Tolerance | float = Tolerance(),
) -> float:
    """Sum of weight(y) * pmf(y) over the support, truncated once the
    weighted tail is negligible.

    ``weight`` is applied elementwise to a float64 array of consecutive
    support points and returns an array of the same length, or a constant,
    which is broadcast; it must be polynomially bounded.  The terms are
    ``weight(ys) * pmf_by_terms(params, ys)``, summed by :func:`math.fsum`
    block by block, and the block sums are joined by :func:`math.fsum`.

    The cut-off from :func:`tail_bound` is pushed out to the first y at
    which |weight| * survival is below eps and does not rise to y + 1, so
    that the bound holds from y onward, not only at y: a zero of the weight
    is no cut-off when the weight is non-zero after it.  Where the sum is
    below 1 in magnitude, it is pushed out once more against eps times that
    magnitude, so the truncation error is small relative to the result even
    when the result itself is tiny.
    """
    eps = _eps(tol)
    q, a = params.q, params.alpha

    def cutoff(threshold: float) -> int:
        y = tail_bound(params, min(threshold, 0.5))
        # a polynomial weight keeps the tail above the threshold for a
        # stretch about as long as the bound, so the walk takes blocks of
        # that length
        for ys in _blocks(y, _SCAN_CAP, min(_BLOCK, y + 1)):
            ext = np.append(ys, ys[-1] + 1.0)
            tail = np.abs(weight(ext)) * _survival_at(q, a, ext)
            # the bound holds from y onward once the weighted tail is below
            # the threshold and no longer rising; past a zero of the weight
            # it rises again
            holds = (tail[:-1] < threshold) & (tail[1:] <= tail[:-1])
            if holds.any():
                return int(ys[holds.argmax()])
        return max(y, _SCAN_CAP)

    def block_sums(start: int, stop: int) -> list[float]:
        return [math.fsum((weight(ys) * pmf_by_terms(params, ys)).tolist())
                for ys in _blocks(start, stop)]

    y_max = cutoff(eps)
    sums = block_sums(0, y_max + 1)
    total = math.fsum(sums)
    if 0.0 < abs(total) < 1.0:
        refined = cutoff(eps * abs(total))
        if refined > y_max:
            sums += block_sums(y_max + 1, refined + 1)
            total = math.fsum(sums)
    return total


def _running_sums(params: Params, stop: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(ys, the pmf summed from 0 through each y) block by block over
    y = 0 .. stop - 1, each sum the previous one plus the next term."""
    acc = 0.0
    for ys in _blocks(0, stop):
        sums = np.cumsum(np.concatenate(([acc], pmf_by_terms(params, ys))))[1:]
        acc = sums[-1]
        yield ys, sums


def oracle_cdf(params: Params, y: int) -> float:
    """P(Y <= y) by direct accumulation from 0; zero for negative y."""
    y = _as_integer(y)
    acc = 0.0
    for _, sums in _running_sums(params, y + 1):
        acc = float(sums[-1])
    return acc


def oracle_quantile(params: Params, p: float) -> int:
    """Smallest y whose cumulative mass reaches p, by direct accumulation.

    The comparison carries the same sub-1e-12 slack as the closed-form
    quantile so both resolve exact-hit points identically.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ParameterError(f"quantile level must lie in (0, 1), got {p!r}")
    thr = p - min(1e-12, 0.5 * p)
    cap = tail_bound(params, Tolerance(1e-15)) + 1
    for ys, sums in _running_sums(params, cap + 1):
        reached = sums >= thr
        if reached.any():
            return int(ys[reached.argmax()])
    return cap


def oracle_mode(params: Params) -> int:
    """argmax of the pmf by exhaustive scan, ties toward the smaller y."""
    best_y, best_p = 0, -math.inf
    for ys in _blocks(0, tail_bound(params, Tolerance(1e-15)) + 1):
        p = pmf_by_terms(params, ys)
        i = int(p.argmax())
        if p[i] > best_p:
            best_y, best_p = int(ys[i]), p[i]
    return best_y
