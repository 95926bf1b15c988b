"""Random variate generation for TGD(q, alpha).

Two structurally independent generators are provided so each can validate
the other:

* ``inverse`` pushes one uniform per draw through the closed-form quantile.
  ``sample_many`` reads the stream's uniforms in blocks, each built in one
  numpy pass from the stream's own MT19937 words, and inverts each block in
  one array pass; the draws equal those of ``sample_inverse`` one uniform at
  a time.
* ``bridge`` exploits the mixture structure of the family: with probability
  1 - |alpha| emit a single geometric variate, otherwise emit the minimum
  (alpha >= 0) or maximum (alpha < 0) of an independent pair.  It stays
  per-draw, as the independent reference.

Streams are single-owner mutable state; run parallel batches on separate
streams with distinct seeds.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from enum import Enum
from itertools import chain

import numpy as np

from .core import ParameterError, Params, _quantiles, quantile

__all__ = [
    "RandomStream",
    "SampleMethod",
    "SampleBatch",
    "sample_inverse",
    "sample_bridge",
    "sample_many",
]

# Uniforms per array pass of the inverse sampler: whole 1e5-draw arrays show
# in peak memory, blocks of this size do not.
_BLOCK = 8192


class RandomStream:
    """Seedable uniform source: same seed, same sequence.

    Backed by the standard library Mersenne Twister, whose ``random()``
    yields uniforms on [0, 1) with 53-bit resolution; it is the stream's
    only generator, for single draws and blocks alike.
    """

    __slots__ = ("seed", "_rng")

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if not 0 <= seed < 2**64:
            raise ParameterError(f"seed must be an unsigned 64-bit integer, got {seed}")
        self.seed = seed
        self._rng = random.Random(seed)

    def uniform(self) -> float:
        """Next uniform variate on [0, 1)."""
        return self._rng.random()

    def uniforms(self, n: int) -> np.ndarray:
        """The next ``n`` uniforms as a float64 array, equal to ``n`` calls of
        :meth:`uniform` and leaving the stream where those calls would.

        ``getrandbits(64 * n)`` holds the next 2n 32-bit outputs, the first
        in the lowest word, and ``random()`` forms each double from a pair
        (a, b) as ((a >> 5) * 2**26 + (b >> 6)) / 2**53, exactly in float64.
        """
        n = operator.index(n)
        if n < 0:
            raise ParameterError(f"n must be a non-negative integer, got {n}")
        words = np.frombuffer(self._rng.getrandbits(64 * n).to_bytes(8 * n, "little"), "<u4")
        return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 9007199254740992.0


class SampleMethod(Enum):
    INVERSE = "inverse"
    BRIDGE = "bridge"


@dataclass(frozen=True)
class SampleBatch:
    """One reproducible batch of variates plus everything needed to redo it."""

    values: tuple[int, ...]
    params: Params
    seed: int
    method: SampleMethod


def sample_inverse(params: Params, u: float) -> int:
    """Variate for one uniform: smallest y with cdf(y) >= u (0 when u = 0).

    Shares the quantile closed form and its one-step cdf correction.
    """
    u = float(u)
    if not 0.0 <= u < 1.0:
        raise ParameterError(f"u must lie in [0, 1), got {u!r}")
    if u == 0.0:
        return 0
    return quantile(params, u)


def _geometric_inverse(q: float, u: float) -> int:
    # floor(log(1-u)/log q) turns one uniform into a GD(q) variate.
    if u <= 0.0:
        return 0
    return int(math.log1p(-u) / math.log(q))


def sample_bridge(params: Params, stream: RandomStream) -> int:
    """One variate via the min/max mixture construction.

    Uniform consumption is fixed per draw given the branch: one branch
    uniform, then one more for a single draw or two for a pair.
    """
    q, a = params.q, params.alpha
    branch = stream.uniform()
    single_weight = 1.0 - a if a >= 0.0 else 1.0 + a
    if branch < single_weight:
        return _geometric_inverse(q, stream.uniform())
    first = _geometric_inverse(q, stream.uniform())
    second = _geometric_inverse(q, stream.uniform())
    return min(first, second) if a >= 0.0 else max(first, second)


def sample_many(
    params: Params,
    n: int,
    seed: int,
    method: SampleMethod | str = SampleMethod.INVERSE,
) -> SampleBatch:
    """Draw ``n`` variates from a stream freshly seeded with ``seed``."""
    n = operator.index(n)
    if n < 1:
        raise ParameterError(f"n must be a positive integer, got {n}")
    method = SampleMethod(method)
    stream = RandomStream(seed)
    if method is SampleMethod.INVERSE:
        values = tuple(chain.from_iterable(
            _quantiles(params, stream.uniforms(min(_BLOCK, n - done))).tolist()
            for done in range(0, n, _BLOCK)
        ))
    else:
        values = tuple(sample_bridge(params, stream) for _ in range(n))
    return SampleBatch(values=values, params=params, seed=stream.seed, method=method)

