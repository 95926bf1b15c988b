"""Shared grids and reference helpers for the test suite."""

import operator

import pytest

from tgd import Params

# 19 x 21 parameter grid: q in 0.05..0.95 step 0.05, alpha in -1..1 step 0.1
GRID_Q = [round(0.05 * i, 2) for i in range(1, 20)]
GRID_ALPHA = [round(-1.0 + 0.1 * j, 1) for j in range(21)]


def full_grid() -> list[Params]:
    return [Params(q, a) for q in GRID_Q for a in GRID_ALPHA]


def coarse_grid() -> list[Params]:
    qs = (0.1, 0.3, 0.5, 0.7, 0.9)
    alphas = (-1.0, -0.5, 0.0, 0.5, 1.0)
    return [Params(q, a) for q in qs for a in alphas]


@pytest.fixture(scope="session")
def grid() -> list[Params]:
    return full_grid()


@pytest.fixture(scope="session")
def small_grid() -> list[Params]:
    return coarse_grid()


def bridge_cdf(params: Params, y: int) -> float:
    """cdf assembled exactly as the bridge sampler mixes its components.

    For alpha >= 0 this is (1-alpha)*F + alpha*(2F - F**2); for alpha < 0 it
    is (1+alpha)*F + (-alpha)*F**2, with F the GD(q) cdf.  Agrees with
    ``tgd.core.cdf`` identically in exact arithmetic.
    """
    y = operator.index(y)
    if y < 0:
        return 0.0
    q, a = params.q, params.alpha
    f = 1.0 - q ** (y + 1)
    if a >= 0.0:
        return (1.0 - a) * f + a * (2.0 * f - f * f)
    return (1.0 + a) * f + (-a) * f * f
