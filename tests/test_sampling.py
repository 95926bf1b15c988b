"""Samplers: stream determinism, inversion, the min/max mixture, batches."""

import math
import time

import numpy as np
import pytest

from conftest import bridge_cdf
from tgd import (
    ParameterError,
    Params,
    RandomStream,
    SampleMethod,
    cdf,
    median,
    pmf,
    sample_bridge,
    sample_inverse,
    sample_many,
)
from tgd.core import _quantiles
from tgd.sampling import _BLOCK

P55 = Params(0.5, 0.5)
SEEDS = (0, 1, 2**63, 2**64 - 1)
# one draw, one block, a block and one, and three blocks and a remainder
SIZES = (1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5)


def _geom(q: float, u: float) -> int:
    return int(math.log1p(-u) / math.log(q)) if u > 0 else 0


class TestRandomStream:
    def test_determinism(self):
        a = RandomStream(12345)
        b = RandomStream(12345)
        assert [a.uniform() for _ in range(100)] == [b.uniform() for _ in range(100)]

    def test_range_and_resolution(self):
        s = RandomStream(7)
        for _ in range(1000):
            u = s.uniform()
            assert 0.0 <= u < 1.0
            assert (u * 2**53) == int(u * 2**53)  # 53-bit lattice

    @pytest.mark.parametrize("seed", SEEDS)
    def test_uniforms_continue_the_stream(self, seed):
        stream, mirror = RandomStream(seed), RandomStream(seed)
        for n in (0, 1, 5, _BLOCK + 1):
            u = stream.uniforms(n)
            assert u.dtype == np.float64
            assert u.tolist() == [mirror.uniform() for _ in range(n)]
            assert stream.uniform() == mirror.uniform()

    def test_one_generator_per_stream(self, monkeypatch):
        # blocks come from the stream's own Mersenne Twister: with numpy's
        # RandomState out of reach, both block readers still replay the
        # per-draw stream across a block boundary
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.random.RandomState was built")

        monkeypatch.setattr(np.random, "RandomState", refuse)
        for seed in SEEDS:
            for n in (_BLOCK - 1, _BLOCK + 1):
                stream, mirror = RandomStream(seed), RandomStream(seed)
                assert stream.uniforms(n).tolist() == [mirror.uniform() for _ in range(n)]
                assert stream._rng.getstate() == mirror._rng.getstate()
                assert list(sample_many(P55, n, seed).values) == _replay_inverse(P55, n, seed)

    def test_uniforms_count_validation(self):
        with pytest.raises(ParameterError):
            RandomStream(1).uniforms(-1)

    def test_seed_validation(self):
        with pytest.raises(ParameterError):
            RandomStream(-1)
        with pytest.raises(ParameterError):
            RandomStream(2**64)
        assert RandomStream(2**64 - 1).seed == 2**64 - 1


class TestSampleInverse:
    def test_zero_uniform(self):
        assert sample_inverse(P55, 0.0) == 0

    def test_jump_bracketing(self):
        assert sample_inverse(P55, 0.624) == 0
        assert sample_inverse(P55, 0.626) == 1

    def test_median_agreement(self):
        p = Params(0.9, -0.5)
        assert sample_inverse(p, 0.5) == median(p) == 9

    @pytest.mark.parametrize("u", [-0.1, 1.0, 1.5, float("nan")])
    def test_domain(self, u):
        with pytest.raises(ParameterError):
            sample_inverse(P55, u)


class TestSampleBridge:
    def test_alpha_zero_matches_geometric_inversion(self):
        # weight 1 on the single branch: stream consumes branch + one uniform
        p = Params(0.4, 0.0)
        stream = RandomStream(99)
        mirror = RandomStream(99)
        for _ in range(200):
            v = sample_bridge(p, stream)
            mirror.uniform()  # branch draw
            assert v == _geom(p.q, mirror.uniform())

    def test_min_case_empirical(self):
        # alpha = 1 is GD(q**2); check the empirical zero fraction
        p = Params(0.5, 1.0)
        batch = sample_many(p, 20000, 4242, SampleMethod.BRIDGE)
        frac0 = batch.values.count(0) / len(batch.values)
        assert frac0 == pytest.approx(0.75, abs=0.01)

    def test_max_case_empirical(self):
        # pinned-seed check of P(Y=1) = 0.3125 at (0.5, -1), 3 sigma at n=1e6
        p = Params(0.5, -1.0)
        n = 10**6
        batch = sample_many(p, n, 20267, SampleMethod.BRIDGE)
        frac1 = batch.values.count(1) / n
        sigma = math.sqrt(0.3125 * (1 - 0.3125) / n)
        assert abs(frac1 - 0.3125) <= 3 * sigma

    def test_pair_branch_consumes_three_uniforms(self):
        # alpha = -1 always takes the pair branch: branch draw plus two
        # variate draws, so a mirror stream stays aligned draw after draw
        p = Params(0.5, -1.0)
        stream = RandomStream(5150)
        mirror = RandomStream(5150)
        for _ in range(200):
            v = sample_bridge(p, stream)
            mirror.uniform()
            a = _geom(p.q, mirror.uniform())
            b = _geom(p.q, mirror.uniform())
            assert v == max(a, b)


class TestSampleMany:
    def test_reproducible(self):
        a = sample_many(P55, 5, 42, SampleMethod.INVERSE)
        b = sample_many(P55, 5, 42, SampleMethod.INVERSE)
        assert a.values == b.values
        assert a.seed == 42 and a.method is SampleMethod.INVERSE

    def test_method_accepts_string(self):
        assert sample_many(P55, 3, 1, "bridge").method is SampleMethod.BRIDGE

    def test_n_validation(self):
        with pytest.raises(ParameterError):
            sample_many(P55, 0, 42)

    def test_mean_inverse(self):
        n = 10**6
        batch = sample_many(P55, n, 123, SampleMethod.INVERSE)
        mean = sum(batch.values) / n
        bound = 4.0 * math.sqrt((4.0 / 3.0) / n)
        assert abs(mean - 2.0 / 3.0) <= bound

    def test_mean_bridge(self):
        n = 10**6
        batch = sample_many(P55, n, 123, SampleMethod.BRIDGE)
        mean = sum(batch.values) / n
        bound = 4.0 * math.sqrt((4.0 / 3.0) / n)
        assert abs(mean - 2.0 / 3.0) <= bound


def _replay_inverse(params, n, seed):
    stream = RandomStream(seed)
    return [sample_inverse(params, stream.uniform()) for _ in range(n)]


# 1 - q log-spaced from 1e-13 to 0.95, and the ends of the q range
IDENTITY_QS = [1 - 10.0**e for e in np.linspace(-13, math.log10(0.95), 8)] + [1e-300, 1 - 2**-53]
IDENTITY_ALPHAS = [-1.0, -0.5, 0.0, 0.3, 1.0]


class TestInverseBatch:
    @pytest.mark.parametrize("q", IDENTITY_QS)
    @pytest.mark.parametrize("a", IDENTITY_ALPHAS)
    def test_equals_per_draw_inversion(self, q, a):
        # every case meets each seed and each size once; the pairing of
        # seeds with sizes rotates from case to case
        k = IDENTITY_QS.index(q) + IDENTITY_ALPHAS.index(a)
        params = Params(q, a)
        for i, seed in enumerate(SEEDS):
            n = SIZES[(i + k) % len(SIZES)]
            assert list(sample_many(params, n, seed).values) == _replay_inverse(params, n, seed)

    @pytest.mark.parametrize("q", [0.5, 1 - 1e-13, 1 - 2**-53])
    def test_array_pass_at_the_ends_of_the_level_range(self, q):
        params = Params(q, -1.0)
        u = [0.0, 2**-53, 1e-12, 0.5, 1 - 2**-53]
        assert _quantiles(params, np.array(u)).tolist() == [sample_inverse(params, v) for v in u]

    def test_values_are_python_ints(self):
        values = sample_many(P55, 10, 3).values
        assert type(values) is tuple and {type(v) for v in values} == {int}

    @pytest.mark.parametrize("a", [-1.0, 0.3, 1.0])
    def test_bounded_next_to_one(self, a):
        # float y stops counting at 2**53, which the answers here pass
        params = Params(1 - 2**-53, a)
        start = time.perf_counter()
        values = sample_many(params, 10**4, 11).values
        assert time.perf_counter() - start < 1.0
        assert max(values) > 2**53
        assert values[:50] == tuple(_replay_inverse(params, 50, 11))


class TestBridgeCdf:
    def test_matches_closed_form(self, grid):
        for p in grid:
            for y in range(0, 120, 7):
                assert bridge_cdf(p, y) == pytest.approx(cdf(p, y), abs=1e-12)

    def test_negative_argument(self):
        assert bridge_cdf(P55, -3) == 0.0

    def test_increments_are_pmf(self, small_grid):
        for p in small_grid:
            for y in range(30):
                inc = bridge_cdf(p, y) - bridge_cdf(p, y - 1)
                assert inc == pytest.approx(pmf(p, y), abs=1e-12)
