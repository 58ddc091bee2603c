"""Numeric kernels against scipy/mpmath references."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtri

from ordmed.numerics import (
    expit, expit_pair, inverse_normal_cdf, keyed_stream, log1pexp, log1pexp_expit, stream_keys,
)

from conftest import plain_inverse_normal_cdf, plain_stream


def _where_maps(z):
    """expit(z), expit(-z) and log1pexp(z) by explicit branches on the sign
    of z, each from exp(-|z|): a plain reference for the one-pass maps."""
    z = np.asarray(z, dtype=float)
    ez = np.exp(-np.abs(z))
    denom = 1.0 + ez
    large, small = 1.0 / denom, ez / denom
    return (np.where(z >= 0.0, large, small), np.where(z <= 0.0, large, small),
            np.maximum(z, 0.0) + np.log1p(ez))


def _same_bits(got, ref):
    # bit for bit, with every NaN equal to every NaN
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    both_nan = np.isnan(got) & np.isnan(ref)
    return bool(np.all(both_nan | (got.view(np.uint64) == ref.view(np.uint64))))


class TestExpit:
    def test_matches_reference_on_grid(self):
        z = np.linspace(-40, 40, 401)
        ref = np.array([float(1 / (1 + mpmath.exp(-mpmath.mpf(v)))) for v in z])
        assert np.allclose(expit(z), ref, rtol=1e-15, atol=0)

    def test_no_overflow_at_extremes(self):
        with np.errstate(over="raise"):
            assert expit(800.0) == 1.0
            assert expit(-800.0) == 0.0
            assert expit(36.0) < 1.0
            assert expit(-36.0) > 0.0

    @given(st.floats(-700, 700))
    def test_symmetry(self, z):
        assert expit(-z) == pytest.approx(1.0 - expit(z), abs=1e-15)

    def test_scalar_in_scalar_out(self):
        assert isinstance(expit(0.3), float)
        assert expit(0.0) == 0.5


class TestMapsBitwise:
    """expit, expit_pair and log1pexp_expit equal the branch-wise reference
    bit for bit, on the special values and the ranges where exp() leaves its
    fast path, as scalars and as 3-d arrays."""

    @staticmethod
    def values():
        rng = np.random.default_rng(160)
        edges = np.arange(708.0, 746.25, 0.25)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -1e-310,
                            709.782712893384, -709.782712893384, 745.1332191019411, -745.1332191019411])
        subnormal = rng.choice([-1.0, 1.0], 400) * np.ldexp(rng.random(400), rng.integers(-1074, -1021, 400))
        normal = np.concatenate([rng.normal(0.0, scale, 2000) for scale in (1e-8, 1.0, 5.0, 40.0, 300.0, 800.0)])
        return np.concatenate([special, edges, -edges, subnormal, normal, rng.uniform(-800.0, 800.0, 2000)])

    def test_arrays(self):
        z = self.values()
        z = z[: z.size // 12 * 12].reshape(3, 4, -1)
        up, down, log_norm = _where_maps(z)
        assert _same_bits(expit(z), up)
        pair = expit_pair(z)
        assert _same_bits(pair[0], up) and _same_bits(pair[1], down)
        both = log1pexp_expit(z)
        assert _same_bits(both[0], log_norm) and _same_bits(both[1], up)

    def test_scalars(self):
        for v in self.values()[::7].tolist():
            up, down, log_norm = _where_maps(v)
            got = expit(v)
            assert isinstance(got, float) and _same_bits(got, up)
            pair = expit_pair(v)
            assert _same_bits(pair[0], up) and _same_bits(pair[1], down)
            both = log1pexp_expit(v)
            assert _same_bits(both[0], log_norm) and _same_bits(both[1], up)


class TestLog1pExp:
    def test_matches_reference_on_grid(self):
        z = np.concatenate([np.linspace(-50, 50, 201), [-800.0, 800.0, 0.0]])
        ref = np.array([float(mpmath.log1p(mpmath.exp(mpmath.mpf(v)))) for v in z])
        with np.errstate(over="raise"):
            assert np.allclose(log1pexp(z), ref, rtol=1e-15, atol=1e-300)

    def test_large_argument_is_identity(self):
        assert log1pexp(800.0) == 800.0


class TestInverseNormalCdf:
    def test_matches_scipy_over_full_range(self):
        p = np.concatenate([
            np.logspace(-300, -1, 600),
            np.linspace(0.001, 0.999, 999),
            1.0 - np.logspace(-16, -1, 160),
        ])
        ours = inverse_normal_cdf(p)
        ref = ndtri(p)
        assert np.allclose(ours, ref, rtol=1e-13, atol=1e-13)

    def test_symmetry_and_median(self):
        assert inverse_normal_cdf(0.5) == 0.0
        p = np.linspace(0.01, 0.49, 49)
        assert np.allclose(inverse_normal_cdf(1 - p), -inverse_normal_cdf(p), rtol=1e-13)

    def test_monotone(self):
        p = np.linspace(1e-12, 1 - 1e-12, 2001)
        assert np.all(np.diff(inverse_normal_cdf(p)) > 0)

    def test_equals_plain_reference_bitwise(self, rng):
        # the simulator's inputs (k + 0.5) * 2^-53, plain uniforms, and the
        # AS 241 branch edges: |q| = 0.425, r = 5 (p = exp(-25)), the
        # neighbours of 0.5, and a far-tail p below 2^-53
        tiny = np.exp(-25.0)
        edges = np.array([0.075, 0.925, np.nextafter(tiny, 0.0), tiny, np.nextafter(tiny, 1.0),
                          0.5 - 2.0**-53, 0.5, 0.5 + 2.0**-53, 2.0**-54, 1.0 - 2.0**-53])
        k = rng.integers(0, 1 << 53, size=(24, 500))
        for p in ((k + 0.5) * 2.0**-53, rng.random(10_000), edges, 1.0 - edges[edges > 0.5]):
            assert inverse_normal_cdf(p).tobytes() == plain_inverse_normal_cdf(p).tobytes()
        for p in edges:
            assert np.float64(inverse_normal_cdf(p)).tobytes() == plain_inverse_normal_cdf(p).tobytes()

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3, np.nan, np.inf])
    def test_rejects_endpoints(self, bad):
        with pytest.raises(ValueError):
            inverse_normal_cdf(bad)
        with pytest.raises(ValueError):
            inverse_normal_cdf(np.array([0.3, bad, 0.6]))


class TestKeyedStream:
    def test_same_key_same_stream(self):
        a = keyed_stream(7, 1, 2).random(5)
        b = keyed_stream(7, 1, 2).random(5)
        assert np.array_equal(a, b)

    def test_different_keys_differ(self):
        a = keyed_stream(7, 1, 2).random(5)
        b = keyed_stream(7, 1, 3).random(5)
        c = keyed_stream(8, 1, 2).random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("args", [(4,), (2, np.uint32)])
    def test_precomputed_key_serves_only_the_philox_request(self, args):
        # the key is the generate_state(2, np.uint64) of its SeedSequence; any
        # other request would need the SeedSequence itself
        key = keyed_stream(7, 1, 2).bit_generator.seed_seq
        with pytest.raises(ValueError, match=r"exactly generate_state\(2, np.uint64\)"):
            key.generate_state(*args)


# seeds and key entries near the ends of their ranges and the 2**32 boundary
_SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.integers(2**32 - 2, 2**32 + 1), st.sampled_from([0, 1, 2**64 - 1]))
_ENTRIES = st.one_of(st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 2**31, 2**32 - 1]))


class TestStreamKeys:
    @given(st.integers(0, 4).flatmap(lambda k: st.lists(
        st.tuples(_SEEDS, st.lists(_ENTRIES, min_size=k, max_size=k)), min_size=1, max_size=8)))
    def test_rows_equal_seed_sequence(self, rows):
        seeds = np.array([seed for seed, _ in rows], dtype=np.uint64)
        keys = np.array([key for _, key in rows], dtype=np.uint64).reshape(len(rows), -1)
        want = [np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)).generate_state(2, np.uint64).tolist()
                for seed, key in rows]
        assert stream_keys(seeds, keys).tolist() == want
        assert stream_keys(int(seeds[0]), keys[:1]).tolist() == want[:1]

    @given(_SEEDS, st.lists(_ENTRIES, max_size=3))
    def test_keyed_stream_is_the_seed_sequence_stream(self, seed, key):
        assert keyed_stream(seed, *key).random(4).tobytes() == plain_stream(seed, *key).random(4).tobytes()

    @pytest.mark.parametrize("seeds, keys", [
        (0, [[2**32]]), (0, [[1, -1]]), (0, [[0.5]]), (-1, [[0]]), (2**64, [[0]]), ([1, 2.5], [[0], [0]]),
    ])
    def test_values_outside_the_ranges_raise(self, seeds, keys):
        with pytest.raises(ValueError, match="must be whole numbers in"):
            stream_keys(seeds, keys)
