"""Tests for hash families."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gnp import _Substream
from repro.sketch.hashing import (
    MERSENNE_P31,
    BernoulliHash,
    KWiseHash,
    SignHash,
    StackedKWiseBank,
    SubsampleHash,
    VectorKWiseHash,
)
from repro.util.rng import as_source


class TestKWiseHash:
    def test_range_respected(self):
        h = KWiseHash(10, 2, seed=1)
        assert all(0 <= h(x) < 10 for x in range(1000))

    def test_deterministic(self):
        h1 = KWiseHash(100, 2, seed=5)
        h2 = KWiseHash(100, 2, seed=5)
        assert [h1(x) for x in range(50)] == [h2(x) for x in range(50)]

    def test_different_seeds_differ(self):
        h1 = KWiseHash(1000, 2, seed=5)
        h2 = KWiseHash(1000, 2, seed=6)
        assert [h1(x) for x in range(50)] != [h2(x) for x in range(50)]

    def test_roughly_uniform(self):
        h = KWiseHash(4, 2, seed=7)
        counts = np.bincount([h(x) for x in range(4000)], minlength=4)
        assert counts.min() > 700  # expected 1000 each

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            KWiseHash(0, 2)
        with pytest.raises(ValueError):
            KWiseHash(4, 0)

    def test_many_matches_scalar(self):
        h = KWiseHash(64, 4, seed=2)
        xs = list(range(20))
        assert list(h.many(xs)) == [h(x) for x in xs]


class TestSignHash:
    def test_values_are_signs(self):
        s = SignHash(4, seed=1)
        assert set(s(x) for x in range(200)) <= {-1, 1}

    def test_roughly_balanced(self):
        s = SignHash(4, seed=2)
        total = sum(s(x) for x in range(4000))
        assert abs(total) < 400

    def test_pairwise_products_balanced(self):
        """4-wise independence implies E[s(x)s(y)] = 0 for x != y."""
        s = SignHash(4, seed=3)
        corr = sum(s(2 * i) * s(2 * i + 1) for i in range(2000))
        assert abs(corr) < 300


class TestVectorKWiseHash:
    def test_shapes(self):
        v = VectorKWiseHash(17, 4, seed=1)
        assert v.values(5).shape == (17,)
        assert v.signs(5).shape == (17,)

    def test_signs_plus_minus_one(self):
        v = VectorKWiseHash(64, 4, seed=2)
        signs = v.signs(123)
        assert set(np.unique(signs)) <= {-1.0, 1.0}

    def test_deterministic(self):
        a = VectorKWiseHash(32, 4, seed=9).signs(7)
        b = VectorKWiseHash(32, 4, seed=9).signs(7)
        assert np.array_equal(a, b)

    def test_register_balance(self):
        v = VectorKWiseHash(512, 4, seed=4)
        total = sum(v.signs(x).sum() for x in range(200)) / (512 * 200)
        assert abs(total) < 0.05

    def test_invalid(self):
        with pytest.raises(ValueError):
            VectorKWiseHash(0)


class TestSubsampleHash:
    def test_levels_nested(self):
        sub = SubsampleHash(10, seed=1)
        for x in range(500):
            depth = sub.level(x)
            for j in range(depth + 1):
                assert sub.survives(x, j)
            if depth < sub.levels:
                assert not sub.survives(x, depth + 1)

    def test_level_zero_universal(self):
        sub = SubsampleHash(5, seed=2)
        assert all(sub.survives(x, 0) for x in range(100))

    def test_geometric_decay(self):
        sub = SubsampleHash(12, seed=3)
        survivors_1 = sum(sub.survives(x, 1) for x in range(4000))
        survivors_2 = sum(sub.survives(x, 2) for x in range(4000))
        assert 1500 < survivors_1 < 2500
        assert 700 < survivors_2 < 1400

    def test_level_bounds_checked(self):
        sub = SubsampleHash(3, seed=4)
        with pytest.raises(ValueError):
            sub.survives(0, 4)
        with pytest.raises(ValueError):
            sub.survives(0, -1)

    def test_needs_a_level(self):
        with pytest.raises(ValueError):
            SubsampleHash(0)


class TestBernoulliHash:
    def test_zero_one(self):
        b = BernoulliHash(seed=1)
        assert set(b(x) for x in range(100)) <= {0, 1}

    def test_balanced(self):
        b = BernoulliHash(seed=2)
        total = sum(b(x) for x in range(4000))
        assert 1700 < total < 2300


# Batched Horner kernel vs the scalar evaluators.  The kernel folds lazily
# and relies on every step value fitting in uint64; the largest values
# arise with every coefficient at p - 1 and arguments at p - 1 or p - 2,
# so these cases pin the bound.

P31 = MERSENNE_P31
# Items whose argument (x + 1) mod p is p - 1 or p - 2, plus the edges.
WORST_ITEMS = np.array(
    [P31 - 2, P31 - 3, -2, -3, 2 * P31 - 2, -1, 0, P31 - 1, P31, 12345],
    dtype=np.int64,
)


def _kwise(range_size: int, independence: int, coeffs) -> KWiseHash:
    h = KWiseHash(range_size, independence, seed=0)
    h._coeffs = [int(c) for c in coeffs]
    return h


class TestHornerKernel:
    @pytest.mark.parametrize("independence", range(1, 9))
    @pytest.mark.parametrize("range_size", [2, 1000, 1 << 14])
    def test_kwise_worst_case(self, independence, range_size):
        h = _kwise(range_size, independence, [P31 - 1] * independence)
        assert h.values_batch(WORST_ITEMS).tolist() == [h(int(x)) for x in WORST_ITEMS]

    @pytest.mark.parametrize("independence", range(1, 9))
    def test_vector_worst_case(self, independence):
        v = VectorKWiseHash(5, independence, seed=0)
        v._coeffs[:] = P31 - 1
        scalar = np.array([v.values(int(x)) for x in WORST_ITEMS])
        assert np.array_equal(v.values_batch(WORST_ITEMS), scalar)
        signs = np.array([v.signs(int(x)) for x in WORST_ITEMS])
        assert np.array_equal(v.signs_batch(WORST_ITEMS), signs)

    @pytest.mark.parametrize("independence", range(1, 9))
    @pytest.mark.parametrize("range_size", [2, 1000, 1 << 14])
    def test_stacked_worst_case(self, independence, range_size):
        hashes = [
            _kwise(range_size, independence, [P31 - 1 - c] + [P31 - 1] * (independence - 1))
            for c in range(3)
        ]
        bank = StackedKWiseBank.from_hashes(hashes)
        stacked = bank.values_batch(WORST_ITEMS)
        for column, h in enumerate(hashes):
            assert stacked[:, column].tolist() == [h(int(x)) for x in WORST_ITEMS]
        if range_size == 2:
            signs = bank.signs_batch(WORST_ITEMS)
            for column, h in enumerate(hashes):
                assert signs[:, column].tolist() == [
                    1.0 if h(int(x)) == 1 else -1.0 for x in WORST_ITEMS
                ]

    def test_gnp_trial_hash_worst_case(self):
        sub = _Substream(8, 6, as_source(3, "gnp-worst"))
        for bern in sub._bernoulli:
            bern._hash._coeffs = [P31 - 1, P31 - 1]
        # Items are nonnegative in g_np; these take arguments p - 1, p - 2.
        items = np.array([P31 - 2, P31 - 3, 2 * P31 - 2, 0, 5, P31 - 2], dtype=np.int64)
        deltas = np.array([3, -1, 2, 1, 4, 2], dtype=np.int64)
        scalar = sub.fresh()
        for x, d in zip(items.tolist(), deltas.tolist()):
            scalar.update(x, d)
        sub.update_batch(items, deltas)
        assert sub.trial_counters == scalar.trial_counters
        assert sub.bit_counters == scalar.bit_counters

    @settings(max_examples=60, deadline=None)
    @given(
        coeffs=st.lists(st.integers(0, P31 - 1), min_size=1, max_size=8),
        items=st.lists(st.integers(-(1 << 40), 1 << 40), min_size=1, max_size=20),
        range_size=st.integers(1, 1 << 20),
    )
    def test_random_coefficients(self, coeffs, items, range_size):
        xs = np.array(items, dtype=np.int64)
        h = _kwise(range_size, len(coeffs), coeffs)
        expected = [h(x) for x in items]
        assert h.values_batch(xs).tolist() == expected
        bank = StackedKWiseBank.from_hashes([h, h])
        assert bank.values_batch(xs)[:, 1].tolist() == expected
        v = VectorKWiseHash(2, len(coeffs), seed=0)
        v._coeffs = np.array([[c, P31 - 1 - c] for c in coeffs], dtype=np.uint64)
        scalar = np.array([v.values(x) for x in items])
        assert np.array_equal(v.values_batch(xs), scalar)
