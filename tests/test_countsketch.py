"""Tests for CountSketch — the guarantee of Section 3.1."""

import math

import pytest

from repro.sketch.countsketch import CountSketch
from repro.streams.model import stream_from_frequencies
from repro.util.rng import RandomSource


def _freq_stream(freqs, n=256):
    return stream_from_frequencies(freqs, n)


class TestEstimation:
    def test_single_item_exact(self):
        cs = CountSketch(rows=5, buckets=64, seed=1)
        cs.update(7, 42)
        assert cs.estimate(7) == pytest.approx(42.0)

    def test_deletions_cancel(self):
        cs = CountSketch(rows=5, buckets=64, seed=1)
        cs.update(7, 42)
        cs.update(7, -42)
        assert cs.estimate(7) == pytest.approx(0.0)

    def test_error_within_f2_bound(self):
        """|v_i - v^_i| <= 3 sqrt(F2 / buckets) for most items (the median
        over >= 5 rows makes the failure probability tiny)."""
        freqs = {i: (i % 13) + 1 for i in range(200)}
        stream = _freq_stream(freqs)
        f2 = stream.frequency_vector().f_moment(2)
        cs = CountSketch(rows=7, buckets=256, seed=3).process(stream)
        bound = 3 * math.sqrt(f2 / 256)
        bad = sum(
            1 for i, v in freqs.items() if abs(cs.estimate(i) - v) > bound
        )
        assert bad <= 4

    def test_turnstile_negative_frequencies(self):
        stream = _freq_stream({1: -50, 2: 30})
        cs = CountSketch(rows=5, buckets=128, seed=5).process(stream)
        assert cs.estimate(1) == pytest.approx(-50, abs=10)
        assert cs.estimate(2) == pytest.approx(30, abs=10)

    def test_estimate_many(self):
        cs = CountSketch(rows=5, buckets=64, seed=1)
        cs.update(3, 10)
        out = cs.estimate_many([3, 4])
        assert out[0].item == 3 and out[0].estimate == pytest.approx(10.0)
        assert out[1].item == 4


class TestTracking:
    def test_top_candidates_contain_heavy_hitter(self, planted_512):
        stream, heavy = planted_512
        cs = CountSketch(rows=5, buckets=256, track=16, seed=7).process(stream)
        found = [c.item for c in cs.top_candidates()]
        assert heavy in found

    def test_heavy_ranks_first(self, planted_512):
        stream, heavy = planted_512
        cs = CountSketch(rows=5, buckets=256, track=16, seed=7).process(stream)
        assert cs.top_candidates()[0].item == heavy

    def test_track_limit_respected(self, zipf_small):
        cs = CountSketch(rows=5, buckets=128, track=8, seed=7).process(zipf_small)
        assert len(cs.top_candidates()) <= 8 + 1  # heap may briefly overfill

    def test_k_argument_truncates(self, zipf_small):
        cs = CountSketch(rows=5, buckets=128, track=16, seed=7).process(zipf_small)
        assert len(cs.top_candidates(3)) == 3

    def test_no_tracking_mode(self):
        cs = CountSketch(rows=3, buckets=16, track=0, seed=1)
        cs.update(1, 5)
        assert cs.top_candidates() == []

    def test_deleted_item_demoted(self):
        cs = CountSketch(rows=5, buckets=128, track=4, seed=9)
        cs.update(1, 1000)
        for i in range(2, 7):
            cs.update(i, 10)
        cs.update(1, -1000)  # full deletion
        cs.update(2, 1)  # trigger re-estimation churn
        top = cs.top_candidates()
        est_1 = [c.estimate for c in top if c.item == 1]
        assert not est_1 or abs(est_1[0]) < 5


class TestLinearity:
    def test_merge_equals_concat(self, small_stream):
        seed = RandomSource(11, "merge")
        a = CountSketch(5, 64, track=4, seed=seed)
        b = CountSketch(5, 64, track=4, seed=seed)
        a.process(small_stream)
        b.process(small_stream)
        a.merge(b)
        direct = CountSketch(5, 64, track=4, seed=seed)
        direct.process(small_stream.concat(small_stream))
        for item in range(5):
            assert a.estimate(item) == pytest.approx(direct.estimate(item))

    def test_merge_rejects_mismatched(self):
        with pytest.raises(ValueError):
            CountSketch(3, 16).merge(CountSketch(3, 32))


class TestSizing:
    def test_for_heavy_hitters_dimensions(self):
        cs = CountSketch.for_heavy_hitters(0.1, 0.5, 0.05, 1024, seed=1)
        assert cs.buckets >= 4 / (0.1 * 0.25) - 1
        assert cs.rows % 2 == 1
        assert cs.track >= 4

    def test_caps_apply(self):
        cs = CountSketch.for_heavy_hitters(
            0.001, 0.01, 0.01, 1 << 20, seed=1, max_buckets=512, max_rows=5,
            max_track=32,
        )
        assert cs.buckets == 512
        assert cs.rows <= 5
        assert cs.track == 32

    def test_invalid_heaviness(self):
        with pytest.raises(ValueError):
            CountSketch.for_heavy_hitters(0.0, 0.5, 0.1, 64)
        with pytest.raises(ValueError):
            CountSketch.for_heavy_hitters(0.5, 1.5, 0.1, 64)

    def test_space_accounting(self):
        cs = CountSketch(4, 32, track=2, seed=1)
        base = cs.space_counters
        assert base == 4 * 32
        cs.update(1, 5)
        assert cs.space_counters == base + 2


class TestCandidatePool:
    def test_pool_bound_respected(self):
        cs = CountSketch(3, 64, track=4, seed=1, pool=8)
        for i in range(50):
            cs.update(i, 5)
        assert len(cs._candidates) == 8
        assert len(cs.top_candidates()) == 4

    def test_pool_overflow_is_order_insensitive(self):
        """Even past the pool bound, the retained candidate set is a pure
        function of the set of items seen (smallest pool-hash rule), so any
        update order or chunking leaves the same pool."""
        import numpy as np

        items = list(range(60))
        forward = CountSketch(3, 64, track=4, seed=1, pool=8)
        backward = CountSketch(3, 64, track=4, seed=1, pool=8)
        for i in items:
            forward.update(i, 2)
        for i in reversed(items):
            backward.update(i, 2)
        batched = CountSketch(3, 64, track=4, seed=1, pool=8)
        batched.update_batch(
            np.array(items, dtype=np.int64),
            np.full(len(items), 2, dtype=np.int64),
        )
        assert forward._candidates == backward._candidates == batched._candidates

    def test_pool_floors_at_track(self):
        cs = CountSketch(3, 64, track=16, seed=1, pool=2)
        assert cs.pool == 16

    def test_cs_pool_threads_through_estimator(self, zipf_small):
        from repro.core.gsum import GSumEstimator
        from repro.functions.library import moment

        est = GSumEstimator(
            moment(2.0), 512, heaviness=0.2, repetitions=1, seed=3, cs_pool=32
        )
        est.process(zipf_small)
        assert est.estimate() >= 0.0
        level_cs = est._sketches[0]._sketches[0]._countsketch
        assert level_cs.pool == max(32, level_cs.track)  # pool floors at track
        assert len(level_cs._candidates) <= level_cs.pool


class TestSignIndependence:
    def test_two_wise_mode_runs(self, zipf_small):
        cs = CountSketch(5, 128, track=8, seed=3, sign_independence=2)
        cs.process(zipf_small)
        assert len(cs.top_candidates()) > 0


class TestPoolPolicies:
    """The candidate pool has one rule: keep the ``pool`` smallest
    (pool-hash, item) pairs ever seen.  Below the bound it holds every
    distinct item; past it, an order-insensitive uniform identity sample
    in bounded memory.  No option selects another rule."""

    def test_invalid_policy_rejected(self):
        """Every option that once picked a pool policy is gone."""
        from repro.core.gsum import GSumEstimator
        from repro.core.heavy_hitters import OnePassGHeavyHitter, TwoPassGHeavyHitter
        from repro.functions.library import moment
        from repro.verify import verify_countsketch

        g = moment(2.0)
        removed = [
            lambda: CountSketch(3, 64, track=4, seed=1, pool_policy="sample"),
            lambda: CountSketch.for_heavy_hitters(
                0.1, 0.5, 0.1, 64, seed=1, pool_policy="sample"
            ),
            lambda: OnePassGHeavyHitter(
                g, 0.1, 0.5, 0.1, 64, seed=1, cs_pool_policy="sample"
            ),
            lambda: TwoPassGHeavyHitter(g, 0.1, 0.1, 64, seed=1, cs_pool_policy="sample"),
            lambda: GSumEstimator(g, 64, seed=1, cs_pool_policy="sample"),
            lambda: verify_countsketch(
                _freq_stream({1: 3}), "one-item", seeds=1, pool_policy="sample"
            ),
        ]
        for build in removed:
            with pytest.raises(TypeError, match="unexpected keyword argument '(cs_)?pool_policy'"):
                build()

    def test_sample_policy_memory_stays_bounded(self):
        import numpy as np

        cs = CountSketch(3, 64, track=4, seed=2, pool=128)
        items = np.arange(50_000, dtype=np.int64)
        cs.update_batch(items, np.ones_like(items))
        assert len(cs._candidates) <= cs.pool

    def test_item_cache_stays_bounded(self):
        from repro.sketch.countsketch import ITEM_CACHE_LIMIT

        cs = CountSketch(2, 16, seed=1)
        for item in range(1000):
            cs.update(item, 1)
        assert len(cs._item_cache) <= min(1000, ITEM_CACHE_LIMIT)
        assert ITEM_CACHE_LIMIT <= 1 << 20


class TestNegativeEstimates:
    """Turnstile deletions through zero: estimates must track signed
    frequencies, not magnitudes."""

    def test_estimate_tracks_negative_counts(self):
        cs = CountSketch(5, 64, seed=1)
        cs.update(3, 10)
        cs.update(3, -25)
        assert cs.estimate(3) == pytest.approx(-15.0)
        cs.update(3, 15)
        assert cs.estimate(3) == pytest.approx(0.0)

    def test_deletion_storm_estimates_signed_residues(self):
        from repro.streams.generators import deletion_storm_stream

        storm = deletion_storm_stream(256, support=32, magnitude=200, seed=11)
        truth = {}
        for u in storm:
            truth[u.item] = truth.get(u.item, 0) + u.delta
        cs = CountSketch(5, 512, seed=4).process(storm)
        for item, value in truth.items():
            if value:
                assert cs.estimate(item) == pytest.approx(value, abs=2.0)

    def test_top_candidates_rank_by_magnitude_of_negative_counts(self):
        cs = CountSketch(5, 128, track=4, seed=2)
        cs.update(1, -500)
        cs.update(2, 100)
        cs.update(3, -5)
        top = cs.top_candidates(2)
        assert [e.item for e in top] == [1, 2]
        assert top[0].estimate == pytest.approx(-500.0)
