"""The adversarial workload zoo: generators that attack the sketches.

Every test here carries the ``adversarial`` marker; CI smokes the fast
subset with ``pytest -m "adversarial and not slow"``.  The zoo's point is
the probabilistic fine print: instance-targeted streams (collision-seeking,
adaptive) must break the *attacked* seed while fresh seeds keep the
advertised bounds, and pathological-cardinality streams must degrade
accuracy — never memory.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sketch.countsketch import CountSketch
from repro.streams.generators import (
    DEFAULT_ZIPF_SKEWS,
    adaptive_adversarial_stream,
    collision_stream,
    deletion_storm_stream,
    distinct_flood_stream,
    zipf_sweep,
)
from repro.verify import countsketch_point_bound

pytestmark = pytest.mark.adversarial


def net_counts(stream) -> dict[int, int]:
    counts: dict[int, int] = {}
    for update in stream:
        counts[update.item] = counts.get(update.item, 0) + update.delta
    return {item: value for item, value in counts.items() if value}


# ------------------------------------------------------------- zipf sweep


def test_zipf_sweep_covers_all_skews():
    sweep = zipf_sweep(1024, 20_000, seed=7)
    assert [skew for skew, _ in sweep] == list(DEFAULT_ZIPF_SKEWS)
    for _, stream in sweep:
        assert len(stream) > 0
        assert stream.domain_size == 1024


def test_zipf_sweep_is_reproducible_and_skew_sensitive():
    first = zipf_sweep(1024, 20_000, seed=7)
    second = zipf_sweep(1024, 20_000, seed=7)
    for (_, a), (_, b) in zip(first, second):
        assert list(a) == list(b)
    # Larger skew concentrates mass: support shrinks monotonically.
    supports = [len(net_counts(stream)) for _, stream in first]
    assert supports == sorted(supports, reverse=True)


# -------------------------------------------------------- deletion storm


def test_deletion_storm_net_is_tiny_and_signed():
    storm = deletion_storm_stream(512, support=128, magnitude=50, waves=2, seed=3)
    counts = net_counts(storm)
    assert len(counts) == 128
    assert set(counts.values()) == {-1, 1}
    # Gross mass dwarfs the net vector: the storm is the point.
    gross = sum(abs(u.delta) for u in storm)
    assert gross > 100 * sum(abs(v) for v in counts.values())


def test_deletion_storm_drives_counts_through_zero():
    storm = deletion_storm_stream(64, support=16, magnitude=10, waves=2, seed=5)
    running: dict[int, int] = {}
    dipped_negative = set()
    returned_to_zero = set()
    for update in storm:
        value = running.get(update.item, 0) + update.delta
        running[update.item] = value
        if value < 0:
            dipped_negative.add(update.item)
        elif value == 0 and update.item in dipped_negative:
            returned_to_zero.add(update.item)
    assert dipped_negative == set(running)  # every item went below zero
    assert returned_to_zero == set(running)  # ... and came back through it


def test_deletion_storm_validates_arguments():
    with pytest.raises(ValueError):
        deletion_storm_stream(16, support=32, magnitude=5)
    with pytest.raises(ValueError):
        deletion_storm_stream(16, support=4, magnitude=0)


# -------------------------------------------------------- distinct flood


def test_distinct_flood_hits_every_item_once():
    flood = distinct_flood_stream(500, seed=1)
    updates = list(flood)
    assert len(updates) == 500
    assert {u.item for u in updates} == set(range(500))
    assert all(u.delta == 1 for u in updates)


def test_distinct_flood_overflows_pool_with_bounded_memory():
    flood = distinct_flood_stream(4096, seed=2)
    sketch = CountSketch(3, 64, track=8, seed=9, pool=256)
    sketch.process(flood)
    assert len(sketch._candidates) <= sketch.pool


# ------------------------------------------------------ collision seeking


def test_collision_scores_match_direct_hash_evaluation():
    sketch = CountSketch(4, 32, seed=13)
    items = np.arange(200, dtype=np.int64)
    target = 7
    scores = sketch.collision_scores(items, target)
    for item, score in zip(items.tolist(), scores.tolist()):
        expected = 0
        for j in range(sketch.rows):
            if sketch._bucket_hashes[j](item) == sketch._bucket_hashes[j](target):
                agree = sketch._sign_hashes[j](item) * sketch._sign_hashes[j](target)
                expected += int(agree)
        assert score == expected


def test_collision_stream_breaks_only_the_attacked_instance():
    victim = CountSketch(5, 128, seed=11)
    stream = collision_stream(victim, 1 << 14, target=0, colliders=48, mass=100, seed=5)
    victim.process(stream)
    fresh = CountSketch(5, 128, seed=999).process(stream)
    bound = countsketch_point_bound(stream, victim.buckets)
    truth = 1  # target_mass default
    assert abs(victim.estimate(0) - truth) > 3 * bound
    assert abs(fresh.estimate(0) - truth) <= bound


def test_collision_stream_is_reproducible():
    victim_a = CountSketch(5, 128, seed=11)
    victim_b = CountSketch(5, 128, seed=11)
    a = collision_stream(victim_a, 4096, target=3, seed=21)
    b = collision_stream(victim_b, 4096, target=3, seed=21)
    assert list(a) == list(b)


def test_collision_stream_rejects_out_of_domain_target():
    victim = CountSketch(3, 32, seed=1)
    with pytest.raises(ValueError):
        collision_stream(victim, 64, target=64)


# ------------------------------------------------------ adaptive adversary


def attack(seed: int, rounds: int = 6, batch: int = 64):
    victim = CountSketch(5, 128, track=8, seed=seed)
    stream = adaptive_adversarial_stream(
        1 << 13, victim, rounds=rounds, batch=batch, seed=seed + 1
    )
    counts = net_counts(stream)
    target = list(stream)[512].item  # first update after the noise phase
    return victim, stream, counts, target


def test_adaptive_adversary_breaks_only_the_attacked_instance():
    victim, stream, counts, target = attack(21)
    fresh = CountSketch(5, 128, track=8, seed=9021).process(stream)
    bound = countsketch_point_bound(stream, victim.buckets)
    truth = counts[target]
    assert abs(victim.estimate(target) - truth) > bound
    assert abs(fresh.estimate(target) - truth) <= bound


def test_adaptive_adversary_pollutes_the_candidate_pool():
    victim, stream, counts, target = attack(77)
    fresh = CountSketch(5, 128, track=8, seed=9077).process(stream)
    # The target's true count is 1 yet it outranks genuine heavy items in
    # the attacked pool; a fresh sketch ranks it nowhere near the top.
    assert counts[target] == 1
    assert target in [e.item for e in victim.top_candidates(5)]
    assert target not in [e.item for e in fresh.top_candidates(5)]


def test_adaptive_adversary_memory_stays_bounded():
    victim = CountSketch(5, 128, track=8, seed=3, pool=64)
    adaptive_adversarial_stream(1 << 13, victim, rounds=4, batch=64, seed=4)
    assert len(victim._candidates) <= victim.pool


def test_adaptive_adversary_interleaves_deletions():
    _, stream, counts, _ = attack(123)
    deltas = {u.delta for u in stream}
    assert any(d < 0 for d in deltas)  # retracted probes are turnstile deletes
    # Retractions cancel exactly: no residue at probe_mass scale except
    # kept colliders, whose counts are dominated by boosts.
    assert all(v != 0 for v in counts.values())


def test_adaptive_adversary_is_reproducible():
    _, stream_a, _, _ = attack(55)
    _, stream_b, _, _ = attack(55)
    assert list(stream_a) == list(stream_b)
