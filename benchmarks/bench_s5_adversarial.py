"""S5 — Adversarial & pathological workload suite (ROADMAP item 5).

Two tables:

* ``S5_ADVERSARIAL`` — the statistical verifier (:mod:`repro.verify`) run
  over the workload zoo: bound-normalized error percentiles (p50/p95/p99,
  1.0 = the guarantee edge) and empirical failure rates for CountSketch,
  Count-Min, and GSum across the Zipf sweep, deletion storms, distinct
  floods, and the instance-targeted attacks.  The attack rows come in
  pairs — the attacked seed blows through the bound, fresh seeds on the
  *same stream* stay inside it — making the "probabilistic over hash
  choice" fine print measurable.
* ``S5_POOL_CLIFF`` — the deferred-pool degradation cliff: heavy-hitter
  recall as distinct-item counts sweep past the pool bound (the pool
  degrades to a uniform identity sample), with the candidate-count column
  proving memory stays bounded at ``pool``.

Set ``REPRO_BENCH_SMOKE=1`` for the reduced-size CI version; the committed
``bench_baseline.json`` entries are smoke-mode values tracked by
``check_bench_trend.py``.
"""

import os

import numpy as np

from repro.sketch.countsketch import CountSketch
from repro.streams.generators import (
    adaptive_adversarial_stream,
    collision_stream,
    deletion_storm_stream,
    distinct_flood_stream,
    zipf_sweep,
)
from repro.functions.library import moment
from repro.verify import (
    countsketch_point_bound,
    verify_countmin,
    verify_countsketch,
    verify_gsum,
)

from _tables import emit_table

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

N = 2048
TOTAL_MASS = 30_000 if SMOKE else 100_000
POINT_SEEDS = 8 if SMOKE else 30
GSUM_SEEDS = 3 if SMOKE else 15
CLIFF_DISTINCT = (512, 2048, 8192, 16384) if SMOKE else (
    512, 2048, 8192, 16384, 65536, 262144, 1_048_576
)
CLIFF_POOL = 256
CLIFF_HEAVY = 16


def _attack_row(workload: str, error: float, bound: float) -> dict:
    normalized = error / bound
    return {
        "workload": workload,
        "sketch": "countsketch(attacked)",
        "seeds": 1,
        "samples": 1,
        "failure_rate": 1.0 if normalized > 1.0 else 0.0,
        "delta": 0.05,
        "holds": normalized <= 1.0,
        "p50": round(normalized, 6),
        "p95": round(normalized, 6),
        "p99": round(normalized, 6),
        "max_error": round(normalized, 6),
    }


def _verifier_rows() -> list[dict]:
    rows = []

    def add(report):
        row = report.to_row()
        # workload first for the table's readability
        rows.append({"workload": row.pop("workload"), **row})

    for skew, stream in zipf_sweep(N, TOTAL_MASS, seed=41):
        name = f"zipf-{skew}"
        add(verify_countsketch(stream, name, seeds=POINT_SEEDS, seed=1))
        add(verify_countmin(stream, name, seeds=POINT_SEEDS, seed=1))
        add(
            verify_gsum(
                stream, moment(2.0), name, epsilon=0.25, seeds=GSUM_SEEDS, seed=1
            )
        )

    storm = deletion_storm_stream(N, support=N // 4, magnitude=100, seed=43)
    add(verify_countsketch(storm, "deletion-storm", seeds=POINT_SEEDS, seed=1))

    flood = distinct_flood_stream(4096, seed=45)
    add(verify_countsketch(flood, "distinct-flood", seeds=POINT_SEEDS, seed=1))
    add(verify_countmin(flood, "distinct-flood", seeds=POINT_SEEDS, seed=1))

    # Instance-targeted attacks: attacked seed vs fresh seeds, same stream.
    victim = CountSketch(5, 128, seed=11)
    coll = collision_stream(victim, 1 << 14, target=0, colliders=48, mass=100, seed=47)
    victim.process(coll)
    bound = countsketch_point_bound(coll, victim.buckets)
    truth = coll.frequency_vector()[0]
    rows.append(_attack_row("collision", abs(victim.estimate(0) - truth), bound))
    add(verify_countsketch(coll, "collision", seeds=POINT_SEEDS, seed=1))

    victim = CountSketch(5, 128, track=8, seed=21)
    adapt = adaptive_adversarial_stream(1 << 13, victim, rounds=6, batch=64, seed=49)
    target = list(adapt)[512].item  # first update after the noise phase
    bound = countsketch_point_bound(adapt, victim.buckets)
    truth = adapt.frequency_vector()[target]
    rows.append(
        _attack_row("adaptive", abs(victim.estimate(target) - truth), bound)
    )
    add(verify_countsketch(adapt, "adaptive", seeds=POINT_SEEDS, seed=1))
    return rows


def _cliff_rows() -> list[dict]:
    rows = []
    source = np.random.default_rng(20260807)
    for distinct in CLIFF_DISTINCT:
        heavy = np.arange(distinct, distinct + CLIFF_HEAVY, dtype=np.int64)
        items = np.concatenate([np.arange(distinct, dtype=np.int64), heavy])
        deltas = np.concatenate(
            [
                np.ones(distinct, dtype=np.int64),
                np.full(CLIFF_HEAVY, 1000, dtype=np.int64),
            ]
        )
        order = source.permutation(items.shape[0])
        items, deltas = items[order], deltas[order]
        cs = CountSketch(5, 1024, track=CLIFF_HEAVY, seed=7, pool=CLIFF_POOL)
        cs.update_batch(items, deltas)
        top = {e.item for e in cs.top_candidates()}
        rows.append(
            {
                "distinct": distinct,
                "pool": cs.pool,
                "heavy_recall": round(len(top & set(heavy.tolist())) / CLIFF_HEAVY, 4),
                "candidates": len(cs._candidates),
            }
        )
    return rows


def test_s5_adversarial(benchmark):
    stream = dict(zipf_sweep(N, TOTAL_MASS, seed=41))[1.1]

    def core():
        return verify_countsketch(stream, "zipf-1.1", seeds=2, seed=1).failure_rate

    benchmark(core)
    rows = emit_table(
        "S5_ADVERSARIAL",
        "statistical guarantee verification across the adversarial workload zoo",
        _verifier_rows(),
        claim="fresh-seed sketches keep the advertised (eps, delta) bounds on "
        "every workload (failure_rate <= delta, p99 near or below 1.0 = the "
        "bound), while the attacked instances of the collision/adaptive "
        "streams blow past the same bound — the guarantees are probabilistic "
        "over hash choice, not over streams",
    )
    for row in rows:
        if "(attacked)" in row["sketch"]:
            assert row["max_error"] > 1.0, row  # the attack must land
        else:
            assert row["failure_rate"] <= row["delta"], row


def test_s5_pool_cliff(benchmark):
    def core():
        cs = CountSketch(5, 1024, track=8, seed=7, pool=64)
        items = np.arange(4096, dtype=np.int64)
        cs.update_batch(items, np.ones_like(items))
        return len(cs._candidates)

    benchmark(core)
    rows = emit_table(
        "S5_POOL_CLIFF",
        "candidate-pool degradation past the pool bound",
        _cliff_rows(),
        claim="past ~pool distinct items heavy-hitter recall falls off a "
        "cliff: the pool holds the pool identities with the smallest pool "
        "hash, a uniform sample in which a heavy item is no likelier to stay "
        "than noise; the candidate count stays at most pool.  The lever is "
        "pool (cs_pool on the estimators): set at or above the stream's "
        "distinct count, identification is exact",
    )
    for row in rows:
        assert row["candidates"] <= row["pool"], row
