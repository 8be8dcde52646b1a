"""S2 (supplementary) — substrate throughput, scalar vs batch.

Updates/second for each streaming structure on identical workloads, fed
two ways: the scalar ``update(item, delta)`` loop and the vectorized
``update_batch(items, deltas)`` chunked path.  The scalar numbers are the
pure-Python interpreter floor; the batch numbers are what the library
actually sustains now that ``process()`` routes through ``update_batch``.
The speedup column is the headline: the linear sketches (CountSketch,
Count-Min, AMS) must clear 5x, and typically clear far more.

Set ``REPRO_BENCH_SMOKE=1`` to run a reduced-size smoke version (CI uses
this to keep the harness from rotting without paying full bench time).
"""

import os
import time

import pytest

from repro.core.gnp import GnpHeavyHitterSketch
from repro.core.gsum import GSumEstimator
from repro.functions.library import moment
from repro.sketch.ams import AmsF2Sketch
from repro.sketch.countmin import CountMinSketch
from repro.sketch.countsketch import CountSketch
from repro.streams.batching import DEFAULT_CHUNK
from repro.streams.generators import zipf_stream
from repro.streams.model import stream_from_frequencies

from _tables import emit_table

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
N = 2048
TOTAL_MASS = 5_000 if SMOKE else 50_000
# Unit-update encoding: ~TOTAL_MASS individual +1 updates over a Zipf
# frequency profile — the item-by-item "heavy traffic" shape the batch
# engine exists for (repeated items, long stream), not one pre-aggregated
# update per item.
_PROFILE = zipf_stream(n=N, total_mass=TOTAL_MASS, skew=1.2, seed=3)
STREAM = stream_from_frequencies(
    dict(_PROFILE.frequency_vector().items()), N, chunk=1
)
UPDATES = list(STREAM)
# Linear sketches expected to clear the 5x batch-speedup bar at N=2048.
VECTOR_5X = {"CountSketch(5x1024)", "CountSketch(5x1024,track32)", "Count-Min(5x1024)", "AMS(160 regs)"}


def _drive_scalar(structure):
    for u in UPDATES:
        structure.update(u.item, u.delta)
    return structure


def _drive_batch(structure):
    for items, deltas in STREAM.iter_array_chunks(DEFAULT_CHUNK):
        structure.update_batch(items, deltas)
    return structure


FACTORIES = [
    ("CountSketch(5x1024)", lambda: CountSketch(5, 1024, seed=1)),
    ("CountSketch(5x1024,track32)", lambda: CountSketch(5, 1024, track=32, seed=1)),
    ("Count-Min(5x1024)", lambda: CountMinSketch(5, 1024, seed=1)),
    ("AMS(160 regs)", lambda: AmsF2Sketch(5, 32, seed=1)),
    ("g_np HH", lambda: GnpHeavyHitterSketch(N, 0.3, seed=1)),
    (
        "GSumEstimator(3 reps)",
        lambda: GSumEstimator(moment(2.0), N, heaviness=0.1, repetitions=3, seed=1),
    ),
]


@pytest.mark.parametrize(
    "name,factory",
    [
        ("countsketch_5x1024", lambda: CountSketch(5, 1024, track=32, seed=1)),
        ("countsketch_3x256", lambda: CountSketch(3, 256, track=8, seed=1)),
        ("countmin_5x1024", lambda: CountMinSketch(5, 1024, seed=1)),
        ("ams_5x32", lambda: AmsF2Sketch(5, 32, seed=1)),
        ("gnp_hh", lambda: GnpHeavyHitterSketch(N, 0.3, seed=1)),
        (
            "gsum_1pass_3rep",
            lambda: GSumEstimator(
                moment(2.0), N, heaviness=0.1, repetitions=3, seed=1
            ),
        ),
    ],
)
def test_s2_throughput_scalar(benchmark, name, factory):
    result = benchmark(lambda: _drive_scalar(factory()))
    assert result is not None


@pytest.mark.parametrize(
    "name,factory",
    [
        ("countsketch_5x1024", lambda: CountSketch(5, 1024, track=32, seed=1)),
        ("countmin_5x1024", lambda: CountMinSketch(5, 1024, seed=1)),
        ("ams_5x32", lambda: AmsF2Sketch(5, 32, seed=1)),
        (
            "gsum_1pass_3rep",
            lambda: GSumEstimator(
                moment(2.0), N, heaviness=0.1, repetitions=3, seed=1
            ),
        ),
    ],
)
def test_s2_throughput_batch(benchmark, name, factory):
    result = benchmark(lambda: _drive_batch(factory()))
    assert result is not None


def test_s2_summary_table(benchmark):
    benchmark(lambda: _drive_scalar(CountSketch(3, 64, seed=2)))
    STREAM.as_arrays()  # columnar conversion paid once, outside the timings
    rows = []
    for name, factory in FACTORIES:
        # Both structures are built before their timers start: the rows
        # measure ingestion, not construction.
        scalar, batch = factory(), factory()
        start = time.perf_counter()
        _drive_scalar(scalar)
        scalar_s = time.perf_counter() - start
        if hasattr(batch, "update_batch"):
            start = time.perf_counter()
            _drive_batch(batch)
            batch_s = time.perf_counter() - start
            speedup = scalar_s / batch_s
        else:
            batch_s, speedup = None, None  # scalar fallback structure
        rows.append(
            {
                "structure": name,
                "updates": len(UPDATES),
                "scalar_upd_per_sec": len(UPDATES) / scalar_s,
                "batch_upd_per_sec": (
                    len(UPDATES) / batch_s if batch_s is not None else "n/a"
                ),
                "speedup": speedup if speedup is not None else "n/a",
            }
        )
    emit_table(
        "S2",
        "substrate throughput: scalar update() vs chunked update_batch()",
        rows,
        claim="vectorized batch ingestion lifts the linear sketches "
        ">= 5x over the pure-Python scalar floor at identical state",
    )
    assert all(r["scalar_upd_per_sec"] > 100 for r in rows)
    if not SMOKE:
        for r in rows:
            if r["structure"] in VECTOR_5X:
                assert r["speedup"] >= 5.0, (
                    f"{r['structure']}: batch speedup {r['speedup']:.1f}x < 5x"
                )
