"""S7 — Fused ingestion plane: stacked whole-estimator update kernels.

One table:

* ``S7_FUSED`` — GSum ingestion throughput at chunk 2048, legacy
  per-cell fan-out vs the fused ingest plan (one stacked hash-bank
  evaluation, one composite-key scatter-add, and cached AMS sign rows
  per chunk for the whole repetition x level x row grid).  The fused
  arm must clear **5x** over legacy — the plan collapses ~1000 Python
  table updates per chunk into a handful of NumPy ops, so the speedup
  is algorithmic, not parallelism: the gate arms on 1-core hosts too
  (``min_cpus=1``).  The two arms run alternately, ``PAIRS`` fresh
  builds each, and the gate applies to the ratio of their median times,
  so one slow stretch of a shared host cannot decide it; every pair's
  own ratio is reported beside it.  A ``fused(steady)`` row re-runs the stream with
  the per-item hash memos already warm, separating the one-time
  memoization cost from the steady-state rate.  A ``fused(flood)`` row
  is the cold path: uniform items over a 2^20 domain, more than the
  memo budget holds, so once the budget is spent the hash banks hash
  every miss.  It reports the bytes the plan's memo budget granted
  (which only grow, so this is their peak) and asserts they stay within
  ``MEMO_BUDGET_BYTES``.

  Equality is asserted unconditionally, pair by pair, before any timing
  is reported: the fused and legacy estimators must agree **bit for
  bit** — full serialized state (tables, AMS registers, candidate pools;
  ``sparse-binary`` ships exact float64 bytes) and the final estimate.
  A fast drifting kernel is worthless.

Set ``REPRO_BENCH_SMOKE=1`` for the reduced-size CI version; the
committed ``bench_baseline.json`` entries are smoke-mode values tracked
by ``check_bench_trend.py``.
"""

import json
import os
import statistics
import time

import numpy as np

from repro.core.gsum import GSumEstimator
from repro.core.ingest_plan import MEMO_BUDGET_BYTES
from repro.functions.library import moment

from _tables import emit_table, hardware_gate

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

N = 2048
CHUNK = 2048  # the chunk size the >= 5x acceptance bar is defined at
TOTAL = 200_000 if SMOKE else 250_000
SEED = 42
FLOOD_N = 1 << 20
FLOOD_TOTAL = (30 if SMOKE else 60) * CHUNK
PAIRS = 3  # alternating legacy/fused builds behind the 5x gate


def _workload() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(7)
    items = (rng.zipf(1.2, size=TOTAL) % N).astype(np.int64)
    deltas = rng.integers(1, 4, size=TOTAL).astype(np.int64)
    return items, deltas


def _flood_workload() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(11)
    items = rng.integers(0, FLOOD_N, size=FLOOD_TOTAL).astype(np.int64)
    deltas = rng.integers(1, 4, size=FLOOD_TOTAL).astype(np.int64)
    return items, deltas


def _build(n: int = N) -> GSumEstimator:
    # Both arms use the same seed, so they share identical hash families.
    return GSumEstimator(moment(2.0), n, passes=1, seed=SEED)


def _ingest(est: GSumEstimator, items: np.ndarray, deltas: np.ndarray) -> float:
    start = time.perf_counter()
    for i in range(0, items.shape[0], CHUNK):
        est.update_batch(items[i:i + CHUNK], deltas[i:i + CHUNK])
    return time.perf_counter() - start


def _ingest_legacy(est: GSumEstimator, items: np.ndarray, deltas: np.ndarray) -> float:
    """The per-cell fan-out: each chunk goes to every repetition's own
    ``RecursiveGSumSketch.update_batch``, bypassing the fused plan."""
    start = time.perf_counter()
    for i in range(0, items.shape[0], CHUNK):
        for rep in est._sketches:
            rep.update_batch(items[i:i + CHUNK], deltas[i:i + CHUNK])
    return time.perf_counter() - start


def test_s7_fused_table():
    items, deltas = _workload()

    legacy_times, fused_times = [], []
    for _ in range(PAIRS):
        legacy = _build()
        legacy_times.append(_ingest_legacy(legacy, items, deltas))
        assert legacy._ingest_plan is None

        fused = _build()
        fused_times.append(_ingest(fused, items, deltas))

        # Equality first, timing second.  The fused plan only reorders
        # integer-valued float64 additions (exact below 2^53), so the full
        # serialized state — every table cell, AMS register, and candidate
        # pool — must match bit for bit, not approximately.
        state_l = json.dumps(legacy.to_state(), sort_keys=True)
        state_f = json.dumps(fused.to_state(), sort_keys=True)
        assert state_l == state_f, "fused ingestion drifted from the legacy fan-out"
        assert legacy.estimate() == fused.estimate()
    legacy_s = statistics.median(legacy_times)
    fused_s = statistics.median(fused_times)
    pair_speedups = [lt / ft for lt, ft in zip(legacy_times, fused_times)]

    # Steady-state arm: same stream again through the already-warm plan —
    # every per-item hash row is memoized, so this is the pure scatter rate.
    steady_s = _ingest(fused, items, deltas)
    memo_mib = fused._ingest_plan._memo.used / 2**20

    # Cold arm: a distinct-item flood the memo budget cannot hold.
    flood = _build(FLOOD_N)
    flood_s = _ingest(flood, *_flood_workload())
    flood_bytes = flood._ingest_plan._memo.used
    assert flood_bytes <= MEMO_BUDGET_BYTES, (
        f"memo holds {flood_bytes} B, over the {MEMO_BUDGET_BYTES} B budget"
    )

    speedup = legacy_s / fused_s
    rows = [
        {
            "mode": "legacy",
            "n": N,
            "chunk": CHUNK,
            "updates": TOTAL,
            "upd_per_sec": TOTAL / legacy_s,
            "speedup_vs_legacy": 1.0,
            "pair_speedups": None,
            "memo_mib": None,
        },
        {
            "mode": "fused",
            "n": N,
            "chunk": CHUNK,
            "updates": TOTAL,
            "upd_per_sec": TOTAL / fused_s,
            "speedup_vs_legacy": speedup,
            "pair_speedups": "/".join(f"{r:.2f}" for r in pair_speedups),
            "memo_mib": memo_mib,
        },
        {
            "mode": "fused(steady)",
            "n": N,
            "chunk": CHUNK,
            "updates": TOTAL,
            "upd_per_sec": TOTAL / steady_s,
            "speedup_vs_legacy": legacy_s / steady_s,
            "pair_speedups": None,
            "memo_mib": memo_mib,
        },
        {
            "mode": "fused(flood)",
            "n": FLOOD_N,
            "chunk": CHUNK,
            "updates": FLOOD_TOTAL,
            "upd_per_sec": FLOOD_TOTAL / flood_s,
            "speedup_vs_legacy": None,
            "pair_speedups": None,
            "memo_mib": flood_bytes / 2**20,
        },
    ]
    warnings: list[str] = []
    # Algorithmic speedup — no parallelism involved — so the bar arms
    # even on 1-core hosts.
    hardware_gate(
        speedup >= 5.0,
        f"fused ingest speedup {speedup:.2f}x < 5x at chunk {CHUNK} "
        f"(median of {PAIRS} alternating pairs; per pair "
        f"{', '.join(f'{r:.2f}x' for r in pair_speedups)})",
        warnings,
        min_cpus=1,
    )
    emit_table(
        "S7_FUSED",
        "GSum ingestion: legacy per-cell fan-out vs fused ingest plan",
        rows,
        claim="the fused ingestion plane updates the whole repetition x "
        "level x row grid in a handful of stacked NumPy ops per chunk, "
        ">= 5x over the legacy fan-out at chunk 2048 (ratio of the median "
        f"times of {PAIRS} alternating pairs) with bit-identical final "
        "state; on a distinct-item flood its hash memos stay within their "
        "byte budget",
        warnings=warnings,
    )
