"""S6 — Query-path performance: batch kernels and the snapshot server.

Two tables:

* ``S6_KERNELS`` — point-query throughput, scalar loop vs the vectorized
  ``estimate_batch`` kernel, at a 2048-item probe batch.  The scalar
  column replays the *pre-vectorization* arithmetic (per-item hash
  evaluation, ``statistics.median`` / per-row ``min``) so the speedup is
  honest — it is not inflated by the new scalar path's delegation
  overhead.  CountSketch and Count-Min must clear **10x**
  (hardware-gated: asserted on >= 2-core hosts, recorded as a warning on
  smaller ones); ExactCounter is reported without the gate — its scalar
  path is already a dict lookup, so vectorization buys it little.
  Equality is asserted unconditionally: every kernel element must match
  the historical scalar arithmetic bit for bit.

* ``S6_SERVE`` — the snapshot query server under concurrent load:
  queries/second, p50/p99 latency, and cache hit rate for a static
  (fully-ingested) scenario and a live-ingestion scenario where a
  background thread keeps advancing the merge epoch (invalidating the
  cache) while thousands of requests are in flight.  Zero transport
  errors and epoch-consistent answers are asserted in both.  The
  ``live-ingest/refresh`` row runs live ingestion with a positive refresh
  interval, so snapshots are published by the engine's publisher thread;
  once ingestion stops the final epoch must be served.

Set ``REPRO_BENCH_SMOKE=1`` for the reduced-size CI version; the
committed ``bench_baseline.json`` entries are smoke-mode values tracked
by ``check_bench_trend.py`` (the serve rows carry ``min_cpus: 2`` — a
1-core host runs client and server coroutines on the same core, so its
throughput is not comparable).
"""

import os
import statistics
import threading
import time

import numpy as np

from repro.serve import QueryEngine, SketchServer, SnapshotStore, run_load
from repro.sketch.countmin import CountMinSketch
from repro.sketch.countsketch import CountSketch
from repro.sketch.exact import ExactCounter
from repro.streams.generators import zipf_stream

from _tables import emit_table, hardware_gate

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

N = 2048
PROBES = 2048  # the batch size the >= 10x acceptance bar is defined at
TOTAL_MASS = 20_000 if SMOKE else 100_000
KERNEL_REPEATS = 2 if SMOKE else 5

SERVE_CLIENTS = 20 if SMOKE else 50
SERVE_REQUESTS = 30 if SMOKE else 100
#: Refresh interval of the ``live-ingest/refresh`` scenario, in seconds.
SERVE_REFRESH_S = 0.01


def _workload():
    return zipf_stream(n=N, total_mass=TOTAL_MASS, skew=1.2, seed=11)


def _probe_items(rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, N, size=PROBES, dtype=np.int64)


# ------------------------------------------------------------------ kernels

def _countsketch_scalar(cs: CountSketch, items: np.ndarray) -> list[float]:
    """The pre-vectorization CountSketch point estimate, verbatim: per row
    a scalar bucket/sign hash and a table read, then the Python-level
    median over rows."""
    out = []
    for item in items.tolist():
        out.append(
            statistics.median(
                float(cs._sign_hashes[j](item)) * cs._table[j, cs._bucket_hashes[j](item)]
                for j in range(cs.rows)
            )
        )
    return out


def _countmin_scalar(cm: CountMinSketch, items: np.ndarray) -> list[float]:
    """The pre-vectorization Count-Min point estimate: min over rows of
    scalar-hashed table reads."""
    return [
        float(min(cm._table[j, cm._hashes[j](item)] for j in range(cm.rows)))
        for item in items.tolist()
    ]


def _exact_scalar(ex: ExactCounter, items: np.ndarray) -> list[float]:
    return [float(ex.estimate(item)) for item in items.tolist()]


def _time_best(fn, repeats: int = KERNEL_REPEATS) -> float:
    """Best-of-N wall time; best (not mean) because the kernels are pure
    reads and the only noise source is interpreter jitter."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_s6_kernel_table():
    stream = _workload()
    rng = np.random.default_rng(5)
    items = _probe_items(rng)

    cases = [
        ("CountSketch(5x1024)", CountSketch(5, 1024, seed=1), _countsketch_scalar, True),
        ("CountSketch(4x1024)", CountSketch(4, 1024, seed=1), _countsketch_scalar, True),
        ("Count-Min(5x1024)", CountMinSketch(5, 1024, seed=1), _countmin_scalar, True),
        ("ExactCounter", ExactCounter(N), _exact_scalar, False),
    ]
    rows, warnings = [], []
    for name, sketch, scalar_fn, gated in cases:
        sketch.process(stream)
        batch = sketch.estimate_batch(items)
        scalar = scalar_fn(sketch, items)
        # Equality first — a fast wrong kernel is worthless.  Bit-for-bit:
        # same hash values, same float64 arithmetic, same reduction order.
        assert batch.shape == (PROBES,)
        assert [float(v) for v in batch] == scalar, f"{name}: kernel drifted"
        scalar_s = _time_best(lambda: scalar_fn(sketch, items))
        batch_s = _time_best(lambda: sketch.estimate_batch(items))
        speedup = scalar_s / batch_s
        rows.append(
            {
                "structure": name,
                "probes": PROBES,
                "scalar_est_per_sec": PROBES / scalar_s,
                "batch_est_per_sec": PROBES / batch_s,
                "speedup": speedup,
            }
        )
        if gated:
            hardware_gate(
                speedup >= 10.0,
                f"{name}: batch kernel speedup {speedup:.1f}x < 10x at "
                f"{PROBES} probes",
                warnings,
                min_cpus=2,
            )
    emit_table(
        "S6_KERNELS",
        "point-query throughput: scalar loop vs estimate_batch kernel",
        rows,
        claim="vectorized batch-query kernels answer >= 10x faster than "
        "the historical scalar arithmetic at 2048 probes, bit-for-bit "
        "equal (CountSketch and Count-Min; exact counting is already a "
        "dict lookup and is reported ungated)",
        warnings=warnings,
    )


# -------------------------------------------------------------------- serve

def _serve_scenario(live_ingest: bool, refresh_interval: float = 0.0) -> dict:
    stream = _workload()
    items, deltas = stream.as_arrays()
    cs = CountSketch(5, 1024, track=16, seed=1)
    store = SnapshotStore(cs)

    half = items.shape[0] // 2
    store.update_batch(items[:half], deltas[:half])

    stop = threading.Event()
    ingest: threading.Thread | None = None
    if live_ingest:
        def _ingest() -> None:
            chunk = 256
            while not stop.is_set():
                for start in range(half, items.shape[0], chunk):
                    if stop.is_set():
                        return
                    store.update_batch(
                        items[start:start + chunk], deltas[start:start + chunk]
                    )
                    time.sleep(0.002)
                return

        ingest = threading.Thread(target=_ingest, name="s6-ingest", daemon=True)
    else:
        store.update_batch(items[half:], deltas[half:])

    engine = QueryEngine(store, cache_size=4096, refresh_interval=refresh_interval)
    server = SketchServer(engine).start_background()
    # Frequency paths round-robined over a small hot set (cache-friendly,
    # the serving workload the epoch cache exists for) plus heavy hitters.
    rng = np.random.default_rng(7)
    hot = rng.integers(0, N, size=32, dtype=np.int64)
    paths = [f"/frequency/{int(i)}" for i in hot] + ["/heavy-hitters?k=8"]
    probe = int(hot[0])
    try:
        if ingest is not None:
            ingest.start()
        report = run_load(
            "127.0.0.1", server.port, paths,
            clients=SERVE_CLIENTS, requests_per_client=SERVE_REQUESTS,
        )
    finally:
        stop.set()
        if ingest is not None:
            ingest.join(timeout=10.0)
        server.stop_background()
    try:
        assert report.errors == 0, f"serve errors: {report.errors}"
        assert report.requests == SERVE_CLIENTS * SERVE_REQUESTS
        if refresh_interval > 0:
            # Ingestion has stopped: a due query wakes the publisher, and
            # the final epoch must be served within a bounded wait.
            deadline = time.monotonic() + 10.0
            while engine.frequency(probe)["epoch"] != store.epoch:
                assert time.monotonic() < deadline, "final epoch never served"
                time.sleep(0.001)
        # Epoch-frozen equality gate: the served answers must equal direct
        # estimates on the final state.
        served = engine.frequency(probe)
        assert served["epoch"] == store.epoch
        assert served["estimate"] == float(store.live.estimate(probe))
    finally:
        engine.close()
    stats = engine.stats()
    if refresh_interval > 0:
        scenario = "live-ingest/refresh"
    else:
        scenario = "live-ingest" if live_ingest else "static"
    return {
        "scenario": scenario,
        "clients": report.clients,
        "requests": report.requests,
        "queries_per_sec": report.queries_per_sec,
        "p50_ms": report.p50_ms,
        "p99_ms": report.p99_ms,
        "cache_hit_rate": stats["cache"]["hit_rate"],
        "epochs": store.epoch,
    }


def test_s6_serve_table():
    rows = [
        _serve_scenario(live_ingest=False),
        _serve_scenario(live_ingest=True),
        _serve_scenario(live_ingest=True, refresh_interval=SERVE_REFRESH_S),
    ]
    static, live, _ = rows
    # The static scenario answers from one frozen epoch: after each distinct
    # path is computed once, everything is a cache hit.
    assert static["cache_hit_rate"] > 0.9, static
    # Live ingestion keeps invalidating the cache, so it must hit less often
    # than the frozen scenario — if it doesn't, invalidation is broken.
    assert live["epochs"] > static["epochs"]
    emit_table(
        "S6_SERVE",
        "snapshot query server under concurrent load",
        rows,
        claim="the server sustains thousands of concurrent queries/sec "
        "from lock-free epoch-consistent snapshots, with and without "
        "live ingestion advancing the merge epoch underneath, and with "
        "snapshots published inline or by the publisher thread",
    )
