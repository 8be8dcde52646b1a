"""The in-process workloads: ``ingest-hot``, ``ingest-wide`` and
``rounds-2pass`` (``serve-live`` lives in :mod:`perfbench.serve`).

Every workload builds its sketch from a spec through
``repro.distributed.specs.build_sketch``, generates its inputs with numpy
from the seed before anything is timed, and checks every result against a
reference the benchmark computes itself.  Why each workload exists is in
``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: Accuracy every g-SUM spec asks for; the ingest checks hold the
#: estimate to it.
EPSILON = 0.25
#: Hash seed of every sketch spec: a deployment pins it, the stream varies.
SKETCH_SEED = 7
#: Share of updates that are deletions (delta -1) in every stream.
DELETE_SHARE = 0.2
#: Zipf exponent of the skewed streams.
ZIPF = 1.2
#: Ops every run times at least, so ``op_tail_ms`` (10 ops beyond the
#: percentile) is defined on every workload.
MIN_OPS = 20
#: Chunks ``ingest-wide`` times per second of ``--seconds``.
WIDE_CHUNKS_PER_SECOND = 2.0
#: ``rounds-2pass`` runs one repetition (the spec default is 3), which
#: keeps a session under a second, over two worker processes.
ROUNDS_REPETITIONS = 1
ROUNDS_WORKERS = 2
#: Consecutive windows ``ingest-hot`` splits its timed ops into:
#: ``upd_per_s`` and ``op_tail_ms`` are medians over the windows, so a
#: burst of CPU taken by other tenants of the host moves one window, not
#: the metric.
HOT_WINDOWS = 10


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload; ``full`` is the benchmark, ``tiny``
    the self-test."""

    chunk: int
    hot_n: int
    hot_cycle_chunks: int
    wide_n: int
    rounds_n: int
    rounds_updates: int
    serve_n: int
    serve_rate: float
    serve_refresh_s: float
    serve_live_delay_s: float
    ingest_setups: int
    rounds_setups: int
    serve_launches: int


SIZES = {
    "full": Sizes(
        chunk=2048,
        hot_n=1 << 12,
        hot_cycle_chunks=256,
        wide_n=1 << 20,
        rounds_n=1 << 10,
        rounds_updates=16384,
        serve_n=1 << 12,
        serve_rate=200.0,
        serve_refresh_s=5.0,
        serve_live_delay_s=0.5,
        ingest_setups=5,
        rounds_setups=25,
        serve_launches=5,
    ),
    "tiny": Sizes(
        chunk=256,
        hot_n=1 << 8,
        hot_cycle_chunks=8,
        wide_n=1 << 14,
        rounds_n=1 << 4,
        rounds_updates=512,
        serve_n=1 << 8,
        serve_rate=50.0,
        serve_refresh_s=0.5,
        serve_live_delay_s=0.05,
        ingest_setups=1,
        rounds_setups=1,
        serve_launches=1,
    ),
}


class NoTrace:
    """Tracing off: ops and checks run without spans."""

    @staticmethod
    def op():
        return contextlib.nullcontext()

    quiet = op


@dataclass
class Run:
    """What one workload run measured.  ``latencies`` are op wall times
    in seconds; ``layer`` carries per-layer values only the harness can
    see (failures, cache statistics, generator lateness)."""

    setups: list
    latencies: list
    attempted: int
    ok: int
    upd_per_s: float
    peak_rss_mb: float
    checks_ok: bool = True
    tail_windows: int = 1
    notes: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)


def gsum_spec(function: str, n: int, passes: int, repetitions: int = 3) -> dict:
    return {
        "kind": "gsum",
        "function": function,
        "n": int(n),
        "epsilon": EPSILON,
        "passes": passes,
        "heaviness": 0.05,
        "repetitions": int(repetitions),
        "seed": SKETCH_SEED,
    }


def signed_deltas(rng: np.random.Generator, count: int) -> np.ndarray:
    return np.where(rng.random(count) < DELETE_SHARE, -1, 1).astype(np.int64)


def zipf_items(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    return (rng.zipf(ZIPF, size=count) % n).astype(np.int64)


def every_item_once(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each of the ``n`` domain items once, in random order, delta +1: a
    prefix after which every per-cell hash memo holds the whole domain."""
    return rng.permutation(n).astype(np.int64), np.ones(n, dtype=np.int64)


def chunked(items: np.ndarray, deltas: np.ndarray, chunk: int) -> list:
    return [
        (items[i : i + chunk], deltas[i : i + chunk])
        for i in range(0, items.shape[0], chunk)
    ]


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (or of its largest waited-for
    child), in MiB; Linux reports ``ru_maxrss`` in KiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_ops(
    op: Callable[[int], bool],
    seconds: float,
    trace,
    min_ops: int = MIN_OPS,
    max_ops: int | None = None,
) -> tuple[list, list, int]:
    """Run ``op(i)`` back to back until ``seconds`` have passed and at
    least ``min_ops`` ran (or ``max_ops`` ran).  ``op`` returns whether
    its result passed the workload's check; an exception counts as a
    failed op and is reported on stderr.  Returns the op latencies, their
    start times and the number of ops that passed."""
    latencies = []
    starts = []
    ok = 0
    start = time.perf_counter()
    i = 0
    while max_ops is None or i < max_ops:
        if max_ops is None and i >= min_ops and time.perf_counter() - start >= seconds:
            break
        t0 = time.perf_counter()
        try:
            with trace.op():
                passed = op(i)
        except Exception:
            traceback.print_exc()
            passed = False
        latencies.append(time.perf_counter() - t0)
        starts.append(t0)
        ok += bool(passed)
        i += 1
    return latencies, starts, ok


def update_rate(latencies: list, starts: list, updates: list, windows: int = 1) -> float:
    """Updates applied over wall time, as the median over ``windows``
    consecutive groups of ops (each timed from its first op's start to
    its last op's end)."""
    rates = []
    for group in np.array_split(np.arange(len(latencies)), windows):
        first, last = group[0], group[-1]
        span = starts[last] + latencies[last] - starts[first]
        rates.append(sum(updates[i] for i in group) / span)
    return statistics.median(rates)


def ingest(
    sizes: Sizes,
    seed: int,
    seconds: float,
    wide: bool,
    trace=NoTrace,
    setups: int | None = None,
    reference_scale: float = 1.0,
) -> Run:
    """``ingest-hot`` / ``ingest-wide``: a 1-pass g = x^2 estimator fed
    ``update_batch`` chunks; one op is one chunk.

    hot: n = ``hot_n``, Zipf items.  The prefix is every domain item
    once, so after it every per-cell hash memo holds every item the
    stream can carry; set-up is construction plus that prefix, and the
    timed chunks cycle through ``hot_cycle_chunks`` pre-generated chunks
    for ``seconds``.
    wide: n = ``wide_n``, uniform items.  Set-up is construction plus the
    first chunk (which builds the ingest plan); the timed phase is a
    fixed ``WIDE_CHUNKS_PER_SECOND * seconds`` chunks, so the memo and
    pool sizes at the end, and the peak RSS, describe the same work on
    every commit.

    ``reference_scale`` multiplies the exact reference; the self-test
    sets it to check that a wrong reference fails every op.
    """
    from repro.distributed import specs

    rng = np.random.default_rng(seed)
    chunk = sizes.chunk
    if wide:
        n = sizes.wide_n
        count = max(MIN_OPS + 1, round(WIDE_CHUNKS_PER_SECOND * seconds))
        items = rng.integers(0, n, size=count * chunk).astype(np.int64)
        deltas = signed_deltas(rng, count * chunk)
        prefix = chunked(items[:chunk], deltas[:chunk], chunk)
        body = chunked(items[chunk:], deltas[chunk:], chunk)
    else:
        n = sizes.hot_n
        prefix = chunked(*every_item_once(rng, n), chunk)
        count = sizes.hot_cycle_chunks * chunk
        body = chunked(zipf_items(rng, n, count), signed_deltas(rng, count), chunk)
    spec = gsum_spec("x^2", n, passes=1)

    setup_times = []
    estimator = None
    for _ in range(setups or sizes.ingest_setups):
        # One estimator alive at a time (estimators hold reference cycles),
        # so the peak RSS is one set-up's.
        estimator = None
        gc.collect()
        t0 = time.perf_counter()
        estimator = specs.build_sketch(spec)
        for part_items, part_deltas in prefix:
            estimator.update_batch(part_items, part_deltas)
        setup_times.append(time.perf_counter() - t0)

    def op(i: int) -> bool:
        part_items, part_deltas = body[i % len(body)]
        estimator.update_batch(part_items, part_deltas)
        return True

    latencies, starts, ok = timed_ops(
        op, seconds, trace, max_ops=len(body) if wide else None
    )
    attempted = len(latencies)
    op_updates = [body[i % len(body)][0].shape[0] for i in range(attempted)]
    windows = 1 if wide else HOT_WINDOWS

    # Reference: exact sum of g(|f_i|) over every update ingested.
    uses = np.bincount(np.arange(attempted) % len(body), minlength=len(body))
    freq = np.zeros(n, dtype=np.float64)
    for part_items, part_deltas in prefix:
        freq += np.bincount(part_items, weights=part_deltas, minlength=n)
    for (part_items, part_deltas), times in zip(body, uses):
        if times:
            freq += times * np.bincount(part_items, weights=part_deltas, minlength=n)
    exact = float(np.sum(np.abs(freq) ** 2)) * reference_scale
    with trace.quiet():
        estimate = estimator.estimate()
    rel_error = abs(estimate - exact) / abs(exact)
    checks_ok = rel_error <= EPSILON
    return Run(
        setups=setup_times,
        latencies=latencies,
        attempted=attempted,
        ok=ok if checks_ok else 0,
        upd_per_s=update_rate(latencies, starts, op_updates, windows),
        peak_rss_mb=peak_rss_mb(),
        checks_ok=checks_ok,
        tail_windows=windows,
        notes={
            "n": n,
            "chunk": chunk,
            "updates": sum(op_updates),
            "relative_error": rel_error,
            "space_counters": estimator.space_counters,
        },
    )


def rounds(
    sizes: Sizes,
    seed: int,
    seconds: float,
    trace=NoTrace,
    setups: int | None = None,
) -> Run:
    """``rounds-2pass``: complete coordinated two-pass sessions of
    g = (2+sin x)x^2 (no 1-pass algorithm exists for it) over
    ``ROUNDS_WORKERS`` worker processes, the socket transport and the
    sparse-binary codec.  One op is one session: build the coordinator
    from the spec, run ``distributed_two_pass``, read the estimate, which
    must equal single-machine ``GSumEstimator.run`` bit for bit.
    Set-up is the construction of the coordinator estimator."""
    from repro.distributed import specs
    from repro.distributed.driver import distributed_two_pass
    from repro.distributed.transport import TransportTimeout, WorkerFailure
    from repro.streams.model import StreamUpdate, TurnstileStream

    rng = np.random.default_rng(seed)
    n, count = sizes.rounds_n, sizes.rounds_updates
    items = zipf_items(rng, n, count)
    deltas = signed_deltas(rng, count)
    stream = TurnstileStream(
        n, [StreamUpdate(int(i), int(d)) for i, d in zip(items.tolist(), deltas.tolist())]
    )
    spec = gsum_spec("(2+sin x)x^2", n, passes=2, repetitions=ROUNDS_REPETITIONS)
    with trace.quiet():
        reference = specs.build_sketch(spec).run(
            stream, exact=False, chunk_size=sizes.chunk
        ).estimate

    setup_times = []
    for _ in range(setups or sizes.rounds_setups):
        t0 = time.perf_counter()
        specs.build_sketch(spec)
        setup_times.append(time.perf_counter() - t0)

    failures = 0
    space_counters = 0

    def op(i: int) -> bool:
        nonlocal failures, space_counters
        coordinator = specs.build_sketch(spec)
        try:
            distributed_two_pass(
                coordinator,
                stream,
                workers=ROUNDS_WORKERS,
                transport="socket",
                mode="process",
                chunk_size=sizes.chunk,
                timeout=30.0,
                codec="sparse-binary",
            )
        except (WorkerFailure, TransportTimeout):
            failures += 1
            raise
        space_counters = coordinator.space_counters
        return coordinator.estimate() == reference

    latencies, _, ok = timed_ops(op, seconds, trace)
    return Run(
        setups=setup_times,
        latencies=latencies,
        attempted=len(latencies),
        ok=ok,
        upd_per_s=2 * count / statistics.median(latencies),
        peak_rss_mb=max(peak_rss_mb(), peak_rss_mb(children=True)),
        notes={
            "n": n,
            "updates": count,
            "repetitions": ROUNDS_REPETITIONS,
            "workers": ROUNDS_WORKERS,
            "space_counters": space_counters,
        },
        layer={"distributed.failures": failures},
    )
