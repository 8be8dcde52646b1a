"""S4 (supplementary) — distributed coordinator/worker ingestion.

Measures what the distributed deployment costs relative to in-process
sharded ingestion: the same stream is driven (a) through the sharding
engine's thread pool, (b) through ``distributed_ingest`` (a one-round
session of the round protocol) over the file drop-box transport, and (c)
over the TCP socket transport, with thread- and process-hosted workers.
Supplementary tables price the two-pass round protocol, the
``sparse-binary`` state codec, and the coordinator's serial merge.  The
states are asserted bit-identical to sequential ingestion at every point
— the invariance contract survives crossing the wire — and the tables
report the transport overhead (serialization + transport + merge) each
deployment pays.

Set ``REPRO_BENCH_SMOKE=1`` for the reduced-size CI version.
"""

import os
import time

import numpy as np

from repro.core.gsum import GSumEstimator
from repro.distributed import distributed_ingest, distributed_two_pass
from repro.distributed.wire import delta_message, dumps_frame, dumps_message
from repro.functions.library import moment
from repro.sketch.base import dumps_state
from repro.sketch.codec import STATE_CODEC
from repro.sketch.countsketch import CountSketch
from repro.streams.generators import zipf_stream
from repro.streams.model import TurnstileStream, stream_from_frequencies
from repro.streams.sharding import ingest_sharded

from _tables import emit_table

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
CPUS = os.cpu_count() or 1
N = 1 << 12
TOTAL_MASS = 20_000 if SMOKE else 500_000
WORKERS = 2 if SMOKE else 4

_PROFILE = zipf_stream(n=N, total_mass=TOTAL_MASS, skew=1.2, seed=3)
STREAM = stream_from_frequencies(
    dict(_PROFILE.frequency_vector().items()), N, chunk=1
)


def _sketch():
    return CountSketch(5, 1024, track=32, seed=1)


def _estimator():
    return GSumEstimator(
        moment(2.0), N, heaviness=0.3 if SMOKE else 0.1, repetitions=2, seed=1
    )


def test_s4_distributed_vs_sharded(benchmark):
    benchmark(lambda: distributed_ingest(_sketch(), STREAM, workers=2))
    STREAM.as_arrays()
    count = len(STREAM)

    for label, factory in (("CountSketch(5x1024)", _sketch),
                           ("GSumEstimator(2 reps)", _estimator)):
        sequential = factory()
        start = time.perf_counter()
        for items, deltas in STREAM.iter_array_chunks(4096):
            sequential.update_batch(items, deltas)
        sequential_s = time.perf_counter() - start
        reference = dumps_state(sequential.to_state())

        deployments = [
            ("sharded/thread", lambda f=factory: ingest_sharded(
                f(), STREAM, WORKERS)),
            ("dist/file/thread", lambda f=factory: distributed_ingest(
                f(), STREAM, workers=WORKERS, transport="file")),
            ("dist/socket/thread", lambda f=factory: distributed_ingest(
                f(), STREAM, workers=WORKERS, transport="socket")),
            ("dist/file/process", lambda f=factory: distributed_ingest(
                f(), STREAM, workers=WORKERS, transport="file",
                mode="process")),
        ]
        rows = [
            {
                "structure": label,
                "deployment": "sequential",
                "workers": 1,
                "upd_per_sec": count / sequential_s,
                "overhead_vs_sequential": 1.0,
                "state_identical": True,
            }
        ]
        for name, run in deployments:
            start = time.perf_counter()
            merged = run()
            elapsed = time.perf_counter() - start
            identical = dumps_state(merged.to_state()) == reference
            assert identical, f"{label} via {name}: state diverged"
            rows.append(
                {
                    "structure": label,
                    "deployment": name,
                    "workers": WORKERS,
                    "upd_per_sec": count / elapsed,
                    "overhead_vs_sequential": elapsed / sequential_s,
                    "state_identical": identical,
                }
            )
        emit_table(
            f"S4_{'CS' if factory is _sketch else 'GSUM'}",
            f"distributed vs sharded ingestion: {label}",
            rows,
            claim="every deployment's merged state is bit-identical to "
            "sequential ingestion; the table prices the transport "
            f"overhead (this machine: {CPUS} CPUs)",
        )


def _two_pass_estimator():
    return GSumEstimator(
        moment(2.0), N, heaviness=0.3 if SMOKE else 0.1, repetitions=2,
        seed=1, passes=2,
    )


def test_s4_round_protocol():
    """What the coordinated two-pass round protocol costs: wall-clock and
    per-round round-trip latency for each transport, one-frame-per-round
    vs streaming delta merges, every cell asserted bit-identical to the
    single-machine two-pass run."""
    count = len(STREAM)
    sequential = _two_pass_estimator()
    start = time.perf_counter()
    sequential.run(STREAM, exact=False)
    sequential_s = time.perf_counter() - start
    reference = dumps_state(sequential.to_state())

    # Protocol-only round-trip latency: the two-pass protocol over an
    # *empty* stream is two collect rounds plus one candidate broadcast
    # with no ingestion to hide behind.
    latency = {}
    for transport in ("file", "socket"):
        empty = _two_pass_estimator()
        start = time.perf_counter()
        distributed_two_pass(
            empty, TurnstileStream(N), workers=WORKERS, transport=transport
        )
        latency[transport] = (time.perf_counter() - start) / 2.0

    delta_every = 2_000 if SMOKE else 25_000
    rows = [
        {
            "deployment": "sequential 2-pass",
            "workers": 1,
            "delta_every": 0,
            "upd_per_sec": count / sequential_s,
            "round_trip_s": 0.0,
            "state_identical": True,
        }
    ]
    for transport in ("file", "socket"):
        for every in (0, delta_every):
            dist = _two_pass_estimator()
            start = time.perf_counter()
            distributed_two_pass(
                dist, STREAM, workers=WORKERS, transport=transport,
                delta_every=every,
            )
            elapsed = time.perf_counter() - start
            identical = dumps_state(dist.to_state()) == reference
            assert identical, (
                f"2-pass via {transport} (delta_every={every}): state diverged"
            )
            rows.append(
                {
                    "deployment": f"dist/{transport}/2pass"
                    + ("/stream" if every else ""),
                    "workers": WORKERS,
                    "delta_every": every,
                    "upd_per_sec": count / elapsed,
                    "round_trip_s": latency[transport],
                    "state_identical": identical,
                }
            )
    emit_table(
        "S4_ROUNDS",
        "coordinated two-pass round protocol: latency and throughput",
        rows,
        claim="every round-protocol deployment reproduces the "
        "single-machine 2-pass state bit for bit; round_trip_s is the "
        "protocol-only per-round latency (empty stream), so ingestion "
        f"dominates once streams outgrow it (this machine: {CPUS} CPUs)",
    )


def test_s4_delta_payload_sizes():
    """Streaming delta frames vs one full-state frame: what the wire
    actually carries per round for worker 0's first-pass contribution."""
    items, deltas = STREAM.as_arrays()
    half = items.shape[0] // WORKERS
    part_items, part_deltas = items[:half], deltas[:half]
    base = _two_pass_estimator()

    rows = []
    for every in (0, 10_000, 2_000):
        period = part_items.shape[0] if every <= 0 else every
        total_bytes = 0
        frames = 0
        for start in range(0, part_items.shape[0], period):
            sibling = base.spawn_sibling()
            sibling.update_batch(
                part_items[start : start + period],
                part_deltas[start : start + period],
            )
            envelope = delta_message(0, 1, frames, sibling.to_state())
            total_bytes += len(dumps_message(envelope))
            frames += 1
        rows.append(
            {
                "delta_every": every,
                "frames": frames,
                "payload_bytes": total_bytes,
                "bytes_vs_full": total_bytes / max(rows[0]["payload_bytes"], 1)
                if rows
                else 1.0,
            }
        )
    emit_table(
        "S4_DELTA",
        "delta-frame vs full-state payload sizes (2-pass round 1, worker 0)",
        rows,
        claim="states are sketch-sized, so k delta frames cost ~k empty "
        "sketches more than one full frame — the price of a coordinator "
        "view that trails the stream by one period instead of one round",
    )
    assert all(r["frames"] >= 1 for r in rows)


def test_s4_codec_payload_sizes():
    """The codec table: what the state codec costs on the wire and on
    the clock — a full-state payload, a short-period streaming delta
    payload, encode + decode time, and end-to-end two-pass throughput.
    The decoded and the merged states are asserted bit-identical to their
    sources at every point."""
    from repro.sketch.base import dumps_state, loads_state

    items, deltas = STREAM.as_arrays()
    half = items.shape[0] // WORKERS
    part_items, part_deltas = items[:half], deltas[:half]
    base = _two_pass_estimator()
    short_period = 500 if SMOKE else 5_000

    # One ingested short-period sibling, plus the full partition state for
    # the one-frame-per-round shape.
    period_sibling = base.spawn_sibling()
    period_sibling.update_batch(
        part_items[:short_period], part_deltas[:short_period]
    )
    full_sibling = base.spawn_sibling()
    full_sibling.update_batch(part_items, part_deltas)

    sequential = _two_pass_estimator()
    sequential.run(STREAM, exact=False)
    reference = dumps_state(sequential.to_state())
    count = len(STREAM)

    start = time.perf_counter()
    delta_frame = dumps_frame(delta_message(0, 1, 0, period_sibling.to_state()))
    full_frame = dumps_frame(delta_message(0, 1, 0, full_sibling.to_state()))
    encode_s = time.perf_counter() - start

    wire_state = dumps_state(period_sibling.to_state())
    start = time.perf_counter()
    decoded = period_sibling.from_state(loads_state(wire_state))
    decode_s = time.perf_counter() - start
    assert decoded.to_state() == period_sibling.to_state()

    dist = _two_pass_estimator()
    start = time.perf_counter()
    distributed_two_pass(
        dist, STREAM, workers=WORKERS, transport="socket",
        delta_every=short_period,
    )
    elapsed = time.perf_counter() - start
    identical = dumps_state(dist.to_state()) == reference
    assert identical, "2-pass: state diverged"
    emit_table(
        "S4_CODEC",
        "state-codec payload sizes and throughput (short-period deltas)",
        [
            {
                "codec": STATE_CODEC,
                "delta_bytes": len(delta_frame),
                "full_state_bytes": len(full_frame),
                "encode_s": encode_s,
                "decode_s": decode_s,
                "two_pass_upd_per_sec": count / elapsed,
                "state_identical": identical,
            }
        ],
        claim="the sparse-binary merge reproduces the single-machine "
        f"2-pass state bit for bit; a short-period delta ({short_period} "
        f"updates) ships {len(delta_frame):,} bytes "
        f"(this machine: {CPUS} CPUs)",
    )


def test_s4_merge_tree():
    """Serial folding on the coordinator's collector thread: end-to-end
    two-pass throughput with streaming deltas, asserted bit-identical to
    the single-machine run."""
    count = len(STREAM)
    sequential = _two_pass_estimator()
    sequential.run(STREAM, exact=False)
    reference = dumps_state(sequential.to_state())
    delta_every = 2_000 if SMOKE else 25_000

    dist = _two_pass_estimator()
    start = time.perf_counter()
    distributed_two_pass(
        dist, STREAM, workers=WORKERS, transport="file",
        delta_every=delta_every,
    )
    elapsed = time.perf_counter() - start
    identical = dumps_state(dist.to_state()) == reference
    assert identical, "2-pass via serial merge: state diverged"
    emit_table(
        "S4_MERGE",
        "coordinator merge: serial folding",
        [
            {
                "merge": "serial",
                "workers": WORKERS,
                "delta_every": delta_every,
                "upd_per_sec": count / elapsed,
                "state_identical": identical,
            }
        ],
        claim="serial folding reproduces the single-machine 2-pass state "
        f"bit for bit (this machine: {CPUS} CPUs)",
    )


def test_s4_state_sizes():
    """How big are the shipped states?  (What the wire actually carries.)"""
    rows = []
    for label, factory in (("CountSketch(5x1024)", _sketch),
                           ("GSumEstimator(2 reps)", _estimator)):
        empty = len(dumps_state(factory().to_state()))
        filled_sketch = factory()
        for items, deltas in STREAM.iter_array_chunks(4096):
            filled_sketch.update_batch(items, deltas)
        filled = len(dumps_state(filled_sketch.to_state()))
        rows.append(
            {
                "structure": label,
                "empty_state_bytes": empty,
                "filled_state_bytes": filled,
                "bytes_per_update": filled / max(len(STREAM), 1),
            }
        )
    emit_table(
        "S4_STATE",
        "wire-format state sizes (JSON bytes)",
        rows,
        claim="state size is sketch-sized, not stream-sized: shipping "
        "states beats shipping updates once streams outgrow sketches",
    )
    assert all(np.isfinite(r["filled_state_bytes"]) for r in rows)
