"""Chunked batch ingestion — the shared driver behind every ``process()``.

Every streaming structure in the library accepts one update at a time via
``update(item, delta)``; the structures converted to the batch protocol
additionally accept whole columnar chunks via ``update_batch(items,
deltas)`` (two equal-length 1-D ``int64`` arrays).  :func:`drive` routes a
stream through ``update_batch`` in fixed-size chunks when the structure
supports it and falls back to the scalar loop otherwise, so callers never
need to know which path a structure implements.

Contract: for any structure, replaying a stream through ``update`` and
through ``drive``/``update_batch`` (any chunking) must leave the sketch
state bit-for-bit identical — deltas are integers, every counter is a sum
of integers far below 2^53, so float64 accumulation order cannot change
the result; the hash families evaluate identically in scalar and batched
form; and the CountSketch candidate pool depends only on the set of items
seen, so admitting a chunk's distinct items at once leaves the same pool.
``tests/test_batch_equivalence.py`` enforces this.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

import numpy as np

from repro.streams.model import StreamUpdate, TurnstileStream

#: Default ingestion chunk: large enough that numpy fixed costs amortize,
#: small enough that per-chunk scratch arrays stay cache-friendly.
DEFAULT_CHUNK = 4096


def as_batch(
    items: "np.ndarray | Iterable[int]", deltas: "np.ndarray | Iterable[int]"
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate and coerce a (items, deltas) pair to 1-D ``int64`` arrays.

    Non-integral deltas raise rather than truncate: the turnstile model is
    integer-valued, and a float delta silently coerced to int64 would make
    the batch path diverge from a scalar replay instead of failing loudly.
    """
    items_arr = np.asarray(items, dtype=np.int64)
    deltas_arr = np.asarray(deltas)
    if np.issubdtype(deltas_arr.dtype, np.floating):
        if not np.array_equal(deltas_arr, np.trunc(deltas_arr)):
            raise ValueError("batch deltas must be integers (turnstile model)")
    deltas_arr = deltas_arr.astype(np.int64, copy=False)
    if items_arr.ndim != 1 or deltas_arr.ndim != 1:
        raise ValueError("batch items and deltas must be 1-D arrays")
    if items_arr.shape[0] != deltas_arr.shape[0]:
        raise ValueError(
            f"batch length mismatch: {items_arr.shape[0]} items vs "
            f"{deltas_arr.shape[0]} deltas"
        )
    return items_arr, deltas_arr


def aggregate_batch(
    items: np.ndarray, deltas: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Net the batch per distinct item: ``(unique_items, net_deltas)``.

    Summing deltas per item before hashing/scattering is what makes the
    batch path fast (hash each distinct item once); it is exact because
    counter updates commute over integers.
    """
    unique, inverse = np.unique(items, return_inverse=True)
    net = np.bincount(
        inverse, weights=deltas.astype(np.float64), minlength=unique.shape[0]
    ).astype(np.int64)
    return unique, net


def apply_net_counts(
    counts: dict, unique: np.ndarray, net: np.ndarray
) -> None:
    """Apply per-item net deltas to a sparse ``item -> count`` dict,
    dropping entries that reach zero — the shared tail of every exact
    tabulation's batch path.  Equivalent to a scalar replay because
    integer counter updates commute."""
    for item, delta in zip(unique.tolist(), net.tolist()):
        if delta == 0:
            continue
        new = counts.get(item, 0) + delta
        if new == 0:
            counts.pop(item, None)
        else:
            counts[item] = new


def iter_update_chunks(
    stream: "TurnstileStream | Iterable[StreamUpdate]",
    chunk_size: int = DEFAULT_CHUNK,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield ``(items, deltas)`` int64 chunk pairs covering the stream in
    arrival order.  Materialized streams yield zero-copy views of their
    cached columnar arrays; generic iterables are buffered chunk by chunk.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    if isinstance(stream, TurnstileStream):
        yield from stream.iter_array_chunks(chunk_size)
        return
    items: list[int] = []
    deltas: list[int] = []
    for update in stream:
        items.append(update.item)
        deltas.append(update.delta)
        if len(items) >= chunk_size:
            yield as_batch(items, deltas)
            items, deltas = [], []
    if items:
        yield as_batch(items, deltas)


def drive(
    structure,
    stream: "TurnstileStream | Iterable[StreamUpdate]",
    chunk_size: int = DEFAULT_CHUNK,
    shards: int = 1,
):
    """Feed a stream into a structure, batched when it supports it.

    With ``shards > 1`` the stream is split across sibling sketches driven
    by a thread pool and merged back — requires the structure to implement
    the mergeable-sketch protocol (see :mod:`repro.streams.sharding`); the
    result is bit-identical to sequential ingestion.
    """
    if shards > 1:
        from repro.streams.sharding import ingest_sharded

        return ingest_sharded(structure, stream, shards, chunk_size)
    update_batch = getattr(structure, "update_batch", None)
    if update_batch is None:
        for update in stream:
            structure.update(update.item, update.delta)
    else:
        for items, deltas in iter_update_chunks(stream, chunk_size):
            update_batch(items, deltas)
    return structure


def drive_second_pass(
    structure,
    stream: "TurnstileStream | Iterable[StreamUpdate]",
    chunk_size: int = DEFAULT_CHUNK,
    shards: int = 1,
):
    """Second-pass analogue of :func:`drive` for two-pass structures."""
    if shards > 1:
        from repro.streams.sharding import ingest_sharded

        return ingest_sharded(
            structure, stream, shards, chunk_size, second_pass=True
        )
    update_batch = getattr(structure, "update_batch_second_pass", None)
    if update_batch is None:
        for update in stream:
            structure.update_second_pass(update.item, update.delta)
    else:
        for items, deltas in iter_update_chunks(stream, chunk_size):
            update_batch(items, deltas)
    return structure
