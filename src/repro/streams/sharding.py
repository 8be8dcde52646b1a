"""Sharded parallel ingestion over mergeable sketches.

The scale lever the mergeable-sketch protocol exists for: split a stream's
columnar ``(items, deltas)`` arrays into N contiguous shard slabs, drive
each slab into a :meth:`~repro.sketch.base.MergeableSketch.spawn_sibling`
of the target structure on a thread pool, and fold the shard states back
with :meth:`~repro.sketch.base.MergeableSketch.merge`.  Because every
implementer's state transition is order- and chunking-insensitive (the
invariance contract of :mod:`repro.sketch.base`), the merged result is
**bit-identical** to sequential ingestion — sharding is a pure throughput
decision, never an accuracy trade.

The pool runs ``update_batch`` on each slab.  The numpy kernels (Horner
hashing, ``np.bincount`` scatter-adds) release the GIL, so ingestion
spills onto spare cores without pickling anything, and any sketch shards
— a hand-rolled ``GFunction`` included.  Shard 0 folds into the caller's
structure and the siblings merge back in slab order, so the result never
depends on thread scheduling.  Work that must cross a process boundary
goes through the distributed driver's process workers
(:func:`repro.distributed.driver.distributed_ingest`) instead.

The same engine drives second passes (``second_pass=True`` uses
``update_batch_second_pass`` on phase-cloned siblings), which is how
``GSumEstimator(..., passes=2, shards=N)`` runs both passes in parallel.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, List, Tuple

import numpy as np

from repro.sketch.base import MergeableSketch
from repro.streams.batching import DEFAULT_CHUNK, iter_update_chunks
from repro.streams.model import StreamUpdate, TurnstileStream


def shard_slabs(
    items: np.ndarray, deltas: np.ndarray, shards: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split columnar arrays into up to ``shards`` contiguous, zero-copy,
    near-equal slabs (fewer when there are fewer updates than shards)."""
    if shards < 1:
        raise ValueError("shards must be positive")
    total = items.shape[0]
    shards = min(shards, max(total, 1))
    bounds = np.linspace(0, total, shards + 1, dtype=np.int64)
    return [
        (items[start:stop], deltas[start:stop])
        for start, stop in zip(bounds[:-1], bounds[1:])
        if stop > start
    ]


def as_columnar(
    stream: "TurnstileStream | Iterable[StreamUpdate] | Tuple[np.ndarray, np.ndarray]",
    chunk_size: int = DEFAULT_CHUNK,
) -> Tuple[np.ndarray, np.ndarray]:
    """Materialize a stream (or accept a prebuilt array pair) as columnar
    int64 arrays in arrival order."""
    if (
        isinstance(stream, tuple)
        and len(stream) == 2
        and all(isinstance(part, np.ndarray) for part in stream)
    ):
        return stream  # already columnar
    if isinstance(stream, TurnstileStream):
        return stream.as_arrays()
    chunks = list(iter_update_chunks(stream, chunk_size))
    if not chunks:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return (
        np.concatenate([c[0] for c in chunks]),
        np.concatenate([c[1] for c in chunks]),
    )


def feed_chunks(structure, items, deltas, chunk_size=DEFAULT_CHUNK, second_pass=False):
    """Drive a columnar slab into ``structure`` through its batch method in
    ``chunk_size`` pieces (the per-shard inner loop of the thread pool, and
    of the distributed workers)."""
    update = (
        structure.update_batch_second_pass if second_pass else structure.update_batch
    )
    for start in range(0, items.shape[0], chunk_size):
        update(items[start : start + chunk_size], deltas[start : start + chunk_size])
    return structure


def supports_sharding(structure) -> bool:
    """True when ``structure`` implements enough of the mergeable-sketch
    protocol for :func:`ingest_sharded` (spawn + merge + batch updates)."""
    return isinstance(structure, MergeableSketch) and hasattr(
        structure, "update_batch"
    )


def ingest_sharded(
    structure,
    stream: "TurnstileStream | Iterable[StreamUpdate]",
    shards: int,
    chunk_size: int = DEFAULT_CHUNK,
    *,
    second_pass: bool = False,
):
    """Ingest ``stream`` into ``structure`` across ``shards`` parallel
    shards and merge; state afterwards is bit-identical to sequential
    ingestion.  Returns ``structure``.
    """
    if not supports_sharding(structure):
        raise TypeError(
            f"{type(structure).__name__} does not implement the "
            "mergeable-sketch protocol required for sharded ingestion"
        )
    if second_pass and not hasattr(structure, "update_batch_second_pass"):
        raise TypeError(
            f"{type(structure).__name__} has no update_batch_second_pass; "
            "drive its second pass sequentially instead"
        )
    items, deltas = as_columnar(stream, chunk_size)
    slabs = shard_slabs(items, deltas, shards)
    if len(slabs) <= 1:
        for slab_items, slab_deltas in slabs:
            feed_chunks(structure, slab_items, slab_deltas, chunk_size, second_pass)
        return structure

    # Shard 0 folds straight into the caller's structure (which may already
    # carry state from earlier streams); the rest go through empty siblings.
    siblings = [structure.spawn_sibling() for _ in slabs[1:]]
    workers = [structure] + siblings

    with ThreadPoolExecutor(max_workers=len(slabs)) as pool:
        futures = [
            pool.submit(feed_chunks, worker, si, sd, chunk_size, second_pass)
            for worker, (si, sd) in zip(workers, slabs)
        ]
        for future in futures:
            future.result()

    for sibling in siblings:
        structure.merge(sibling)
    return structure
