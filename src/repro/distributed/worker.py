"""The worker side: ingest a stream partition, ship it round by round.

A worker owns one contiguous partition of the stream (or, in
many-files-per-worker deployments, a whole shard file of its own) and a
sketch that is a sibling of the coordinator's (same configuration, same
randomness lineage — by construction from a shared spec, or by receiving a
``spawn_sibling()`` from the driver).

:func:`run_worker_rounds` drives the round protocol over a persistent
session (:class:`~repro.distributed.transport.SocketSession` or
:class:`~repro.distributed.transport.FileWorkerSession`): ship the
first-pass contribution as one or many streaming **delta frames**
(:func:`ship_round`) — a 1-pass job ends there — and for two-pass
estimation wait for the coordinator's candidate broadcast, verify it came
from a true sibling (compat digest), import the merged candidate set, and
ship the second pass the same way.

Failures are published through the session, so the coordinator fails fast
instead of timing out.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.distributed.wire import (
    ROUND_FIRST_PASS,
    ROUND_SECOND_PASS,
    delta_message,
    delta_skipped_message,
    error_message,
    round_end_message,
)
from repro.streams.batching import DEFAULT_CHUNK
from repro.streams.sharding import feed_chunks

__all__ = [
    "partition_bounds",
    "worker_slice",
    "ship_round",
    "run_worker_rounds",
]


def partition_bounds(total: int, workers: int) -> np.ndarray:
    """Contiguous near-equal partition boundaries: worker ``i`` of ``k``
    owns ``[bounds[i], bounds[i+1])``.  Matches the slab geometry of
    :func:`repro.streams.sharding.shard_slabs`, except that short streams
    yield *empty* partitions rather than fewer (every worker id must have
    a well-defined slice, even one that turns out to be empty)."""
    if workers < 1:
        raise ValueError("workers must be positive")
    return np.linspace(0, total, workers + 1, dtype=np.int64)


def worker_slice(
    items: np.ndarray, deltas: np.ndarray, worker_id: int, workers: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Worker ``worker_id``'s zero-copy partition of the columnar stream."""
    if not 0 <= worker_id < workers:
        raise ValueError(f"worker_id must be in [0, {workers}), got {worker_id}")
    bounds = partition_bounds(items.shape[0], workers)
    start, stop = int(bounds[worker_id]), int(bounds[worker_id + 1])
    return items[start:stop], deltas[start:stop]


def ship_round(
    structure,
    items: np.ndarray,
    deltas: np.ndarray,
    worker_id: int,
    round_id: int,
    send,
    chunk_size: int = DEFAULT_CHUNK,
    delta_every: int = 0,
    second_pass: bool = False,
) -> int:
    """Ship one round's contribution through ``send`` as delta frames plus
    a ``round_end``; returns the frame count (shipped + skipped).

    ``delta_every == 0`` ships a single frame holding the whole partition
    state.  ``delta_every > 0`` is the streaming-merge mode: every
    ``delta_every`` updates are ingested into a *fresh sibling* whose
    state ships immediately as one delta frame — the coordinator merges
    frames as they land, so its view trails the stream by at most one
    period instead of one round.  Because sketch states are linear over
    updates, the sum of the deltas equals the batch state bit for bit;
    siblings spawned mid-second-pass clone the candidate restriction, so
    the same machinery serves both passes.

    A period that leaves its sibling's state *empty* (an empty partition,
    or updates outside this sketch's restriction — common in candidate-
    restricted second passes) ships a lightweight ``delta_skipped``
    heartbeat instead of a payload-free state frame: the seq slot stays
    accounted for, the wire stops paying for empty sketches, and merging
    is untouched because merging an empty sibling is the identity.
    """
    period = items.shape[0] if delta_every <= 0 else int(delta_every)
    period = max(period, 1)
    # The unchanged-sketch detector: a period's frame is skippable exactly
    # when its state equals a fresh sibling's.  (Delta-sign tricks are not
    # enough — a zero-sum period can still admit candidate-pool entries.)
    # The first period's sibling is encoded once before it is fed, which
    # saves spawning a sibling just for the blank state.
    blank = None
    seq = 0
    for start in range(0, items.shape[0], period):
        sibling = structure.spawn_sibling()
        if blank is None:
            blank = sibling.to_state()
        feed_chunks(
            sibling,
            items[start : start + period],
            deltas[start : start + period],
            chunk_size,
            second_pass,
        )
        state = sibling.to_state()
        if state == blank:
            send(delta_skipped_message(worker_id, round_id, seq))
        else:
            send(delta_message(worker_id, round_id, seq, state))
        seq += 1
    if seq == 0:  # empty partition: one heartbeat, so accounting is uniform
        send(delta_skipped_message(worker_id, round_id, seq))
        seq = 1
    send(round_end_message(worker_id, round_id, seq))
    return seq


def run_worker_rounds(
    structure,
    items: np.ndarray,
    deltas: np.ndarray,
    worker_id: int,
    session,
    chunk_size: int = DEFAULT_CHUNK,
    delta_every: int = 0,
    passes: int = 1,
    timeout: float = 120.0,
) -> List[int]:
    """Drive one worker through the round protocol over a persistent
    ``session`` (``send`` / ``recv_broadcast``).  Returns the frame count
    :func:`ship_round` reported for each round the worker shipped, in
    round order.

    Round 1 ships the first-pass contribution.  With ``passes == 2`` the
    worker then blocks on the coordinator's ``round_begin`` broadcast,
    refuses it unless the embedded compat digest matches this worker's own
    sketch (a mismatched spec or seed cannot silently poison pass two),
    imports the merged candidate set, and ships the second pass as round
    2.  A ``codec`` field that an older coordinator adds to the broadcast
    is ignored: every frame ships ``sparse-binary``, which every
    coordinator since that codec's introduction decodes.  Any failure
    publishes a round-tagged ``error`` envelope before re-raising, so the
    coordinator aborts the round immediately.
    """
    if passes not in (1, 2):
        raise ValueError("passes must be 1 or 2")
    round_id = ROUND_FIRST_PASS
    try:
        frames = [
            ship_round(
                structure, items, deltas, worker_id, ROUND_FIRST_PASS,
                session.send, chunk_size, delta_every, second_pass=False,
            )
        ]
        if passes == 2:
            begin = session.recv_broadcast(ROUND_SECOND_PASS, timeout)
            round_id = ROUND_SECOND_PASS
            if begin["compat"] != structure.compat_digest():
                raise ValueError(
                    "candidate broadcast compat digest "
                    f"{begin['compat']} does not match this worker's "
                    f"{structure.compat_digest()} — the worker was built "
                    "from a different spec or seed than the coordinator"
                )
            structure.import_candidates(begin["candidates"])
            frames.append(
                ship_round(
                    structure, items, deltas, worker_id, ROUND_SECOND_PASS,
                    session.send, chunk_size, delta_every, second_pass=True,
                )
            )
    except Exception as exc:
        try:
            session.send(
                error_message(
                    worker_id, f"{type(exc).__name__}: {exc}", round_id
                )
            )
        except Exception:  # pragma: no cover - e.g. the session died too
            pass
        raise
    return frames
