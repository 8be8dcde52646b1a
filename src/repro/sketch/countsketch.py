"""CountSketch (Charikar-Chen-Farach-Colton), the workhorse of Section 3.1.

Guarantee used by the paper: with ``r = O(log(n/delta))`` rows and ``b``
buckets per row, every item's frequency estimate (median over rows of the
signed bucket counters) has additive error ``O(sqrt(F2 / b))``; in the
parameterization of Section 3.1, a ``CountSketch(lambda, eps, delta)`` uses
``O(1/(lambda eps^2) log(n/delta))`` counters and returns ``k = O(1/lambda)``
candidate pairs containing every ``lambda``-heavy hitter for F2, each with
additive error at most ``eps * sqrt(lambda * F2)``.

This implementation is a genuine turnstile linear sketch plus a *deferred*
top-k candidate tracker (the practical device for recovering identities
without an O(n) query sweep).  Streaming only maintains a **candidate
pool** — the set of distinct items seen, bounded at ``pool`` entries by
keeping the items with the smallest values of a dedicated pairwise hash
(BJKST-style threshold sampling, so membership is a pure function of the
set of items seen).  All estimation is deferred to query time:
``top_candidates`` re-estimates the whole pool against the final table in
one vectorized median pass and selects the top ``track`` by
``np.argpartition``.

That deferral is what makes the tracker *mergeable*: the pool is a
set-union (re-pruned by the same hash order) and the table is linear, so
any chunking, any update order, and any sharded split-and-merge of a
stream yield bit-for-bit identical candidates and estimates.  The scalar
``update`` and the vectorized ``update_batch`` share the exact same state
transition; ``tests/test_batch_equivalence.py`` and
``tests/test_mergeable.py`` enforce both invariances.  (Caveat: beyond
``pool`` distinct items — default 2^20 — identification degrades to a
uniform sample of identities, so recall of heavy hitters falls off a
cliff (``benchmarks/bench_s5_adversarial.py``); the linear table, and
hence all frequency estimates, are unaffected.  ``pool`` is the lever:
set it to at least the stream's distinct count.)
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.sketch.base import (
    MergeableSketch,
    decode_array,
    decode_int_map,
    encode_array,
    encode_int_map,
)
from repro.sketch.hashing import KWiseHash, SignHash
from repro.streams.batching import as_batch, drive
from repro.streams.model import StreamUpdate, TurnstileStream
from repro.util.rng import RandomSource, as_source

#: Default candidate-pool bound: large enough that realistic workloads keep
#: every distinct item (exact identification), small enough to bound memory.
DEFAULT_POOL = 1 << 20

#: Bound on the per-item (bucket, sign) memo.  The memo is a pure cache —
#: no semantic effect — but under all-distinct floods an uncapped memo is
#: the dominant memory consumer, so it is bounded independently of the
#: candidate pool (regression-tested in ``tests/test_countsketch.py``).
ITEM_CACHE_LIMIT = 1 << 20

_POOL_SPACE = 1 << 30


@dataclass(frozen=True)
class CountSketchEstimate:
    """A recovered (item, estimated frequency) pair."""

    item: int
    estimate: float


class CountSketch(MergeableSketch):
    """Turnstile CountSketch with median-of-rows estimates and deferred
    top-k candidate tracking.

    Parameters
    ----------
    rows:
        Number of independent rows; the failure probability decays
        exponentially in ``rows``.
    buckets:
        Buckets per row; additive error scales as ``sqrt(F2 / buckets)``.
    track:
        Number of candidate heavy items returned by :meth:`top_candidates`
        (``k`` in the paper's ``O(1/lambda)`` candidate list).  ``0``
        disables tracking (pure frequency-estimation mode).
    sign_independence:
        Independence of the sign hash; 4 matches the variance analysis, 2 is
        provided for the E12 ablation.
    pool:
        Candidate-pool bound (default ``2^20``).  Identification is exact
        whenever the stream has at most this many distinct items; past it
        the pool is a uniform identity sample.  Sharded ingestion is
        bit-identical to sequential either way.
    """

    def __init__(
        self,
        rows: int,
        buckets: int,
        track: int = 0,
        seed: int | RandomSource | None = None,
        sign_independence: int = 4,
        pool: int | None = None,
    ):
        if rows < 1 or buckets < 1:
            raise ValueError("rows and buckets must be positive")
        source = as_source(seed, "countsketch")
        self.rows = int(rows)
        self.buckets = int(buckets)
        self.track = int(track)
        self.pool = max(int(pool) if pool is not None else DEFAULT_POOL, self.track)
        self._table = np.zeros((self.rows, self.buckets), dtype=np.float64)
        self._bucket_hashes = [
            KWiseHash(self.buckets, 2, source.child(f"bucket{j}"))
            for j in range(self.rows)
        ]
        self._sign_hashes = [
            SignHash(sign_independence, source.child(f"sign{j}"))
            for j in range(self.rows)
        ]
        self._pool_hash = KWiseHash(_POOL_SPACE, 2, source.child("pool"))
        # Per-item memo of (bucket index, sign) pairs: hash evaluation is
        # the Python-level bottleneck and hashes are deterministic per item.
        self._item_cache: Dict[int, List[tuple[int, float]]] = {}
        # Candidate pool: item -> pool-hash value.  Bounded at ``pool``
        # entries by keeping the smallest (hash, item) pairs — membership is
        # a pure function of the set of distinct items seen, so any update
        # order / chunking / sharding leaves the same pool.
        self._candidates: Dict[int, int] = {}
        self._pool_heap: List[tuple[int, int]] = []  # (-hash, -item) max-heap
        # Sorted snapshot of the pooled item ids, for one-pass vectorized
        # freshness checks in ``update_batch``.  ``None`` means stale; any
        # mutation that can evict (scalar admits, merges, state loads)
        # drops it, while pure bulk admissions extend it in place.
        self._cand_arr: "np.ndarray | None" = None
        self._register_mergeable(
            source,
            rows=self.rows,
            buckets=self.buckets,
            track=self.track,
            sign_independence=int(sign_independence),
            pool=self.pool,
        )

    # ------------------------------------------------------------------ core

    def _item_slots(self, item: int) -> List[tuple[int, float]]:
        cached = self._item_cache.get(item)
        if cached is None:
            cached = [
                (self._bucket_hashes[j](item), float(self._sign_hashes[j](item)))
                for j in range(self.rows)
            ]
            if len(self._item_cache) < ITEM_CACHE_LIMIT:
                self._item_cache[item] = cached
        return cached

    def update(self, item: int, delta: float) -> None:
        slots = self._item_slots(item)
        table = self._table
        for j, (bucket, sign) in enumerate(slots):
            table[j, bucket] += sign * delta
        if self.track > 0 and item not in self._candidates:
            self._pool_admit(item, self._pool_hash(item))

    def update_batch(
        self, items: "np.ndarray | Sequence[int]", deltas: "np.ndarray | Sequence[int]"
    ) -> None:
        """Vectorized ingestion of ``(items, deltas)`` int64 arrays.

        Bit-for-bit identical to replaying the batch through
        :meth:`update`: each distinct item is hashed once per row, the
        table is scatter-added with ``np.bincount``, and the candidate
        pool admits the chunk's distinct items (pool state is
        order-insensitive, so no replay is needed).
        """
        items, deltas = as_batch(items, deltas)
        if items.shape[0] == 0:
            return
        unique, inverse = np.unique(items, return_inverse=True)
        net = np.bincount(
            inverse, weights=deltas.astype(np.float64), minlength=unique.shape[0]
        )
        for j in range(self.rows):
            bucket_u = self._bucket_hashes[j].values_batch(unique)
            sign_u = self._sign_hashes[j].values_batch(unique)
            self._table[j] += np.bincount(
                bucket_u, weights=sign_u * net, minlength=self.buckets
            )
        if self.track > 0:
            self._admit_batch(self._fresh_candidates(unique))

    def process(self, stream: TurnstileStream | Iterable[StreamUpdate]) -> "CountSketch":
        return drive(self, stream)

    # ------------------------------------------------------------ estimation

    def estimate(self, item: int) -> float:
        """Median-of-rows point query.  Delegates to the batch kernel with a
        size-1 array, so the scalar and vectorized paths share a single
        arithmetic (``np.median`` of the signed row values — identical to
        the historical ``statistics.median`` for both odd and even row
        counts, enforced by ``tests/test_estimate_batch.py``)."""
        return float(self.estimate_batch(np.asarray([int(item)], dtype=np.int64))[0])

    def estimate_batch(self, items: "np.ndarray | Sequence[int]") -> np.ndarray:
        """Median-of-rows estimates for a whole item array in one pass —
        per row, a vectorized hash evaluation and a table gather, then a
        column median.  Element ``i`` equals ``estimate(items[i])`` bit for
        bit (same arithmetic)."""
        arr = np.asarray(items, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("estimate_batch expects a 1-D array of items")
        if arr.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        signed = np.empty((self.rows, arr.shape[0]), dtype=np.float64)
        for j in range(self.rows):
            buckets = self._bucket_hashes[j].values_batch(arr)
            signs = self._sign_hashes[j].values_batch(arr)
            signed[j] = signs * self._table[j, buckets]
        return np.median(signed, axis=0)

    def estimate_many(self, items: Sequence[int]) -> list[CountSketchEstimate]:
        """Public wrapper over :meth:`estimate_batch` that materializes
        ``CountSketchEstimate`` records.  Hot paths (candidate scoring, the
        verifier) call :meth:`estimate_batch` directly and
        never build the per-item dataclass list."""
        arr = np.asarray([int(i) for i in items], dtype=np.int64)
        if arr.shape[0] == 0:
            return []
        estimates = self.estimate_batch(arr)
        return [
            CountSketchEstimate(int(i), float(e))
            for i, e in zip(arr.tolist(), estimates.tolist())
        ]

    def collision_scores(self, items: Sequence[int], target: int) -> np.ndarray:
        """Signed collision pressure of each item against ``target`` under
        *this instance's* hash functions: over the rows where the item
        shares ``target``'s bucket, +1 when their sign hashes agree
        (positive mass on the item inflates target's row estimate) and -1
        when they disagree, summed across rows.  A score of ``rows`` means
        every unit of the item's mass lands on ``target`` with positive
        sign in every row, so no median can reject it.  The
        collision-seeking adversarial workload
        (``repro.streams.generators.collision_stream``) maximizes this
        score; against fresh hashes the scores of its chosen items are
        unremarkable, which is why re-seeding restores the guarantee."""
        arr = np.asarray(items, dtype=np.int64)
        scores = np.zeros(arr.shape[0], dtype=np.int64)
        for j in range(self.rows):
            target_bucket = int(self._bucket_hashes[j](int(target)))
            target_sign = float(self._sign_hashes[j](int(target)))
            same = self._bucket_hashes[j].values_batch(arr) == target_bucket
            agree = self._sign_hashes[j].values_batch(arr) * target_sign
            scores += np.where(same, agree, 0.0).astype(np.int64)
        return scores

    # ------------------------------------------------------- candidate pool

    def _fresh_candidates(self, unique: np.ndarray) -> np.ndarray:
        """Items from the sorted ``unique`` array not yet in the candidate
        pool, in the same ascending order as the historical per-item ``in``
        loop — but as one vectorized membership pass (``np.isin`` semantics
        via a single binary search) against a cached sorted array of pooled
        ids instead of ``len(unique)`` Python dict probes.

        The cache pays off only while admissions are pure insertions (the
        common regime: pool below its bound).  Once the pool sits at
        capacity every admission also evicts, each chunk would force a full
        re-sort, so the check falls back to the legacy dict loop — same
        result, and the historical cost — rather than degrade flood
        workloads."""
        candidates = self._candidates
        if not candidates:
            return unique
        cand = self._cand_arr
        if cand is None:
            if len(candidates) >= self.pool:
                fresh = [i for i in unique.tolist() if i not in candidates]
                return np.asarray(fresh, dtype=np.int64)
            cand = self._cand_arr = np.sort(
                np.fromiter(candidates.keys(), dtype=np.int64, count=len(candidates))
            )
        pos = np.searchsorted(cand, unique)
        pos[pos == cand.shape[0]] = cand.shape[0] - 1
        return unique[cand[pos] != unique]

    def _admit_batch(self, fresh: np.ndarray) -> None:
        """Admit a sorted array of items currently absent from the pool —
        the bulk tail of :meth:`update_batch`, shared with the fused ingest
        plan."""
        if fresh.shape[0] == 0:
            return
        hashes = self._pool_hash.values_batch(fresh)
        candidates = self._candidates
        cand = self._cand_arr
        before = len(candidates)
        for item, value in zip(fresh.tolist(), hashes.tolist()):
            self._pool_admit(item, value)
        if cand is not None and len(candidates) == before + fresh.shape[0]:
            # Pure admissions (no evictions): extend the sorted membership
            # cache by one merge pass instead of dropping it.
            self._cand_arr = np.insert(cand, np.searchsorted(cand, fresh), fresh)
        else:
            self._cand_arr = None

    def _pool_admit(self, item: int, value: int) -> None:
        """Admit ``item`` (not currently pooled), keeping the ``pool``
        smallest (hash, item) pairs ever seen."""
        candidates = self._candidates
        if len(candidates) < self.pool:
            self._cand_arr = None
            candidates[item] = value
            heapq.heappush(self._pool_heap, (-value, -item))
            return
        worst_value, worst_item = self._pool_heap[0]
        if (value, item) < (-worst_value, -worst_item):
            self._cand_arr = None
            heapq.heappop(self._pool_heap)
            candidates.pop(-worst_item, None)
            candidates[item] = value
            heapq.heappush(self._pool_heap, (-value, -item))

    def _rebuild_pool_heap(self) -> None:
        self._pool_heap = [(-v, -i) for i, v in self._candidates.items()]
        heapq.heapify(self._pool_heap)

    def top_candidates(self, k: int | None = None) -> list[CountSketchEstimate]:
        """The top candidates, estimated against the final sketch and sorted
        by decreasing |estimate| (item id breaks ties, so the result is a
        pure function of the sketch state).  Contains every F2 heavy hitter
        with the probability guaranteed by the sketch dimensions.

        Selection is deferred: the whole candidate pool is re-estimated in
        one vectorized pass and the top ``k`` (default ``track``) survive an
        ``np.argpartition`` cut.
        """
        limit = self.track if k is None else min(int(k), self.track)
        if limit <= 0 or not self._candidates:
            return []
        items = np.fromiter(
            self._candidates.keys(), dtype=np.int64, count=len(self._candidates)
        )
        estimates = self.estimate_batch(items)
        magnitudes = np.abs(estimates)
        if items.shape[0] > limit:
            # Keep everything tied with the k-th largest magnitude, then
            # order deterministically — ties at the cut cannot silently
            # drop the smaller item id.
            kth = np.partition(magnitudes, items.shape[0] - limit)[
                items.shape[0] - limit
            ]
            keep = magnitudes >= kth
            items, estimates, magnitudes = (
                items[keep],
                estimates[keep],
                magnitudes[keep],
            )
        order = np.lexsort((items, -magnitudes))[:limit]
        return [
            CountSketchEstimate(int(items[i]), float(estimates[i])) for i in order
        ]

    # ---------------------------------------------------------------- admin

    @property
    def space_counters(self) -> int:
        """Space in counters: table cells plus pooled candidates."""
        return self.rows * self.buckets + 2 * len(self._candidates)

    # ------------------------------------------------- mergeable protocol

    def _extra_compat(self) -> tuple:
        return (
            tuple(h.fingerprint() for h in self._bucket_hashes)
            + tuple(h.fingerprint() for h in self._sign_hashes)
            + (self._pool_hash.fingerprint(),)
        )

    def _fresh_state(self) -> None:
        self._table = np.zeros((self.rows, self.buckets), dtype=np.float64)
        self._item_cache = {}
        self._candidates = {}
        self._pool_heap = []
        self._cand_arr = None

    def merge(self, other: "CountSketch") -> "CountSketch":
        """Linearity: merging sketches of two streams sketches their
        concatenation.  Requires sibling sketches (identical dimensions and
        randomness lineage); the candidate pools union under the same
        bounded-pool rule, so the merged sketch is bit-identical to one that
        ingested both streams itself."""
        self.require_sibling(other)
        self._cand_arr = None
        self._table += other._table
        for item, value in other._candidates.items():
            if item not in self._candidates:
                self._pool_admit(item, value)
        return self

    def _state_payload(self) -> dict:
        return {
            "table": encode_array(self._table),
            "candidates": encode_int_map(self._candidates),
        }

    def _load_state_payload(self, payload: dict) -> None:
        self._table = decode_array(payload["table"], self._table.shape)
        self._candidates = decode_int_map(payload["candidates"])
        self._cand_arr = None
        self._rebuild_pool_heap()

    @classmethod
    def for_heavy_hitters(
        cls,
        heaviness: float,
        accuracy: float,
        failure: float,
        n: int,
        seed: int | RandomSource | None = None,
        sign_independence: int = 4,
        max_buckets: int = 1 << 14,
        max_rows: int = 7,
        max_track: int = 192,
        pool: int | None = None,
    ) -> "CountSketch":
        """The paper's ``CountSketch(lambda, eps, delta)`` parameterization:
        ``O(1/(lambda eps^2))`` buckets, ``O(log(n/delta))`` rows, and a
        candidate list of size ``O(1/lambda)``.

        The ``max_*`` caps bound the constants for interactive Python runs;
        theory-faithful experiments raise them explicitly.  ``pool`` bounds
        the candidate pool (see the class docstring) for memory-sensitive
        deployments.
        """
        if not 0 < heaviness <= 1:
            raise ValueError("heaviness must be in (0, 1]")
        if not 0 < accuracy <= 1:
            raise ValueError("accuracy must be in (0, 1]")
        buckets = max(8, int(math.ceil(4.0 / (heaviness * accuracy * accuracy))))
        # a row wider than ~2n is pure waste: n singleton buckets already
        # give exact recovery
        buckets = min(buckets, max_buckets, 2 * max(int(n), 4))
        rows = max(3, int(math.ceil(math.log(max(n, 2) / max(failure, 1e-9), 2))) | 1)
        rows = min(rows, max_rows | 1)
        track = min(max(4, int(math.ceil(4.0 / heaviness))), max_track)
        return cls(rows, buckets, track, seed, sign_independence, pool)
