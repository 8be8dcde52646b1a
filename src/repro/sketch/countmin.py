"""Count-Min sketch — a baseline comparator.

Count-Min (Cormode-Muthukrishnan) upper-bounds frequencies in insertion-only
streams with additive error ``F1 / buckets``.  The paper's algorithms need
CountSketch's two-sided ``sqrt(F2/b)`` error (Count-Min's one-sided F1 error
is too weak for turnstile g-heavy hitters), and experiment E12 quantifies
that gap; Count-Min is included as that baseline.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.sketch.base import MergeableSketch, decode_array, encode_array
from repro.sketch.hashing import KWiseHash
from repro.streams.batching import aggregate_batch, as_batch, drive
from repro.streams.model import StreamUpdate, TurnstileStream
from repro.util.rng import RandomSource, as_source


class CountMinSketch(MergeableSketch):
    """Classic Count-Min: min over rows of hashed counters."""

    def __init__(self, rows: int, buckets: int, seed: int | RandomSource | None = None):
        if rows < 1 or buckets < 1:
            raise ValueError("rows and buckets must be positive")
        source = as_source(seed, "countmin")
        self.rows = int(rows)
        self.buckets = int(buckets)
        self._table = np.zeros((self.rows, self.buckets), dtype=np.float64)
        self._hashes = [
            KWiseHash(self.buckets, 2, source.child(f"h{j}")) for j in range(self.rows)
        ]
        self._register_mergeable(source, rows=self.rows, buckets=self.buckets)

    def update(self, item: int, delta: float) -> None:
        for j in range(self.rows):
            self._table[j, self._hashes[j](item)] += delta

    def update_batch(
        self, items: "np.ndarray | Sequence[int]", deltas: "np.ndarray | Sequence[int]"
    ) -> None:
        """Vectorized ingestion: net deltas per distinct item, hash each
        distinct item once per row, scatter-add with ``np.bincount``.
        Bit-for-bit identical to replaying the batch through
        :meth:`update` (integer-valued cells, exact in float64)."""
        items, deltas = as_batch(items, deltas)
        if items.shape[0] == 0:
            return
        unique, net = aggregate_batch(items, deltas)
        weights = net.astype(np.float64)
        for j in range(self.rows):
            self._table[j] += np.bincount(
                self._hashes[j].values_batch(unique),
                weights=weights,
                minlength=self.buckets,
            )

    def process(self, stream: TurnstileStream | Iterable[StreamUpdate]) -> "CountMinSketch":
        return drive(self, stream)

    def estimate(self, item: int) -> float:
        """Min-estimate; an over-estimate of the true frequency in
        insertion-only streams, biased and unreliable under deletions.
        Delegates to the batch kernel with a size-1 array so the scalar and
        vectorized paths share one arithmetic (min over identical float64
        cell values, so the result is bit-for-bit the historical one)."""
        return float(self.estimate_batch(np.asarray([int(item)], dtype=np.int64))[0])

    def estimate_batch(self, items: "np.ndarray | Sequence[int]") -> np.ndarray:
        """Min-estimates for a whole item array in one pass: per row, a
        vectorized hash evaluation and a table gather, then a column min
        across rows.  Element ``i`` equals ``estimate(items[i])`` bit for
        bit."""
        arr = np.asarray(items, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("estimate_batch expects a 1-D array of items")
        if arr.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        gathered = np.empty((self.rows, arr.shape[0]), dtype=np.float64)
        for j in range(self.rows):
            gathered[j] = self._table[j, self._hashes[j].values_batch(arr)]
        return gathered.min(axis=0)

    @property
    def space_counters(self) -> int:
        return self.rows * self.buckets

    # ------------------------------------------------- mergeable protocol

    def _extra_compat(self) -> tuple:
        return tuple(h.fingerprint() for h in self._hashes)

    def _fresh_state(self) -> None:
        self._table = np.zeros((self.rows, self.buckets), dtype=np.float64)

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        """Linearity: counters add, so merging sibling sketches of two
        streams sketches their concatenation."""
        self.require_sibling(other)
        self._table += other._table
        return self

    def _state_payload(self) -> dict:
        return {"table": encode_array(self._table)}

    def _load_state_payload(self, payload: dict) -> None:
        self._table = decode_array(payload["table"], self._table.shape)
