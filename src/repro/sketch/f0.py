"""Distinct-elements (F0) sketches.

F0 is the g-SUM of the indicator function — tractable by Theorem 2 and
estimable through the generic pipeline — but monitoring systems usually
dedicate a cheaper structure to it.  Two are provided:

* :class:`BjkstF0Sketch` — the classic threshold-sampling sketch
  (Bar-Yossef et al.): keep items whose hash falls below a shrinking
  threshold; estimate = |sample| * 2^level.  Insertion-only semantics
  (ignores deletions by design); ``O(1/eps^2)`` sample slots.
* :class:`TurnstileF0Estimator` — deletion-safe: exact tabulation over a
  hash-subsampled substream, scaled back up.  Sub-linear space whenever
  F0 >> sample budget, and correct under arbitrary turnstile churn.

Both are used by the query-optimizer application and cross-validated in
tests against the indicator g-SUM estimator.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Sequence

import numpy as np

from repro.sketch.base import MergeableSketch, decode_int_map, encode_int_map
from repro.sketch.hashing import KWiseHash
from repro.streams.batching import aggregate_batch, apply_net_counts, as_batch, drive
from repro.streams.model import StreamUpdate, TurnstileStream
from repro.util.rng import RandomSource, as_source

_HASH_SPACE = 1 << 30


class BjkstF0Sketch(MergeableSketch):
    """BJKST threshold sampling for distinct counts (insertion-only).

    Maintains the set of seen items whose 30-bit hash has at least
    ``level`` leading sampled bits; when the set exceeds its budget the
    level increments and the set is re-filtered.  The estimate is
    ``|set| * 2^level``.
    """

    def __init__(self, sample_budget: int, seed: int | RandomSource | None = None):
        if sample_budget < 4:
            raise ValueError("sample budget must be at least 4")
        source = as_source(seed, "bjkst")
        self.sample_budget = int(sample_budget)
        self._hash = KWiseHash(_HASH_SPACE, 2, source)
        self.level = 0
        self._sample: Dict[int, int] = {}  # item -> hash value
        self._register_mergeable(source, sample_budget=self.sample_budget)

    def _threshold(self) -> int:
        return _HASH_SPACE >> self.level

    def update(self, item: int, delta: int = 1) -> None:
        """Record an item sighting.  Deletions are ignored (insertion-only
        semantics): a negative delta neither adds nor removes the item."""
        if delta <= 0:
            return
        value = self._hash(item)
        if value < self._threshold() and item not in self._sample:
            self._sample[item] = value
            while len(self._sample) > self.sample_budget:
                self.level += 1
                threshold = self._threshold()
                self._sample = {
                    i: v for i, v in self._sample.items() if v < threshold
                }

    def update_batch(
        self, items: "np.ndarray | Sequence[int]", deltas: "np.ndarray | Sequence[int]"
    ) -> None:
        """Batched sightings: hash the whole batch in one vectorized pass,
        then run the (cheap, data-dependent) threshold-admission loop over
        the few items that hash below the current threshold.  Bit-for-bit
        identical to replaying the batch through :meth:`update`."""
        items, deltas = as_batch(items, deltas)
        mask = deltas > 0
        if not mask.any():
            return
        kept = items[mask]
        values = self._hash.values_batch(kept)
        sample = self._sample
        for item, value in zip(kept.tolist(), values.tolist()):
            if value < self._threshold() and item not in sample:
                sample[item] = value
                while len(sample) > self.sample_budget:
                    self.level += 1
                    threshold = self._threshold()
                    self._sample = sample = {
                        i: v for i, v in sample.items() if v < threshold
                    }

    def process(self, stream: TurnstileStream | Iterable[StreamUpdate]) -> "BjkstF0Sketch":
        return drive(self, stream)

    def estimate(self) -> float:
        return float(len(self._sample)) * (2.0 ** self.level)

    @property
    def space_counters(self) -> int:
        return 2 * len(self._sample) + 1

    # ------------------------------------------------- mergeable protocol

    def _extra_compat(self) -> tuple:
        return (self._hash.fingerprint(),)

    def _fresh_state(self) -> None:
        self.level = 0
        self._sample = {}

    def merge(self, other: "BjkstF0Sketch") -> "BjkstF0Sketch":
        """Union at the deeper of the two levels, then re-apply the budget
        rule.  The retained sample is always "every seen item hashing below
        the level threshold", a pure function of the union of items seen —
        so merging siblings reproduces single-sketch ingestion exactly."""
        self.require_sibling(other)
        self.level = max(self.level, other.level)
        threshold = self._threshold()
        merged = {
            i: v for i, v in self._sample.items() if v < threshold
        }
        for item, value in other._sample.items():
            if value < threshold:
                merged[item] = value
        while len(merged) > self.sample_budget:
            self.level += 1
            threshold = self._threshold()
            merged = {i: v for i, v in merged.items() if v < threshold}
        self._sample = merged
        return self

    def _state_payload(self) -> dict:
        return {"level": self.level, "sample": encode_int_map(self._sample)}

    def _load_state_payload(self, payload: dict) -> None:
        self.level = int(payload["level"])
        self._sample = decode_int_map(payload["sample"])


class TurnstileF0Estimator(MergeableSketch):
    """Deletion-safe F0: exact tabulation over a subsampled substream.

    Items are kept with probability ``2^-level`` (pairwise hashing); the
    estimate is the surviving support size times ``2^level``.  The level
    is fixed at construction from an upper bound on F0, so the structure
    stays a linear sketch (no data-dependent reconfiguration, hence fully
    turnstile-correct)."""

    def __init__(
        self,
        f0_upper_bound: int,
        sample_budget: int = 256,
        seed: int | RandomSource | None = None,
    ):
        if sample_budget < 8:
            raise ValueError("sample budget must be at least 8")
        source = as_source(seed, "turnstile_f0")
        self.level = max(0, int(math.ceil(math.log2(
            max(f0_upper_bound, 1) / (sample_budget / 2.0)
        ))) if f0_upper_bound > sample_budget / 2 else 0)
        self._hash = KWiseHash(1 << max(self.level, 1), 2, source)
        self._counts: Dict[int, int] = {}
        self._register_mergeable(
            source,
            f0_upper_bound=int(f0_upper_bound),
            sample_budget=int(sample_budget),
        )

    def _sampled(self, item: int) -> bool:
        if self.level == 0:
            return True
        return self._hash(item) == 0

    def update(self, item: int, delta: int) -> None:
        if not self._sampled(item):
            return
        new = self._counts.get(item, 0) + delta
        if new == 0:
            self._counts.pop(item, None)
        else:
            self._counts[item] = new

    def update_batch(
        self, items: "np.ndarray | Sequence[int]", deltas: "np.ndarray | Sequence[int]"
    ) -> None:
        """Batched turnstile updates: one vectorized subsampling test for
        the whole batch, then net-delta tabulation of the (few) surviving
        items.  Final counts match a scalar replay exactly (integer adds
        commute; zero-count entries are dropped either way)."""
        items, deltas = as_batch(items, deltas)
        if items.shape[0] == 0:
            return
        if self.level > 0:
            mask = self._hash.values_batch(items) == 0
            items, deltas = items[mask], deltas[mask]
            if items.shape[0] == 0:
                return
        unique, net = aggregate_batch(items, deltas)
        apply_net_counts(self._counts, unique, net)

    def process(
        self, stream: TurnstileStream | Iterable[StreamUpdate]
    ) -> "TurnstileF0Estimator":
        return drive(self, stream)

    def estimate(self) -> float:
        return float(len(self._counts)) * (2.0 ** self.level)

    @property
    def space_counters(self) -> int:
        return 2 * len(self._counts)

    # ------------------------------------------------- mergeable protocol

    def _extra_compat(self) -> tuple:
        return (self.level, self._hash.fingerprint())

    def _fresh_state(self) -> None:
        self._counts = {}

    def merge(self, other: "TurnstileF0Estimator") -> "TurnstileF0Estimator":
        """Net counts add (the subsampling level is fixed at construction,
        so siblings tabulate the same substream)."""
        self.require_sibling(other)
        for item, count in other._counts.items():
            new = self._counts.get(item, 0) + count
            if new == 0:
                self._counts.pop(item, None)
            else:
                self._counts[item] = new
        return self

    def _state_payload(self) -> dict:
        return {"counts": encode_int_map(self._counts)}

    def _load_state_payload(self, payload: dict) -> None:
        self._counts = decode_int_map(payload["counts"])
