"""Exact frequency tabulation.

Serves three roles: ground truth for tests and benchmarks, the *second pass*
of the 2-pass heavy-hitter algorithm (Algorithm 1 tabulates the frequency of
each first-pass candidate exactly), and the trivial-but-linear-space
baseline every experiment compares sketch space against.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Sequence

import numpy as np

from repro.sketch.base import MergeableSketch, decode_int_map, encode_int_map
from repro.streams.batching import aggregate_batch, apply_net_counts, as_batch, drive
from repro.streams.model import FrequencyVector, StreamUpdate, TurnstileStream


class ExactCounter(MergeableSketch):
    """Hash-map counter over the stream; optionally restricted to a
    candidate set (the second-pass mode: only tabulate first-pass survivors,
    so space is proportional to the candidate count, not the domain)."""

    def __init__(self, domain_size: int, restrict_to: Sequence[int] | None = None):
        self.domain_size = int(domain_size)
        self._restrict = None if restrict_to is None else set(int(i) for i in restrict_to)
        self._restrict_array = (
            None
            if self._restrict is None
            else np.fromiter(self._restrict, dtype=np.int64, count=len(self._restrict))
        )
        self._counts: Dict[int, int] = {}
        self._register_mergeable(
            None,
            domain_size=self.domain_size,
            restrict_to=None if self._restrict is None else sorted(self._restrict),
        )

    def update(self, item: int, delta: int) -> None:
        if self._restrict is not None and item not in self._restrict:
            return
        new = self._counts.get(item, 0) + delta
        if new == 0:
            self._counts.pop(item, None)
        else:
            self._counts[item] = new

    def update_batch(
        self, items: "np.ndarray | Sequence[int]", deltas: "np.ndarray | Sequence[int]"
    ) -> None:
        """Batched tabulation: filter to the candidate set vectorized, net
        deltas per distinct item, then apply to the hash map.  Final counts
        match a scalar replay exactly (integer adds commute)."""
        items, deltas = as_batch(items, deltas)
        if items.shape[0] == 0:
            return
        if self._restrict_array is not None:
            mask = np.isin(items, self._restrict_array)
            items, deltas = items[mask], deltas[mask]
            if items.shape[0] == 0:
                return
        unique, net = aggregate_batch(items, deltas)
        apply_net_counts(self._counts, unique, net)

    def process(self, stream: TurnstileStream | Iterable[StreamUpdate]) -> "ExactCounter":
        return drive(self, stream)

    def estimate(self, item: int) -> int:
        return self._counts.get(item, 0)

    def estimate_batch(self, items: "np.ndarray | Sequence[int]") -> np.ndarray:
        """Exact counts for a whole item array (float64; the counts are
        integers, exact below 2^53, so ``out[i] == estimate(items[i])``
        holds bit for bit).  One pass over the probe array with a direct
        dict lookup — no per-item method dispatch."""
        arr = np.asarray(items, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("estimate_batch expects a 1-D array of items")
        counts = self._counts
        return np.fromiter(
            (counts.get(item, 0) for item in arr.tolist()),
            dtype=np.float64,
            count=arr.shape[0],
        )

    def frequency_vector(self) -> FrequencyVector:
        return FrequencyVector(self.domain_size, self._counts)

    def heavy_hitters(
        self, g: Callable[[int], float], heaviness: float
    ) -> list[tuple[int, int]]:
        """Exact (g, lambda)-heavy hitters (Definition 11): items j with
        ``g(|v_j|) >= heaviness * sum_{i != j} g(|v_i|)``."""
        values = {item: g(abs(v)) for item, v in self._counts.items()}
        total = sum(values.values())
        out = []
        for item, gv in values.items():
            if gv >= heaviness * (total - gv):
                out.append((item, self._counts[item]))
        out.sort(key=lambda pair: abs(pair[1]), reverse=True)
        return out

    @property
    def space_counters(self) -> int:
        return len(self._counts)

    # ------------------------------------------------- mergeable protocol

    def _fresh_state(self) -> None:
        if self._restrict is not None:
            self._restrict = set(self._restrict)
        self._counts = {}

    def merge(self, other: "ExactCounter") -> "ExactCounter":
        """Net counts add; zero totals drop (so the merged counter equals
        one that tabulated the concatenated stream)."""
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
