"""AMS F2 sketch (Alon-Matias-Szegedy) — the tug-boat used by Algorithm 2.

Single estimator: ``Z = (sum_i s(i) v_i)^2`` with a 4-wise independent sign
hash ``s`` has ``E[Z] = F2`` and ``Var[Z] <= 2 F2^2``.  Averaging
``means_size`` independent copies and taking the median of ``medians``
groups yields a ``(1 +- eps)``-approximation with probability
``1 - delta`` for ``means_size = O(1/eps^2)``, ``medians = O(log 1/delta)``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.sketch.base import MergeableSketch, decode_array, encode_array
from repro.sketch.hashing import VectorKWiseHash
from repro.streams.batching import aggregate_batch, as_batch, drive
from repro.streams.model import StreamUpdate, TurnstileStream
from repro.util.rng import RandomSource, as_source


class AmsF2Sketch(MergeableSketch):
    """Median-of-means AMS estimator for ``F2 = sum v_i^2``."""

    def __init__(
        self,
        medians: int,
        means_size: int,
        seed: int | RandomSource | None = None,
    ):
        if medians < 1 or means_size < 1:
            raise ValueError("medians and means_size must be positive")
        source = as_source(seed, "ams")
        self.medians = int(medians)
        self.means_size = int(means_size)
        count = self.medians * self.means_size
        self._signs = VectorKWiseHash(count, 4, source.child("signs"))
        self._registers = np.zeros(count, dtype=np.float64)
        # Per-item sign-vector memo (repeat items skip the hash entirely).
        self._sign_cache: dict[int, np.ndarray] = {}
        self._register_mergeable(
            source, medians=self.medians, means_size=self.means_size
        )

    def _sign_vector(self, item: int) -> np.ndarray:
        cached = self._sign_cache.get(item)
        if cached is None:
            cached = self._signs.signs(item)
            if len(self._sign_cache) < 1_000_000:
                self._sign_cache[item] = cached
        return cached

    def update(self, item: int, delta: float) -> None:
        self._registers += self._sign_vector(item) * delta

    def update_batch(
        self, items: "np.ndarray | Sequence[int]", deltas: "np.ndarray | Sequence[int]"
    ) -> None:
        """Vectorized ingestion: one sign-matrix Horner evaluation for the
        batch's distinct items, one matrix-vector product to accumulate
        ``sum_i sign(i) * net_delta(i)`` into every register at once.
        Registers are integer-valued sums far below 2^53, so the result is
        bit-for-bit identical to replaying the batch through
        :meth:`update`."""
        items, deltas = as_batch(items, deltas)
        if items.shape[0] == 0:
            return
        unique, net = aggregate_batch(items, deltas)
        signs = self._signs.signs_batch(unique)
        self._registers += net.astype(np.float64) @ signs

    @property
    def sign_bank(self) -> "VectorKWiseHash":
        """The register sign-hash bank.  Hash families are immutable once
        constructed, so the fused ingest plan evaluates this bank directly
        and memoizes per-item sign rows across chunks; state loads replace
        registers but never the bank."""
        return self._signs

    def apply_net(self, net: np.ndarray, signs: np.ndarray) -> None:
        """Accumulate a pre-aggregated ``(net, sign-matrix)`` pair — the
        fused-plan entry point.  ``net`` must be the float64 net deltas of
        the batch's distinct items and ``signs`` their
        :attr:`sign_bank` rows, as ±1 in any numeric dtype (the plan's
        memo keeps them as ``int8``; the product reads them as float64);
        equal bit for bit to :meth:`update_batch` on the underlying batch
        (same matrix product, and registers are integer-valued sums far
        below 2^53)."""
        self._registers += net @ signs

    def process(self, stream: TurnstileStream | Iterable[StreamUpdate]) -> "AmsF2Sketch":
        return drive(self, stream)

    def estimate(self) -> float:
        squares = self._registers ** 2
        groups = squares.reshape(self.medians, self.means_size)
        return float(np.median(groups.mean(axis=1)))

    @property
    def space_counters(self) -> int:
        return len(self._registers)

    # ------------------------------------------------- mergeable protocol

    def _extra_compat(self) -> tuple:
        return (self._signs.fingerprint(),)

    def _fresh_state(self) -> None:
        self._registers = np.zeros(self._registers.shape[0], dtype=np.float64)
        self._sign_cache = {}

    def merge(self, other: "AmsF2Sketch") -> "AmsF2Sketch":
        """Linearity: registers add, so merging sibling sketches of two
        streams sketches their concatenation."""
        self.require_sibling(other)
        self._registers += other._registers
        return self

    def _state_payload(self) -> dict:
        return {"registers": encode_array(self._registers)}

    def _load_state_payload(self, payload: dict) -> None:
        self._registers = decode_array(payload["registers"], self._registers.shape)

    @classmethod
    def for_accuracy(
        cls,
        accuracy: float,
        failure: float,
        seed: int | RandomSource | None = None,
    ) -> "AmsF2Sketch":
        """Dimensions for a ``(1 +- accuracy)`` estimate w.p. ``1 - failure``."""
        if not 0 < accuracy <= 1:
            raise ValueError("accuracy must be in (0, 1]")
        means_size = min(max(4, int(math.ceil(8.0 / (accuracy * accuracy)))), 128)
        medians = max(
            1, min(int(math.ceil(2.0 * math.log(1.0 / max(failure, 1e-9)))), 9) | 1
        )
        return cls(medians, means_size, seed)
