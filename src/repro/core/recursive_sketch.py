"""The Recursive Sketch of Braverman-Ostrovsky (Theorem 13).

Reduces g-SUM to heavy hitters with O(log n) overhead: maintain nested
subsampled substreams ``S_0 supseteq S_1 supseteq ... supseteq S_L`` (each
item survives to the next level with pairwise-independent probability 1/2),
run a ``(g, lambda, eps)``-heavy-hitter sketch on each, and combine
estimates bottom-up with the unbiased telescoping estimator

    Y_L = sum of cover weights at level L
    Y_j = 2 * Y_{j+1} + sum_{(i, w) in cover_j} w * (1 - 2 * survives(i, j+1))

so that ``E[Y_j] ~= g(S_j)``: items found at level j that also survive to
level j+1 are counted twice inside ``2 Y_{j+1}``; the ``(1 - 2s)`` term adds
the non-surviving heavy hitters and subtracts the surviving ones once.
``Y_0`` estimates the full g-SUM.  (This is the estimator popularized by
UnivMon, which implements exactly this sketch.)

The class is generic over the level sketch via a factory, so the same
layering serves the 1-pass Algorithm 2 sketch, the 2-pass Algorithm 1
sketch (driving both passes), the exact oracle, and the g_np sketch.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Sequence

import numpy as np

from repro.core.heavy_hitters import GHeavyHitterSketch, HeavyHitterPair
from repro.functions.base import GFunction
from repro.sketch.base import MergeableSketch
from repro.sketch.hashing import SubsampleHash
from repro.streams.batching import as_batch, drive, drive_second_pass
from repro.streams.model import StreamUpdate, TurnstileStream
from repro.util.rng import RandomSource, as_source


class RecursiveGSumSketch(MergeableSketch):
    """Layered g-SUM estimator over any heavy-hitter level sketch.

    Parameters
    ----------
    g:
        The function being summed.
    n:
        Domain size; the number of levels defaults to ``ceil(log2 n)`` so
        the deepest level holds O(1) expected items.
    level_factory:
        ``level_factory(level_index, rng) -> GHeavyHitterSketch``.
    levels:
        Override the level count (the paper's L).
    """

    def __init__(
        self,
        g: GFunction,
        n: int,
        level_factory: Callable[[int, RandomSource], GHeavyHitterSketch],
        levels: int | None = None,
        seed: int | RandomSource | None = None,
    ):
        source = as_source(seed, "recursive")
        self.g = g
        self.n = int(n)
        self.levels = (
            max(1, int(math.ceil(math.log2(max(n, 2))))) if levels is None else levels
        )
        self._subsample = SubsampleHash(self.levels, source.child("subsample"))
        self._sketches: List[GHeavyHitterSketch] = [
            level_factory(j, source.child(f"level{j}")) for j in range(self.levels + 1)
        ]
        self._register_mergeable(
            source,
            g=g,
            n=self.n,
            level_factory=level_factory,
            levels=self.levels,
        )

    # ----------------------------------------------------------- streaming

    def update(self, item: int, delta: int) -> None:
        depth = min(self._subsample.level(item), self.levels)
        for j in range(depth + 1):
            self._sketches[j].update(item, delta)

    def _fan_out_batch(
        self, items: np.ndarray, deltas: np.ndarray, batch_attr: str, scalar_attr: str
    ) -> None:
        """Shared level fan-out for both passes: one vectorized
        subsampling-depth evaluation for the whole batch, then each level
        receives the (order-preserving) sub-batch of items surviving to
        it.  Levels are nested, so the loop stops at the first empty
        level.  Dispatches to the level sketch's batch method when it has
        one, falling back to its scalar method."""
        items, deltas = as_batch(items, deltas)
        if items.shape[0] == 0:
            return
        depths = np.minimum(self._subsample.levels_batch(items), self.levels)
        for j in range(self.levels + 1):
            mask = depths >= j
            if not mask.any():
                break
            level_items, level_deltas = items[mask], deltas[mask]
            sketch = self._sketches[j]
            update_batch = getattr(sketch, batch_attr, None)
            if update_batch is not None:
                update_batch(level_items, level_deltas)
            else:
                scalar_update = getattr(sketch, scalar_attr)
                for item, delta in zip(level_items.tolist(), level_deltas.tolist()):
                    scalar_update(item, delta)

    def update_batch(
        self, items: "np.ndarray | Sequence[int]", deltas: "np.ndarray | Sequence[int]"
    ) -> None:
        """Batched ingestion across the subsampling levels."""
        self._fan_out_batch(items, deltas, "update_batch", "update")

    def ingest_layout(self) -> tuple:
        """``(subsample_hash, level_sketches)`` — the fan-out the fused
        ingest plan (:mod:`repro.core.ingest_plan`) flattens: depths come
        from the subsample hash's stacked bit polynomials and each level
        sketch contributes one plane cell.  The returned list is the live
        one; the plan snapshots the object identities and table bases to
        detect structural changes (state loads rebind the level sketches'
        tables in place)."""
        return self._subsample, self._sketches

    def process(
        self, stream: TurnstileStream | Iterable[StreamUpdate]
    ) -> "RecursiveGSumSketch":
        return drive(self, stream)

    def begin_second_pass(self) -> None:
        """For two-pass level sketches: close pass one on every level."""
        for sketch in self._sketches:
            begin = getattr(sketch, "begin_second_pass", None)
            if begin is not None:
                begin()

    def export_candidates(self) -> list:
        """Per-level candidate export for the distributed two-pass round
        protocol: one entry per level sketch — its ``export_candidates()``
        payload, or ``None`` for levels without a second pass."""
        out = []
        for sketch in self._sketches:
            export = getattr(sketch, "export_candidates", None)
            out.append(None if export is None else export())
        return out

    def import_candidates(self, levels: Sequence) -> None:
        """Seed every level's second pass from a coordinator's
        :meth:`export_candidates` (levels must line up exactly)."""
        if len(levels) != len(self._sketches):
            raise ValueError(
                f"candidate export has {len(levels)} levels, sketch has "
                f"{len(self._sketches)}"
            )
        for sketch, candidates in zip(self._sketches, levels):
            importer = getattr(sketch, "import_candidates", None)
            if (importer is None) != (candidates is None):
                raise ValueError(
                    "candidate export does not match this sketch's level "
                    "layout (two-pass levels misaligned)"
                )
            if importer is not None:
                importer(candidates)

    def update_second_pass(self, item: int, delta: int) -> None:
        depth = min(self._subsample.level(item), self.levels)
        for j in range(depth + 1):
            self._sketches[j].update_second_pass(item, delta)  # type: ignore[attr-defined]

    def update_batch_second_pass(
        self, items: "np.ndarray | Sequence[int]", deltas: "np.ndarray | Sequence[int]"
    ) -> None:
        """Second-pass analogue of :meth:`update_batch`."""
        self._fan_out_batch(
            items, deltas, "update_batch_second_pass", "update_second_pass"
        )

    def process_second_pass(
        self, stream: TurnstileStream | Iterable[StreamUpdate]
    ) -> "RecursiveGSumSketch":
        return drive_second_pass(self, stream)

    # ---------------------------------------------------------- estimation

    def level_covers(self) -> List[List[HeavyHitterPair]]:
        return [sketch.cover() for sketch in self._sketches]

    def estimate(self) -> float:
        covers = self.level_covers()
        estimate = sum(pair.g_weight for pair in covers[self.levels])
        for j in range(self.levels - 1, -1, -1):
            correction = 0.0
            cover = covers[j]
            if cover:
                # One batched survival sweep per level instead of a scalar
                # bit-hash evaluation per cover entry; the correction is
                # still summed in cover order, so the float result is
                # unchanged.
                items = np.fromiter(
                    (pair.item for pair in cover), dtype=np.int64, count=len(cover)
                )
                survives = self._subsample.survives_batch(items, j + 1)
                for pair, s in zip(cover, survives.tolist()):
                    correction += pair.g_weight * (1.0 - 2.0 * float(s))
            estimate = 2.0 * estimate + correction
        return max(estimate, 0.0)

    def frequency_batch(
        self, items: "np.ndarray | Sequence[int]"
    ) -> np.ndarray:
        """Vectorized base-stream frequency probes: every item survives to
        level 0, so the level-0 heavy-hitter sketch saw the entire stream
        and its :meth:`estimate_batch` answers point queries in one
        kernel pass."""
        return self._sketches[0].estimate_batch(items)  # type: ignore[attr-defined]

    @property
    def space_counters(self) -> int:
        return sum(sketch.space_counters for sketch in self._sketches)

    def needs_second_pass(self) -> bool:
        return any(
            getattr(sketch, "begin_second_pass", None) is not None
            for sketch in self._sketches
        )

    # ------------------------------------------------- mergeable protocol

    def _require_mergeable_levels(self) -> List[MergeableSketch]:
        for sketch in self._sketches:
            if not isinstance(sketch, MergeableSketch):
                raise ValueError(
                    f"level sketch {type(sketch).__name__} does not implement "
                    "the mergeable-sketch protocol"
                )
        return self._sketches  # type: ignore[return-value]

    def _extra_compat(self) -> tuple:
        return (self._subsample.fingerprint(),) + tuple(
            sketch.compat_digest() for sketch in self._require_mergeable_levels()
        )

    def _fresh_state(self) -> None:
        """Share the subsampling hash; spawn each level sketch so phase
        (e.g. an open second pass) carries over."""
        self._sketches = [
            sketch.spawn_sibling() for sketch in self._require_mergeable_levels()
        ]

    def merge(self, other: "RecursiveGSumSketch") -> "RecursiveGSumSketch":
        """Merge level by level (the subsampling hash is identical for
        siblings, so level substreams align exactly)."""
        self.require_sibling(other)
        for mine, theirs in zip(self._require_mergeable_levels(), other._sketches):
            mine.merge(theirs)
        return self

    def _state_payload(self) -> dict:
        return {
            "levels": [s.to_state() for s in self._require_mergeable_levels()]
        }

    def _load_state_payload(self, payload: dict) -> None:
        states = payload["levels"]
        levels = self._require_mergeable_levels()
        if len(states) != len(levels):
            raise ValueError("state level count mismatch")
        for sketch, state in zip(levels, states):
            sketch._load_state(state)


class NaiveTopKGSum(MergeableSketch):
    """Ablation baseline for E8: a single CountSketch-based heavy-hitter
    sketch whose cover is summed directly, with no layering.  Accurate only
    when the g-mass is concentrated on the top k items; the layered sketch
    also captures the level-by-level tail."""

    def __init__(self, g: GFunction, level_sketch: GHeavyHitterSketch):
        self.g = g
        self._sketch = level_sketch
        self._register_mergeable(None, g=g)

    def update(self, item: int, delta: int) -> None:
        self._sketch.update(item, delta)

    def update_batch(
        self, items: "np.ndarray | Sequence[int]", deltas: "np.ndarray | Sequence[int]"
    ) -> None:
        update_batch = getattr(self._sketch, "update_batch", None)
        if update_batch is not None:
            update_batch(items, deltas)
            return
        items, deltas = as_batch(items, deltas)
        for item, delta in zip(items.tolist(), deltas.tolist()):
            self._sketch.update(item, delta)

    def process(self, stream: TurnstileStream | Iterable[StreamUpdate]) -> "NaiveTopKGSum":
        return drive(self, stream)

    def estimate(self) -> float:
        return sum(pair.g_weight for pair in self._sketch.cover())

    @property
    def space_counters(self) -> int:
        return self._sketch.space_counters

    # ------------------------------------------------- mergeable protocol

    def _inner(self) -> MergeableSketch:
        if not isinstance(self._sketch, MergeableSketch):
            raise ValueError(
                f"level sketch {type(self._sketch).__name__} does not "
                "implement the mergeable-sketch protocol"
            )
        return self._sketch

    def _extra_compat(self) -> tuple:
        return (self._inner().compat_digest(),)

    def _fresh_state(self) -> None:
        self._sketch = self._inner().spawn_sibling()

    def merge(self, other: "NaiveTopKGSum") -> "NaiveTopKGSum":
        self.require_sibling(other)
        self._inner().merge(other._sketch)
        return self

    def _state_payload(self) -> dict:
        return {"sketch": self._inner().to_state()}

    def _load_state_payload(self, payload: dict) -> None:
        self._inner()._load_state(payload["sketch"])


def two_pass_run(
    sketch: RecursiveGSumSketch, stream: TurnstileStream
) -> float:
    """Drive a two-pass recursive sketch over a materialized stream."""
    sketch.process(stream)
    sketch.begin_second_pass()
    sketch.process_second_pass(stream)
    return sketch.estimate()
