"""Top-level (g, eps)-SUM estimators (Definition 1).

:class:`GSumEstimator` is the public entry point: pick a function g, an
accuracy, a pass budget, and stream updates through it.  Internally it runs
``repetitions`` independent Recursive Sketches and reports the median — the
standard success-amplification the paper invokes after Definition 1
("repeat O(log n) times in parallel and take the median").
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence

import numpy as np

from repro.core.heavy_hitters import (
    ExactHeavyHitter,
    OnePassGHeavyHitter,
    TwoPassGHeavyHitter,
    theory_heaviness,
)
from repro.core.ingest_plan import (
    fused_update_batch,
    fused_update_batch_second_pass,
)
from repro.core.recursive_sketch import RecursiveGSumSketch
from repro.functions.base import GFunction
from repro.sketch.base import MergeableSketch
from repro.streams.batching import DEFAULT_CHUNK, drive, drive_second_pass
from repro.streams.model import StreamUpdate, TurnstileStream
from repro.util.rng import RandomSource, as_source


@dataclass(frozen=True)
class GSumResult:
    """Outcome of a g-SUM estimation."""

    estimate: float
    exact: float | None
    space_counters: int
    repetitions: int
    passes: int

    @property
    def relative_error(self) -> float | None:
        if self.exact is None:
            return None
        if self.exact == 0:
            return None if self.estimate == 0 else math.inf
        return abs(self.estimate - self.exact) / abs(self.exact)


class GSumEstimator(MergeableSketch):
    """(g, eps)-SUM over turnstile streams, 1-pass or 2-pass.

    Parameters
    ----------
    g:
        Function in G.
    n:
        Domain size.
    epsilon:
        Target relative accuracy (drives default heaviness and sketch
        accuracy).
    passes:
        1 -> Algorithm 2 level sketches; 2 -> Algorithm 1 level sketches
        (exact second-pass tabulation).  0 -> exact oracle (baseline).
    heaviness:
        Heavy-hitter parameter lambda for each level sketch.  Default is
        the theory value ``eps^2/log^3 n`` floored at ``min_heaviness`` to
        keep Python runtimes reasonable; experiments sweep it explicitly.
    repetitions:
        Independent sketches; the median estimate is returned.
    h_witness:
        ``H(M)`` knob forwarded to the level sketches.
    prune:
        Algorithm 2 stability pruning (1-pass only).
    cs_pool:
        Candidate-pool bound forwarded to every level CountSketch
        (default 2^20).  Identification is exact while a level sees at
        most this many distinct items and a uniform sample past it, so
        lower it only to bound memory.
    shards:
        Parallel ingestion shards for :meth:`process` /
        :meth:`process_second_pass` / :meth:`run`.  ``shards > 1`` splits
        each stream into contiguous slabs fed to sibling estimators on a
        thread pool and merges their states — estimates are bit-identical
        to sequential ingestion (see :mod:`repro.streams.sharding`).

    Batched ingestion (:meth:`update_batch`,
    :meth:`update_batch_second_pass`) runs through the fused ingestion
    plane (:mod:`repro.core.ingest_plan`): the repetition x level x row
    fan-out stacked into one scatter plane and stacked hash banks,
    bit-for-bit identical to each repetition's per-cell fan-out.  The
    ``passes=0`` exact oracle has no plane cells and feeds its
    repetitions directly.
    """

    def __init__(
        self,
        g: GFunction,
        n: int,
        epsilon: float = 0.25,
        passes: int = 1,
        heaviness: float | None = None,
        repetitions: int = 3,
        h_witness: float | Callable[[float], float] = 4.0,
        magnitude_bound: int = 1 << 20,
        levels: int | None = None,
        prune: bool = True,
        min_heaviness: float = 0.02,
        seed: int | RandomSource | None = None,
        cs_max_buckets: int = 1 << 14,
        cs_max_rows: int = 7,
        cs_pool: int | None = None,
        shards: int = 1,
    ):
        if passes not in (0, 1, 2):
            raise ValueError("passes must be 0 (exact), 1, or 2")
        if repetitions < 1:
            raise ValueError("repetitions must be positive")
        if shards < 1:
            raise ValueError("shards must be positive")
        source = as_source(seed, "gsum")
        heaviness = (
            max(theory_heaviness(epsilon, n), min_heaviness)
            if heaviness is None
            else float(heaviness)
        )
        n = int(n)
        self.g = g
        self.n = n
        self.epsilon = float(epsilon)
        self.passes = passes
        self.repetitions = int(repetitions)
        self.heaviness = heaviness
        failure = 0.1

        # The factory closes over locals, never ``self``: it is stored in
        # every repetition's config, and a reference back to the estimator
        # would put each estimator in a cycle only the cyclic GC frees.
        def factory(level: int, rng: RandomSource):
            if passes == 0:
                return ExactHeavyHitter(g, n, heaviness=0.0)
            if passes == 1:
                return OnePassGHeavyHitter(
                    g,
                    heaviness,
                    epsilon,
                    failure,
                    n,
                    h_witness=h_witness,
                    magnitude_bound=magnitude_bound,
                    prune=prune,
                    seed=rng,
                    cs_max_buckets=cs_max_buckets,
                    cs_max_rows=cs_max_rows,
                    cs_pool=cs_pool,
                )
            return TwoPassGHeavyHitter(
                g,
                heaviness,
                failure,
                n,
                h_witness=h_witness,
                magnitude_bound=magnitude_bound,
                seed=rng,
                cs_max_buckets=cs_max_buckets,
                cs_max_rows=cs_max_rows,
                cs_pool=cs_pool,
            )

        self._sketches: List[RecursiveGSumSketch] = [
            RecursiveGSumSketch(
                g, n, factory, levels=levels, seed=source.child(f"rep{r}")
            )
            for r in range(self.repetitions)
        ]
        self.shards = int(shards)
        self._ingest_plan = None
        self._second_plan = None
        self._register_mergeable(
            source,
            g=g,
            n=self.n,
            epsilon=self.epsilon,
            passes=self.passes,
            heaviness=self.heaviness,
            repetitions=self.repetitions,
            h_witness=h_witness,
            magnitude_bound=int(magnitude_bound),
            levels=levels,
            prune=bool(prune),
            cs_max_buckets=int(cs_max_buckets),
            cs_max_rows=int(cs_max_rows),
            cs_pool=cs_pool,
        )

    # ----------------------------------------------------------- streaming

    def update(self, item: int, delta: int) -> None:
        for sketch in self._sketches:
            sketch.update(item, delta)

    def update_batch(
        self, items: "np.ndarray | Sequence[int]", deltas: "np.ndarray | Sequence[int]"
    ) -> None:
        """Batched ingestion into every repetition's recursive sketch
        through the fused ingestion plane (see
        :mod:`repro.core.ingest_plan`); exact-oracle levels have no plane
        cell, so ``passes=0`` feeds each repetition's own fan-out."""
        if self.passes == 0:
            for sketch in self._sketches:
                sketch.update_batch(items, deltas)
        else:
            fused_update_batch(self, items, deltas)

    def _invalidate_ingest_plans(self) -> None:
        """Drop both cached plans: the structure is about to change (or
        just changed) under them — state loads replace sketch objects,
        merges mutate pools, pass transitions swap the write target."""
        self._ingest_plan = None
        self._second_plan = None

    def process(
        self,
        stream: TurnstileStream | Iterable[StreamUpdate],
        chunk_size: int = DEFAULT_CHUNK,
    ) -> "GSumEstimator":
        return drive(self, stream, chunk_size, shards=self.shards)

    def begin_second_pass(self) -> None:
        self._invalidate_ingest_plans()
        for sketch in self._sketches:
            sketch.begin_second_pass()

    def update_second_pass(self, item: int, delta: int) -> None:
        for sketch in self._sketches:
            sketch.update_second_pass(item, delta)

    def export_candidates(self) -> dict:
        """JSON-serializable export of every repetition's open second-pass
        candidate sets (see
        :meth:`~repro.core.recursive_sketch.RecursiveGSumSketch.export_candidates`).
        A round-protocol coordinator broadcasts this after merging the
        first-pass states, so remote workers tabulate the merged cover."""
        if self.passes != 2:
            raise RuntimeError("candidate export requires passes=2")
        return {"reps": [s.export_candidates() for s in self._sketches]}

    def import_candidates(self, payload: dict) -> None:
        """Open every repetition's second pass on a coordinator's
        :meth:`export_candidates` payload — the remote analogue of
        :meth:`begin_second_pass`."""
        if self.passes != 2:
            raise RuntimeError("candidate import requires passes=2")
        reps = payload["reps"]
        if len(reps) != len(self._sketches):
            raise ValueError(
                f"candidate export has {len(reps)} repetitions, estimator "
                f"has {len(self._sketches)}"
            )
        self._invalidate_ingest_plans()
        for sketch, candidates in zip(self._sketches, reps):
            sketch.import_candidates(candidates)

    def update_batch_second_pass(
        self, items: "np.ndarray | Sequence[int]", deltas: "np.ndarray | Sequence[int]"
    ) -> None:
        fused_update_batch_second_pass(self, items, deltas)

    def process_second_pass(
        self,
        stream: TurnstileStream | Iterable[StreamUpdate],
        chunk_size: int = DEFAULT_CHUNK,
    ) -> "GSumEstimator":
        return drive_second_pass(self, stream, chunk_size, shards=self.shards)

    # ---------------------------------------------------------- estimation

    def estimate(self) -> float:
        return float(statistics.median(s.estimate() for s in self._sketches))

    def frequency(self, item: int) -> float:
        """Point frequency estimate for one item (median across the
        repetitions' level-0 sketches); the scalar form of
        :meth:`frequency_batch`."""
        return float(self.frequency_batch(np.asarray([int(item)], dtype=np.int64))[0])

    def frequency_batch(
        self, items: "np.ndarray | Sequence[int]"
    ) -> np.ndarray:
        """Vectorized frequency probes: each repetition's level-0
        heavy-hitter sketch (which ingested the whole, un-subsampled
        stream) answers the batch in one kernel pass, and the median
        across repetitions is returned.  This is the query the serve
        layer's ``/frequency`` endpoint rides."""
        arr = np.asarray(items, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("frequency_batch expects a 1-D array of items")
        if arr.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        per_rep = np.empty((len(self._sketches), arr.shape[0]), dtype=np.float64)
        for r, sketch in enumerate(self._sketches):
            per_rep[r] = sketch.frequency_batch(arr)
        return np.median(per_rep, axis=0)

    @property
    def space_counters(self) -> int:
        return sum(s.space_counters for s in self._sketches)

    # ------------------------------------------------- mergeable protocol

    def __reduce__(self):
        """Pickle as ``(constructor config, randomness lineage, state)``
        rather than the object graph: the repetition sketches hold level
        factories (closures) that cannot cross process boundaries, but the
        constructor rebuilds them from the recorded configuration and the
        lineage rebuilds the exact hash functions.  Requires ``g`` (and a
        callable ``h_witness``, if one was passed) to be picklable — true
        for every registry-built function.  This is what lets the
        distributed process workers host estimators.  The state travels
        under the ``sparse-binary`` codec, so an empty or sparse sibling
        pickles to kilobytes instead of its dense tables' megabytes."""
        config = dict(self._merge_config)
        return (
            _rebuild_estimator,
            (
                type(self),
                config,
                self._merge_lineage,
                (self.shards,),
                self.to_state(),
            ),
        )

    def _extra_compat(self) -> tuple:
        return tuple(s.compat_digest() for s in self._sketches)

    def _fresh_state(self) -> None:
        """Repetitions are spawned individually so two-pass phase carries
        over; the copy starts with no ingest plan."""
        self._sketches = [s.spawn_sibling() for s in self._sketches]
        self._invalidate_ingest_plans()

    def merge(self, other: "GSumEstimator") -> "GSumEstimator":
        """Merge repetition by repetition; the merged estimator is
        bit-identical to one that ingested both streams itself."""
        self.require_sibling(other)
        self._invalidate_ingest_plans()
        for mine, theirs in zip(self._sketches, other._sketches):
            mine.merge(theirs)
        return self

    def _state_payload(self) -> dict:
        return {"reps": [s.to_state() for s in self._sketches]}

    def _load_state_payload(self, payload: dict) -> None:
        states = payload["reps"]
        if len(states) != len(self._sketches):
            raise ValueError("state repetition count mismatch")
        for sketch, state in zip(self._sketches, states):
            sketch._load_state(state)
        self._invalidate_ingest_plans()

    # --------------------------------------------------------- convenience

    def run(
        self,
        stream: TurnstileStream,
        exact: bool = True,
        chunk_size: int = DEFAULT_CHUNK,
    ) -> GSumResult:
        """Feed a materialized stream (driving the second pass when needed)
        and package the result with the exact value for error reporting."""
        self.process(stream, chunk_size)
        if self.passes == 2:
            self.begin_second_pass()
            self.process_second_pass(stream, chunk_size)
        truth = exact_gsum(stream, self.g) if exact else None
        return GSumResult(
            estimate=self.estimate(),
            exact=truth,
            space_counters=self.space_counters,
            repetitions=self.repetitions,
            passes=self.passes,
        )


def _rebuild_estimator(cls, config, lineage, shard_opts, state):
    """Unpickling counterpart of :meth:`GSumEstimator.__reduce__`: re-run
    the constructor once on the recorded configuration and exact randomness
    lineage (identical hash functions), then load the serialized mutable
    state — including any open second pass — in place, through the same
    checks as :meth:`~repro.sketch.base.MergeableSketch.from_state`."""
    config = dict(config)
    if lineage is not None:
        config["seed"] = RandomSource.resolved(*lineage)
    # Older pickles carry (shards, shard_mode), then a shard axis (3-tuple)
    # and a fused flag (4-tuple).  Only ``shards`` is read: every mode, axis
    # and ingest path gave the same bits, and thread-pool slab sharding
    # plus the fused plane are all that remain.
    estimator = cls(**config, shards=shard_opts[0])
    estimator._load_state(state)
    return estimator


def exact_gsum(stream: TurnstileStream, g: GFunction) -> float:
    """Ground truth ``sum_i g(|v_i|)`` by exact tabulation."""
    return stream.frequency_vector().g_sum(g)


def estimate_gsum(
    stream: TurnstileStream,
    g: GFunction,
    epsilon: float = 0.25,
    passes: int = 1,
    seed: int | RandomSource | None = None,
    chunk_size: int = DEFAULT_CHUNK,
    **kwargs,
) -> GSumResult:
    """One-shot convenience wrapper around :class:`GSumEstimator`."""
    estimator = GSumEstimator(
        g, stream.domain_size, epsilon=epsilon, passes=passes, seed=seed, **kwargs
    )
    return estimator.run(stream, chunk_size=chunk_size)
