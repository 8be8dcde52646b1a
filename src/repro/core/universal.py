"""The universal sketch: one pass, one sketch, *every* tractable g.

The paper's Section 1.1.1 observation — "the form of the sketch is
independent of the function g" — is what makes the Recursive Sketch
*universal*: the layered CountSketch structure never consults g while
streaming; g enters only when reading the covers.  This module makes that
explicit: :class:`UniversalGSumSketch` stores per-level *frequency* covers
(item, estimated frequency) and evaluates ``estimate(g)`` for any g after
the fact, amortizing one sketch across a whole library of statistics
(the design popularized by UnivMon, which implements exactly this paper's
machinery).

Guarantee scope: ``estimate(g)`` inherits Theorem 2's guarantee for every
g that is slow-jumping, slow-dropping, and predictable *with a common
witness H* — the level sketches are sized once, so the g's share the
heaviness budget.  Evaluating an intractable g is allowed (it is just
arithmetic) but carries no guarantee; pair with
:func:`repro.core.tractability.classify` to know which is which.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.core.heavy_hitters import OnePassGHeavyHitter, TwoPassGHeavyHitter
from repro.core.ingest_plan import (
    fused_update_batch,
    fused_update_batch_second_pass,
)
from repro.core.recursive_sketch import RecursiveGSumSketch
from repro.functions.base import GFunction
from repro.functions.library import indicator, moment
from repro.sketch.base import MergeableSketch
from repro.streams.batching import drive, drive_second_pass
from repro.streams.model import StreamUpdate, TurnstileStream
from repro.util.rng import RandomSource, as_source


@dataclass(frozen=True)
class FrequencyCoverEntry:
    item: int
    frequency: float
    survives_next: bool


class _FrequencyLevel(MergeableSketch):
    """A level sketch that records frequency estimates, not g-weights.

    Internally an Algorithm-2 sketch for the *identity-agnostic* part
    (CountSketch + AMS); pruning is deferred to evaluation time because it
    depends on g.
    """

    def __init__(self, inner: OnePassGHeavyHitter):
        self.inner = inner
        self._register_mergeable(None)

    def update(self, item: int, delta: int) -> None:
        self.inner.update(item, delta)

    def update_batch(
        self, items: "np.ndarray | Sequence[int]", deltas: "np.ndarray | Sequence[int]"
    ) -> None:
        self.inner.update_batch(items, deltas)

    def frequency_cover(self) -> List[tuple[int, float]]:
        pairs = []
        for cand in self.inner._countsketch.top_candidates():
            if abs(cand.estimate) >= 0.5:
                pairs.append((cand.item, cand.estimate))
        return pairs

    def frequency_error_bound(self) -> float:
        return self.inner.frequency_error_bound()

    @property
    def space_counters(self) -> int:
        return self.inner.space_counters

    # ------------------------------------------------- mergeable protocol

    def _extra_compat(self) -> tuple:
        return (self.inner.compat_digest(),)

    def _fresh_state(self) -> None:
        self.inner = self.inner.spawn_sibling()

    def merge(self, other: "_FrequencyLevel") -> "_FrequencyLevel":
        self.require_sibling(other)
        self.inner.merge(other.inner)
        return self

    def _state_payload(self) -> dict:
        return {"inner": self.inner.to_state()}

    def _load_state_payload(self, payload: dict) -> None:
        self.inner._load_state(payload["inner"])


class UniversalGSumSketch(MergeableSketch):
    """One-pass, g-oblivious sketch supporting post-hoc g-SUM queries.

    Parameters mirror :class:`repro.core.gsum.GSumEstimator`; the g passed
    to the level sketches is only a placeholder (never evaluated during
    streaming).  Batched ingestion runs through the same fused ingestion
    plane (:mod:`repro.core.ingest_plan`) as the estimator.
    """

    def __init__(
        self,
        n: int,
        epsilon: float = 0.25,
        heaviness: float = 0.05,
        repetitions: int = 3,
        levels: int | None = None,
        h_witness: float = 4.0,
        magnitude_bound: int = 1 << 20,
        seed: int | RandomSource | None = None,
        cs_max_buckets: int = 1 << 14,
        cs_pool: int | None = None,
    ):
        source = as_source(seed, "universal")
        self.n = int(n)
        self.epsilon = float(epsilon)
        self.repetitions = int(repetitions)
        self._ingest_plan = None
        self._second_plan = None
        placeholder = moment(2.0)

        def factory(level: int, rng: RandomSource):
            return _FrequencyLevel(
                OnePassGHeavyHitter(
                    placeholder, heaviness, epsilon, 0.1, n,
                    h_witness=h_witness, magnitude_bound=magnitude_bound,
                    prune=False, seed=rng, cs_max_buckets=cs_max_buckets,
                    cs_pool=cs_pool,
                )
            )

        self._sketches: List[RecursiveGSumSketch] = [
            RecursiveGSumSketch(
                placeholder, self.n, factory, levels=levels,
                seed=source.child(f"rep{r}"),
            )
            for r in range(self.repetitions)
        ]
        self._register_mergeable(
            source,
            n=self.n,
            epsilon=self.epsilon,
            heaviness=float(heaviness),
            repetitions=self.repetitions,
            levels=levels,
            h_witness=h_witness,
            magnitude_bound=int(magnitude_bound),
            cs_max_buckets=int(cs_max_buckets),
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
        through the fused ingestion plane (bit-for-bit each repetition's
        per-cell fan-out; see :mod:`repro.core.ingest_plan`)."""
        fused_update_batch(self, items, deltas)

    def _invalidate_ingest_plans(self) -> None:
        self._ingest_plan = None
        self._second_plan = None

    def process(
        self, stream: TurnstileStream | Iterable[StreamUpdate]
    ) -> "UniversalGSumSketch":
        return drive(self, stream)

    # ---------------------------------------------------------- evaluation

    def _query_plan(self) -> list:
        """The g-oblivious half of evaluation, extracted once per query (or
        once per *battery* of queries — see :meth:`estimate_many`): for
        every repetition, the per-level covers reduced to ``(magnitude,
        telescoping sign)`` rows, with survival evaluated in one batched
        bit-hash sweep per level instead of per item.  Each plan entry is
        ``(levels, top_magnitudes, rows)`` where ``rows[j]`` lists
        ``(abs(round(freq)), 1 - 2*survives(item, j+1))`` in cover order."""
        plans = []
        for sketch in self._sketches:
            levels = sketch.levels
            covers = [
                sketch._sketches[j].frequency_cover()  # type: ignore[attr-defined]
                for j in range(levels + 1)
            ]
            top = [abs(round(f)) for _, f in covers[levels]]
            rows = []
            for j in range(levels):
                cover = covers[j]
                if not cover:
                    rows.append([])
                    continue
                items = np.fromiter(
                    (item for item, _ in cover), dtype=np.int64, count=len(cover)
                )
                survives = sketch._subsample.survives_batch(items, j + 1)
                rows.append(
                    [
                        (abs(round(freq)), 1.0 - 2.0 * float(s))
                        for (_, freq), s in zip(cover, survives.tolist())
                    ]
                )
            plans.append((levels, top, rows))
        return plans

    @staticmethod
    def _evaluate_plan(plan: tuple, g: GFunction) -> float:
        """Telescoping estimator over one repetition's pre-extracted plan.
        Arithmetic (and summation order) is identical to evaluating g
        inline against the covers; repeated magnitudes hit a per-call memo
        instead of re-evaluating g."""
        levels, top, rows = plan
        memo: Dict[int, float] = {}

        def weight(magnitude: int) -> float:
            w = memo.get(magnitude)
            if w is None:
                w = g(magnitude)
                memo[magnitude] = w
            return w

        estimate = sum(weight(m) for m in top)
        for j in range(levels - 1, -1, -1):
            correction = 0.0
            for magnitude, sign in rows[j]:
                correction += weight(magnitude) * sign
            estimate = 2.0 * estimate + correction
        return max(estimate, 0.0)

    def estimate(self, g: GFunction) -> float:
        """Post-hoc (g, eps)-SUM from the stored frequency covers; median
        over the independent repetitions."""
        return float(
            statistics.median(
                self._evaluate_plan(plan, g) for plan in self._query_plan()
            )
        )

    def estimate_many(self, gs: Sequence[GFunction]) -> Dict[str, float]:
        """Evaluate a whole battery of statistics from the one sketch.  The
        g-oblivious work — cover extraction (a vectorized ``top_candidates``
        pass per level per repetition) and survival hashing — runs *once*
        and is shared across every g, so each additional statistic costs
        only its own g evaluations."""
        plans = self._query_plan()
        return {
            g.name: float(
                statistics.median(self._evaluate_plan(plan, g) for plan in plans)
            )
            for g in gs
        }

    # Convenience aliases for the classic statistics zoo -------------------

    def distinct_count(self) -> float:
        """F0 (distinct elements): the indicator g-SUM."""
        return self.estimate(indicator())

    def moment_estimate(self, p: float) -> float:
        """F_p for p <= 2 (tractable range)."""
        return self.estimate(moment(p))

    def entropy_proxy(self) -> float:
        """``sum |v_i| log(1+|v_i|)`` — the empirical-entropy numerator
        used by monitoring systems (tractable: sub-quadratic, monotone)."""
        g = GFunction(
            lambda x: x * math.log1p(x) / math.log(2.0), "x*ln(1+x)",
            normalize=False,
        )
        return self.estimate(g)

    @property
    def space_counters(self) -> int:
        return sum(s.space_counters for s in self._sketches)

    # ------------------------------------------------- mergeable protocol

    def _extra_compat(self) -> tuple:
        return tuple(s.compat_digest() for s in self._sketches)

    def _fresh_state(self) -> None:
        self._sketches = [s.spawn_sibling() for s in self._sketches]
        self._invalidate_ingest_plans()

    def merge(self, other: "UniversalGSumSketch") -> "UniversalGSumSketch":
        """Merge repetition by repetition."""
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


class _TwoPassFrequencyLevel(MergeableSketch):
    """Two-pass level: CountSketch candidates in pass one, exact
    frequencies in pass two.  Post-hoc weights are then exact for *any* g
    — the universal sketch inherits Theorem 3's indifference to
    predictability."""

    def __init__(self, inner: TwoPassGHeavyHitter):
        self.inner = inner
        self._register_mergeable(None)

    def update(self, item: int, delta: int) -> None:
        self.inner.update(item, delta)

    def update_batch(
        self, items: "np.ndarray | Sequence[int]", deltas: "np.ndarray | Sequence[int]"
    ) -> None:
        self.inner.update_batch(items, deltas)

    def begin_second_pass(self) -> None:
        self.inner.begin_second_pass()

    def update_second_pass(self, item: int, delta: int) -> None:
        self.inner.update_second_pass(item, delta)

    def update_batch_second_pass(
        self, items: "np.ndarray | Sequence[int]", deltas: "np.ndarray | Sequence[int]"
    ) -> None:
        self.inner.update_batch_second_pass(items, deltas)

    def frequency_cover(self) -> List[tuple[int, float]]:
        # Sorted by item so downstream float sums are ingestion-order
        # independent (the tabulation dict's insertion order is not).
        return sorted(
            (item, float(freq))
            for item, freq in self.inner._second.frequency_vector().items()  # type: ignore[union-attr]
            if freq != 0
        )

    @property
    def space_counters(self) -> int:
        return self.inner.space_counters

    # ------------------------------------------------- mergeable protocol

    def _extra_compat(self) -> tuple:
        return (self.inner.compat_digest(),)

    def _fresh_state(self) -> None:
        self.inner = self.inner.spawn_sibling()

    def merge(self, other: "_TwoPassFrequencyLevel") -> "_TwoPassFrequencyLevel":
        self.require_sibling(other)
        self.inner.merge(other.inner)
        return self

    def _state_payload(self) -> dict:
        return {"inner": self.inner.to_state()}

    def _load_state_payload(self, payload: dict) -> None:
        self.inner._load_state(payload["inner"])


class TwoPassUniversalSketch(UniversalGSumSketch):
    """Universal sketch over Algorithm-1 levels: pass one identifies
    candidates, pass two tabulates their frequencies exactly, and any g —
    including unpredictable ones like ``(2+sin sqrt x) x^2`` — evaluates
    post hoc on exact frequencies.  Both passes ingest batches through the
    fused ingestion plane (:mod:`repro.core.ingest_plan`)."""

    def __init__(
        self,
        n: int,
        epsilon: float = 0.25,
        heaviness: float = 0.05,
        repetitions: int = 3,
        levels: int | None = None,
        h_witness: float = 4.0,
        magnitude_bound: int = 1 << 20,
        seed: int | RandomSource | None = None,
        cs_max_buckets: int = 1 << 14,
        cs_pool: int | None = None,
    ):
        source = as_source(seed, "universal2")
        self.n = int(n)
        self.epsilon = float(epsilon)
        self.repetitions = int(repetitions)
        self._ingest_plan = None
        self._second_plan = None
        placeholder = moment(2.0)

        def factory(level: int, rng: RandomSource):
            return _TwoPassFrequencyLevel(
                TwoPassGHeavyHitter(
                    placeholder, heaviness, 0.1, n,
                    h_witness=h_witness, magnitude_bound=magnitude_bound,
                    seed=rng, cs_max_buckets=cs_max_buckets, cs_pool=cs_pool,
                )
            )

        self._sketches = [
            RecursiveGSumSketch(
                placeholder, self.n, factory, levels=levels,
                seed=source.child(f"rep{r}"),
            )
            for r in range(self.repetitions)
        ]
        self._register_mergeable(
            source,
            n=self.n,
            epsilon=self.epsilon,
            heaviness=float(heaviness),
            repetitions=self.repetitions,
            levels=levels,
            h_witness=h_witness,
            magnitude_bound=int(magnitude_bound),
            cs_max_buckets=int(cs_max_buckets),
            cs_pool=cs_pool,
        )

    def begin_second_pass(self) -> None:
        self._invalidate_ingest_plans()
        for sketch in self._sketches:
            sketch.begin_second_pass()

    def update_second_pass(self, item: int, delta: int) -> None:
        for sketch in self._sketches:
            sketch.update_second_pass(item, delta)

    def update_batch_second_pass(
        self, items: "np.ndarray | Sequence[int]", deltas: "np.ndarray | Sequence[int]"
    ) -> None:
        """Batched second pass through the fused second-pass plan."""
        fused_update_batch_second_pass(self, items, deltas)

    def run(self, stream: TurnstileStream) -> "TwoPassUniversalSketch":
        """Drive both passes over a materialized stream."""
        self.process(stream)
        self.begin_second_pass()
        drive_second_pass(self, stream)
        return self
