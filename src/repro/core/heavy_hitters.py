"""g-heavy-hitter algorithms (Algorithms 1 and 2 of the paper).

Definition 11: item j is a ``(g, lambda)``-heavy hitter when
``g(|v_j|) >= lambda * sum_{i != j} g(|v_i|)``.  A ``(g, lambda, eps)``-cover
(Definition 12) is a candidate list containing every heavy hitter, each with
a ``(1 +- eps)`` estimate of its g-value.

Both algorithms rest on Lemma 17/18: for slow-jumping, slow-dropping g, any
(g, lambda)-heavy hitter is an F2 ``lambda/H(M)``-ish heavy hitter, so a
CountSketch with sub-polynomially more buckets finds it.

* **Algorithm 1 (2-pass)**: CountSketch in pass one to identify candidates
  (frequency estimates discarded), exact tabulation of candidate
  frequencies in pass two.  Local variability of g is irrelevant: g is
  evaluated on exact frequencies.
* **Algorithm 2 (1-pass)**: CountSketch + AMS F2.  Candidates whose g-value
  is *unstable* under perturbations of the size CountSketch cannot rule out
  (``(eps/2H(M)) sqrt(F2)``) are pruned; predictability is exactly the
  property making this pruning safe for true heavy hitters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Protocol, Sequence

import numpy as np

from repro.functions.base import GFunction
from repro.sketch.ams import AmsF2Sketch
from repro.sketch.base import MergeableSketch
from repro.sketch.countsketch import CountSketch
from repro.sketch.exact import ExactCounter
from repro.streams.batching import drive, drive_second_pass
from repro.streams.model import StreamUpdate, TurnstileStream
from repro.util.rng import RandomSource, as_source


@dataclass(frozen=True)
class HeavyHitterPair:
    """One cover entry: item id, (1 +- eps) estimate of g(|v_item|), and the
    frequency estimate it was derived from."""

    item: int
    g_weight: float
    frequency: float


class GHeavyHitterSketch(Protocol):
    """Streaming interface shared by all heavy-hitter sketches so the
    Recursive Sketch can layer any of them."""

    def update(self, item: int, delta: int) -> None: ...

    def cover(self) -> List[HeavyHitterPair]: ...

    @property
    def space_counters(self) -> int: ...


def _as_h_value(h_witness: float | Callable[[float], float], magnitude: float) -> float:
    if callable(h_witness):
        return max(float(h_witness(magnitude)), 1.0)
    return max(float(h_witness), 1.0)


class OnePassGHeavyHitter(MergeableSketch):
    """Algorithm 2: 1-pass ``(g, lambda, eps, delta)``-heavy hitters.

    Parameters
    ----------
    g:
        The function; must be slow-jumping, slow-dropping, predictable for
        the cover guarantee to hold (the sketch itself runs for any g — the
        E2/E3 experiments run it on bad functions to watch it fail).
    heaviness:
        lambda.
    accuracy:
        eps for the g-value estimates.
    failure:
        delta; split between the CountSketch and the AMS sketch.
    n:
        Domain size (sizes the row count).
    h_witness:
        ``H(M)`` of Section 4.2/4.3 — scalar or callable evaluated at the
        magnitude bound.  Controls how much wider than 1/lambda the
        CountSketch must be.
    magnitude_bound:
        The promise M (used only to evaluate ``h_witness``).
    prune:
        Enable Algorithm 2's stability pruning (ablation knob for E2).
    """

    def __init__(
        self,
        g: GFunction,
        heaviness: float,
        accuracy: float,
        failure: float,
        n: int,
        h_witness: float | Callable[[float], float] = 4.0,
        magnitude_bound: int = 1 << 20,
        prune: bool = True,
        seed: int | RandomSource | None = None,
        sign_independence: int = 4,
        cs_max_buckets: int = 1 << 14,
        cs_max_rows: int = 7,
        cs_pool: int | None = None,
    ):
        if not 0 < heaviness <= 1:
            raise ValueError("heaviness must be in (0, 1]")
        source = as_source(seed, "hh1")
        self.g = g
        self.heaviness = float(heaviness)
        self.accuracy = float(accuracy)
        self.prune = prune
        self._h_value = _as_h_value(h_witness, magnitude_bound)
        self._countsketch = CountSketch.for_heavy_hitters(
            heaviness / (3.0 * self._h_value),
            min(1.0, accuracy / (2.0 * self._h_value)),
            failure / 2.0,
            n,
            source.child("cs"),
            sign_independence,
            max_buckets=cs_max_buckets,
            max_rows=cs_max_rows,
            pool=cs_pool,
        )
        self._ams = AmsF2Sketch.for_accuracy(0.5, failure / 2.0, source.child("ams"))
        self._register_mergeable(
            source,
            g=g,
            heaviness=float(heaviness),
            accuracy=float(accuracy),
            failure=float(failure),
            n=int(n),
            h_witness=h_witness,
            magnitude_bound=int(magnitude_bound),
            prune=bool(prune),
            sign_independence=int(sign_independence),
            cs_max_buckets=int(cs_max_buckets),
            cs_max_rows=int(cs_max_rows),
            cs_pool=cs_pool,
        )

    def update(self, item: int, delta: int) -> None:
        self._countsketch.update(item, delta)
        self._ams.update(item, delta)

    def update_batch(
        self, items: "np.ndarray | Sequence[int]", deltas: "np.ndarray | Sequence[int]"
    ) -> None:
        """Batched ingestion into both constituent sketches."""
        self._countsketch.update_batch(items, deltas)
        self._ams.update_batch(items, deltas)

    def fused_cell(self) -> tuple:
        """``(countsketch, ams)`` — the constituent sketches the fused
        ingest plan (:mod:`repro.core.ingest_plan`) stacks into its plane.
        Both are updated strictly in place by the plan, so every protocol
        method on this wrapper keeps observing the exact same state the
        legacy per-sketch path would produce."""
        return self._countsketch, self._ams

    def process(self, stream: TurnstileStream | Iterable[StreamUpdate]) -> "OnePassGHeavyHitter":
        return drive(self, stream)

    def frequency_error_bound(self) -> float:
        """The additive frequency error the pruning assumes:
        ``(eps / 2 H(M)) * sqrt(F2-hat)`` (Algorithm 2, line 4)."""
        f2 = max(self._ams.estimate(), 0.0)
        return (self.accuracy / (2.0 * self._h_value)) * math.sqrt(f2)

    def _is_stable(self, freq: float, error: float) -> bool:
        """``|g(v^) - g(v^ + y)| <= eps g(v^ + y)`` for all |y| <= error,
        checked on a symmetric grid including the endpoints.

        The radius is floor(error): frequencies are integers, so an
        additive error below 1 pins the frequency exactly and no
        perturbation needs checking (probing y = +-1 regardless would
        spuriously prune every frequency-1 item via g(0) = 0).
        """
        base = abs(int(round(freq)))
        radius = int(math.floor(error + 1e-9))
        if radius == 0:
            return True
        g_base = self.g(base)
        offsets = sorted(
            {radius, -radius, max(1, radius // 2), -max(1, radius // 2), 1, -1}
        )
        for y in offsets:
            probe = base + y
            if probe < 0:
                probe = 0
            g_probe = self.g(probe)
            if abs(g_base - g_probe) > self.accuracy * max(g_probe, 1e-300):
                return False
        return True

    def cover(self) -> List[HeavyHitterPair]:
        error = self.frequency_error_bound()
        pairs: List[HeavyHitterPair] = []
        for cand in self._countsketch.top_candidates():
            freq = cand.estimate
            if abs(freq) < 0.5:
                continue
            if self.prune and not self._is_stable(freq, error):
                continue
            pairs.append(
                HeavyHitterPair(cand.item, self.g(abs(round(freq))), freq)
            )
        return pairs

    def estimate(self, item: int) -> float:
        """Frequency point query (the constituent CountSketch's median
        estimate; g-values are derived from these at cover time)."""
        return self._countsketch.estimate(item)

    def estimate_batch(self, items: "np.ndarray | Sequence[int]") -> np.ndarray:
        """Vectorized frequency probes against the constituent CountSketch."""
        return self._countsketch.estimate_batch(items)

    @property
    def space_counters(self) -> int:
        return self._countsketch.space_counters + self._ams.space_counters

    # ------------------------------------------------- mergeable protocol

    def _extra_compat(self) -> tuple:
        return (self._countsketch.compat_digest(), self._ams.compat_digest())

    def _fresh_state(self) -> None:
        self._countsketch = self._countsketch.spawn_sibling()
        self._ams = self._ams.spawn_sibling()

    def merge(self, other: "OnePassGHeavyHitter") -> "OnePassGHeavyHitter":
        """Merge both constituent linear sketches."""
        self.require_sibling(other)
        self._countsketch.merge(other._countsketch)
        self._ams.merge(other._ams)
        return self

    def _state_payload(self) -> dict:
        return {
            "countsketch": self._countsketch.to_state(),
            "ams": self._ams.to_state(),
        }

    def _load_state_payload(self, payload: dict) -> None:
        self._countsketch._load_state(payload["countsketch"])
        self._ams._load_state(payload["ams"])


class TwoPassGHeavyHitter(MergeableSketch):
    """Algorithm 1: 2-pass ``(g, lambda, 0, delta)``-heavy hitters.

    Pass one runs a CountSketch for ``lambda/2H(M)``-heavy F2 hitters and
    keeps only the candidate identities.  Pass two tabulates those
    frequencies exactly, so the returned g-values are exact (eps = 0).
    """

    def __init__(
        self,
        g: GFunction,
        heaviness: float,
        failure: float,
        n: int,
        h_witness: float | Callable[[float], float] = 4.0,
        magnitude_bound: int = 1 << 20,
        seed: int | RandomSource | None = None,
        cs_max_buckets: int = 1 << 14,
        cs_max_rows: int = 7,
        cs_pool: int | None = None,
    ):
        if not 0 < heaviness <= 1:
            raise ValueError("heaviness must be in (0, 1]")
        source = as_source(seed, "hh2")
        self.g = g
        self.heaviness = float(heaviness)
        self._h_value = _as_h_value(h_witness, magnitude_bound)
        self._countsketch = CountSketch.for_heavy_hitters(
            heaviness / (2.0 * self._h_value),
            1.0 / 3.0,
            failure,
            n,
            source.child("cs"),
            max_buckets=cs_max_buckets,
            max_rows=cs_max_rows,
            pool=cs_pool,
        )
        self._second: ExactCounter | None = None
        self._n = int(n)
        self._register_mergeable(
            source,
            g=g,
            heaviness=float(heaviness),
            failure=float(failure),
            n=self._n,
            h_witness=h_witness,
            magnitude_bound=int(magnitude_bound),
            cs_max_buckets=int(cs_max_buckets),
            cs_max_rows=int(cs_max_rows),
            cs_pool=cs_pool,
        )

    # -------------------------------------------------------------- passes

    def update(self, item: int, delta: int) -> None:
        """First-pass update (the Recursive Sketch drives this interface);
        second-pass updates go through :meth:`update_second_pass`."""
        if self._second is not None:
            raise RuntimeError("first pass is closed; use update_second_pass")
        self._countsketch.update(item, delta)

    def update_batch(
        self, items: "np.ndarray | Sequence[int]", deltas: "np.ndarray | Sequence[int]"
    ) -> None:
        """Batched first-pass ingestion."""
        countsketch, _ = self.fused_cell()
        countsketch.update_batch(items, deltas)

    def fused_cell(self) -> tuple:
        """``(countsketch, None)`` — the first-pass constituent the fused
        ingest plan stacks (no AMS half; second passes run through
        :attr:`second_pass_counter` instead).  Raises once the first pass
        is closed, for the plan and :meth:`update_batch` alike."""
        if self._second is not None:
            raise RuntimeError("first pass is closed; use update_batch_second_pass")
        return self._countsketch, None

    @property
    def second_pass_counter(self) -> ExactCounter:
        """The open second-pass exact tabulator; raises before
        :meth:`begin_second_pass`.  The fused ingest plan dispatches
        surviving ``(items, net)`` slices straight at it, and snapshots its
        identity to detect pass transitions."""
        if self._second is None:
            raise RuntimeError("call begin_second_pass first")
        return self._second

    def begin_second_pass(self) -> None:
        candidates = [c.item for c in self._countsketch.top_candidates()]
        self._second = ExactCounter(self._n, restrict_to=candidates)

    def export_candidates(self) -> list[int]:
        """The candidate identities the open second pass tabulates, as a
        JSON-serializable sorted list — what a coordinator broadcasts so
        remote siblings can tabulate the *merged* first-pass cover instead
        of their own partition's."""
        if self._second is None:
            raise RuntimeError("call begin_second_pass before exporting")
        restrict = self._second._restrict
        if restrict is None:
            # An unrestricted counter must not masquerade as the empty
            # candidate set (that would make remote workers count nothing).
            raise RuntimeError(
                "cannot export an unrestricted second pass as a candidate set"
            )
        return sorted(restrict)

    def import_candidates(self, candidates: Sequence[int]) -> None:
        """Open the second pass on an externally-supplied candidate set
        (a coordinator's :meth:`export_candidates`) instead of this
        sketch's own first-pass cover.  The remote-seeding half of the
        distributed two-pass round protocol."""
        if self._second is not None:
            raise RuntimeError("second pass already begun; cannot import")
        self._second = ExactCounter(
            self._n, restrict_to=[int(c) for c in candidates]
        )

    def update_second_pass(self, item: int, delta: int) -> None:
        self.second_pass_counter.update(item, delta)

    def update_batch_second_pass(
        self, items: "np.ndarray | Sequence[int]", deltas: "np.ndarray | Sequence[int]"
    ) -> None:
        """Batched second-pass tabulation of first-pass candidates."""
        self.second_pass_counter.update_batch(items, deltas)

    def run(self, stream: TurnstileStream) -> List[HeavyHitterPair]:
        """Convenience: both passes over a materialized stream."""
        drive(self, stream)
        self.begin_second_pass()
        drive_second_pass(self, stream)
        return self.cover()

    def cover(self) -> List[HeavyHitterPair]:
        if self._second is None:
            raise RuntimeError("second pass has not run")
        pairs = []
        for item, freq in self._second.frequency_vector().items():
            if freq == 0:
                continue
            pairs.append(HeavyHitterPair(item, self.g(abs(freq)), float(freq)))
        # Item id breaks g-weight ties so the cover (and any float sum over
        # it) is identical however the stream was ingested — the tabulation
        # dict's insertion order depends on scalar-vs-batch chunking.
        pairs.sort(key=lambda p: (-p.g_weight, p.item))
        return pairs

    def estimate(self, item: int) -> float:
        """Frequency point query: exact tabulated counts once the second
        pass is open, first-pass CountSketch estimates before that."""
        if self._second is not None:
            return float(self._second.estimate(item))
        return self._countsketch.estimate(item)

    def estimate_batch(self, items: "np.ndarray | Sequence[int]") -> np.ndarray:
        """Vectorized frequency probes: exact second-pass counts when
        available, else first-pass CountSketch estimates."""
        if self._second is not None:
            return self._second.estimate_batch(items)
        return self._countsketch.estimate_batch(items)

    @property
    def space_counters(self) -> int:
        second = self._second.space_counters if self._second is not None else 0
        return self._countsketch.space_counters + second

    # ------------------------------------------------- mergeable protocol

    def _restrict_list(self) -> list[int] | None:
        if self._second is None:
            return None
        restrict = self._second._restrict
        return sorted(restrict) if restrict is not None else []

    def _extra_compat(self) -> tuple:
        return (self._countsketch.compat_digest(),)

    def _fresh_state(self) -> None:
        """Siblings clone *phase*: spawning from a sketch whose second pass
        has begun yields a sibling tabulating the same candidate set."""
        self._countsketch = self._countsketch.spawn_sibling()
        if self._second is not None:
            self._second = self._second.spawn_sibling()

    def merge(self, other: "TwoPassGHeavyHitter") -> "TwoPassGHeavyHitter":
        """Merge within a pass: first-pass sketches merge their CountSketch;
        second-pass sketches must share the candidate set (guaranteed for
        siblings spawned after ``begin_second_pass``) and merge their exact
        tabulations."""
        self.require_sibling(other)
        if (self._second is None) != (other._second is None):
            raise ValueError("cannot merge sketches in different passes")
        self._countsketch.merge(other._countsketch)
        if self._second is not None:
            self._second.merge(other._second)
        return self

    def _state_payload(self) -> dict:
        return {
            "countsketch": self._countsketch.to_state(),
            "restrict": self._restrict_list(),
            "second": None if self._second is None else self._second.to_state(),
        }

    def _load_state_payload(self, payload: dict) -> None:
        self._countsketch._load_state(payload["countsketch"])
        if payload["second"] is None:
            self._second = None
        else:
            second = ExactCounter(self._n, restrict_to=payload["restrict"])
            second._load_state(payload["second"])
            self._second = second


class ExactHeavyHitter(MergeableSketch):
    """Linear-space oracle with the same interface — ground truth for tests
    and the 'exact' mode of the estimators."""

    def __init__(self, g: GFunction, n: int, heaviness: float = 0.0):
        self.g = g
        self.heaviness = heaviness
        self._counter = ExactCounter(n)
        self._register_mergeable(None, g=g, n=int(n), heaviness=float(heaviness))

    def update(self, item: int, delta: int) -> None:
        self._counter.update(item, delta)

    def update_batch(
        self, items: "np.ndarray | Sequence[int]", deltas: "np.ndarray | Sequence[int]"
    ) -> None:
        self._counter.update_batch(items, deltas)

    def cover(self) -> List[HeavyHitterPair]:
        vec = self._counter.frequency_vector()
        total = vec.g_sum(self.g)
        pairs = []
        for item, freq in vec.items():
            weight = self.g(abs(freq))
            if self.heaviness <= 0 or weight >= self.heaviness * (total - weight):
                pairs.append(HeavyHitterPair(item, weight, float(freq)))
        pairs.sort(key=lambda p: (-p.g_weight, p.item))
        return pairs

    def estimate(self, item: int) -> float:
        return float(self._counter.estimate(item))

    def estimate_batch(self, items: "np.ndarray | Sequence[int]") -> np.ndarray:
        return self._counter.estimate_batch(items)

    @property
    def space_counters(self) -> int:
        return self._counter.space_counters

    # ------------------------------------------------- mergeable protocol

    def _fresh_state(self) -> None:
        self._counter = self._counter.spawn_sibling()

    def merge(self, other: "ExactHeavyHitter") -> "ExactHeavyHitter":
        self.require_sibling(other)
        self._counter.merge(other._counter)
        return self

    def _state_payload(self) -> dict:
        return {"counter": self._counter.to_state()}

    def _load_state_payload(self, payload: dict) -> None:
        self._counter._load_state(payload["counter"])


def theory_heaviness(epsilon: float, n: int) -> float:
    """Theorem 13's parameter: ``lambda = eps^2 / log^3 n``.  Experiments
    usually float this up for speed; E8 sweeps it."""
    return (epsilon * epsilon) / max(math.log2(max(n, 4)) ** 3, 1.0)


def cover_contains(
    cover: Sequence[HeavyHitterPair], item: int
) -> HeavyHitterPair | None:
    for pair in cover:
        if pair.item == item:
            return pair
    return None
