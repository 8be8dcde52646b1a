"""Statistical verification of the advertised (epsilon, delta) guarantees.

The paper's estimation guarantees are *probabilistic over the hash choice*:
for a fixed stream, a freshly seeded sketch errs past its bound with
probability at most delta.  This module makes that statement executable.
Each ``verify_*`` function replays one workload through many independently
seeded sketch instances, measures the observed error of every probe
against the advertised bound, and folds the samples into a
:class:`GuaranteeReport` — empirical failure rate, the configured delta it
must stay under, and percentiles of the *bound-normalized* error
(``observed / bound``, so 1.0 is the guarantee edge and the same scale
works for every sketch and workload).

Checked bounds (see ``docs/GUARANTEES.md`` for the paper mapping):

* CountSketch point queries — ``|est(i) - v_i| <= factor * sqrt(F2 / b)``
  per item, median over rows (Charikar et al.; the paper's Section 4
  heavy-hitter subroutine inherits this bound).
* Count-Min point queries — ``0 <= est(i) - v_i <= e * F1 / b`` on
  insertion-only streams (one-sided overestimate).
* GSum — ``|est - g_sum| <= epsilon * g_sum`` with probability
  ``1 - delta`` over seeds (Theorem 1.2's (g, epsilon)-SUM contract).

The verifier always draws *fresh* seeds, which is exactly why the
adversarial workloads in :mod:`repro.streams.generators` pass it: an
attacked instance is broken, but the guarantee never promised anything
about a sketch whose hash functions the adversary already probed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.gsum import GSumEstimator, exact_gsum
from repro.functions.base import GFunction
from repro.sketch.countmin import CountMinSketch
from repro.sketch.countsketch import CountSketch
from repro.streams.batching import aggregate_batch
from repro.streams.model import TurnstileStream
from repro.util.rng import RandomSource, as_source

__all__ = [
    "GuaranteeReport",
    "countmin_point_bound",
    "countsketch_point_bound",
    "probe_items",
    "verify_countmin",
    "verify_countsketch",
    "verify_gsum",
]


@dataclass(frozen=True)
class GuaranteeReport:
    """Empirical verdict on one (sketch, workload, bound) triple.

    ``samples`` counts individual error measurements (seeds x probes for
    point queries, one per seed for GSum); ``failures`` counts samples
    whose bound-normalized error exceeded 1.  The percentiles are over
    the normalized errors, so ``p99 <= 1.0`` reads "99% of measurements
    sat inside the guarantee".
    """

    sketch: str
    workload: str
    seeds: int
    samples: int
    failures: int
    delta: float
    p50: float
    p95: float
    p99: float
    max_error: float

    @property
    def failure_rate(self) -> float:
        return self.failures / self.samples if self.samples else 0.0

    @property
    def holds(self) -> bool:
        """Whether the empirical failure rate stays within delta."""
        return self.failure_rate <= self.delta

    def to_row(self) -> dict:
        """Flatten for the S5_ADVERSARIAL bench table."""
        return {
            "sketch": self.sketch,
            "workload": self.workload,
            "seeds": self.seeds,
            "samples": self.samples,
            "failure_rate": round(self.failure_rate, 6),
            "delta": self.delta,
            "holds": self.holds,
            "p50": round(self.p50, 6),
            "p95": round(self.p95, 6),
            "p99": round(self.p99, 6),
            "max_error": round(self.max_error, 6),
        }


def _report(
    sketch: str,
    workload: str,
    seeds: int,
    normalized: np.ndarray,
    delta: float,
) -> GuaranteeReport:
    p50, p95, p99 = np.percentile(normalized, [50.0, 95.0, 99.0])
    return GuaranteeReport(
        sketch=sketch,
        workload=workload,
        seeds=seeds,
        samples=int(normalized.shape[0]),
        failures=int(np.count_nonzero(normalized > 1.0)),
        delta=float(delta),
        p50=float(p50),
        p95=float(p95),
        p99=float(p99),
        max_error=float(np.max(normalized)),
    )


def countsketch_point_bound(
    stream: TurnstileStream, buckets: int, factor: float = 3.0
) -> float:
    """The advertised per-item CountSketch error: ``factor * sqrt(F2/b)``."""
    f2 = stream.frequency_vector().f_moment(2.0)
    return float(factor) * math.sqrt(f2 / buckets)


def countmin_point_bound(stream: TurnstileStream, buckets: int) -> float:
    """The advertised Count-Min overestimate on insertion-only streams:
    ``e * F1 / b``."""
    f1 = stream.frequency_vector().f_moment(1.0)
    return math.e * f1 / buckets


def probe_items(
    stream: TurnstileStream,
    probes: int,
    seed: int | RandomSource | None = None,
) -> np.ndarray:
    """Pick the items whose estimates get checked: the heaviest half (where
    heavy-hitter identification lives) plus a uniform sample of the rest of
    the support (where collision noise dominates)."""
    vector = stream.frequency_vector().to_dict()
    support = np.asarray(sorted(vector), dtype=np.int64)
    if support.shape[0] <= probes:
        return support
    counts = np.abs(np.asarray([vector[int(i)] for i in support]))
    heavy_take = probes // 2
    order = np.lexsort((support, -counts))
    heavy = support[order[:heavy_take]]
    rest = support[order[heavy_take:]]
    source = as_source(seed, "verify_probes")
    picked = rest[source.choice(rest.shape[0], probes - heavy_take, replace=False)]
    return np.sort(np.concatenate([heavy, picked]))


def _net_arrays(stream: TurnstileStream) -> tuple[np.ndarray, np.ndarray]:
    items, deltas = stream.as_arrays()
    return aggregate_batch(items, deltas)


def verify_countsketch(
    stream: TurnstileStream,
    workload: str,
    rows: int = 5,
    buckets: int = 512,
    seeds: int = 30,
    probes: int = 64,
    factor: float = 3.0,
    delta: float = 0.05,
    seed: int | RandomSource | None = 0,
) -> GuaranteeReport:
    """Check the CountSketch point-query bound across fresh hash seeds.

    Ingestion uses the net frequency vector (the sketch is linear, so the
    table is identical to a scalar replay), letting a 30-seed trial stay
    cheap even on deletion storms.
    """
    source = as_source(seed, "verify_countsketch")
    unique, net = _net_arrays(stream)
    probe = probe_items(stream, probes, source.child("probes"))
    vector = stream.frequency_vector().to_dict()
    truth = np.asarray([vector.get(int(i), 0) for i in probe], dtype=np.float64)
    bound = countsketch_point_bound(stream, buckets, factor)
    if bound == 0.0:  # zero net vector: any nonzero estimate is a failure
        bound = np.finfo(np.float64).tiny
    normalized = np.empty((seeds, probe.shape[0]), dtype=np.float64)
    for trial in range(seeds):
        sketch = CountSketch(rows, buckets, seed=source.child(f"trial{trial}"))
        sketch.update_batch(unique, net)
        estimates = sketch.estimate_batch(probe)
        normalized[trial] = np.abs(estimates - truth) / bound
    return _report("countsketch", workload, seeds, normalized.ravel(), delta)


def verify_countmin(
    stream: TurnstileStream,
    workload: str,
    rows: int = 5,
    buckets: int = 512,
    seeds: int = 30,
    probes: int = 64,
    delta: float = 0.02,
    seed: int | RandomSource | None = 0,
) -> GuaranteeReport:
    """Check the Count-Min one-sided bound across fresh hash seeds.

    Only valid on streams with nonnegative deltas (the min rule's
    guarantee does not survive deletions — that failure is itself covered
    by the deletion-storm tests, not this verifier)."""
    _, raw_deltas = stream.as_arrays()
    if raw_deltas.shape[0] and int(raw_deltas.min()) < 0:
        raise ValueError(
            "the Count-Min bound e*F1/b only holds without deletions; "
            "deletion workloads are out of contract"
        )
    source = as_source(seed, "verify_countmin")
    unique, net = _net_arrays(stream)
    probe = probe_items(stream, probes, source.child("probes"))
    vector = stream.frequency_vector().to_dict()
    truth = np.asarray([vector.get(int(i), 0) for i in probe], dtype=np.float64)
    bound = countmin_point_bound(stream, buckets)
    normalized = np.empty((seeds, probe.shape[0]), dtype=np.float64)
    for trial in range(seeds):
        sketch = CountMinSketch(rows, buckets, seed=source.child(f"trial{trial}"))
        sketch.update_batch(unique, net)
        estimates = np.asarray([sketch.estimate(int(i)) for i in probe])
        # One-sided: underestimates are impossible; normalize the excess.
        normalized[trial] = (estimates - truth) / bound
    return _report("countmin", workload, seeds, normalized.ravel(), delta)


def verify_gsum(
    stream: TurnstileStream,
    g: GFunction,
    workload: str,
    epsilon: float = 0.25,
    seeds: int = 20,
    delta: float = 0.25,
    seed: int | RandomSource | None = 0,
    estimator: Callable[..., GSumEstimator] | None = None,
    **estimator_kwargs,
) -> GuaranteeReport:
    """Check the (g, epsilon)-SUM relative-error contract across seeds.

    One sample per seed: ``|estimate - g_sum| / (epsilon * g_sum)``, so a
    normalized error above 1 is a trial where the advertised relative
    error was exceeded.  ``estimator_kwargs`` flow into
    :class:`~repro.core.gsum.GSumEstimator` (e.g. ``passes=2``)."""
    source = as_source(seed, "verify_gsum")
    truth = exact_gsum(stream, g)
    if truth == 0.0:
        raise ValueError("g_sum of the workload is zero; relative error undefined")
    make = estimator or GSumEstimator
    normalized = np.empty(seeds, dtype=np.float64)
    for trial in range(seeds):
        est = make(
            g,
            stream.domain_size,
            epsilon=epsilon,
            seed=source.child(f"trial{trial}"),
            **estimator_kwargs,
        )
        result = est.run(stream)
        normalized[trial] = abs(result.estimate - truth) / (epsilon * abs(truth))
    return _report("gsum", workload, seeds, normalized, delta)
