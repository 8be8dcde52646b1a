"""Workload generators for the experiments.

Each generator returns a :class:`TurnstileStream`.  They cover the workloads
the paper's applications motivate: skewed count distributions (Zipf), i.i.d.
samples from discrete distributions (the log-likelihood application of
Section 1.1.1), planted heavy hitters (heavy-hitter recovery experiments),
two-level frequency profiles (the INDEX/DISJ reduction shapes), and
adversarial placements near the valleys of oscillating functions (the
predictability separation of experiment E2).

The second half of the module is the **adversarial workload zoo** — streams
built to stress the probabilistic guarantees rather than exercise the happy
path, consumed by ``tests/test_adversarial_workloads.py``,
:mod:`repro.verify`, and ``benchmarks/bench_s5_adversarial.py``:

* :func:`zipf_sweep` — heavy-tailed sweeps across skew exponents;
* :func:`deletion_storm_stream` — all-deletion turnstile storms that drive
  every count back through zero (and past it);
* :func:`distinct_flood_stream` — all-distinct floods that overflow the
  CountSketch candidate pool;
* :func:`collision_stream` — inputs that seek hash collisions against a
  *specific* CountSketch instance, derived from its row-hash structure;
* :func:`adaptive_adversarial_stream` — an adaptive adversary that
  interleaves queries and inserts against a live victim sketch, steering
  mass onto the items the victim's estimates reveal as colliding.

The guarantees are probabilistic over *hash choice*, so the last two are
instance-targeted: they break the attacked seed while fresh seeds keep the
advertised bounds — exactly the distinction :mod:`repro.verify` measures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.streams.model import StreamUpdate, TurnstileStream
from repro.util.rng import RandomSource, as_source

if TYPE_CHECKING:  # circular at runtime: sketch modules import streams
    from repro.sketch.countsketch import CountSketch


def _emit_frequencies(
    frequencies: dict[int, int],
    domain_size: int,
    source: RandomSource,
    turnstile_noise: float = 0.0,
) -> TurnstileStream:
    """Emit each frequency, optionally as insert/delete pairs.

    With ``turnstile_noise = t > 0`` each coordinate with target frequency f
    is emitted as ``f + e`` insertions followed by ``e`` deletions where
    ``e ~ Binomial(ceil(t*|f|+1), 1/2)`` — the net vector is unchanged but
    the stream genuinely exercises the turnstile (deletion) path.
    """
    stream = TurnstileStream(domain_size)
    order = list(frequencies.items())
    source.shuffle(order)
    for item, value in order:
        if value == 0:
            continue
        if turnstile_noise > 0.0:
            extra = int(source.integers(0, max(2, int(turnstile_noise * abs(value)) + 2)))
            sign = 1 if value > 0 else -1
            stream.append(StreamUpdate(item, value + sign * extra))
            if extra:
                stream.append(StreamUpdate(item, -sign * extra))
        else:
            stream.append(StreamUpdate(item, value))
    return stream


def uniform_stream(
    n: int,
    magnitude: int,
    support: int | None = None,
    seed: int | RandomSource | None = None,
    turnstile_noise: float = 0.0,
) -> TurnstileStream:
    """Frequencies drawn uniformly from ``[1, magnitude]`` on a random
    support (default: the full domain)."""
    source = as_source(seed, "uniform_stream")
    support = n if support is None else min(support, n)
    items = source.choice(np.arange(n), size=support, replace=False)
    freqs = {
        int(item): int(source.integers(1, magnitude + 1)) for item in items
    }
    return _emit_frequencies(freqs, n, source, turnstile_noise)


def zipf_stream(
    n: int,
    total_mass: int,
    skew: float = 1.1,
    seed: int | RandomSource | None = None,
    turnstile_noise: float = 0.0,
) -> TurnstileStream:
    """Zipf-distributed frequencies: item ranked r gets mass ~ r^-skew.

    ``total_mass`` is the approximate F1 of the result.  Zipf workloads are
    the canonical heavy-hitter-bearing streams (few large, many small
    frequencies) and are the default workload of experiment E1.
    """
    if skew <= 0:
        raise ValueError("skew must be positive")
    source = as_source(seed, "zipf_stream")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-skew)
    weights /= weights.sum()
    raw = weights * total_mass
    freqs: dict[int, int] = {}
    ids = np.arange(n)
    source.shuffle(ids)
    for rank, item in enumerate(ids):
        f = int(round(raw[rank]))
        if f > 0:
            freqs[int(item)] = f
    if not freqs:
        freqs[int(ids[0])] = max(1, total_mass)
    return _emit_frequencies(freqs, n, source, turnstile_noise)


def planted_heavy_hitter_stream(
    n: int,
    heavy_frequency: int,
    noise_frequency: int,
    noise_support: int,
    heavy_item: int | None = None,
    seed: int | RandomSource | None = None,
    turnstile_noise: float = 0.0,
) -> tuple[TurnstileStream, int]:
    """One planted item at ``heavy_frequency`` over a floor of
    ``noise_support`` items at ``noise_frequency``.

    Returns ``(stream, heavy_item)``.  This is the shape used throughout the
    lower-bound proofs (one large frequency hidden among many small ones)
    and by the g_np recovery experiment E5.
    """
    source = as_source(seed, "planted_stream")
    if noise_support >= n:
        raise ValueError("noise support must leave room for the heavy item")
    ids = np.arange(n)
    source.shuffle(ids)
    heavy = int(ids[0]) if heavy_item is None else int(heavy_item)
    noise_items = [int(i) for i in ids[1 : noise_support + 1] if int(i) != heavy]
    freqs = {item: noise_frequency for item in noise_items}
    freqs[heavy] = heavy_frequency
    return _emit_frequencies(freqs, n, source, turnstile_noise), heavy


def poisson_sample_stream(
    n: int,
    rate: float,
    seed: int | RandomSource | None = None,
) -> TurnstileStream:
    """``n`` coordinates i.i.d. Poisson(rate), realized as unit insertions.

    Models the Section 1.1.1 setting where stream coordinates are i.i.d.
    samples and the log-likelihood is a g-SUM.
    """
    source = as_source(seed, "poisson_stream")
    counts = source.generator.poisson(rate, size=n)
    stream = TurnstileStream(n)
    for item, count in enumerate(counts):
        if count > 0:
            stream.append(StreamUpdate(item, int(count)))
    return stream


def mixture_sample_stream(
    n: int,
    rates: Sequence[float],
    weights: Sequence[float],
    seed: int | RandomSource | None = None,
) -> TurnstileStream:
    """Coordinates i.i.d. from a Poisson mixture (the paper's example of a
    non-monotone log-likelihood: p(x) = sum_k w_k Pois(x; rate_k))."""
    if len(rates) != len(weights):
        raise ValueError("rates and weights must have equal length")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must have positive sum")
    source = as_source(seed, "mixture_stream")
    probs = np.asarray(weights, dtype=float) / total
    components = source.generator.choice(len(rates), size=n, p=probs)
    stream = TurnstileStream(n)
    for item in range(n):
        count = int(source.generator.poisson(rates[components[item]]))
        if count > 0:
            stream.append(StreamUpdate(item, count))
    return stream


def two_level_stream(
    n: int,
    large_frequency: int,
    large_support: int,
    small_frequency: int,
    small_support: int,
    seed: int | RandomSource | None = None,
) -> TurnstileStream:
    """Two frequency levels — the INDEX/DISJ reduction profile: a block of
    items at a large frequency plus a block at a small one."""
    source = as_source(seed, "two_level_stream")
    if large_support + small_support > n:
        raise ValueError("supports exceed the domain")
    ids = np.arange(n)
    source.shuffle(ids)
    freqs: dict[int, int] = {}
    for item in ids[:large_support]:
        freqs[int(item)] = large_frequency
    for item in ids[large_support : large_support + small_support]:
        freqs[int(item)] = small_frequency
    return _emit_frequencies(freqs, n, source)


def sinusoid_adversarial_stream(
    n: int,
    g_period_fn: Callable[[int], float],
    center: int,
    spread: int,
    support: int,
    seed: int | RandomSource | None = None,
) -> TurnstileStream:
    """Frequencies placed where an oscillating g is most variable.

    For the predictability separation (E2) we place frequencies in a window
    ``[center - spread, center + spread]`` chosen so that small frequency
    estimation errors flip ``g`` across a valley of the sinusoid; the
    function values at adjacent integers differ by a constant factor, so a
    1-pass algorithm relying on approximate frequencies mis-scores items
    while a 2-pass algorithm (exact tabulation) does not.  ``g_period_fn``
    is consulted to bias placements toward locally-variable points.
    """
    source = as_source(seed, "sin_adversarial")
    lo = max(1, center - spread)
    hi = center + spread
    candidates = np.arange(lo, hi + 1)
    variability = np.array(
        [abs(g_period_fn(int(x) + 1) - g_period_fn(int(x))) for x in candidates]
    )
    if variability.sum() <= 0:
        probs = np.full(len(candidates), 1.0 / len(candidates))
    else:
        probs = variability / variability.sum()
    ids = np.arange(n)
    source.shuffle(ids)
    freqs: dict[int, int] = {}
    for item in ids[:support]:
        value = int(source.generator.choice(candidates, p=probs))
        freqs[int(item)] = value
    return _emit_frequencies(freqs, n, source)


def samples_from_pmf(
    pmf: Callable[[int], float],
    max_value: int,
    count: int,
    seed: int | RandomSource | None = None,
) -> list[int]:
    """Draw ``count`` samples from a discrete pmf on {0..max_value}
    (normalizing numerically); helper for likelihood experiments."""
    source = as_source(seed, "pmf_samples")
    probs = np.array([max(pmf(x), 0.0) for x in range(max_value + 1)], dtype=float)
    total = probs.sum()
    if total <= 0:
        raise ValueError("pmf has no mass on the requested range")
    probs /= total
    return [int(x) for x in source.generator.choice(max_value + 1, size=count, p=probs)]


def sample_stream_from_pmf(
    pmf: Callable[[int], float],
    n: int,
    max_value: int,
    seed: int | RandomSource | None = None,
) -> TurnstileStream:
    """Each of the ``n`` coordinates gets an i.i.d. draw from the pmf."""
    values = samples_from_pmf(pmf, max_value, n, seed)
    stream = TurnstileStream(n)
    for item, value in enumerate(values):
        if value > 0:
            stream.append(StreamUpdate(item, value))
    return stream


# --------------------------------------------------------------------------
# The adversarial workload zoo (ROADMAP item 5): streams that stress the
# probabilistic guarantees instead of exercising the happy path.
# --------------------------------------------------------------------------

#: The heavy-tail sweep exponents: sub-critical (0.8, mass spread thin),
#: the canonical web-traffic skew (1.1), strongly concentrated (1.5), and
#: a near-degenerate head (2.0).
DEFAULT_ZIPF_SKEWS = (0.8, 1.1, 1.5, 2.0)


def zipf_sweep(
    n: int,
    total_mass: int,
    skews: Sequence[float] = DEFAULT_ZIPF_SKEWS,
    seed: int | RandomSource | None = None,
    turnstile_noise: float = 0.0,
) -> list[tuple[float, TurnstileStream]]:
    """Heavy-tailed Zipf workloads across a sweep of skew exponents.

    Returns ``[(skew, stream), ...]``; each stream draws from an
    independent child seed, so the sweep is reproducible as a unit.  The
    verifier (:mod:`repro.verify`) runs each guarantee across the whole
    sweep because sketch error distributions shift with the tail weight:
    small skews spread F2 across the tail (many borderline items), large
    skews concentrate it in a few giants (collision errors dominated by
    single items).
    """
    source = as_source(seed, "zipf_sweep")
    return [
        (
            float(skew),
            zipf_stream(
                n, total_mass, float(skew), source.child(f"skew{skew}"), turnstile_noise
            ),
        )
        for skew in skews
    ]


def deletion_storm_stream(
    n: int,
    support: int,
    magnitude: int,
    waves: int = 2,
    overshoot: int = 1,
    residue: int = 1,
    seed: int | RandomSource | None = None,
) -> TurnstileStream:
    """An all-deletion turnstile storm: every count is driven back through
    zero — and past it — repeatedly.

    Each wave inserts ``magnitude`` on every chosen item, deletes
    ``magnitude + overshoot`` (leaving the count *negative*), then restores
    to exactly zero.  After the waves, each item receives a final
    ``+-residue`` (alternating), so the net frequency vector is tiny and
    signed while the gross update volume is ``~3 * waves * support``
    updates of magnitude ``magnitude``.  Linear sketches must cancel all of
    it exactly; estimators that only exercise positive-delta paths (or
    Count-Min's one-sided min rule) break here, which is the point.
    """
    if support > n:
        raise ValueError("support cannot exceed the domain")
    if magnitude < 1 or overshoot < 0 or waves < 1:
        raise ValueError("magnitude >= 1, overshoot >= 0, waves >= 1 required")
    source = as_source(seed, "deletion_storm")
    ids = np.arange(n)
    source.shuffle(ids)
    chosen = [int(i) for i in ids[:support]]
    stream = TurnstileStream(n)

    def phase(delta: int) -> None:
        order = list(chosen)
        source.shuffle(order)
        for item in order:
            stream.append(StreamUpdate(item, delta))

    for _ in range(waves):
        phase(magnitude)
        phase(-(magnitude + overshoot))  # through zero, below it
        if overshoot:
            phase(overshoot)  # back to exactly zero
    if residue:
        order = list(chosen)
        source.shuffle(order)
        for rank, item in enumerate(order):
            stream.append(StreamUpdate(item, residue if rank % 2 == 0 else -residue))
    return stream


def distinct_flood_stream(
    n: int,
    magnitude: int = 1,
    seed: int | RandomSource | None = None,
) -> TurnstileStream:
    """An all-distinct flood: every item of the domain appears exactly once
    (at ``magnitude``), in random order.

    This is the pathological-cardinality workload for the CountSketch
    candidate pool: with more distinct items than ``pool`` entries
    identification degrades to a uniform sample while memory stays bounded
    at ``pool`` candidates (see :class:`repro.sketch.countsketch.CountSketch`).
    """
    source = as_source(seed, "distinct_flood")
    ids = np.arange(n)
    source.shuffle(ids)
    stream = TurnstileStream(n)
    for item in ids:
        stream.append(StreamUpdate(int(item), magnitude))
    return stream


def collision_stream(
    victim: "CountSketch",
    n: int,
    target: int = 0,
    colliders: int = 64,
    mass: int = 32,
    target_mass: int = 1,
    seed: int | RandomSource | None = None,
    chunk: int = 1 << 16,
) -> TurnstileStream:
    """A hash-collision-seeking stream against a *specific* CountSketch.

    Scans the domain for the items whose
    :meth:`~repro.sketch.countsketch.CountSketch.collision_scores` against
    ``target`` are largest — items that land in ``target``'s bucket with an
    agreeing sign in many rows of *this instance's* tabulation — and piles
    ``mass`` on each of the ``colliders`` best.  The victim's median
    estimate of ``target`` (true count ``target_mass``) is then inflated by
    collision mass in most rows, defeating the median; a CountSketch with
    fresh hashes sees the same stream as ordinary skew and keeps the
    ``sqrt(F2/b)`` bound.  This is the "guarantees are probabilistic over
    hash choice" separation made executable.
    """
    if not 0 <= target < n:
        raise ValueError("target must lie in the domain")
    source = as_source(seed, "collision_stream")
    scores = np.empty(n, dtype=np.int64)
    for start in range(0, n, chunk):
        block = np.arange(start, min(start + chunk, n), dtype=np.int64)
        scores[start : start + block.shape[0]] = victim.collision_scores(block, target)
    scores[target] = np.iinfo(np.int64).min  # the target never attacks itself
    k = min(int(colliders), n - 1)
    top = np.argpartition(-scores, k - 1)[:k]
    top = top[np.lexsort((top, -scores[top]))]  # deterministic order
    stream = TurnstileStream(n)
    stream.append(StreamUpdate(int(target), target_mass))
    order = [int(i) for i in top]
    source.shuffle(order)
    for item in order:
        stream.append(StreamUpdate(item, mass))
    return stream


def adaptive_adversarial_stream(
    n: int,
    victim: "CountSketch",
    rounds: int = 8,
    batch: int = 128,
    probe_mass: int = 16,
    boost_mass: int = 256,
    target: int | None = None,
    target_mass: int = 1,
    noise_support: int = 512,
    noise_magnitude: int = 8,
    seed: int | RandomSource | None = None,
) -> TurnstileStream:
    """A black-box adaptive adversary that interleaves queries, inserts,
    and deletes against a live victim sketch to corrupt one target item.

    Unlike :func:`collision_stream` (which reads the victim's hash tables
    directly), this adversary only uses the *query interface*.  After
    laying down ``noise_support`` items of background traffic (so the
    target's per-row values are diverse and the median is movable), it
    plants ``target`` with a tiny true count and probes: insert
    ``probe_mass`` on a fresh decoy, query ``victim.estimate(target)``,
    and keep the decoy's mass only if the estimate *rose* — evidence the
    decoy collides with the target in a median-pivotal row with an
    agreeing sign.  Non-colliding probes are retracted with a matching
    deletion, so the stream interleaves queries, inserts, and turnstile
    deletes.  Each round finishes by piling ``boost_mass`` on every
    collider found so far, which pushes the colliding rows upward and
    makes fresh rows pivotal for the next round of probes.

    The result: the attacked instance reports ``target`` (true count
    ``target_mass``) with a huge estimate — well past the oblivious
    ``3*sqrt(F2/b)`` bound and typically at the top of the
    tracked-candidate pool, displacing genuine heavy hitters — while a
    sketch with fresh hashes replaying the same stream sees the mass
    placement as random and keeps the advertised guarantee.

    The ``victim`` is mutated in place (it ingests the whole stream), so
    callers evaluate the attacked instance directly and replay the
    returned stream through fresh seeds for the contrast.
    """
    if rounds < 1 or batch < 1:
        raise ValueError("rounds and batch must be positive")
    if probe_mass < 1 or boost_mass < 0 or target_mass < 1:
        raise ValueError("probe_mass, target_mass >= 1 and boost_mass >= 0 required")
    source = as_source(seed, "adaptive_adversary")
    ids = np.arange(n)
    source.shuffle(ids)
    if target is None:
        target = int(ids[-1])
    decoy_ids = [int(i) for i in ids if int(i) != target]
    if noise_support + rounds * batch > len(decoy_ids):
        raise ValueError("domain too small for noise plus rounds * batch decoys")
    stream = TurnstileStream(n)

    def emit(item: int, delta: int) -> None:
        stream.append(StreamUpdate(item, delta))
        victim.update(item, delta)

    cursor = 0
    for item in decoy_ids[:noise_support]:  # diversify the rows first
        emit(item, int(source.integers(1, noise_magnitude + 1)))
    cursor += noise_support
    emit(int(target), int(target_mass))
    colliders: list[int] = []
    baseline = victim.estimate(int(target))
    for _ in range(rounds):
        fresh = decoy_ids[cursor : cursor + batch]
        cursor += batch
        for item in fresh:
            emit(item, probe_mass)
            moved = victim.estimate(int(target))  # the adaptive query
            if moved > baseline:  # pivotal, sign-agreeing collision
                colliders.append(item)
                baseline = moved
            else:
                emit(item, -probe_mass)  # retract: turnstile delete
        if boost_mass:
            for item in colliders:
                emit(item, boost_mass)
            baseline = victim.estimate(int(target))
    return stream
