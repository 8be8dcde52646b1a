"""The custom 1-pass algorithm for the nearly periodic function g_np
(Proposition 54, Appendix D.1).

``g_np(x) = 2^{-i_x}`` where ``i_x`` is the index of the lowest set bit of
``x``.  The function is S-nearly periodic (Proposition 53) — the generic
CountSketch machinery is useless for it (it is not slow-dropping) — yet it
is 1-pass tractable via modular structure:

* For any multiset of values, the lowest set bit of the *sum* equals the
  minimum lowest-bit ``i*`` of the values whenever a **unique** value
  attains that minimum (mod ``2^{i*+1}`` the sum is ``2^{i*}``).
* So hash the stream into ``C = O(lambda^-2)`` substreams to isolate the
  heavy hitter from the few other low-``i`` items, and in each substream
  maintain signed linear counters.  Reading lowest bits of the counters
  reveals ``g_np`` of the heavy hitter *exactly*.

Identification: the paper runs ``D = O(log n)`` pairwise-independent
Bernoulli trials and recovers the identity by binary search in
post-processing.  We implement the same Bernoulli trials for isolation
*verification* (the count of trials attaining ``i*`` must be ~D/2), and use
``ceil(log2 n)`` deterministic dyadic bit-mask counters for the recovery
itself (bit ``b`` of the heavy id is 1 iff the mask-``b`` counter attains
``i*``).  Both are linear counters; this realizes the paper's binary search
without an O(n) candidate sweep (substitution documented in DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from repro.core.heavy_hitters import HeavyHitterPair
from repro.functions.library import g_np
from repro.sketch.base import MergeableSketch, decode_int_list, encode_int_list
from repro.sketch.hashing import BernoulliHash, KWiseHash, _batch_arg, _horner
from repro.streams.batching import as_batch, drive
from repro.streams.model import StreamUpdate, TurnstileStream
from repro.util.intmath import lowest_set_bit
from repro.util.rng import RandomSource, as_source


def _low_bit_or_none(value: int) -> int | None:
    if value == 0:
        return None
    return lowest_set_bit(abs(value))


@dataclass
class GnpRecovery:
    """A successful single-substream recovery."""

    item: int
    g_value: float
    i_star: int


class _Substream:
    """Counters for one hashed substream: D Bernoulli trial counters, one
    total counter, and log2(n) dyadic bit-mask counters."""

    def __init__(self, n_bits: int, trials: int, seed: RandomSource):
        self.trials = trials
        self.n_bits = n_bits
        self._bernoulli = [
            BernoulliHash(seed.child(f"trial{t}")) for t in range(trials)
        ]
        self.trial_counters = [0] * trials
        self.bit_counters = [0] * n_bits
        self.total = 0
        self.weight = 0  # number of updates routed here (diagnostics)
        self._membership_cache: dict[int, tuple[int, ...]] = {}
        self._trial_bank: np.ndarray | None = None

    def _trial_coeffs(self) -> np.ndarray:
        """The D pairwise trial polynomials stacked as a ``(2, D)``
        coefficient array, so one broadcasted Horner step evaluates every
        trial for a whole item array (same coefficients as the scalar
        hashes, so memberships agree bit for bit)."""
        if self._trial_bank is None:
            self._trial_bank = np.array(
                [h._hash._coeffs for h in self._bernoulli], dtype=np.uint64
            ).T.copy()
        return self._trial_bank

    def _memberships(self, item: int) -> tuple[int, ...]:
        cached = self._membership_cache.get(item)
        if cached is None:
            cached = tuple(
                t for t in range(self.trials) if self._bernoulli[t](item) == 1
            )
            if len(self._membership_cache) < 1_000_000:
                self._membership_cache[item] = cached
        return cached

    def update(self, item: int, delta: int) -> None:
        self.total += delta
        self.weight += 1
        for t in self._memberships(item):
            self.trial_counters[t] += delta
        for b in range(self.n_bits):
            if (item >> b) & 1:
                self.bit_counters[b] += delta

    def update_batch(self, items: np.ndarray, deltas: np.ndarray) -> None:
        """Batched counter maintenance for the items routed here: net the
        deltas per distinct item, evaluate each Bernoulli trial once per
        distinct item (vectorized), and add integer net contributions to
        every counter.  Integer adds commute, so the final counters equal a
        scalar replay exactly."""
        count = items.shape[0]
        if count == 0:
            return
        self.weight += count
        self.total += int(deltas.sum())
        unique, inverse = np.unique(items, return_inverse=True)
        net = np.bincount(
            inverse, weights=deltas.astype(np.float64), minlength=unique.shape[0]
        ).astype(np.int64)
        # All D trial memberships in one broadcasted degree-1 Horner step
        # over GF(2^31 - 1): membership(i, t) = (c0[t]*arg_i + c1[t]) mod 2,
        # exactly the scalar BernoulliHash arithmetic.
        residues = _horner(self._trial_coeffs(), _batch_arg(unique))
        member = (residues & np.uint64(1)).astype(bool)
        trial_add = (net[:, None] * member).sum(axis=0)
        self.trial_counters = [
            c + int(a) for c, a in zip(self.trial_counters, trial_add.tolist())
        ]
        bits = (
            (unique[:, None] >> np.arange(self.n_bits, dtype=np.int64)[None, :]) & 1
        ).astype(bool)
        bit_add = (net[:, None] * bits).sum(axis=0)
        self.bit_counters = [
            c + int(a) for c, a in zip(self.bit_counters, bit_add.tolist())
        ]

    def fresh(self) -> "_Substream":
        """A copy sharing this substream's trial hashes, with zeroed
        counters and its own membership memo."""
        sub = object.__new__(_Substream)
        sub.__dict__.update(self.__dict__)
        sub.trial_counters = [0] * self.trials
        sub.bit_counters = [0] * self.n_bits
        sub.total = 0
        sub.weight = 0
        sub._membership_cache = {}
        return sub

    def state_payload(self) -> dict:
        return {
            "trial_counters": encode_int_list(self.trial_counters),
            "bit_counters": encode_int_list(self.bit_counters),
            "total": self.total,
            "weight": self.weight,
        }

    def load_state_payload(self, payload: dict) -> None:
        trial_counters = decode_int_list(payload["trial_counters"], self.trials)
        bit_counters = decode_int_list(payload["bit_counters"], self.n_bits)
        self.trial_counters = trial_counters
        self.bit_counters = bit_counters
        self.total = int(payload["total"])
        self.weight = int(payload["weight"])

    def merge_counters(self, other: "_Substream") -> None:
        self.total += other.total
        self.weight += other.weight
        self.trial_counters = [
            a + b for a, b in zip(self.trial_counters, other.trial_counters)
        ]
        self.bit_counters = [
            a + b for a, b in zip(self.bit_counters, other.bit_counters)
        ]

    def recover(self) -> GnpRecovery | None:
        """Attempt to recover the unique minimum-low-bit item.

        Returns None when the substream is empty or isolation plainly
        failed (trial counts inconsistent with a unique minimizer).
        """
        i_total = _low_bit_or_none(self.total)
        trial_bits = [_low_bit_or_none(c) for c in self.trial_counters]
        candidates = [i for i in trial_bits if i is not None]
        if i_total is not None:
            candidates.append(i_total)
        if not candidates:
            return None
        i_star = min(candidates)
        # With a unique minimizer j*, each Bernoulli trial contains j* w.p.
        # 1/2 and attains i_star exactly when it does; D/2 +- O(sqrt D)
        # trials should hit it.  Far fewer/more signals collisions.
        hits = sum(1 for i in trial_bits if i == i_star)
        lo = self.trials // 4
        hi = self.trials - lo
        if not lo <= hits <= hi:
            return None
        # The total counter always contains j*, so it must attain i_star.
        if i_total != i_star:
            return None
        item = 0
        for b in range(self.n_bits):
            if _low_bit_or_none(self.bit_counters[b]) == i_star:
                item |= 1 << b
        # Strong verification: when a unique minimizer j* exists, a trial
        # counter attains i_star exactly when the trial's Bernoulli set
        # contains j*.  A spuriously assembled id fails this pattern check
        # on ~half the trials, so requiring an exact match across all D
        # trials drives the false-recovery rate to 2^-D.
        memberships = set(self._memberships(item))
        for t, i_t in enumerate(trial_bits):
            contains = t in memberships
            if contains != (i_t == i_star):
                return None
        return GnpRecovery(item, 2.0 ** (-i_star), i_star)


class GnpHeavyHitterSketch(MergeableSketch):
    """1-pass ``(g_np, lambda)``-heavy-hitter sketch (Proposition 54).

    Space: ``C * (D + log2 n + 1)`` counters with ``C = O(lambda^-2)``
    substreams and ``D = O(log n)`` trials — poly(1/lambda, log n), i.e.
    sub-polynomial, despite g_np being nearly periodic.
    """

    def __init__(
        self,
        n: int,
        heaviness: float = 0.25,
        substreams: int | None = None,
        trials: int | None = None,
        seed: int | RandomSource | None = None,
    ):
        if not 0 < heaviness <= 1:
            raise ValueError("heaviness must be in (0, 1]")
        source = as_source(seed, "gnp")
        self.n = int(n)
        self.g = g_np()
        self.heaviness = float(heaviness)
        n_bits = max(1, int(math.ceil(math.log2(max(n, 2)))))
        c = substreams if substreams is not None else max(
            8, int(math.ceil(16.0 / (heaviness * heaviness)))
        )
        d = trials if trials is not None else max(8, 4 * n_bits)
        self._router = KWiseHash(c, 2, source.child("router"))
        self._substreams = [
            _Substream(n_bits, d, source.child(f"sub{k}")) for k in range(c)
        ]
        self._register_mergeable(
            source,
            n=self.n,
            heaviness=self.heaviness,
            substreams=c,
            trials=d,
        )

    def update(self, item: int, delta: int) -> None:
        self._substreams[self._router(item)].update(item, delta)

    def update_batch(
        self, items: "np.ndarray | Sequence[int]", deltas: "np.ndarray | Sequence[int]"
    ) -> None:
        """Batched ingestion: route the whole batch with one vectorized
        Horner evaluation, then hand each substream its (order-preserving)
        sub-batch.  All counters are integer sums, so the result equals a
        scalar replay bit for bit."""
        items, deltas = as_batch(items, deltas)
        if items.shape[0] == 0:
            return
        routes = self._router.values_batch(items)
        for k in np.unique(routes).tolist():
            mask = routes == k
            self._substreams[k].update_batch(items[mask], deltas[mask])

    def process(
        self, stream: TurnstileStream | Iterable[StreamUpdate]
    ) -> "GnpHeavyHitterSketch":
        return drive(self, stream)

    def recoveries(self) -> List[GnpRecovery]:
        out = []
        for index, sub in enumerate(self._substreams):
            rec = sub.recover()
            if rec is not None and 0 <= rec.item < self.n:
                # The recovered id must route back to this very substream.
                if self._router(rec.item) == index:
                    out.append(rec)
        return out

    def cover(self) -> List[HeavyHitterPair]:
        """Heavy-hitter interface: one pair per successful recovery.

        ``g_np`` depends on the frequency only through its lowest bit, so
        the g-weight is exact; the frequency field reports NaN (the sketch
        never learns |v| itself, only i_v — exactly as in the paper).
        """
        pairs = []
        seen: set[int] = set()
        for rec in self.recoveries():
            if rec.item in seen:
                continue
            seen.add(rec.item)
            pairs.append(HeavyHitterPair(rec.item, rec.g_value, float("nan")))
        pairs.sort(key=lambda p: p.g_weight, reverse=True)
        return pairs

    @property
    def space_counters(self) -> int:
        return sum(
            len(s.trial_counters) + len(s.bit_counters) + 1 for s in self._substreams
        )

    # ------------------------------------------------- mergeable protocol

    def _extra_compat(self) -> tuple:
        return (self._router.fingerprint(),)

    def _fresh_state(self) -> None:
        self._substreams = [sub.fresh() for sub in self._substreams]

    def merge(self, other: "GnpHeavyHitterSketch") -> "GnpHeavyHitterSketch":
        """Linearity: every substream counter adds (the Bernoulli trials
        and bit masks are identical for siblings)."""
        self.require_sibling(other)
        for mine, theirs in zip(self._substreams, other._substreams):
            mine.merge_counters(theirs)
        return self

    def _state_payload(self) -> dict:
        return {"substreams": [s.state_payload() for s in self._substreams]}

    def _load_state_payload(self, payload: dict) -> None:
        states = payload["substreams"]
        if len(states) != len(self._substreams):
            raise ValueError("state substream count mismatch")
        for sub, state in zip(self._substreams, states):
            sub.load_state_payload(state)


def recover_single_heavy_hitter(
    stream: TurnstileStream,
    heaviness: float = 0.25,
    seed: int | RandomSource | None = None,
) -> GnpRecovery | None:
    """Convenience: run the sketch and return the strongest recovery
    (largest g_np value), or None."""
    sketch = GnpHeavyHitterSketch(stream.domain_size, heaviness, seed=seed)
    sketch.process(stream)
    recs = sketch.recoveries()
    if not recs:
        return None
    return max(recs, key=lambda r: r.g_value)
