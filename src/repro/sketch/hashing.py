"""k-wise independent hash families over a Mersenne-prime field.

The paper's sketches need: pairwise-independent bucket hashes (CountSketch
rows and the Recursive Sketch's subsampling), 4-wise independent sign hashes
(AMS variance bound, CountSketch variance bound, and the mod-a counters of
Proposition 49), and pairwise-independent Bernoulli variables (the g_np
algorithm of Proposition 54).

All are implemented as random polynomials of degree k-1 over GF(p) with
the Mersenne prime p = 2^31 - 1.  Scalar evaluation runs Horner's rule on
Python integers with an exact ``%`` per step.

Batched evaluation: every family also exposes a ``values_batch(xs)`` (and
sign/level variants) that evaluates the polynomial for a whole ``int64``
array of items in ``uint64`` numpy arithmetic, through one Horner kernel
(:func:`_horner`) shared by every batched family.  It reduces lazily —
two Mersenne folds per step keep every value at most p, so the next
product fits in ``uint64`` — and subtracts p once at the end, so the
batched residues are *exactly* the scalar ones: batch and scalar paths
agree bit for bit on every item.

Mergeable-sketch support: hash families are immutable once constructed, so
their part of the protocol is identity, not state — each family exposes a
``fingerprint()`` (the coefficients themselves) that sketches fold into
their merge-compatibility digests.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.util.rng import RandomSource, as_source

MERSENNE_P31 = (1 << 31) - 1

_U64_P31 = np.uint64(MERSENNE_P31)
_U64_31 = np.uint64(31)


#: Elements of the Horner accumulator one pass works on (256 KiB of
#: uint64), so a block and its scratch stay in cache across all steps.
_HORNER_BLOCK = 1 << 15


def _horner(coeffs: np.ndarray, arg: np.ndarray) -> np.ndarray:
    """Residues mod p = 2^31 - 1 of a stack of polynomials at a batch of
    arguments: ``coeffs`` is ``uint64[independence, *shape]`` (leading
    coefficient first), ``arg`` a 1-D ``uint64`` array of residues, and
    the result is ``uint64[len(arg), *shape]``, every entry in ``[0, p)``.

    Each step is ``acc = acc * arg + c`` followed by two Mersenne folds
    ``(x & p) + (x >> 31)`` (``2^31 = 1 mod p``), all in place, over
    blocks of arguments small enough to stay in cache.  With
    ``acc <= p`` and ``arg, c < p`` the step value stays below 2^62, the
    first fold leaves it below 2^32 and the second at most p, which
    stands for 0 until the single conditional subtract at the end.  So
    every product fits in ``uint64`` and the result equals a ``%`` at
    every step bit for bit, with no hardware divide."""
    acc = np.empty(arg.shape + coeffs.shape[1:], dtype=np.uint64)
    arg = arg.reshape(arg.shape + (1,) * (coeffs.ndim - 1))
    step = max(1, _HORNER_BLOCK // max(1, coeffs[0].size))
    scratch = np.empty((min(step, acc.shape[0]),) + acc.shape[1:], dtype=np.uint64)
    for lo in range(0, acc.shape[0], step):
        block = acc[lo : lo + step]
        x = arg[lo : lo + step]
        spill = scratch[: block.shape[0]]
        block[...] = coeffs[0]
        for c in coeffs[1:]:
            np.multiply(block, x, out=block)
            np.add(block, c, out=block)
            np.right_shift(block, _U64_31, out=spill)
            np.bitwise_and(block, _U64_P31, out=block)
            np.add(block, spill, out=block)
            np.right_shift(block, _U64_31, out=spill)
            np.bitwise_and(block, _U64_P31, out=block)
            np.add(block, spill, out=block)
        # block - p wraps past 2^63 unless block == p: the minimum maps p to 0.
        np.subtract(block, _U64_P31, out=spill)
        np.minimum(block, spill, out=block)
    return acc


def _to_range(acc: np.ndarray, range_size: int) -> np.ndarray:
    """``acc mod range_size`` in place, returned as ``int64`` (residues
    are below 2^31, so the view keeps every value)."""
    return np.remainder(acc, np.uint64(range_size), out=acc).view(np.int64)


def _batch_arg(xs: "np.ndarray | Iterable[int]") -> np.ndarray:
    """Map an item array to the polynomial argument ``(x + 1) mod p`` as
    ``uint64`` residues (the same argument the scalar evaluators use)."""
    arr = np.asarray(xs, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("batched items must be a 1-D array")
    return ((arr + 1) % MERSENNE_P31).astype(np.uint64)


class VectorKWiseHash:
    """A *bank* of ``count`` independent k-wise hashes, evaluated for one
    item across the whole bank in a handful of numpy operations.

    Uses degree-(k-1) polynomials over GF(2^31 - 1): 31-bit residues
    multiply inside uint64 without overflow, so Horner's rule vectorizes.
    Used where a sketch keeps hundreds of parallel registers (AMS) and
    per-register scalar hashing would dominate the runtime.
    """

    def __init__(
        self,
        count: int,
        independence: int = 4,
        seed: "int | RandomSource | None" = None,
    ):
        if count < 1 or independence < 1:
            raise ValueError("count and independence must be positive")
        source = as_source(seed, f"vec{independence}")
        self.count = int(count)
        self.independence = int(independence)
        self._coeffs = source.generator.integers(
            0, MERSENNE_P31, size=(self.independence, self.count), dtype=np.uint64
        )

    def fingerprint(self) -> tuple:
        """Identity of the family: every coefficient of every polynomial."""
        return ("vec", self.count, self.independence, self._coeffs.tobytes().hex())

    def values(self, x: int) -> np.ndarray:
        """The ``count`` hash values of ``x`` in [0, 2^31 - 1)."""
        arg = np.uint64((x + 1) % MERSENNE_P31)
        acc = np.zeros(self.count, dtype=np.uint64)
        for row in self._coeffs:
            acc = (acc * arg + row) % np.uint64(MERSENNE_P31)
        return acc

    def signs(self, x: int) -> np.ndarray:
        """+-1 signs (parity of the hash values; bias O(2^-31))."""
        return (self.values(x) & np.uint64(1)).astype(np.float64) * 2.0 - 1.0

    def values_batch(self, xs: "np.ndarray | Iterable[int]") -> np.ndarray:
        """Hash values for a whole item array: shape ``(len(xs), count)``.

        Row ``i`` equals ``values(xs[i])`` bit for bit: :func:`_horner`
        returns the same residues, broadcast over the batch axis.
        """
        return _horner(self._coeffs, _batch_arg(xs))

    def signs_batch(self, xs: "np.ndarray | Iterable[int]") -> np.ndarray:
        """+-1 sign matrix of shape ``(len(xs), count)``."""
        parity = np.bitwise_and(self.values_batch(xs), np.uint64(1))
        signs = parity.astype(np.float64)
        signs *= 2.0
        signs -= 1.0
        return signs


class StackedKWiseBank:
    """A stack of same-shape :class:`KWiseHash` polynomials evaluated
    together: one broadcasted Horner pass over a ``(independence, count)``
    coefficient plane returns every column's hash of every item.

    This is the fused form of calling ``values_batch`` on ``count``
    separate :class:`KWiseHash` objects — the ingest plane
    (:mod:`repro.core.ingest_plan`) stacks every CountSketch row's bucket
    and sign polynomials (and every repetition's subsampling bits) into
    banks so a chunk's unique items are hashed for all cells in a handful
    of numpy operations instead of one call per (cell, row).

    Column ``c`` of :meth:`values_batch` equals
    ``hashes[c].values_batch(xs)`` bit for bit: both run the one Horner
    kernel :func:`_horner`, here broadcast over a second axis.
    """

    def __init__(self, coeffs: np.ndarray, range_size: int):
        coeffs = np.asarray(coeffs, dtype=np.uint64)
        if coeffs.ndim != 2:
            raise ValueError(
                "stacked coefficients must be 2-D (independence, count)"
            )
        if range_size <= 0:
            raise ValueError("range size must be positive")
        self._coeffs = coeffs
        self.range_size = int(range_size)
        self.independence = int(coeffs.shape[0])
        self.count = int(coeffs.shape[1])

    @classmethod
    def from_hashes(cls, hashes: "Sequence[KWiseHash]") -> "StackedKWiseBank":
        """Stack existing :class:`KWiseHash` families (uniform independence
        and range) into one bank; the bank is a pure view of their
        coefficients, so it needs no seed bookkeeping of its own."""
        stack = list(hashes)
        if not stack:
            raise ValueError("need at least one hash to stack")
        independence = stack[0].independence
        range_size = stack[0].range_size
        for h in stack:
            if h.independence != independence or h.range_size != range_size:
                raise ValueError(
                    "stacked hashes must share independence and range size"
                )
        coeffs = np.array(
            [h._coeffs for h in stack], dtype=np.uint64
        ).T.copy()  # (independence, count), contiguous per Horner step
        return cls(coeffs, range_size)

    @classmethod
    def from_sign_hashes(cls, sign_hashes: "Sequence[SignHash]") -> "StackedKWiseBank":
        """Stack :class:`SignHash` families via their underlying range-2
        polynomials; use :meth:`signs_batch` on the result."""
        return cls.from_hashes([sign.base_hash for sign in sign_hashes])

    def values_batch(self, xs: "np.ndarray | Iterable[int]") -> np.ndarray:
        """Hash values of shape ``(len(xs), count)``; column ``c`` equals
        the c-th stacked hash's ``values_batch(xs)`` bit for bit."""
        acc = _horner(self._coeffs, _batch_arg(xs))
        return _to_range(acc, self.range_size)

    def signs_batch(self, xs: "np.ndarray | Iterable[int]") -> np.ndarray:
        """±1.0 matrix of shape ``(len(xs), count)`` for range-2 stacks;
        column ``c`` equals ``SignHash.values_batch`` of the c-th hash."""
        return np.where(self.values_batch(xs) == 1, 1.0, -1.0)


class KWiseHash:
    """A k-wise independent hash ``[universe] -> [range_size]``.

    Degree-(k-1) polynomial over GF(2^31 - 1) reduced modulo ``range_size``
    (universes here are poly(n) << 2^31).  The slight non-uniformity from
    the final mod is negligible for range_size << p and is the standard
    construction.
    """

    def __init__(
        self,
        range_size: int,
        independence: int = 2,
        seed: int | RandomSource | None = None,
    ):
        if range_size <= 0:
            raise ValueError("range size must be positive")
        if independence < 1:
            raise ValueError("independence must be >= 1")
        self.range_size = int(range_size)
        self.independence = int(independence)
        source = as_source(seed, f"kwise{independence}")
        # Leading coefficient nonzero keeps the polynomial degree exact.
        coeffs = [int(source.integers(0, MERSENNE_P31)) for _ in range(independence)]
        if independence > 1 and coeffs[0] == 0:
            coeffs[0] = 1
        self._coeffs = coeffs

    def fingerprint(self) -> tuple:
        return ("kwise", self.range_size, self.independence, tuple(self._coeffs))

    def __call__(self, x: int) -> int:
        acc = 0
        arg = (x + 1) % MERSENNE_P31
        for c in self._coeffs:
            acc = (acc * arg + c) % MERSENNE_P31
        return acc % self.range_size

    def values_batch(self, xs: "np.ndarray | Iterable[int]") -> np.ndarray:
        """Hash values for a whole ``int64`` item array at once.

        Element ``i`` equals ``self(xs[i])`` bit for bit: :func:`_horner`
        keeps every intermediate product inside ``uint64`` and returns the
        exact residues.
        """
        coeffs = np.array(self._coeffs, dtype=np.uint64)
        return _to_range(_horner(coeffs, _batch_arg(xs)), self.range_size)

    def many(self, xs: Iterable[int]) -> np.ndarray:
        return self.values_batch(np.fromiter((int(x) for x in xs), dtype=np.int64))


class SignHash:
    """k-wise independent ``{+1, -1}`` hash (default 4-wise, as the AMS and
    CountSketch analyses require)."""

    def __init__(self, independence: int = 4, seed: int | RandomSource | None = None):
        self._hash = KWiseHash(2, independence, as_source(seed, "sign"))

    def fingerprint(self) -> tuple:
        return ("sign",) + self._hash.fingerprint()

    def __call__(self, x: int) -> int:
        return 1 if self._hash(x) == 1 else -1

    @property
    def base_hash(self) -> KWiseHash:
        """The underlying range-2 polynomial (for stacking into a
        :class:`StackedKWiseBank`)."""
        return self._hash

    def values_batch(self, xs: "np.ndarray | Iterable[int]") -> np.ndarray:
        """+-1 values for a whole item array (``float64``, for use as
        scatter weights); element ``i`` equals ``float(self(xs[i]))``."""
        return np.where(self._hash.values_batch(xs) == 1, 1.0, -1.0)


class SubsampleHash:
    """Nested subsampling levels for the Recursive Sketch layering.

    Item ``x`` *survives to level j* when the first ``j`` pairwise
    independent bits drawn for it are all 1; survival sets are nested
    (level j+1 is a subset of level j), matching the Indyk-Woodruff /
    Braverman-Ostrovsky construction where each level halves the universe.
    """

    def __init__(self, levels: int, seed: int | RandomSource | None = None):
        if levels < 1:
            raise ValueError("need at least one level")
        source = as_source(seed, "subsample")
        self.levels = int(levels)
        self._bits = [
            KWiseHash(2, 2, source.child(f"level{j}")) for j in range(levels)
        ]
        self._level_cache: dict[int, int] = {}

    def fingerprint(self) -> tuple:
        return ("subsample", self.levels) + tuple(
            bit.fingerprint() for bit in self._bits
        )

    def bit_hashes(self) -> "list[KWiseHash]":
        """The per-level pairwise-independent bit hashes, shallow-copied for
        stacking into a :class:`StackedKWiseBank` (depth of ``x`` = number of
        leading levels whose bit hash maps ``x`` to 1)."""
        return list(self._bits)

    def level(self, x: int) -> int:
        """Deepest level item ``x`` survives to (0 = present in base stream)."""
        depth = self._level_cache.get(x)
        if depth is None:
            depth = 0
            for bit in self._bits:
                if bit(x) == 1:
                    depth += 1
                else:
                    break
            if len(self._level_cache) < 4_000_000:
                self._level_cache[x] = depth
        return depth

    def levels_batch(self, xs: "np.ndarray | Iterable[int]") -> np.ndarray:
        """Deepest surviving level for each item in the array; element ``i``
        equals ``level(xs[i])`` (the cache is bypassed, not populated)."""
        arr = np.asarray(xs, dtype=np.int64)
        depths = np.zeros(arr.shape[0], dtype=np.int64)
        alive = np.ones(arr.shape[0], dtype=bool)
        for bit in self._bits:
            if not alive.any():
                break
            alive &= bit.values_batch(arr) == 1
            depths += alive
        return depths

    def survives(self, x: int, level: int) -> bool:
        if not 0 <= level <= self.levels:
            raise ValueError(f"level must be in [0, {self.levels}]")
        if level == 0:
            return True
        return all(self._bits[j](x) == 1 for j in range(level))

    def survives_batch(
        self, xs: "np.ndarray | Iterable[int]", level: int
    ) -> np.ndarray:
        """Vectorized :meth:`survives`: element ``i`` equals
        ``survives(xs[i], level)``.  Survival sets are nested (the first
        ``level`` bits must all be 1), so surviving to ``level`` is exactly
        ``levels_batch(xs) >= level`` — one batched bit-hash sweep instead
        of a per-item Python loop."""
        if not 0 <= level <= self.levels:
            raise ValueError(f"level must be in [0, {self.levels}]")
        arr = np.asarray(xs, dtype=np.int64)
        if level == 0:
            return np.ones(arr.shape[0], dtype=bool)
        return self.levels_batch(arr) >= level


class BernoulliHash:
    """Pairwise-independent Bernoulli(1/2) variables X_1..X_n, exposed both
    as membership tests and as the explicit bit needed by the g_np
    algorithm's binary-search identification step."""

    def __init__(self, seed: int | RandomSource | None = None):
        self._hash = KWiseHash(2, 2, as_source(seed, "bernoulli"))

    def fingerprint(self) -> tuple:
        return ("bernoulli",) + self._hash.fingerprint()

    def __call__(self, x: int) -> int:
        return self._hash(x)

    def values_batch(self, xs: "np.ndarray | Iterable[int]") -> np.ndarray:
        """Bernoulli bits for a whole item array; element ``i`` equals
        ``self(xs[i])``."""
        return self._hash.values_batch(xs)
