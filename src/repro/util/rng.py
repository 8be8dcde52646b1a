"""Seeded randomness for every stochastic component in the library.

All sketches, generators, and harnesses accept either an integer seed or a
:class:`RandomSource`; deriving child sources by label keeps experiments
reproducible while letting independent components draw independent streams.
"""

from __future__ import annotations

import hashlib

import numpy as np


class RandomSource:
    """A labeled, forkable wrapper around ``numpy.random.Generator``.

    The generator stream is a pure function of ``(seed, label)`` — that pair
    is the source's *lineage*, and reconstructing a source from its lineage
    (see :meth:`resolved`) reproduces every child and every draw exactly.
    The mergeable-sketch protocol leans on this: two sketches built from the
    same lineage hold identical hash functions, so their states add.

    The generator is built on the first draw: most sources only derive
    children, and a draw stream depends on nothing but the lineage, so
    building it late changes no draw.  Sources draw while sketches are
    constructed, never while they ingest, so no ingest thread races the
    first build.
    """

    def __init__(self, seed: int | None = None, label: str = "root"):
        self.label = label
        self.seed = 0x5EED if seed is None else int(seed)
        self._gen: np.random.Generator | None = None

    @staticmethod
    def _mix(seed: int, label: str) -> int:
        digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.default_rng(self._mix(self.seed, self.label))
        return self._gen

    @property
    def lineage(self) -> tuple[int, str]:
        """The ``(seed, label)`` pair that fully determines this source."""
        return (self.seed, self.label)

    @classmethod
    def resolved(cls, seed: int, label: str) -> "ResolvedSource":
        """Reconstruct the source with exactly this lineage.  Unlike a plain
        ``RandomSource``, the result passes through :func:`as_source`
        unchanged (no label suffix is appended), so feeding it back into a
        sketch constructor rebuilds the *same* hash functions."""
        return ResolvedSource(seed, label)

    def child(self, label: str) -> "RandomSource":
        """Derive an independent source; same (seed, label) -> same stream."""
        return RandomSource(self.seed, f"{self.label}/{label}")

    def integers(self, low: int, high: int, size: int | None = None):
        return self.generator.integers(low, high, size=size)

    def random(self, size: int | None = None):
        return self.generator.random(size=size)

    def choice(self, options, size: int | None = None, replace: bool = True):
        return self.generator.choice(options, size=size, replace=replace)

    def shuffle(self, items) -> None:
        self.generator.shuffle(items)

    def signs(self, size: int):
        """Uniform +-1 array."""
        return self.generator.integers(0, 2, size=size) * 2 - 1


class ResolvedSource(RandomSource):
    """A source reconstructed from an exact lineage (see
    :meth:`RandomSource.resolved`); :func:`as_source` returns it as-is
    instead of deriving a child, so it can stand in for the source a sketch
    resolved at construction time."""


def as_source(seed_or_source: "int | RandomSource | None", label: str) -> RandomSource:
    """Normalize a seed-or-source argument into a :class:`RandomSource`."""
    if isinstance(seed_or_source, ResolvedSource):
        # Consumed exactly once: the first resolution lands on the recorded
        # lineage verbatim; anything derived further down (children, hashes
        # receiving this source) must follow the ordinary labeling rules,
        # so downgrade to a plain RandomSource with the same lineage.
        return RandomSource(seed_or_source.seed, seed_or_source.label)
    if isinstance(seed_or_source, RandomSource):
        return seed_or_source.child(label)
    return RandomSource(seed_or_source, label)
