"""ShortLinearCombination / (u, d)-DIST (Definitions 14, 45, 50; Appendix C).

Problem: the frequency vector is promised to lie in
``V0 = {u_1..u_r, 0}^n`` (up to signs) or in ``V1`` = V0 with one
coordinate replaced by ``+-d``.  Decide which.

Theorem 48/51: the randomized space complexity is ``Theta~(n / q^2)`` where
``q = sum |q_i|`` is minimal subject to ``sum q_i u_i = d``.  The matching
upper bound (Proposition 49) is implemented here:

* partition ``[n]`` into ``t = O~(n/q^2)`` pieces by a pairwise hash;
* per piece keep one signed counter ``C_i = sum_l xi_l v_l`` with 4-wise
  independent signs;
* read each counter modulo ``a = max u_i``: without d, the residue is
  ``sum_j z_j u_j mod a`` with each ``|z_j| <~ sqrt(n/t) < q/4`` (signed
  sums of the piece's items concentrate); with d present the residue needs
  a coefficient mass >= q - (observed mass) > threshold, by minimality of
  q.  Declaring "d present" when some piece's residue is expensive to
  express decides the problem.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.sketch.base import MergeableSketch, decode_array, encode_array
from repro.sketch.hashing import KWiseHash, SignHash
from repro.streams.batching import as_batch, drive
from repro.streams.model import StreamUpdate, TurnstileStream
from repro.util.intmath import minimal_l1_combination
from repro.util.rng import RandomSource, as_source


class ResidueCostTable:
    """Minimal coefficient mass to express each residue class mod ``modulus``
    as ``sum z_j u_j (mod modulus)`` — BFS over the residue graph where each
    step adds or subtracts one ``u_j`` at unit cost.

    ``cost(0) = 0``; residues unreachable within ``cap`` steps report
    ``math.inf``.  This is the decision oracle of the Prop. 49 detector and
    doubles as a second (exact, modular) implementation to cross-check
    :func:`repro.util.intmath.minimal_l1_combination` in tests.
    """

    def __init__(self, modulus: int, coefficients: Sequence[int], cap: int):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        self.modulus = int(modulus)
        self.coefficients = [int(u) % self.modulus for u in coefficients]
        self.cap = int(cap)
        self._cost = [math.inf] * self.modulus
        self._cost[0] = 0.0
        frontier = deque([0])
        steps = 0
        while frontier and steps < self.cap:
            steps += 1
            next_frontier: deque[int] = deque()
            while frontier:
                r = frontier.popleft()
                for u in self.coefficients:
                    for nxt in ((r + u) % self.modulus, (r - u) % self.modulus):
                        if self._cost[nxt] > steps:
                            self._cost[nxt] = float(steps)
                            next_frontier.append(nxt)
            frontier = next_frontier

    def cost(self, residue: int) -> float:
        return self._cost[residue % self.modulus]


@dataclass(frozen=True)
class DistDecision:
    present: bool
    witness_piece: int | None
    witness_cost: float
    threshold: float


class DistDetector(MergeableSketch):
    """Streaming detector for ``(u, d)``-DIST (Proposition 49).

    Parameters
    ----------
    frequencies:
        The allowed magnitudes ``u = (u_1..u_r)``.
    target:
        The needle magnitude ``d`` (not in u).
    n:
        Domain size.
    pieces:
        ``t`` — number of hash pieces / counters.  Theory wants
        ``t = O~(n/q^2)``; :meth:`recommended_pieces` computes that and
        benches sweep it.
    """

    def __init__(
        self,
        frequencies: Sequence[int],
        target: int,
        n: int,
        pieces: int,
        seed: int | RandomSource | None = None,
    ):
        freqs = sorted({abs(int(u)) for u in frequencies})
        if 0 in freqs:
            freqs.remove(0)
        if not freqs:
            raise ValueError("need at least one nonzero allowed frequency")
        target = abs(int(target))
        if target in freqs:
            raise ValueError("target must differ from every allowed frequency")
        solution = minimal_l1_combination(freqs, target)
        if solution is None:
            raise ValueError(
                "target is not an integer combination of the frequencies; "
                "the promise problem is degenerate (trivially decidable)"
            )
        self.q, self.q_vector = solution
        self.frequencies = freqs
        self.target = target
        self.n = int(n)
        self.pieces = int(pieces)
        self.modulus = max(freqs)
        source = as_source(seed, "dist")
        self._router = KWiseHash(self.pieces, 2, source.child("router"))
        self._signs = SignHash(4, source.child("signs"))
        self._counters = np.zeros(self.pieces, dtype=np.int64)
        # Modular view: multiples of the modulus vanish, so what separates
        # the two cases is the coefficient mass needed to explain each
        # piece's residue.  ``q_mod`` is the minimal mass expressing the
        # needle d modulo a with the allowed frequencies — the modular
        # analogue of q, and the quantity the disjointness argument of
        # Prop. 46/48 actually uses.
        self._table = ResidueCostTable(self.modulus, freqs, cap=max(self.q + 2, 8))
        q_mod = self._table.cost(self.target % self.modulus)
        self.q_mod = int(q_mod) if math.isfinite(q_mod) else self.q
        # Signed piece-sums must stay below this for the residue sets to be
        # disjoint (|z| <= (q_mod - 1) / 2).
        self.threshold = max(1.0, (self.q_mod - 1) / 2.0)
        self._register_mergeable(
            source,
            frequencies=list(self.frequencies),
            target=self.target,
            n=self.n,
            pieces=self.pieces,
        )

    @classmethod
    def recommended_pieces(
        cls, frequencies: Sequence[int], target: int, n: int, slack: float = 32.0
    ) -> int:
        """Theory sizing ``t ~= slack * n / q_mod^2`` where ``q_mod`` is the
        modular needle cost (the quantity the residue test separates on).
        Each piece then carries ~``q_mod^2/slack`` items, so signed sums
        concentrate below ``(q_mod-1)/2``.  Clamped to [1, 4n]."""
        freqs = sorted({abs(int(u)) for u in frequencies if u != 0})
        if not freqs:
            return 1
        modulus = max(freqs)
        table = ResidueCostTable(modulus, freqs, cap=2 * modulus)
        q_mod = table.cost(abs(int(target)) % modulus)
        if not math.isfinite(q_mod) or q_mod < 1:
            q_mod = 1.0
        return max(1, min(4 * n, int(math.ceil(slack * n / (q_mod * q_mod)))))

    # ----------------------------------------------------------- streaming

    def update(self, item: int, delta: int) -> None:
        self._counters[self._router(item)] += self._signs(item) * delta

    def update_batch(
        self, items: "np.ndarray | Sequence[int]", deltas: "np.ndarray | Sequence[int]"
    ) -> None:
        """Vectorized ingestion: route and sign the whole batch in two
        Horner evaluations, scatter-add the signed deltas per piece.
        Counters are int64 sums of signed deltas — identical to a scalar
        replay."""
        items, deltas = as_batch(items, deltas)
        if items.shape[0] == 0:
            return
        pieces = self._router.values_batch(items)
        signed = self._signs.values_batch(items) * deltas
        self._counters += np.bincount(
            pieces, weights=signed, minlength=self.pieces
        ).astype(np.int64)

    def process(self, stream: TurnstileStream | Iterable[StreamUpdate]) -> "DistDetector":
        return drive(self, stream)

    # ------------------------------------------------------------ decision

    def decide(self) -> DistDecision:
        """Per-piece two-hypothesis test on the residue ``r = C_i mod a``:

        * ``cost0(r)`` — minimal coefficient mass explaining r with allowed
          frequencies only (the no-needle hypothesis);
        * ``cost1(r)`` — minimal mass explaining ``r -+ d`` (needle present,
          either sign).

        Without the needle every piece has ``cost0 <= |z| <= threshold``
        (signed sums concentrate).  The needle's piece instead has
        ``cost1 <= threshold`` but ``cost0 >= q_mod - threshold >
        threshold`` by minimality of ``q_mod``.  Declare present when some
        piece is expensive under hypothesis 0 but cheap under hypothesis 1.
        """
        worst_margin = -math.inf
        witness = None
        present = False
        d_mod = self.target % self.modulus
        for idx, counter in enumerate(self._counters):
            residue = counter % self.modulus
            cost0 = self._table.cost(residue)
            cost1 = min(
                self._table.cost((residue - d_mod) % self.modulus),
                self._table.cost((residue + d_mod) % self.modulus),
            )
            margin = cost0 - cost1
            if margin > worst_margin:
                worst_margin = margin
                witness = idx
            if cost0 > self.threshold and cost1 <= self.threshold:
                present = True
        return DistDecision(
            present, witness if present else None, worst_margin, self.threshold
        )

    @property
    def space_counters(self) -> int:
        return self.pieces

    # ------------------------------------------------- mergeable protocol

    def _extra_compat(self) -> tuple:
        return (self._router.fingerprint(), self._signs.fingerprint())

    def _fresh_state(self) -> None:
        self._counters = np.zeros(self.pieces, dtype=np.int64)

    def merge(self, other: "DistDetector") -> "DistDetector":
        """Linearity: signed piece counters add."""
        self.require_sibling(other)
        self._counters += other._counters
        return self

    def _state_payload(self) -> dict:
        return {"counters": encode_array(self._counters)}

    def _load_state_payload(self, payload: dict) -> None:
        self._counters = decode_array(payload["counters"], self._counters.shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistDetector(u={self.frequencies}, d={self.target}, q={self.q}, "
            f"t={self.pieces})"
        )
