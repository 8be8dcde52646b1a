"""The function class ``G`` of Section 3.

``G = {g : Z>=0 -> R, g(0) = 0, g(1) = 1, g(x) > 0 for x > 0}`` with the
symmetric extension ``g(-x) = g(x)``.  :class:`GFunction` wraps a callable
together with the paper-declared ground-truth properties (slow-jumping,
slow-dropping, predictable, normality) so the zero-one-law classifier and
the numeric property testers can be validated against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional


@dataclass(frozen=True)
class DeclaredProperties:
    """Ground-truth property flags as stated (or derivable) in the paper.

    ``None`` means "not declared" — the numeric testers are then the only
    source of truth.  ``s_normal`` / ``p_normal`` distinguish the two
    normality notions (Definition 9 and Proposition 10: S-nearly periodic
    implies P-nearly periodic, so P-normal implies S-normal).
    """

    slow_jumping: Optional[bool] = None
    slow_dropping: Optional[bool] = None
    predictable: Optional[bool] = None
    s_normal: Optional[bool] = None
    p_normal: Optional[bool] = None
    monotone: Optional[str] = None  # "increasing" | "decreasing" | None

    def one_pass_tractable(self) -> Optional[bool]:
        """Theorem 2 for normal functions; None when any input is unknown
        or the function is nearly periodic (outside the law's scope)."""
        if self.s_normal is False:
            return None
        flags = (self.slow_jumping, self.slow_dropping, self.predictable)
        if any(f is None for f in flags):
            return None
        return all(flags)

    def two_pass_tractable(self) -> Optional[bool]:
        """Theorem 3 for normal functions."""
        if self.p_normal is False and self.s_normal is False:
            return None
        flags = (self.slow_jumping, self.slow_dropping)
        if any(f is None for f in flags):
            return None
        return all(flags)


class GFunction:
    """A member of ``G`` with memoized evaluation and declared properties.

    Parameters
    ----------
    fn:
        The underlying callable on nonnegative integers.  Values must be
        positive for positive arguments.
    name:
        Short identifier used in tables and benchmark output.
    properties:
        Paper-declared ground truth (optional).
    normalize:
        When True (default) the wrapper enforces ``g(0)=0, g(1)=1`` by
        shifting/scaling: ``g'(x) = (fn(x) - fn(0)) / (fn(1) - fn(0))``.
        The paper notes (Section 3) that scaling by ``g(1)`` is WLOG for
        multiplicative approximation.  Functions with ``fn(0) != 0`` that
        should keep their offset (Appendix A study) pass ``normalize=False``.
    """

    def __init__(
        self,
        fn: Callable[[int], float],
        name: str,
        properties: DeclaredProperties | None = None,
        normalize: bool = True,
        description: str = "",
        analysis_cap: int | None = None,
    ):
        self.name = name
        self.description = description
        self.properties = properties or DeclaredProperties()
        # Rebuildable factory spec, stamped by repro.functions.registry on
        # registry-built instances; what __reduce__ pickles instead of the
        # wrapped callable.
        self.spec: dict | None = None
        # Largest argument at which the callable is numerically safe (e.g.
        # 2^x overflows doubles near x ~ 1000); numeric property testers
        # clamp their domain to this.
        self.analysis_cap = analysis_cap
        self._cache: dict[int, float] = {}
        if normalize:
            base = float(fn(0))
            unit = float(fn(1)) - base
            if unit <= 0:
                raise ValueError(
                    f"{name}: cannot normalize, fn(1) - fn(0) = {unit} <= 0"
                )
            self._fn = lambda x: (float(fn(x)) - base) / unit
        else:
            self._fn = lambda x: float(fn(x))
        if normalize and not math.isclose(self(0), 0.0, abs_tol=1e-12):
            raise ValueError(f"{name}: g(0) != 0 after normalization")

    def __call__(self, x: int | float) -> float:
        """Evaluate at ``|round(x)|`` (symmetric extension to Z)."""
        key = abs(int(round(x)))
        cached = self._cache.get(key)
        if cached is None:
            cached = self._fn(key)
            if key > 0 and cached <= 0:
                raise ValueError(
                    f"{self.name}: g({key}) = {cached} <= 0 violates membership in G"
                )
            if len(self._cache) < 1_000_000:
                self._cache[key] = cached
        return cached

    def g_sum(self, frequencies) -> float:
        """Exact ``sum g(|v_i|)`` over an iterable of frequencies."""
        return sum(self(v) for v in frequencies)

    def with_properties(self, **flags) -> "GFunction":
        """A copy with updated declared properties."""
        from repro.functions.registry import derived_spec

        clone = GFunction.__new__(GFunction)
        clone.name = self.name
        clone.description = self.description
        clone.properties = replace(self.properties, **flags)
        clone.analysis_cap = self.analysis_cap
        clone._cache = {}
        clone._fn = self._fn
        clone.spec = derived_spec(self, "with_properties", flags=dict(flags))
        return clone

    def renamed(self, name: str) -> "GFunction":
        from repro.functions.registry import derived_spec

        clone = GFunction.__new__(GFunction)
        clone.name = name
        clone.description = self.description
        clone.properties = self.properties
        clone.analysis_cap = self.analysis_cap
        clone._cache = {}
        clone._fn = self._fn
        clone.spec = derived_spec(self, "renamed", name=name)
        return clone

    def __reduce__(self):
        """Pickle as the registry spec (never the wrapped callable): the
        unpickling side rebuilds through the registered factory, which is
        what lets estimators configured with library or ``random_g``
        functions cross process boundaries (the distributed process
        workers)."""
        import pickle

        from repro.functions.registry import from_spec, to_spec

        try:
            spec = to_spec(self)
        except TypeError as exc:
            raise pickle.PicklingError(str(exc)) from None
        return (from_spec, (spec,))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GFunction({self.name})"


def stability_set(g: GFunction, x: int, eps: float) -> Callable[[int], bool]:
    """Membership test for ``delta_eps(g, x)`` (the set of y with
    ``|g(y) - g(x)| <= eps * g(x)``, Section 3)."""
    gx = g(x)

    def member(y: int) -> bool:
        return abs(g(y) - gx) <= eps * gx

    return member


def stability_radius(g: GFunction, x: int, eps: float, cap: int | None = None) -> int:
    """``r_eps(x) = max{ y : x + y' in delta_eps(g,x) for all |y'| <= y }``
    (Section 4.3), computed by linear scan up to ``cap`` (default ``x``).

    This is the largest symmetric window around ``x`` within which ``g``
    stays within relative ``eps`` of ``g(x)``; the 1-pass algorithm needs
    frequency estimates accurate to within this radius.
    """
    member = stability_set(g, x, eps)
    limit = x if cap is None else cap
    radius = 0
    while radius + 1 <= limit:
        y = radius + 1
        if x - y < 0:
            break
        if member(x + y) and member(x - y):
            radius = y
        else:
            break
    return radius
