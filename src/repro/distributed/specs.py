"""Sketch specs: build identical sketches on different machines.

A distributed run only works if every participant constructs the *same*
sketch — same class, same configuration, same seed (hence, through the
:class:`~repro.util.rng.RandomSource` lineage, the same hash functions).
A **sketch spec** is a small JSON-serializable dict pinning all of that:

.. code-block:: json

    {"kind": "countsketch", "rows": 5, "buckets": 1024, "track": 16, "seed": 7}
    {"kind": "gsum", "function": "x^2", "n": 4096, "epsilon": 0.25,
     "passes": 2, "heaviness": 0.05, "repetitions": 3, "seed": 7}

``passes: 2`` builds the estimator the coordinated round protocol drives
(``repro worker --passes 2`` / ``repro coordinate --passes 2``): round 1
ships first-pass states, the coordinator broadcasts the merged candidate
export, round 2 ships the exact second-pass tabulations.

``repro worker`` and ``repro coordinate`` both build their sketch from the
same CLI flags through :func:`build_sketch`; if the flags differ between
machines, the states carry different compatibility digests and the
coordinator's merge refuses loudly — misconfiguration cannot silently
corrupt an estimate.  ``gsum`` function names resolve through the
named-function registry (:mod:`repro.functions.registry`), so catalog
names and restricted expressions both work.
"""

from __future__ import annotations

from repro.sketch.ams import AmsF2Sketch
from repro.sketch.countmin import CountMinSketch
from repro.sketch.countsketch import CountSketch

SKETCH_KINDS = ("countsketch", "countmin", "ams", "gsum")


def build_sketch(spec: dict):
    """Construct the sketch a spec describes (see module docstring).

    Unknown keys are rejected rather than ignored: a typoed parameter on
    one machine would otherwise build a non-sibling whose merge failure is
    harder to diagnose than this error.
    """
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind not in SKETCH_KINDS:
        raise ValueError(f"sketch kind must be one of {SKETCH_KINDS}, got {kind!r}")
    seed = int(spec.pop("seed", 0))
    try:
        if kind == "countsketch":
            return CountSketch(
                int(spec.pop("rows", 5)),
                int(spec.pop("buckets", 1024)),
                track=int(spec.pop("track", 0)),
                seed=seed,
                **_none_left(spec),
            )
        if kind == "countmin":
            return CountMinSketch(
                int(spec.pop("rows", 5)),
                int(spec.pop("buckets", 1024)),
                seed=seed,
                **_none_left(spec),
            )
        if kind == "ams":
            return AmsF2Sketch(
                int(spec.pop("medians", 5)),
                int(spec.pop("means_size", 32)),
                seed=seed,
                **_none_left(spec),
            )
        # gsum
        from repro.core.gsum import GSumEstimator
        from repro.functions.registry import resolve_function

        passes = int(spec.pop("passes", 1))
        if passes not in (1, 2):
            raise ValueError(
                "distributed gsum specs support passes 1 (one round) or 2 "
                "(two rounds with a candidate broadcast); got "
                f"passes={passes}"
            )
        return GSumEstimator(
            resolve_function(str(spec.pop("function", "x^2"))),
            int(spec.pop("n", 4096)),
            epsilon=float(spec.pop("epsilon", 0.25)),
            passes=passes,
            heaviness=float(spec.pop("heaviness", 0.05)),
            repetitions=int(spec.pop("repetitions", 3)),
            seed=seed,
            **_none_left(spec),
        )
    except TypeError as exc:  # pragma: no cover - defensive
        raise ValueError(f"bad {kind} sketch spec: {exc}") from exc


def _none_left(spec: dict) -> dict:
    if spec:
        raise ValueError(f"unknown sketch spec keys: {sorted(spec)}")
    return {}
