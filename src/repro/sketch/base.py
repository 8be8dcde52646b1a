"""The mergeable-sketch protocol: merge / serialize / sibling-spawn.

Every structure in the library is (or is built from) a *linear* sketch, so
the state of two sketches of two streams, built from the same randomness,
adds to the state of the concatenated stream.  This module makes that an
explicit, uniform contract implemented by every layer of the stack — raw
sketches (CountSketch, Count-Min, AMS, F0, exact, DIST, g_np), heavy-hitter
sketches, the Recursive Sketch, the universal sketches, and the top-level
:class:`~repro.core.gsum.GSumEstimator`:

``spawn_sibling()``
    A fresh, empty sketch with identical configuration *and identical hash
    functions*.  A sibling is a shallow copy: it shares the source's
    immutable members — hash families, ``g``, the configuration dict and
    the cached compat digest — and each class's :meth:`_fresh_state` hook
    gives it its own empty tables, registers, pools, memos and counters
    (composites spawn their children).  No constructor runs and no hash
    family is re-derived.  Siblings also clone *phase*: spawning from a
    two-pass sketch that has begun its second pass yields a sibling in its
    second pass, restricted to the same candidates.

``merge(other)``
    Fold a sibling's state into ``self`` (tables add, registers add, counts
    add, candidate pools union).  Raises ``ValueError`` unless the two
    sketches share a :meth:`~MergeableSketch.compat_digest` — configuration,
    randomness lineage, and (for the raw sketches) the hash-function
    fingerprints themselves.  The digest is computed once per sketch and
    inherited by its siblings: configuration, lineage and families never
    change after construction.

``to_state()`` / ``from_state(state)``
    Round-trip serialization of the *mutable* state (never the hash
    functions — those are reproducible from the lineage).  The state dict is
    JSON-serializable, so shard workers in other processes or on other
    machines can ship states back to a coordinator holding a sibling.
    ``sketch.from_state(sketch.to_state())`` reconstructs an equal sketch:
    it spawns one sibling and loads the state into it in place, checking
    format, version, codec, class and compat digest before decoding
    anything; composites load each nested state into their own children
    through the same checks (:meth:`~MergeableSketch._load_state`).

The invariance contract (enforced by ``tests/test_mergeable.py``): for any
stream split into k shard substreams, ingesting each shard into a sibling
and merging yields state and estimates *identical* to single-sketch
ingestion — bit for bit, for every implementer.  This is what makes the
sharded ingestion engine in :mod:`repro.streams.sharding` exact rather than
approximate.
"""

from __future__ import annotations

import hashlib
import json
from abc import ABC, abstractmethod
from typing import Any, Dict, Sequence, Tuple

import numpy as np

from repro.sketch.codec import (  # noqa: F401  (re-exported protocol helpers)
    STATE_CODEC,
    decode_array,
    decode_int_list,
    decode_int_map,
    encode_array,
    encode_int_list,
    encode_int_map,
)
from repro.util.rng import RandomSource

STATE_FORMAT = "repro-sketch-state"
STATE_VERSION = 1


def dumps_state(state: dict) -> str:
    """Serialize a ``to_state()`` dict to a JSON string (the wire format for
    cross-process / cross-machine shard shipping)."""
    return json.dumps(state, separators=(",", ":"))


def loads_state(text: str) -> dict:
    return json.loads(text)


def _config_token(value: Any) -> Any:
    """Reduce a config value to a hashable, representation-stable token for
    the compat digest.  Callables (g functions, witnesses, level factories)
    are reduced to their names: two sketches configured with *different
    functions of the same name* will digest equal, which is the documented
    limit of the compatibility check.  Anything the tokenizer does not
    recognize raises — silent stringification (the old ``default=str``)
    could collapse *different* configurations onto one digest and let a
    non-sibling merge slip through the compatibility gate."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.integer, np.floating)):
        # np.int64 is not an int subclass; preserve the *value*, not the
        # type name, or two different widths would digest equal.
        return value.item()
    if isinstance(value, (bytes, bytearray)):
        return f"bytes:{bytes(value).hex()}"
    if isinstance(value, (list, tuple)):
        return [_config_token(v) for v in value]
    name = getattr(value, "name", None)
    if isinstance(name, str):
        return f"{type(value).__name__}:{name}"
    if callable(value):
        return f"callable:{getattr(value, '__qualname__', repr(value))}"
    raise TypeError(
        f"cannot digest config value of type {type(value).__name__!r}; "
        "compat material must reduce to JSON scalars, named objects, or "
        "callables"
    )


def _digest_reject(value: Any) -> Any:
    """``json.dumps`` default hook for the compat digest: refuse anything
    the tokenizer let through rather than stringify it silently."""
    raise TypeError(
        f"compat digest material is not JSON-serializable: "
        f"{type(value).__name__!r} ({value!r})"
    )


class MergeableSketch(ABC):
    """Base class for every mergeable streaming structure.

    Subclasses call :meth:`_register_mergeable` at the end of ``__init__``
    with the resolved :class:`RandomSource` (or ``None`` for deterministic
    structures) and the constructor configuration, then implement
    :meth:`merge`, :meth:`_state_payload`, :meth:`_load_state_payload`, and
    :meth:`_fresh_state` (what :meth:`spawn_sibling` needs to give a
    shallow copy its own empty mutable state).
    """

    _merge_config: Dict[str, Any]
    _merge_lineage: Tuple[int, str] | None
    _compat_digest: str | None

    # ------------------------------------------------------------- registry

    def _register_mergeable(
        self, source: RandomSource | None, **config: Any
    ) -> None:
        self._merge_config = dict(config)
        self._merge_lineage = None if source is None else source.lineage
        self._compat_digest = None

    # ----------------------------------------------------------- protocol

    def spawn_sibling(self) -> "MergeableSketch":
        """A fresh, empty, merge-compatible sketch: a shallow copy sharing
        this sketch's hash families, configuration and compat digest, given
        its own empty mutable state by :meth:`_fresh_state`."""
        self.compat_digest()  # cached here, so every sibling inherits it
        sibling = object.__new__(type(self))
        sibling.__dict__.update(self.__dict__)
        sibling._fresh_state()
        return sibling

    def _fresh_state(self) -> None:
        """Replace every mutable member of this shallow copy (each still
        aliases the source's) with a fresh empty one: tables, registers,
        pools, memos, counters and cached ingest plans; composites spawn
        their children.  Immutable members — hash families, ``g``, the
        configuration — stay shared."""
        raise NotImplementedError(
            f"{type(self).__name__} does not define _fresh_state, so it "
            "cannot spawn siblings"
        )

    @abstractmethod
    def merge(self, other: "MergeableSketch") -> "MergeableSketch":
        """Fold a sibling's state into ``self`` and return ``self``."""

    # ---------------------------------------------------------- point queries

    def estimate_batch(self, items: "np.ndarray | Sequence[int]") -> np.ndarray:
        """Vectorized point queries: ``out[i] == float(self.estimate(items[i]))``
        bit for bit, as a float64 array.

        This default falls back to the scalar ``estimate(item)`` loop;
        sketches with a vectorizable table layout (CountSketch, Count-Min,
        the exact counter, and the heavy-hitter wrappers around them)
        override it with a single gather/reduce kernel.  Structures whose
        ``estimate`` is nullary (whole-stream functionals such as AMS F2)
        do not support point queries and raise ``TypeError``.
        """
        arr = np.asarray(items, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("estimate_batch expects a 1-D array of items")
        estimate = getattr(self, "estimate", None)
        if estimate is None:
            raise TypeError(
                f"{type(self).__name__} does not support point queries"
            )
        return np.fromiter(
            (float(estimate(item)) for item in arr.tolist()),
            dtype=np.float64,
            count=arr.shape[0],
        )

    @abstractmethod
    def _state_payload(self) -> dict:
        """The mutable state as a JSON-serializable dict."""

    @abstractmethod
    def _load_state_payload(self, payload: dict) -> None:
        """Replace this sketch's mutable state with a decoded payload."""

    # ------------------------------------------------------- compatibility

    def _extra_compat(self) -> tuple:
        """Subclass hook: extra compatibility evidence (e.g. hash-function
        fingerprints) folded into the digest."""
        return ()

    def compat_digest(self) -> str:
        """Digest of everything that must match for two sketches to merge:
        class, configuration, randomness lineage, and any extra evidence.
        Computed on first use and cached: none of it changes after
        construction, and siblings inherit the cached value."""
        if self._compat_digest is None:
            material = {
                "class": type(self).__name__,
                "config": {
                    k: _config_token(v) for k, v in sorted(self._merge_config.items())
                },
                "lineage": list(self._merge_lineage) if self._merge_lineage else None,
                "extra": _config_token(list(self._extra_compat())),
            }
            blob = json.dumps(material, sort_keys=True, default=_digest_reject).encode()
            self._compat_digest = hashlib.sha256(blob).hexdigest()[:16]
        return self._compat_digest

    def require_sibling(self, other: "MergeableSketch") -> None:
        """Raise ``ValueError`` unless ``other`` is merge-compatible."""
        if type(other) is not type(self):
            raise ValueError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}"
            )
        if self.compat_digest() != other.compat_digest():
            raise ValueError(
                f"cannot merge {type(self).__name__} sketches with different "
                "configuration or randomness lineage (they are not siblings)"
            )

    # -------------------------------------------------------- serialization

    def to_state(self) -> dict:
        """Serializable snapshot of the mutable state under the
        ``sparse-binary`` codec (:mod:`repro.sketch.codec`), tagged with
        the codec and the compatibility digest so a mismatched load fails
        loudly."""
        return {
            "format": STATE_FORMAT,
            "version": STATE_VERSION,
            "sketch": type(self).__name__,
            "compat": self.compat_digest(),
            "codec": STATE_CODEC,
            "payload": self._state_payload(),
        }

    def from_state(self, state: dict) -> "MergeableSketch":
        """A new sibling loaded with ``state`` (produced by a sibling's
        :meth:`to_state`); ``self`` is left untouched.  A state tagged
        with any codec but ``sparse-binary`` — ``dense-json``, or no tag
        at all (written before the codec layer) — raises ``ValueError``
        before anything is decoded.  Spawns one sibling and loads the
        state into it in place."""
        sibling = self.spawn_sibling()
        sibling._load_state(state)
        return sibling

    def _load_state(self, state: dict) -> None:
        """Replace this sketch's mutable state with ``state`` in place,
        after checking format, version, codec, class and compat digest.
        Composites load their nested states through this, into their own
        children, so a decode spawns once at the top instead of once per
        level."""
        if state.get("format") != STATE_FORMAT:
            raise ValueError("not a repro sketch state")
        if state.get("version") != STATE_VERSION:
            raise ValueError(f"unsupported state version {state.get('version')!r}")
        if state.get("codec") != STATE_CODEC:
            raise ValueError(f"unknown state codec {state.get('codec')!r}")
        if state.get("sketch") != type(self).__name__:
            raise ValueError(
                f"state is for {state.get('sketch')!r}, not {type(self).__name__}"
            )
        if state.get("compat") != self.compat_digest():
            raise ValueError(
                "state belongs to a sketch with different configuration or "
                "randomness lineage"
            )
        self._load_state_payload(state["payload"])
        self._invalidate_ingest_plans()

    def _invalidate_ingest_plans(self) -> None:
        """Drop any cached fused-ingestion plan (see
        :mod:`repro.core.ingest_plan`).  Plans hold direct views into a
        structure's internal tables, so every protocol operation that
        replaces or rebinds state — ``from_state`` payload loads, merges,
        state round-trips, sibling spawns — must call this before the next
        ingest chunk.  The base sketch caches no plan, so this is a no-op
        hook; estimator layers that fuse their fan-out override it."""
