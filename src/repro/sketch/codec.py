"""Pluggable state codecs: how sketch state crosses the wire.

Every sketch state is, at bottom, a handful of numpy arrays and integer
maps.  ``to_state()`` historically shipped them one way — dense JSON
lists — which is exact and portable but pays for every zero cell in a
mostly-empty table.  This module makes the encoding a negotiated choice.
Four codecs:

``dense-json``
    The original format and the compatibility baseline: arrays as nested
    ``tolist()`` JSON (``{"__ndarray__": [...], "dtype", "shape"}``),
    integer maps as sorted ``[key, value]`` pairs.  Stays the default;
    states written before the codec layer existed decode as this.
``sparse``
    Ship only the nonzero cells of each array, as ``(flat_index, value)``
    pairs held in two parallel lists.  Streaming delta frames from short
    periods touch a few dozen cells of multi-thousand-cell tables, so
    sparse frames shrink dramatically (see ``S4_CODEC`` in
    ``benchmarks/bench_s4_distributed.py``).
``binary``
    Raw little-endian ndarray buffers.  Inside a JSON document they ride
    base64-embedded (``"b64"``); across the socket and file transports
    the wire layer (:mod:`repro.distributed.wire`) lifts them out into a
    raw binary frame so the bytes ship unencoded.  Integer maps become a
    pair of int64 key/value buffers.
``sparse-binary``
    The hybrid: only the nonzero cells, like ``sparse``, but the flat
    indices and values ship as raw little-endian buffers, like
    ``binary`` — two nested binary array specs instead of two JSON
    lists.  Mid-density deltas (too dense for JSON cell lists to parse
    cheaply, too sparse for dense buffers to pay off) get both wins:
    no zero cells on the wire *and* no per-cell JSON decode.  The
    nested specs are ordinary ``binary`` specs, so the wire layer's
    buffer lifting applies to them unchanged.

Decoding never needs to be told the codec: every encoded value is
self-describing (dispatch on its ``"codec"`` tag, with the untagged
``"__ndarray__"`` form meaning dense-json), so a coordinator can merge
frames from workers running different codecs.  All three codecs are
*exact* — float64 survives JSON via shortest-repr round-tripping, sparse
reinstates explicit zeros, binary and sparse-binary ship the very
bytes — which is what keeps the distributed equality gates bit-for-bit
under any codec mix.

Codec selection threads through nested ``_state_payload()`` calls via a
context variable: ``to_state(codec=...)`` activates the codec, and every
helper below (and every sub-sketch ``to_state()``) inherits it.
"""

from __future__ import annotations

import base64
import contextlib
from contextvars import ContextVar
from typing import Any, Dict, Iterable, Iterator, List

import numpy as np

#: The negotiated codec names, in compatibility order: ``dense-json`` is
#: the historical wire format and stays the default.
CODECS = ("dense-json", "sparse", "binary", "sparse-binary")
DEFAULT_CODEC = "dense-json"

_ACTIVE: ContextVar[str | None] = ContextVar("repro-state-codec", default=None)

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def resolve_codec(codec: str | None) -> str:
    """Explicit codec name, or the active one (``dense-json`` at top
    level) when ``codec`` is ``None`` — how nested ``to_state()`` calls
    inherit the outer selection."""
    if codec is None:
        return _ACTIVE.get() or DEFAULT_CODEC
    if codec not in CODECS:
        raise ValueError(f"codec must be one of {CODECS}, got {codec!r}")
    return codec


def active_codec() -> str:
    return _ACTIVE.get() or DEFAULT_CODEC


@contextlib.contextmanager
def use_codec(codec: str) -> Iterator[str]:
    """Activate ``codec`` for the dynamic extent of a ``to_state()``."""
    token = _ACTIVE.set(resolve_codec(codec))
    try:
        yield _ACTIVE.get()  # type: ignore[misc]
    finally:
        _ACTIVE.reset(token)


# ------------------------------------------------------------------ arrays

def _le_dtype(dtype: np.dtype) -> np.dtype:
    """The little-endian flavour of ``dtype`` — the binary wire form is
    explicitly little-endian so buffers decode identically on any host."""
    if dtype.itemsize == 1 or dtype.byteorder == "|":
        return dtype
    return dtype.newbyteorder("<")


def _binary_spec(arr: np.ndarray) -> dict:
    """A ``binary``-tagged array spec for ``arr`` regardless of the
    active codec — the building block the binary codec uses directly and
    the sparse-binary codec nests (so wire-layer buffer lifting treats
    hybrid payloads exactly like plain binary ones)."""
    packed = np.ascontiguousarray(arr).astype(_le_dtype(arr.dtype), copy=False)
    return {
        "codec": "binary",
        "dtype": packed.dtype.str,
        "shape": list(arr.shape),
        "b64": base64.b64encode(packed.tobytes()).decode("ascii"),
    }


def encode_array(arr: np.ndarray) -> dict:
    """Encode a numpy array under the active codec.  All four forms are
    exact: dense/sparse float64 values round-trip through JSON's
    shortest-repr serialization, binary and sparse-binary ship the raw
    buffers."""
    codec = active_codec()
    if codec == "sparse":
        flat = np.ascontiguousarray(arr).reshape(-1)
        indices = np.flatnonzero(flat)
        return {
            "codec": "sparse",
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
            "indices": indices.tolist(),
            "values": flat[indices].tolist(),
        }
    if codec == "binary":
        return _binary_spec(arr)
    if codec == "sparse-binary":
        flat = np.ascontiguousarray(arr).reshape(-1)
        indices = np.flatnonzero(flat)
        return {
            "codec": "sparse-binary",
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
            "indices": _binary_spec(indices.astype(np.int64, copy=False)),
            "values": _binary_spec(flat[indices]),
        }
    return {
        "__ndarray__": arr.tolist(),
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
    }


def binary_payload_bytes(spec: dict) -> bytes:
    """The raw buffer of a binary array spec: a real ``bytes`` ``"raw"``
    field (attached by the binary wire frame) takes precedence, else the
    base64-embedded ``"b64"`` form decodes.  The single owner of this
    convention — the wire layer's buffer lifting goes through it too."""
    raw = spec.get("raw")
    if raw is not None:
        return raw
    return base64.b64decode(spec["b64"])


def decode_array(spec: dict) -> np.ndarray:
    """Decode any codec's array spec (self-describing dispatch)."""
    codec = spec.get("codec")
    shape = tuple(spec["shape"])
    dtype = np.dtype(spec["dtype"])
    if codec == "sparse":
        flat = np.zeros(int(np.prod(shape)) if shape else 1, dtype=dtype)
        indices = np.asarray(spec["indices"], dtype=np.int64)
        if indices.size:
            flat[indices] = np.asarray(spec["values"], dtype=dtype)
        return flat.reshape(shape)
    if codec == "binary":
        arr = np.frombuffer(binary_payload_bytes(spec), dtype=dtype).reshape(shape)
        # frombuffer views are read-only; states must stay mutable (they
        # are merged into) and native-endian.
        return arr.astype(dtype.newbyteorder("="), copy=True)
    if codec == "sparse-binary":
        flat = np.zeros(int(np.prod(shape)) if shape else 1, dtype=dtype)
        indices = decode_array(spec["indices"])
        if indices.size:
            flat[indices] = decode_array(spec["values"]).astype(
                dtype, copy=False
            )
        return flat.reshape(shape)
    if codec is not None:
        raise ValueError(f"unknown array codec {codec!r}")
    arr = np.asarray(spec["__ndarray__"], dtype=dtype)
    return arr.reshape(shape)


# ---------------------------------------------------------------- int maps

def _int64_pack(values: Iterable[int]) -> np.ndarray | None:
    """Pack Python ints into an int64 array, or ``None`` when any value
    falls outside int64 (arbitrary-precision states fall back to the
    exact pair-list form)."""
    out = list(values)
    if any(not _INT64_MIN <= v <= _INT64_MAX for v in out):
        return None
    return np.asarray(out, dtype=np.int64)


def encode_int_map(mapping: Dict[int, Any]) -> "list | dict":
    """A dict with integer keys, under the active codec.  The dense and
    sparse codecs use the canonical sorted ``[key, value]`` pair list
    (maps are already sparse by construction); the binary and
    sparse-binary codecs pack keys and values into int64 buffers when
    they fit (a map is sparse already, so the hybrid gains nothing over
    plain buffers here)."""
    keys = sorted(mapping)
    if active_codec() in ("binary", "sparse-binary"):
        packed_keys = _int64_pack(keys)
        packed_values = _int64_pack(
            int(mapping[k]) for k in keys
        ) if all(isinstance(mapping[k], int) for k in keys) else None
        if packed_keys is not None and packed_values is not None:
            return {
                "codec": "binary-map",
                "keys": _binary_spec(packed_keys),
                "values": _binary_spec(packed_values),
            }
    return [[int(k), mapping[k]] for k in keys]


def decode_int_map(encoded: "Iterable | dict") -> Dict[int, Any]:
    if isinstance(encoded, dict):
        if encoded.get("codec") != "binary-map":
            raise ValueError(f"unknown int-map codec {encoded.get('codec')!r}")
        keys = decode_array(encoded["keys"])
        values = decode_array(encoded["values"])
        return {int(k): int(v) for k, v in zip(keys.tolist(), values.tolist())}
    return {int(k): v for k, v in encoded}


# --------------------------------------------------------------- int lists

def encode_int_list(values: "List[int] | Iterable[int]") -> "list | dict":
    """A fixed-length list of integer counters, under the active codec:
    dense ships the plain list, sparse ships only the nonzero positions,
    binary packs an int64 buffer, sparse-binary packs only the nonzero
    positions into index/value int64 buffers.  Values outside int64
    (arbitrary-precision Python ints) fall back to the plain list under
    every codec, so exactness never depends on the counter magnitude."""
    out = [int(v) for v in values]
    codec = active_codec()
    if codec == "sparse":
        if _int64_pack(out) is None:
            return out
        return {
            "codec": "sparse-list",
            "length": len(out),
            "indices": [i for i, v in enumerate(out) if v != 0],
            "values": [v for v in out if v != 0],
        }
    if codec == "binary":
        packed = _int64_pack(out)
        if packed is not None:
            return {"codec": "binary-list", "array": encode_array(packed)}
    if codec == "sparse-binary":
        if _int64_pack(out) is not None:
            indices = [i for i, v in enumerate(out) if v != 0]
            return {
                "codec": "sparse-binary-list",
                "length": len(out),
                "indices": _binary_spec(np.asarray(indices, dtype=np.int64)),
                "values": _binary_spec(
                    np.asarray([out[i] for i in indices], dtype=np.int64)
                ),
            }
    return out


def decode_int_list(encoded: "list | dict") -> List[int]:
    if isinstance(encoded, dict):
        codec = encoded.get("codec")
        if codec == "sparse-list":
            out = [0] * int(encoded["length"])
            for i, v in zip(encoded["indices"], encoded["values"]):
                out[int(i)] = int(v)
            return out
        if codec == "binary-list":
            return [int(v) for v in decode_array(encoded["array"]).tolist()]
        if codec == "sparse-binary-list":
            out = [0] * int(encoded["length"])
            indices = decode_array(encoded["indices"]).tolist()
            values = decode_array(encoded["values"]).tolist()
            for i, v in zip(indices, values):
                out[int(i)] = int(v)
            return out
        raise ValueError(f"unknown int-list codec {codec!r}")
    return [int(v) for v in encoded]
