"""The state codec: how sketch state crosses the wire.

Every sketch state is, at bottom, a handful of numpy arrays and integer
maps.  One codec, ``sparse-binary``, encodes them all: only the nonzero
cells of each array, as a flat-index buffer and a value buffer.  Both are
nested ``binary`` array specs — raw little-endian ndarray buffers,
base64-embedded (``"b64"``) inside a JSON document.  Across the socket
and file transports the wire layer (:mod:`repro.distributed.wire`) lifts
them out into a raw binary frame, so the bytes ship unencoded.  Integer
maps become a pair of int64 key/value buffers, integer counter lists an
index/value pair over their nonzero positions.  Short-period streaming
deltas touch a few dozen cells of multi-thousand-cell tables, so these
frames stay small (see ``S4_CODEC`` in
``benchmarks/bench_s4_distributed.py``).

The codec is *exact*: it ships the very bytes and reinstates explicit
zeros, which is what keeps the distributed equality gates bit for bit.
Maps and lists holding a value outside int64 (arbitrary-precision
counters) keep the plain ``[key, value]`` pair-list or list form, so
exactness never depends on a counter's magnitude.  Every encoded value is
self-describing (dispatch on its ``"codec"`` tag).  The sparse decoders
reject index and key buffers that are not strictly increasing and in
range, so a corrupt payload raises ``ValueError`` instead of silently
wrapping, overwriting or dropping cells.
"""

from __future__ import annotations

import base64
from typing import Any, Dict, Iterable, List

import numpy as np

#: The state codec every ``to_state()`` writes and every ``from_state``
#: accepts, recorded in each state's ``"codec"`` field.
STATE_CODEC = "sparse-binary"

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


# ------------------------------------------------------------------ arrays

def _le_dtype(dtype: np.dtype) -> np.dtype:
    """The little-endian flavour of ``dtype`` — the binary wire form is
    explicitly little-endian so buffers decode identically on any host."""
    if dtype.itemsize == 1 or dtype.byteorder == "|":
        return dtype
    return dtype.newbyteorder("<")


def _binary_spec(arr: np.ndarray) -> dict:
    """A ``binary``-tagged array spec for ``arr``: the raw-buffer building
    block the sparse-binary codec nests (so wire-layer buffer lifting
    finds every buffer by its tag)."""
    packed = np.ascontiguousarray(arr).astype(_le_dtype(arr.dtype), copy=False)
    return {
        "codec": "binary",
        "dtype": packed.dtype.str,
        "shape": list(arr.shape),
        "b64": base64.b64encode(packed.tobytes()).decode("ascii"),
    }


def encode_array(arr: np.ndarray) -> dict:
    """Encode a numpy array: its nonzero cells' flat indices and values,
    as raw buffers."""
    flat = np.ascontiguousarray(arr).reshape(-1)
    indices = np.flatnonzero(flat)
    return {
        "codec": STATE_CODEC,
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "indices": _binary_spec(indices.astype(np.int64, copy=False)),
        "values": _binary_spec(flat[indices]),
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


def _numeric_dtype(name) -> np.dtype:
    """The dtype a binary or sparse spec names: bool, int, uint or float
    only, so a crafted spec cannot smuggle in object arrays."""
    try:
        dtype = np.dtype(name)
    except TypeError as exc:
        raise ValueError(f"unknown array dtype {name!r}") from exc
    if dtype.kind not in "biuf":
        raise ValueError(f"array dtype {dtype.str!r} is not numeric")
    return dtype


def _index_pairs(spec: dict, index: str, size: int | None = None) -> tuple:
    """A sparse spec's decoded ``index`` buffer (flat indices or map keys)
    and its ``"values"`` buffer.  The encoders emit only 1-D integer
    indices, strictly increasing and (given ``size``) within ``[0, size)``,
    with one value each; anything else would wrap, overwrite or drop
    cells, so it raises ``ValueError``."""
    what = f"{spec.get('codec')} {index}"
    indices, values = decode_array(spec[index]), decode_array(spec["values"])
    if indices.ndim != 1 or indices.dtype.kind not in "iu":
        raise ValueError(f"{what} must be a 1-D integer array")
    if np.any(indices[1:] <= indices[:-1]):
        raise ValueError(f"{what} must be strictly increasing")
    if size is not None and indices.size and (indices[0] < 0 or indices[-1] >= size):
        raise ValueError(f"{what} must lie in [0, {size})")
    if values.shape != indices.shape:
        raise ValueError(f"{what}: {values.size} values for {indices.size} entries")
    return indices, values


def _sparse_cells(spec: dict, size: int, dtype) -> np.ndarray:
    """The ``size`` flat cells a sparse spec sets; every other is zero."""
    indices, values = _index_pairs(spec, "indices", size)
    flat = np.zeros(size, dtype=_numeric_dtype(dtype))
    flat[indices] = values.astype(flat.dtype, copy=False)
    return flat


def _require_size(declared, expected, what: str) -> None:
    """The receiver's size check, made before a decoder allocates: a spec
    declaring any ``what`` but ``expected`` (when given) is a ``ValueError``."""
    if expected is not None and declared != expected:
        raise ValueError(f"state declares {what} {declared}, receiver has {expected}")


def decode_array(spec: dict, shape: tuple | None = None) -> np.ndarray:
    """Decode a ``binary`` or ``sparse-binary`` array spec.  A state
    receiver passes its table's ``shape``; any other declared shape raises
    ``ValueError`` before anything is allocated.  Nested index and value
    buffers decode without one: the bytes received bound their size."""
    codec = spec.get("codec")
    declared = tuple(spec["shape"])
    _require_size(declared, shape, "shape")
    if codec == "binary":
        dtype = _numeric_dtype(spec["dtype"])
        arr = np.frombuffer(binary_payload_bytes(spec), dtype=dtype).reshape(declared)
        # frombuffer views are read-only; states must stay mutable (they
        # are merged into) and native-endian.
        return arr.astype(dtype.newbyteorder("="), copy=True)
    if codec == STATE_CODEC:
        return _sparse_cells(spec, int(np.prod(declared)), spec["dtype"]).reshape(declared)
    raise ValueError(f"unknown array codec {codec!r}")


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
    """A dict with integer keys: keys and values packed into int64
    buffers when they fit (a map is sparse already, so plain buffers need
    no index layer), else the canonical sorted ``[key, value]`` pair
    list."""
    keys = sorted(mapping)
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
        keys, values = _index_pairs(encoded, "keys")
        return {int(k): int(v) for k, v in zip(keys.tolist(), values.tolist())}
    return {int(k): v for k, v in encoded}


# --------------------------------------------------------------- int lists

def encode_int_list(values: "List[int] | Iterable[int]") -> "list | dict":
    """A fixed-length list of integer counters: only the nonzero
    positions, packed into index/value int64 buffers.  Values outside
    int64 (arbitrary-precision Python ints) fall back to the plain list,
    so exactness never depends on the counter magnitude."""
    out = [int(v) for v in values]
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


def decode_int_list(encoded: "list | dict", length: int | None = None) -> List[int]:
    """Decode an int list; given the receiver's ``length``, any other
    declared length raises ``ValueError`` before anything is allocated."""
    if isinstance(encoded, dict):
        if encoded.get("codec") != "sparse-binary-list":
            raise ValueError(f"unknown int-list codec {encoded.get('codec')!r}")
        declared = int(encoded["length"])
        _require_size(declared, length, "length")
        return _sparse_cells(encoded, declared, np.int64).tolist()
    _require_size(len(encoded), length, "length")
    return [int(v) for v in encoded]
