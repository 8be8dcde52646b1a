"""The distributed wire protocol: message envelopes and socket framing.

Everything that crosses a machine boundary is one JSON document — the same
wire format the mergeable-sketch protocol already speaks
(:meth:`~repro.sketch.base.MergeableSketch.to_state`), wrapped in a small
envelope that names the sender, the message kind and the round:

.. code-block:: json

    {"format": "repro-dist", "version": 1, "type": "delta",
     "worker": 2, "round": 1, "seq": 0, "state": { ...to_state() dict... }}

Message types (all of the round protocol; a 1-pass job is one round):

``error``
    A worker announcing failure (``detail`` carries the reason) so the
    coordinator can stop waiting instead of timing out.  Workers tag it
    with the ``round`` they failed in.
``delta``
    One incremental state frame: the ``to_state()`` of a fresh sibling
    that ingested only the updates since the previous frame.  Tagged with
    ``round`` and a per-worker ``seq`` number; because sketch states are
    linear, merging the delta frames in any order reproduces the batch
    merge bit for bit.  The state's embedded compatibility digest is what
    lets the coordinator reject a worker built with the wrong
    configuration or seed *before* merging anything.
``round_end``
    A worker declaring its round finished: ``frames`` says how many delta
    frames it shipped, so the coordinator can detect a lost frame instead
    of silently merging a partial partition.
``round_begin``
    Coordinator broadcast opening a round (sender ``worker`` is
    :data:`COORDINATOR_ID`).  For pass 2 of the two-pass protocol it
    carries the coordinator's ``compat`` digest (workers refuse a
    broadcast from a non-sibling) and the merged first-pass ``candidates``
    export that seeds every worker's second pass.

``delta_skipped``
    A lightweight heartbeat taking the place of a delta frame whose
    payload would have been an *empty* sketch (a streaming period that
    left the state untouched, or an empty partition).  It occupies the
    frame's ``seq`` slot so :class:`~repro.distributed.transport.RoundTracker`
    accounting stays exact, but ships no state and merges nothing —
    merging an empty sibling is the identity anyway.

Transports move these envelopes without looking inside: the file transport
writes one frame per file, the socket transport sends **length-prefixed
frames** — a 4-byte big-endian payload length followed by the frame bytes.
The prefix makes message recovery trivial on a stream socket (read 4
bytes, read exactly that many more) and caps frames at 2^32-1 bytes, far
above any realistic sketch state.

A frame's bytes come in two shapes, distinguished by the leading byte:

* **JSON frames** — the UTF-8 JSON document itself (always starts with
  ``{``).  Envelopes without state, and states travelling through
  JSON-only channels, ride this way (nested buffers base64-embedded).
* **Binary frames** — :data:`BINARY_MAGIC` (an invalid UTF-8 start byte,
  so the two shapes can never be confused), a 4-byte big-endian header
  length, a JSON header, then the raw little-endian array buffers
  concatenated.  :func:`dumps_frame` lifts every ``binary`` array spec
  nested in a state out of the envelope into the buffer section
  (replacing its ``"b64"`` field with a ``"buffer"`` index), so the bytes
  ship unencoded — no base64 expansion on the hot merge path.

Version-skew notes: the wire version stays 1.  Every state ships under
the one codec, ``sparse-binary``, and ``from_state`` raises "unknown
state codec" for any other tag (``dense-json``, a deleted codec, or no
tag at all) before decoding or merging anything, so a skewed peer fails
its round loudly and never causes a wrong merge.  An older worker
launched without ``--codec`` ships ``dense-json`` in round 1, so a
current coordinator fails that round; in mixed-version fleets, upgrade
the workers first.  A current worker ships ``sparse-binary``, which every
coordinator since that codec was added decodes, and it ignores the
``codec`` field an older coordinator adds to its ``round_begin``.  The
``delta_skipped`` type and the binary frame shape came with the codec
layer, before ``sparse-binary``, so such a coordinator accepts them too;
one older still rejects them (unknown message type / undecodable frame)
rather than merging wrongly.  Peers that predate the single round
protocol shipped a 1-pass job as one untagged ``state`` envelope (a
``msg-<worker>.json`` drop-box file, or one frame per socket
connection).  A current coordinator never merges one: it
never reads ``msg-*.json`` files, and ``state`` is no longer a message
type, so the frame fails validation.  Either way the round ends in a
``TransportTimeout`` naming that worker.  Round frames are unchanged, so
old and new 2-pass or streaming-delta fleets still interoperate.
"""

from __future__ import annotations

import json
import socket
import struct

from repro.sketch.codec import binary_payload_bytes

WIRE_FORMAT = "repro-dist"
WIRE_VERSION = 1

#: struct layout of the socket frame length prefix: 4-byte big-endian.
LENGTH_PREFIX = struct.Struct(">I")

#: First bytes of a binary wire frame.  0xAB is a UTF-8 continuation
#: byte, so no JSON document can begin with it.
BINARY_MAGIC = b"\xabRB1"

MESSAGE_TYPES = (
    "error", "delta", "delta_skipped", "round_end", "round_begin",
)

#: The ``worker`` id coordinator-originated broadcasts carry.
COORDINATOR_ID = -1

#: Round numbering of the two-pass protocol (round 1 collects first-pass
#: states, round 2 collects the candidate-restricted second-pass states).
ROUND_FIRST_PASS = 1
ROUND_SECOND_PASS = 2


# --------------------------------------------------------------- envelopes

def error_message(worker: int, detail: str, round_id: int | None = None) -> dict:
    """Envelope announcing a worker failure (optionally round-tagged)."""
    message = {
        "format": WIRE_FORMAT,
        "version": WIRE_VERSION,
        "type": "error",
        "worker": int(worker),
        "detail": str(detail),
    }
    if round_id is not None:
        message["round"] = int(round_id)
    return message


def delta_message(worker: int, round_id: int, seq: int, state: dict) -> dict:
    """Envelope for one incremental state frame of a round."""
    return {
        "format": WIRE_FORMAT,
        "version": WIRE_VERSION,
        "type": "delta",
        "worker": int(worker),
        "round": int(round_id),
        "seq": int(seq),
        "state": state,
    }


def delta_skipped_message(worker: int, round_id: int, seq: int) -> dict:
    """Envelope for a skipped (empty) delta frame: holds the ``seq`` slot
    for round accounting, ships no state."""
    return {
        "format": WIRE_FORMAT,
        "version": WIRE_VERSION,
        "type": "delta_skipped",
        "worker": int(worker),
        "round": int(round_id),
        "seq": int(seq),
    }


def round_end_message(worker: int, round_id: int, frames: int) -> dict:
    """Envelope closing a worker's round (``frames`` delta frames sent)."""
    return {
        "format": WIRE_FORMAT,
        "version": WIRE_VERSION,
        "type": "round_end",
        "worker": int(worker),
        "round": int(round_id),
        "frames": int(frames),
    }


def round_begin_message(round_id: int, compat: str, candidates=None) -> dict:
    """Coordinator broadcast opening a round; for the second pass it
    carries the merged candidate export and the coordinator's compat
    digest (the worker-side sibling check)."""
    return {
        "format": WIRE_FORMAT,
        "version": WIRE_VERSION,
        "type": "round_begin",
        "worker": COORDINATOR_ID,
        "round": int(round_id),
        "compat": str(compat),
        "candidates": candidates,
    }


def validate_message(message: dict) -> dict:
    """Check the envelope and return it; raise ``ValueError`` on anything
    that is not a well-formed repro-dist message."""
    if not isinstance(message, dict):
        raise ValueError(f"wire message must be a JSON object, got {type(message)}")
    if message.get("format") != WIRE_FORMAT:
        raise ValueError("not a repro-dist message")
    if message.get("version") != WIRE_VERSION:
        raise ValueError(f"unsupported wire version {message.get('version')!r}")
    kind = message.get("type")
    if kind not in MESSAGE_TYPES:
        raise ValueError(f"unknown message type {kind!r}")
    if not isinstance(message.get("worker"), int):
        raise ValueError("wire message lacks an integer worker id")
    if kind == "delta" and not isinstance(message.get("state"), dict):
        raise ValueError("delta message lacks a state dict")
    if kind in ("delta", "delta_skipped", "round_end", "round_begin"):
        if not isinstance(message.get("round"), int) or message["round"] < 1:
            raise ValueError(f"{kind} message lacks a positive round id")
    if kind in ("delta", "delta_skipped") and (
        not isinstance(message.get("seq"), int) or message["seq"] < 0
    ):
        raise ValueError(f"{kind} message lacks a non-negative seq number")
    if kind == "round_end" and (
        not isinstance(message.get("frames"), int) or message["frames"] < 0
    ):
        raise ValueError("round_end message lacks a non-negative frame count")
    if kind == "round_begin":
        if not isinstance(message.get("compat"), str):
            raise ValueError("round_begin message lacks a compat digest")
        if "candidates" not in message:
            raise ValueError("round_begin message lacks a candidates field")
    return message


def dumps_message(message: dict) -> bytes:
    """Envelope -> canonical UTF-8 JSON bytes (no whitespace).  Nested
    binary buffers stay base64-embedded; use :func:`dumps_frame` for the
    raw-buffer wire form."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8")


def loads_message(data: bytes) -> dict:
    return validate_message(json.loads(data.decode("utf-8")))


# ----------------------------------------------------------- binary frames

def _is_binary_spec(value) -> bool:
    return (
        isinstance(value, dict)
        and value.get("codec") == "binary"
        and ("b64" in value or "raw" in value)
    )


def _lift_buffers(value, buffers: list):
    """Deep-copy ``value`` with every binary array spec's payload moved
    into ``buffers``; the spec keeps a ``"buffer"`` index and byte count
    in its place.  Non-buffer values are shared, not copied."""
    if _is_binary_spec(value):
        raw = binary_payload_bytes(value)
        spec = {k: v for k, v in value.items() if k not in ("b64", "raw")}
        spec["buffer"] = len(buffers)
        spec["nbytes"] = len(raw)
        buffers.append(raw)
        return spec
    if isinstance(value, dict):
        return {k: _lift_buffers(v, buffers) for k, v in value.items()}
    if isinstance(value, list):
        return [_lift_buffers(v, buffers) for v in value]
    return value


def _attach_buffers(value, buffers: list):
    """Inverse of :func:`_lift_buffers`: reattach each referenced buffer
    as a ``"raw"`` bytes field (the form ``decode_array`` consumes
    directly, skipping base64 entirely)."""
    if isinstance(value, dict):
        if value.get("codec") == "binary" and "buffer" in value:
            spec = {
                k: v for k, v in value.items() if k not in ("buffer", "nbytes")
            }
            spec["raw"] = buffers[value["buffer"]]
            return spec
        return {k: _attach_buffers(v, buffers) for k, v in value.items()}
    if isinstance(value, list):
        return [_attach_buffers(v, buffers) for v in value]
    return value


def dumps_frame(message: dict) -> bytes:
    """Envelope -> wire frame bytes.  Messages without binary array
    specs serialize as plain JSON; messages carrying them become a
    binary frame — magic, header length, JSON header, raw buffers — so
    array bytes ship without base64 expansion."""
    buffers: list = []
    header = _lift_buffers(message, buffers)
    if not buffers:
        return dumps_message(message)
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return b"".join(
        [BINARY_MAGIC, LENGTH_PREFIX.pack(len(head)), head, *buffers]
    )


def loads_frame(data: bytes) -> dict:
    """Wire frame bytes -> validated envelope (either shape).  A malformed
    frame of either shape raises ``ValueError``."""
    if not data.startswith(BINARY_MAGIC):
        return loads_message(data)
    offset = len(BINARY_MAGIC) + LENGTH_PREFIX.size
    if len(data) < offset:
        raise ValueError(
            f"truncated binary frame: {len(data)} bytes, shorter than its "
            f"{offset}-byte preamble"
        )
    (head_len,) = LENGTH_PREFIX.unpack_from(data, len(BINARY_MAGIC))
    header = json.loads(data[offset : offset + head_len].decode("utf-8"))
    cursor = offset + head_len
    buffers = []
    for nbytes in _buffer_sizes(header):
        buffers.append(data[cursor : cursor + nbytes])
        cursor += nbytes
    if cursor > len(data):
        raise ValueError(
            f"truncated binary frame: {len(data)} of {cursor} bytes"
        )
    if cursor < len(data):
        raise ValueError(
            f"binary frame length mismatch: {len(data) - cursor} trailing bytes"
        )
    return validate_message(_attach_buffers(header, buffers))


def _buffer_sizes(value, sizes: dict | None = None) -> list:
    """Byte counts of the buffer section, in buffer-index order.  Raises
    ``ValueError`` unless every buffer spec carries a distinct
    non-negative integer index and byte count, and the indices run
    0..k-1 without a gap."""
    if sizes is None:
        sizes = {}
        _buffer_sizes(value, sizes)
        if max(sizes, default=-1) != len(sizes) - 1:
            raise ValueError(
                f"binary frame buffer indices {sorted(sizes)} skip a number"
            )
        return [sizes[i] for i in range(len(sizes))]
    if isinstance(value, dict):
        if value.get("codec") == "binary" and "buffer" in value:
            index, nbytes = value["buffer"], value.get("nbytes")
            if not (_is_count(index) and _is_count(nbytes)) or index in sizes:
                raise ValueError(
                    f"binary frame has a bad buffer spec (buffer {index!r}, "
                    f"nbytes {nbytes!r})"
                )
            sizes[index] = nbytes
        else:
            for v in value.values():
                _buffer_sizes(v, sizes)
    elif isinstance(value, list):
        for v in value:
            _buffer_sizes(v, sizes)
    return []


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


# ----------------------------------------------------------- socket frames

def send_frame(sock: socket.socket, message: dict) -> None:
    """Write one length-prefixed frame (JSON or binary) to a connected
    stream socket."""
    payload = dumps_frame(message)
    sock.sendall(LENGTH_PREFIX.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError(
                f"peer closed mid-frame ({count - remaining}/{count} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict:
    """Read one length-prefixed frame (either shape) from a connected
    stream socket."""
    header = _recv_exact(sock, LENGTH_PREFIX.size)
    (length,) = LENGTH_PREFIX.unpack(header)
    return loads_frame(_recv_exact(sock, length))
