"""Stream serialization.

Experiments that feed the same stream to many estimators (or want
byte-for-byte reproducible workloads across machines) can persist streams
as JSON-lines: a header record with the model parameters followed by one
record per update.  The format is deliberately boring — greppable,
diffable, and stable across versions.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Iterator

import numpy as np

from repro.streams.model import StreamUpdate, TurnstileStream

FORMAT_VERSION = 1


def save_stream(stream: TurnstileStream, path: str | pathlib.Path) -> None:
    """Write a stream as JSONL: header line + one ``[item, delta]`` line
    per update, preserving arrival order."""
    path = pathlib.Path(path)
    with path.open("w") as handle:
        header = {
            "format": "repro-stream",
            "version": FORMAT_VERSION,
            "domain_size": stream.domain_size,
            "magnitude_bound": stream.magnitude_bound,
            "length": len(stream),
        }
        handle.write(json.dumps(header) + "\n")
        for update in stream:
            handle.write(f"[{update.item},{update.delta}]\n")


#: Items and deltas are ingested as int64 arrays.
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1

#: One update line: a JSON array of exactly two JSON integers, and nothing
#: else but whitespace (one regex match per line is ~2x faster than
#: ``json.loads`` and rejects ``1.5``, ``true`` and ``"3"`` by syntax).
_RECORD = re.compile(rb"\s*\[\s*(-?(?:0|[1-9]\d*))\s*,\s*(-?(?:0|[1-9]\d*))\s*\]\s*")


def _check_domain_size(where: str, value) -> int:
    # ``type(...) is int`` rejects JSON ``true``/``false`` (Python bools).
    if type(value) is not int or not 1 <= value <= 1 << 63:
        raise ValueError(
            f"{where}: domain_size must be a positive integer no larger than "
            f"2^63, got {value!r}"
        )
    return value


def _check_update(item: int, delta: int, domain_size: int) -> tuple[int, int]:
    """The record check of every loader: an item in ``[0, domain_size)``
    and a nonzero int64 delta."""
    if not 0 <= item < domain_size:
        raise ValueError(f"item {item} outside domain [0, {domain_size})")
    if delta == 0:
        raise ValueError("zero-delta updates are not allowed")
    if not _INT64_MIN <= delta <= _INT64_MAX:
        raise ValueError(f"delta {delta} outside int64")
    return item, delta


def _read_header(path: pathlib.Path, handle) -> dict:
    line = handle.readline()
    if not line:
        raise ValueError(f"{path}: empty file")
    where = f"{path}:1"
    try:
        header = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{where}: header is not JSON ({exc})") from None
    if not isinstance(header, dict):
        raise ValueError(f"{where}: header is not a JSON object")
    if header.get("format") != "repro-stream":
        raise ValueError(f"{where}: not a repro stream file")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(f"{where}: unsupported version {header.get('version')!r}")
    _check_domain_size(where, header.get("domain_size"))
    for key in ("length", "magnitude_bound"):
        value = header.get(key)
        if value is not None and (type(value) is not int or value < 0):
            raise ValueError(f"{where}: {key} must be a nonnegative integer, got {value!r}")
    return header


def _read_records(
    path: pathlib.Path, handle, header: dict, chunk_size: int
) -> Iterator[tuple[list[int], list[int]]]:
    """The checked records after the header as ``(items, deltas)`` lists
    of ``chunk_size`` (the last may be shorter), with the declared-length
    check before the last partial chunk."""
    domain_size = header["domain_size"]
    match = _RECORD.fullmatch
    items: list[int] = []
    deltas: list[int] = []
    count = 0
    for lineno, line in enumerate(handle, start=2):
        record = match(line)
        if record is None:
            if line.isspace():
                continue
            raise ValueError(
                f"{path}:{lineno}: record must be a JSON array of two integers, "
                f"got {line[:80]!r}"
            )
        try:
            item, delta = _check_update(int(record[1]), int(record[2]), domain_size)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        items.append(item)
        deltas.append(delta)
        if len(items) == chunk_size:
            count += chunk_size
            yield items, deltas
            items, deltas = [], []
    count += len(items)
    declared = header.get("length")
    if declared is not None and declared != count:
        raise ValueError(f"{path}: header declares {declared} updates, found {count}")
    if items:
        yield items, deltas


def load_stream(path: str | pathlib.Path) -> TurnstileStream:
    """Read a stream written by :func:`save_stream`.

    Malformed files raise ``ValueError`` naming ``path:line`` rather than
    yielding a silently-truncated stream: a header that is not a
    ``repro-stream`` object with a positive integer ``domain_size``, a
    record that is not ``[item, delta]`` as JSON integers with the item in
    the domain and a nonzero int64 delta, or a count that differs from the
    declared length.  A prefix that breaks the header's
    ``magnitude_bound`` raises ``ValueError`` naming the path.
    """
    path = pathlib.Path(path)
    with path.open("rb") as handle:
        header = _read_header(path, handle)
        stream = TurnstileStream(
            header["domain_size"], magnitude_bound=header.get("magnitude_bound")
        )
        for items, deltas in _read_records(path, handle, header, 4096):
            try:
                stream.extend(map(StreamUpdate, items, deltas))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
    return stream


def iter_stream_array_chunks(
    path: str | pathlib.Path, chunk_size: int = 4096
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream a file written by :func:`save_stream` as columnar
    ``(items, deltas)`` int64 chunks, without materializing a
    :class:`TurnstileStream` (so arbitrarily long files ingest in
    O(chunk) memory).  Checks the header and every record exactly like
    :func:`load_stream`, but not the ``magnitude_bound`` promise.

    Streaming caveat: a bad record or a truncation is only detectable when
    it is read, so a consumer feeding chunks into a sketch will have
    ingested the earlier chunks before the ``ValueError`` fires (the
    declared-length check runs *before* the final partial chunk is
    yielded).  Treat the sketch as poisoned if this generator raises;
    :func:`load_stream` validates fully before handing anything over, at
    the cost of materializing the stream.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    path = pathlib.Path(path)
    with path.open("rb") as handle:
        header = _read_header(path, handle)
        for items, deltas in _read_records(path, handle, header, chunk_size):
            yield np.array(items, dtype=np.int64), np.array(deltas, dtype=np.int64)


def save_frequency_profile(
    stream: TurnstileStream, path: str | pathlib.Path
) -> None:
    """Write only the net frequency vector (item -> frequency JSON map) —
    a compact form for workloads where arrival order is irrelevant."""
    path = pathlib.Path(path)
    profile = {
        "format": "repro-frequencies",
        "version": FORMAT_VERSION,
        "domain_size": stream.domain_size,
        "frequencies": {
            str(item): value for item, value in stream.frequency_vector().items()
        },
    }
    path.write_text(json.dumps(profile, indent=None, separators=(",", ":")))


def load_frequency_profile(path: str | pathlib.Path) -> TurnstileStream:
    """Read a profile written by :func:`save_frequency_profile`; each
    ``item: frequency`` pair must be a decimal item key and a JSON integer
    that pass the stream files' record check."""
    path = pathlib.Path(path)
    try:
        profile = json.loads(path.read_bytes())
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from None
    if not isinstance(profile, dict) or profile.get("format") != "repro-frequencies":
        raise ValueError(f"{path}: not a repro frequency profile")
    domain_size = _check_domain_size(str(path), profile.get("domain_size"))
    frequencies = profile.get("frequencies")
    if not isinstance(frequencies, dict):
        raise ValueError(f"{path}: frequencies must be a JSON object")
    updates = []
    for key, value in frequencies.items():
        where = f"{path}: item {key!r}"
        if not (key.isascii() and key.isdigit()) or type(value) is not int:
            raise ValueError(f"{where}: not a decimal item with an integer frequency")
        try:
            updates.append(_check_update(int(key), value, domain_size))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    stream = TurnstileStream(domain_size)
    stream.extend(StreamUpdate(item, value) for item, value in sorted(updates))
    return stream
