"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.sketch.base import STATE_FORMAT
from repro.sketch.codec import (
    STATE_CODEC,
    decode_array,
    decode_int_list,
    decode_int_map,
)
from repro.streams.generators import planted_heavy_hitter_stream, zipf_stream
from repro.streams.model import StreamUpdate, TurnstileStream
from repro.util.rng import RandomSource


@pytest.fixture
def rng() -> RandomSource:
    return RandomSource(20260612, "tests")


@pytest.fixture
def small_stream() -> TurnstileStream:
    """A tiny deterministic turnstile stream exercising deletions."""
    updates = [
        StreamUpdate(0, 5),
        StreamUpdate(1, 3),
        StreamUpdate(2, -2),
        StreamUpdate(1, -3),
        StreamUpdate(3, 7),
        StreamUpdate(0, -1),
        StreamUpdate(4, 1),
    ]
    return TurnstileStream(8, updates)


@pytest.fixture
def zipf_small() -> TurnstileStream:
    return zipf_stream(n=512, total_mass=20_000, skew=1.2, seed=11)


@pytest.fixture
def planted_512():
    stream, heavy = planted_heavy_hitter_stream(
        512, heavy_frequency=400, noise_frequency=3, noise_support=120, seed=13
    )
    return stream, heavy


def _dense_json(value, tag):
    """``value`` with every array, int map and int list in the
    ``dense-json`` form (nested ``tolist()`` arrays, sorted ``[key,
    value]`` pairs, plain lists) and every nested state tagged ``tag``, or
    untagged when ``tag`` is ``None``."""
    if isinstance(value, list):
        return [_dense_json(member, tag) for member in value]
    if not isinstance(value, dict):
        return value
    if value.get("format") == STATE_FORMAT:
        state = {k: _dense_json(v, tag) for k, v in value.items() if k != "codec"}
        return state if tag is None else dict(state, codec=tag)
    codec = value.get("codec")
    if codec == STATE_CODEC:
        return {"__ndarray__": decode_array(value).tolist(),
                "dtype": value["dtype"], "shape": value["shape"]}
    if codec == "binary-map":
        return [[k, v] for k, v in sorted(decode_int_map(value).items())]
    if codec == "sparse-binary-list":
        return decode_int_list(value)
    return {k: _dense_json(v, tag) for k, v in value.items()}


@pytest.fixture
def peer_state():
    """``peer_state(sketch, codec)``: the state a peer shipping ``codec``
    sends for ``sketch``.  ``sparse-binary`` is this version's
    ``to_state()``; ``dense-json`` and ``None`` (no tag, written before
    the codec layer) are the formats older peers wrote; any other name
    tags the current payload with that codec."""

    def state(sketch, codec):
        current = sketch.to_state()
        if codec == STATE_CODEC:
            return current
        if codec in ("dense-json", None):
            return _dense_json(current, codec)
        return dict(current, codec=codec)

    return state
