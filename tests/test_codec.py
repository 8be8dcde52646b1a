"""Codec payload validation: the one state codec and the tags it dropped.

The sparse decoders scatter shipped values into freshly zeroed tables, so
a corrupt index buffer would otherwise wrap (negative indices), overwrite
(duplicates) or drop (unmatched keys) cells without a sound.  Every such
payload must raise ``ValueError`` — the one error class the distributed
round and the snapshot store already handle — before anything merges.
So must a state whose table ``shape`` or list ``length`` declares more
cells than its receiver holds, before the decoder allocates them: each
case runs under ``tracemalloc`` with a 1 MiB peak budget.  States tagged
with a deleted codec, or with none, fail the same way, at the tag check.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dist import DistDetector
from repro.core.gnp import GnpHeavyHitterSketch
from repro.distributed.coordinator import RoundCoordinator
from repro.sketch.ams import AmsF2Sketch
from repro.sketch.codec import (
    STATE_CODEC,
    _binary_spec,
    binary_payload_bytes,
    decode_array,
    decode_int_list,
    decode_int_map,
)
from repro.sketch.countmin import CountMinSketch
from repro.sketch.countsketch import CountSketch
from repro.streams.generators import zipf_stream


def _sparse(indices, values=(5, 7), dtype="int64", index_dtype=np.int64):
    """A sparse-binary spec over a 2x3 table; ``indices=(1, 5)`` with the
    default values decodes to ``[[0, 5, 0], [0, 0, 7]]``."""
    return {
        "codec": "sparse-binary",
        "dtype": dtype,
        "shape": [2, 3],
        "indices": _binary_spec(np.asarray(indices, dtype=index_dtype)),
        "values": _binary_spec(np.asarray(values, dtype=np.int64)),
    }


def _map(keys, values):
    return {
        "codec": "binary-map",
        "keys": _binary_spec(np.asarray(keys)),
        "values": _binary_spec(np.asarray(values, dtype=np.int64)),
    }


def _list(indices, values, length=4):
    return {
        "codec": "sparse-binary-list",
        "length": length,
        "indices": _binary_spec(np.asarray(indices, dtype=np.int64)),
        "values": _binary_spec(np.asarray(values, dtype=np.int64)),
    }


#: case -> (decoder, corrupt payload, the ``ValueError`` message it gets)
CORRUPT = {
    "negative-index": (decode_array, _sparse([-1, 5]), "lie in"),
    "duplicate-index": (decode_array, _sparse([5, 5]), "strictly increasing"),
    "unsorted-index": (decode_array, _sparse([5, 1]), "strictly increasing"),
    "index-at-size": (decode_array, _sparse([1, 6]), "lie in"),
    "float-index": (
        decode_array, _sparse([1, 5], index_dtype=np.float64), "integer"
    ),
    "2-d-index": (decode_array, _sparse([[1, 5]]), "1-D"),
    "short-values": (decode_array, _sparse([1, 5], values=[5]), "values for"),
    "object-dtype": (decode_array, _sparse([1, 5], dtype="O"), "not numeric"),
    "unknown-dtype": (
        decode_array, _sparse([1, 5], dtype="nonsense"), "unknown array dtype"
    ),
    "map-unmatched-key": (decode_int_map, _map([3, 9], [4]), "values for"),
    "map-duplicate-key": (
        decode_int_map, _map([3, 3], [4, 5]), "strictly increasing"
    ),
    "map-float-key": (decode_int_map, _map([3.0, 9.0], [4, 5]), "integer"),
    "list-negative-index": (decode_int_list, _list([-1], [9]), "lie in"),
}


def test_valid_sparse_payloads_decode():
    assert decode_array(_sparse([1, 5])).tolist() == [[0, 5, 0], [0, 0, 7]]
    assert decode_int_map(_map([3, 9], [4, 5])) == {3: 4, 9: 5}
    assert decode_int_list(_list([1, 3], [2, -6])) == [0, 2, 0, -6]


#: receiver -> (build, path in its payload to a sized field); every other
#: receiver of a mergeable state decodes maps, whose size the bytes bound.
RECEIVERS = {
    "countsketch": (lambda: CountSketch(3, 64, track=8, seed=1), ("table",)),
    "countmin": (lambda: CountMinSketch(3, 64, seed=1), ("table",)),
    "ams": (lambda: AmsF2Sketch(3, 8, seed=1), ("registers",)),
    "dist": (
        lambda: DistDetector([5, 101], 1, 256, pieces=24, seed=9), ("counters",)
    ),
    "gnp": (
        lambda: GnpHeavyHitterSketch(256, 0.5, substreams=8, seed=7),
        ("substreams", 0, "trial_counters"),
    ),
}

#: case -> (receiver, declared cell count): 2^40 cells cannot be allocated
#: at all, 10^7 would be (80 MB, or a 10^7-element list) before a late check.
OVERSIZED = {
    f"{name}-{label}": (name, cells)
    for name in RECEIVERS
    for label, cells in (("2**40-cells", 1 << 40), ("10**7-cells", 10**7))
}


def _case(case):
    """``(call, message, receiver)``: a zero-argument call that must raise
    ``ValueError`` matching ``message``, and the receiver it must leave
    untouched (``None`` for a bare decoder call)."""
    if case in CORRUPT:
        decode, payload, match = CORRUPT[case]
        return (lambda: decode(payload)), match, None
    name, cells = OVERSIZED[case]
    build, path = RECEIVERS[name]
    receiver = build()
    state = receiver.to_state()
    spec = state["payload"]
    for key in path:
        spec = spec[key]
    if "length" in spec:
        spec["length"] = cells
    else:
        spec["shape"] = [1] * (len(spec["shape"]) - 1) + [cells]
    return (lambda: receiver.from_state(state)), "receiver has", receiver


@pytest.mark.parametrize("case", sorted(CORRUPT) + sorted(OVERSIZED))
def test_corrupt_payload_raises_value_error(case):
    call, match, receiver = _case(case)
    before = None if receiver is None else receiver.to_state()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"decoder peaked at {peak:,} bytes"
    if receiver is not None:
        assert receiver.to_state() == before


def _filled_countsketch() -> CountSketch:
    sketch = CountSketch(3, 64, track=8, seed=1)
    items, deltas = zipf_stream(n=256, total_mass=3_000, skew=1.2, seed=5).as_arrays()
    sketch.update_batch(items, deltas)
    return sketch


class TestDroppedCodecs:
    @pytest.mark.parametrize("codec", ("sparse", "binary", "dense-json"))
    def test_encoding_under_a_dropped_codec_is_refused(self, codec):
        """No argument picks a codec: every state is ``sparse-binary``."""
        sketch = _filled_countsketch()
        with pytest.raises(TypeError, match="codec"):
            sketch.to_state(codec=codec)
        assert sketch.to_state()["codec"] == STATE_CODEC == "sparse-binary"

    @pytest.mark.parametrize(
        "codec", ("sparse", "binary", "dense-json", None),
        ids=("sparse", "binary", "dense-json", "untagged"),
    )
    def test_dropped_codec_state_fails_before_decoding(self, codec, peer_state):
        """Version skew: a peer still running a deleted codec, or one that
        writes no tag at all, ships a state the tag check rejects before
        any payload is read — also when loaded in place."""
        sketch = _filled_countsketch()
        before = sketch.to_state()
        state = peer_state(sketch, codec)
        with pytest.raises(ValueError, match="unknown state codec"):
            sketch.from_state(state)
        with pytest.raises(ValueError, match="unknown state codec"):
            sketch._load_state(state)
        assert sketch.to_state() == before


def test_corrupt_delta_frame_leaves_coordinator_untouched():
    structure = _filled_countsketch()
    before = structure.to_state()
    state = _filled_countsketch().to_state()
    state["payload"]["table"]["indices"] = _binary_spec(np.asarray([-1, 5]))
    coordinator = RoundCoordinator(structure, channel=None, workers=1)
    with pytest.raises(ValueError, match="lie in"):
        coordinator._merge_frame({"state": state})
    assert structure.to_state() == before


#: The nested buffers a CountSketch sparse-binary state carries.
BUFFERS = (("table", "indices"), ("table", "values"),
           ("candidates", "keys"), ("candidates", "values"))

mutation = st.tuples(
    st.sampled_from(BUFFERS),
    st.sampled_from(("truncate", "overwrite", "append")),
    st.integers(0, 1 << 12),
    st.binary(min_size=1, max_size=16),
)


def _mutated_state(sketch: CountSketch, mutations) -> dict:
    state = sketch.to_state()
    for (field, part), kind, offset, data in mutations:
        spec = state["payload"][field][part]
        raw = bytearray(binary_payload_bytes(spec))
        at = offset % (len(raw) + 1)
        if kind == "truncate":
            del raw[at:]
        elif kind == "overwrite":
            raw[at:at + len(data)] = data
        else:
            raw += data
        spec.pop("b64", None)
        spec["raw"] = bytes(raw)
    return state


def _check_only_value_error(sketch: CountSketch, mutations) -> None:
    state = _mutated_state(sketch, mutations)
    try:
        sketch.from_state(state)
    except ValueError:
        pass


FUZZ_SKETCH = _filled_countsketch()
fuzz_plans = st.lists(mutation, min_size=1, max_size=3)


@given(fuzz_plans)
@settings(max_examples=60, deadline=None)
def test_fuzzed_buffers_raise_only_value_error(mutations):
    _check_only_value_error(FUZZ_SKETCH, mutations)


@pytest.mark.slow
@given(fuzz_plans)
@settings(max_examples=3_000, deadline=None)
def test_fuzzed_buffers_raise_only_value_error_at_scale(mutations):
    _check_only_value_error(FUZZ_SKETCH, mutations)
