"""Tests for stream serialization."""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.streams.io import (
    iter_stream_array_chunks,
    load_frequency_profile,
    load_stream,
    save_frequency_profile,
    save_stream,
)
from repro.streams.model import StreamUpdate, TurnstileStream


class TestStreamRoundtrip:
    def test_roundtrip_preserves_updates(self, small_stream, tmp_path):
        path = tmp_path / "s.jsonl"
        save_stream(small_stream, path)
        loaded = load_stream(path)
        assert list(loaded) == list(small_stream)
        assert loaded.domain_size == small_stream.domain_size

    def test_roundtrip_preserves_magnitude_bound(self, tmp_path):
        stream = TurnstileStream(8, magnitude_bound=100)
        stream.append(StreamUpdate(1, 50))
        path = tmp_path / "s.jsonl"
        save_stream(stream, path)
        assert load_stream(path).magnitude_bound == 100

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        save_stream(TurnstileStream(4), path)
        assert len(load_stream(path)) == 0

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "zero.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_stream(path)

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format": "other"}) + "\n")
        with pytest.raises(ValueError, match="not a repro stream"):
            load_stream(path)

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "v99.jsonl"
        path.write_text(
            json.dumps({"format": "repro-stream", "version": 99,
                        "domain_size": 4}) + "\n"
        )
        with pytest.raises(ValueError, match="version"):
            load_stream(path)

    def test_rejects_truncation(self, small_stream, tmp_path):
        path = tmp_path / "trunc.jsonl"
        save_stream(small_stream, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop one update
        with pytest.raises(ValueError, match="declares"):
            load_stream(path)


class TestChunkedArrayLoading:
    def test_chunks_match_full_load(self, small_stream, tmp_path):
        path = tmp_path / "s.jsonl"
        save_stream(small_stream, path)
        chunks = list(iter_stream_array_chunks(path, chunk_size=3))
        assert all(c[0].dtype == np.int64 and c[1].dtype == np.int64 for c in chunks)
        assert max(len(c[0]) for c in chunks) <= 3
        items = np.concatenate([c[0] for c in chunks]).tolist()
        deltas = np.concatenate([c[1] for c in chunks]).tolist()
        assert items == [u.item for u in small_stream]
        assert deltas == [u.delta for u in small_stream]

    def test_empty_stream_yields_no_chunks(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        save_stream(TurnstileStream(4), path)
        assert list(iter_stream_array_chunks(path)) == []

    def test_rejects_truncation(self, small_stream, tmp_path):
        path = tmp_path / "trunc.jsonl"
        save_stream(small_stream, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError, match="declares"):
            list(iter_stream_array_chunks(path, chunk_size=2))

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format": "other"}) + "\n")
        with pytest.raises(ValueError, match="not a repro stream"):
            list(iter_stream_array_chunks(path))


HEADER = {"format": "repro-stream", "version": 1, "domain_size": 8, "length": 1}

#: One malformed record line (n = 8) per case, each rejected at line 2.
BAD_RECORDS = {
    "float item": "[1.5, 2]",
    "bool delta": "[1, true]",
    "string fields": '["3", "4"]',
    "bare integer": "7",
    "one field": "[3]",
    "three fields": "[3, 1, 1]",
    "item past domain": "[9, 1]",
    "negative item": "[-1, 1]",
    "zero delta": "[1, 0]",
    "delta past int64": f"[1, {10**30}]",
    "not JSON": "[1, 2",
}

#: One malformed header per case, each rejected at line 1.
BAD_HEADERS = {
    "array header": [1, 2],
    "missing domain_size": {k: v for k, v in HEADER.items() if k != "domain_size"},
    "string domain_size": dict(HEADER, domain_size="x"),
    "zero domain_size": dict(HEADER, domain_size=0),
    "bool domain_size": dict(HEADER, domain_size=True),
    "float length": dict(HEADER, length=1.5),
    "string magnitude_bound": dict(HEADER, magnitude_bound="9"),
}

READERS = {
    "load_stream": load_stream,
    "iter_stream_array_chunks": lambda path: list(iter_stream_array_chunks(path)),
}


@pytest.mark.parametrize("reader", READERS)
class TestMalformedStreamFiles:
    """Both readers share one header check and one record check: every
    malformed input raises ``ValueError`` naming ``path:line``."""

    @pytest.mark.parametrize("case", BAD_RECORDS)
    def test_bad_record(self, reader, case, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps(HEADER) + "\n" + BAD_RECORDS[case] + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2:")):
            READERS[reader](path)

    @pytest.mark.parametrize("case", BAD_HEADERS)
    def test_bad_header(self, reader, case, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(json.dumps(BAD_HEADERS[case]) + "\n[1, 2]\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1:")):
            READERS[reader](path)


def _valid_file_bytes() -> bytes:
    stream = TurnstileStream(8, magnitude_bound=9)
    for item, delta in ((0, 5), (1, 3), (2, -2), (1, -3), (7, 4), (0, -1)):
        stream.append(StreamUpdate(item, delta))
    header = dict(HEADER, length=len(stream), magnitude_bound=9)
    lines = [json.dumps(header)] + [f"[{u.item},{u.delta}]" for u in stream]
    return ("\n".join(lines) + "\n").encode()


VALID_FILE = _valid_file_bytes()

byte_edits = st.lists(
    st.tuples(
        st.sampled_from(("replace", "insert", "delete")),
        st.integers(0, len(VALID_FILE) - 1),
        st.binary(min_size=1, max_size=3),
    ),
    min_size=1,
    max_size=4,
)


def _mutate(data: bytes, edits, cut: int) -> bytes:
    for op, position, payload in edits:
        position = min(position, len(data))
        if op == "replace":
            data = data[:position] + payload + data[position + len(payload):]
        elif op == "insert":
            data = data[:position] + payload + data[position:]
        else:
            data = data[:position] + data[position + len(payload):]
    return data[: max(0, len(data) - cut)]


def _outcome(reader, path):
    try:
        return reader(path)
    except ValueError:
        return None


@given(byte_edits, st.integers(0, 16))
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_mutated_stream_files_raise_only_value_error(tmp_path, edits, cut):
    """Byte mutation and truncation of a small valid file: each reader
    either raises ``ValueError`` or succeeds, and when both succeed they
    yield the same updates."""
    path = tmp_path / "fuzz.jsonl"
    path.write_bytes(_mutate(VALID_FILE, edits, cut))
    loaded = _outcome(load_stream, path)
    chunks = _outcome(READERS["iter_stream_array_chunks"], path)
    if loaded is not None and chunks is not None:
        items, deltas = (
            (np.concatenate([c[0] for c in chunks]), np.concatenate([c[1] for c in chunks]))
            if chunks
            else (np.empty(0, np.int64), np.empty(0, np.int64))
        )
        assert items.tolist() == [u.item for u in loaded]
        assert deltas.tolist() == [u.delta for u in loaded]


class TestFrequencyProfile:
    def test_roundtrip_frequencies(self, small_stream, tmp_path):
        path = tmp_path / "p.json"
        save_frequency_profile(small_stream, path)
        loaded = load_frequency_profile(path)
        assert loaded.frequency_vector() == small_stream.frequency_vector()

    def test_profile_is_compact(self, small_stream, tmp_path):
        full = tmp_path / "full.jsonl"
        compact = tmp_path / "compact.json"
        save_stream(small_stream.concat(small_stream), full)
        save_frequency_profile(small_stream.concat(small_stream), compact)
        assert compact.stat().st_size < full.stat().st_size

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "nope"}))
        with pytest.raises(ValueError):
            load_frequency_profile(path)

    @pytest.mark.parametrize(
        "frequencies",
        ({"1": 1.5}, {"1": True}, {"1": "3"}, {"9": 1}, {"-1": 1}, {"1": 0},
         {"x": 1}, {"1": 10**30}),
    )
    def test_rejects_bad_pairs(self, frequencies, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"format": "repro-frequencies", "version": 1, "domain_size": 8,
             "frequencies": frequencies}
        ))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_frequency_profile(path)
