"""The serve layer: snapshots, epoch cache, query engine, HTTP server.

The contract under test is *epoch consistency*: every answer the query
path produces is stamped with a merge epoch, and must equal a direct
query against the sketch state as of exactly that epoch — even while
``update_batch`` chunks and round merges are advancing the live sketch
concurrently.  A reader may observe a stale epoch (bounded by the refresh
policy) but never a torn one.
"""

import logging
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.coordinator import RoundCoordinator
from repro.serve import (
    EpochLRUCache,
    QueryEngine,
    SketchServer,
    SnapshotStore,
    fetch_json,
    run_load,
)
from repro.sketch.ams import AmsF2Sketch
from repro.sketch.countsketch import CountSketch
from repro.sketch.exact import ExactCounter
from repro.streams.generators import zipf_stream

N = 256


def _stream(seed=11):
    return zipf_stream(n=N, total_mass=10_000, skew=1.2, seed=seed)


# ------------------------------------------------------------ SnapshotStore


class TestSnapshotStore:
    def test_every_mutation_is_one_epoch(self):
        store = SnapshotStore(CountSketch(3, 64, seed=1))
        assert store.epoch == 0
        items, deltas = _stream().as_arrays()
        store.update_batch(items[:100], deltas[:100])
        assert store.epoch == 1
        store.update_batch(items[100:], deltas[100:])
        assert store.epoch == 2
        sibling = store.live.spawn_sibling()
        store.merge(sibling)
        assert store.epoch == 3
        store.merge_state(sibling.to_state())
        assert store.epoch == 4

    def test_snapshot_is_frozen_against_later_ingestion(self):
        store = SnapshotStore(CountSketch(3, 64, seed=1))
        items, deltas = _stream().as_arrays()
        store.update_batch(items, deltas)
        snap = store.snapshot()
        probe = np.arange(N, dtype=np.int64)
        before = snap.sketch.estimate_batch(probe)
        store.update_batch(items, deltas)  # live sketch doubles
        assert np.array_equal(snap.sketch.estimate_batch(probe), before)
        fresh = store.snapshot()
        assert fresh.epoch == 2 and snap.epoch == 1
        assert np.array_equal(fresh.sketch.estimate_batch(probe), 2 * before)

    def test_snapshot_fast_path_returns_same_object(self):
        store = SnapshotStore(CountSketch(3, 64, seed=1))
        items, deltas = _stream().as_arrays()
        store.update_batch(items, deltas)
        first = store.snapshot()
        assert store.snapshot() is first  # no copy when the epoch is current
        assert store.current() is first

    def test_snapshot_equals_direct_state_roundtrip(self):
        store = SnapshotStore(CountSketch(3, 64, seed=1))
        items, deltas = _stream().as_arrays()
        store.update_batch(items, deltas)
        snap = store.snapshot()
        probe = np.arange(N, dtype=np.int64)
        assert np.array_equal(
            snap.sketch.estimate_batch(probe), store.live.estimate_batch(probe)
        )

    def test_coordinator_merge_advances_store_epoch(self):
        cs = CountSketch(3, 64, seed=1)
        store = SnapshotStore(cs)
        coordinator = RoundCoordinator(cs, channel=None, workers=1, store=store)
        sibling = cs.spawn_sibling()
        items, deltas = _stream().as_arrays()
        sibling.update_batch(items, deltas)
        coordinator._merge_frame({"state": sibling.to_state()})
        assert store.epoch == 1
        probe = np.arange(N, dtype=np.int64)
        assert np.array_equal(
            cs.estimate_batch(probe), sibling.estimate_batch(probe)
        )

    def test_coordinator_rejects_mismatched_store(self):
        cs = CountSketch(3, 64, seed=1)
        other = CountSketch(3, 64, seed=1)
        with pytest.raises(ValueError, match="store must wrap"):
            RoundCoordinator(cs, channel=None, workers=1, store=SnapshotStore(other))


# ------------------------------------------------------------ EpochLRUCache


class TestEpochLRUCache:
    def test_hit_miss_and_invalidation(self):
        cache = EpochLRUCache(capacity=8)
        assert cache.get(1, "a") is None
        cache.put(1, "a", 42)
        assert cache.get(1, "a") == 42
        # Newer epoch clears wholesale.
        assert cache.get(2, "a") is None
        assert cache.invalidations == 1
        assert len(cache) == 0
        cache.put(2, "a", 43)
        assert cache.get(2, "a") == 43

    def test_stale_reader_bypasses_without_poisoning(self):
        cache = EpochLRUCache(capacity=8)
        cache.put(5, "a", 1)
        assert cache.get(4, "a") is None  # older epoch: miss, no clear
        cache.put(4, "b", 2)  # older epoch: discarded
        assert cache.get(5, "a") == 1  # current answers survived
        assert cache.get(5, "b") is None

    def test_lru_eviction_at_capacity(self):
        cache = EpochLRUCache(capacity=2)
        cache.put(1, "a", 1)
        cache.put(1, "b", 2)
        assert cache.get(1, "a") == 1  # refresh "a"; "b" is now LRU
        cache.put(1, "c", 3)
        assert len(cache) == 2
        assert cache.get(1, "b") is None and cache.get(1, "a") == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            EpochLRUCache(capacity=0)


# -------------------------------------------------------------- QueryEngine


class TestQueryEngine:
    def _engine(self, track=16):
        store = SnapshotStore(CountSketch(3, 64, track=track, seed=1))
        items, deltas = _stream().as_arrays()
        store.update_batch(items, deltas)
        return store, QueryEngine(store)

    def test_capabilities(self):
        _, engine = self._engine()
        assert engine.supports_frequency and engine.supports_heavy_hitters
        assert not engine.supports_aggregate
        with pytest.raises(LookupError):
            engine.aggregate()

        ams_engine = QueryEngine(SnapshotStore(AmsF2Sketch(3, 16, seed=1)))
        assert ams_engine.supports_aggregate
        assert not ams_engine.supports_frequency
        with pytest.raises(LookupError):
            ams_engine.frequency(3)
        with pytest.raises(LookupError):
            ams_engine.heavy_hitters()

    def test_answers_match_direct_queries(self):
        store, engine = self._engine()
        result = engine.frequency_batch([1, 2, 3])
        assert result["estimates"] == store.live.estimate_batch([1, 2, 3]).tolist()
        assert result["epoch"] == store.epoch
        single = engine.frequency(7)
        assert single["estimate"] == float(store.live.estimate(7))
        hh = engine.heavy_hitters(k=4)["heavy_hitters"]
        assert [(h["item"], h["estimate"]) for h in hh] == [
            (p.item, p.estimate) for p in store.live.top_candidates(4)
        ]

    def test_cache_hits_and_epoch_invalidation(self):
        store, engine = self._engine()
        engine.frequency_batch([1, 2])
        assert engine.cache.misses == 1
        engine.frequency_batch([1, 2])
        assert engine.cache.hits == 1
        items, deltas = _stream(seed=5).as_arrays()
        store.update_batch(items, deltas)  # epoch advances
        fresh = engine.frequency_batch([1, 2])
        assert fresh["epoch"] == store.epoch
        assert engine.cache.invalidations == 1
        assert fresh["estimates"] == store.live.estimate_batch([1, 2]).tolist()

    def test_refresh_throttle_bounds_staleness_not_consistency(self):
        store = SnapshotStore(CountSketch(3, 64, seed=1))
        items, deltas = _stream().as_arrays()
        store.update_batch(items, deltas)
        engine = QueryEngine(store, refresh_interval=3600.0)
        engine.frequency_batch([1])  # publishes the current snapshot
        store.update_batch(items, deltas)
        armed = engine.frequency_batch([1])  # pays one refresh, arms throttle
        assert armed["epoch"] == store.epoch
        store.update_batch(items, deltas)
        # Within the throttle window the engine serves the old epoch — but
        # consistently so: the answer still matches that epoch's state.
        stale = engine.frequency_batch([1])
        assert stale["epoch"] == armed["epoch"] < store.epoch
        assert stale["estimates"] == armed["estimates"]


# ----------------------------------------------- queries during ingestion


class TestQueryUnderIngestion:
    def test_concurrent_queries_see_only_epoch_consistent_values(self):
        """Reader threads hammer the engine while a writer applies chunks
        (and one merge); every answer must equal the precomputed reference
        for the exact epoch it claims, never a torn intermediate."""
        items, deltas = _stream().as_arrays()
        chunks = [
            (items[i:i + 500], deltas[i:i + 500])
            for i in range(0, items.shape[0], 500)
        ]
        probe = np.arange(0, N, 7, dtype=np.int64)

        cs = CountSketch(3, 64, seed=1)
        store = SnapshotStore(cs)
        # References: epoch e = the first e mutations applied, replayed on
        # a sibling ahead of time (merges are deterministic, so this is
        # exact).  The final mutation is a merge frame, like a round end.
        merge_sibling = cs.spawn_sibling()
        merge_sibling.update_batch(items[:777], deltas[:777])
        replay = cs.spawn_sibling()
        refs = {0: replay.estimate_batch(probe).tolist()}
        for e, (ci, cd) in enumerate(chunks, start=1):
            replay.update_batch(ci, cd)
            refs[e] = replay.estimate_batch(probe).tolist()
        replay.merge(replay.from_state(merge_sibling.to_state()))
        refs[len(chunks) + 1] = replay.estimate_batch(probe).tolist()

        engine = QueryEngine(store, cache_size=64)
        seen: list[tuple[int, list]] = []
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    out = engine.frequency_batch(probe)
                    seen.append((out["epoch"], out["estimates"]))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for t in readers:
            t.start()
        for ci, cd in chunks:
            store.update_batch(ci, cd)
            time.sleep(0.002)
        store.merge_state(merge_sibling.to_state())
        time.sleep(0.01)
        stop.set()
        for t in readers:
            t.join(timeout=10)
        assert not errors, errors
        assert store.epoch == len(chunks) + 1
        epochs = {epoch for epoch, _ in seen}
        assert epochs  # readers actually ran
        for epoch, estimates in seen:
            assert estimates == refs[epoch], f"torn read at epoch {epoch}"
        # The final epoch (including the merge) must have been served.
        final = engine.frequency_batch(probe)
        assert final["epoch"] == store.epoch
        assert final["estimates"] == refs[store.epoch]

    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("update"),
                    st.integers(0, N - 1),
                    st.integers(-5, 5).filter(bool),
                ),
                st.tuples(st.just("snapshot"), st.just(0), st.just(0)),
                st.tuples(st.just("query"), st.integers(0, N - 1), st.just(0)),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_interleaving_matches_exact_model(self, ops):
        """Any interleaving of updates, snapshots, and queries over an
        exact counter agrees with a plain dict model — and snapshots keep
        answering with the counts of the epoch they were taken at."""
        store = SnapshotStore(ExactCounter(N))
        engine = QueryEngine(store)
        model: dict[int, int] = {}
        frozen: list[tuple[object, dict[int, int]]] = []
        for op, item, delta in ops:
            if op == "update":
                store.update_batch([item], [delta])
                model[item] = model.get(item, 0) + delta
            elif op == "snapshot":
                frozen.append((store.snapshot(), dict(model)))
            else:
                out = engine.frequency(item)
                assert out["estimate"] == float(model.get(item, 0))
                assert out["epoch"] == store.epoch
        for snap, counts in frozen:
            for item in range(0, N, 37):
                assert snap.sketch.estimate(item) == counts.get(item, 0)


# -------------------------------------------------------------- HTTP server

#: Malformed requests the server must answer with 400 and a closed
#: connection, without reading a body.
MALFORMED_REQUESTS = {
    "non-integer-length": b"GET /health HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
    "negative-length": b"GET /health HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
    "huge-length": b"GET /health HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n",
    "long-request-line": b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
}


def _raw_exchange(host: str, port: int, request: bytes) -> bytes:
    """Send ``request`` on a fresh connection and return every byte the
    server answers until it closes; a read that waits 2 s fails."""
    response = b""
    with socket.create_connection((host, port), timeout=2.0) as sock:
        sock.sendall(request)
        try:
            while chunk := sock.recv(1 << 16):
                response += chunk
        except ConnectionResetError:  # the server may close with input unread
            pass
    return response


class TestSketchServer:
    @pytest.fixture()
    def served(self):
        store = SnapshotStore(CountSketch(3, 64, track=16, seed=1))
        items, deltas = _stream().as_arrays()
        store.update_batch(items, deltas)
        engine = QueryEngine(store)
        server = SketchServer(engine).start_background()
        try:
            yield store, engine, server
        finally:
            server.stop_background()

    def test_endpoints_round_trip(self, served):
        store, engine, server = served
        host, port = server.host, server.port
        health = fetch_json(host, port, "/health")
        assert health["status"] == "ok" and health["epoch"] == store.epoch
        one = fetch_json(host, port, "/frequency/7")
        assert one["estimate"] == float(store.live.estimate(7))
        assert one["epoch"] == store.epoch
        batch = fetch_json(host, port, "/frequency?items=1,2,3")
        assert batch["estimates"] == store.live.estimate_batch([1, 2, 3]).tolist()
        hh = fetch_json(host, port, "/heavy-hitters?k=3")["heavy_hitters"]
        assert [h["item"] for h in hh] == [
            p.item for p in store.live.top_candidates(3)
        ]
        stats = fetch_json(host, port, "/stats")
        assert stats["capabilities"]["frequency"] is True

    def test_error_statuses(self, served):
        _, _, server = served
        host, port = server.host, server.port
        with pytest.raises(RuntimeError, match="-> 404"):
            fetch_json(host, port, "/no-such-route")
        with pytest.raises(RuntimeError, match="-> 404"):
            fetch_json(host, port, "/estimate")  # CountSketch: no aggregate
        with pytest.raises(RuntimeError, match="-> 400"):
            fetch_json(host, port, "/frequency?items=notanint")
        with pytest.raises(RuntimeError, match="-> 400"):
            fetch_json(host, port, "/frequency")

    @pytest.mark.parametrize("case", sorted(MALFORMED_REQUESTS))
    def test_malformed_request_gets_400_and_close(self, served, case, caplog):
        _, _, server = served
        caplog.set_level(logging.ERROR, logger="asyncio")
        response = _raw_exchange(server.host, server.port, MALFORMED_REQUESTS[case])
        head = response.partition(b"\r\n\r\n")[0]
        assert head.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in head
        assert fetch_json(server.host, server.port, "/health")["status"] == "ok"
        assert not caplog.records

    def test_load_harness_under_live_ingestion(self, served):
        store, engine, server = served
        items, deltas = _stream(seed=3).as_arrays()
        stop = threading.Event()

        def ingest():
            while not stop.is_set():
                store.update_batch(items[:200], deltas[:200])
                time.sleep(0.002)

        thread = threading.Thread(target=ingest, daemon=True)
        thread.start()
        try:
            report = run_load(
                server.host, server.port,
                [f"/frequency/{i}" for i in range(8)],
                clients=8, requests_per_client=25,
            )
        finally:
            stop.set()
            thread.join(timeout=10)
        assert report.errors == 0
        assert report.requests == 200
        assert engine.queries >= 200
