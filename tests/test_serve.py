"""The serve layer: snapshots, epoch cache, query engine, HTTP server.

The contract under test is *epoch consistency*: every answer the query
path produces is stamped with a merge epoch, and must equal a direct
query against the sketch state as of exactly that epoch — even while
``update_batch`` chunks and round merges are advancing the live sketch
concurrently.  A reader may observe a stale epoch (bounded by the refresh
policy) but never a torn one.  With ``refresh_interval > 0`` a publish
runs on the engine's publisher thread, never on a querying one.
"""

import asyncio
import logging
import socket
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.gsum import GSumEstimator
from repro.distributed.coordinator import RoundCoordinator
from repro.functions.library import moment
from repro.serve import (
    EpochLRUCache,
    QueryEngine,
    SketchServer,
    SnapshotStore,
    fetch_json,
    run_load,
)
from repro.serve import server as server_module
from repro.serve.engine import PUBLISHER_THREAD
from repro.sketch.ams import AmsF2Sketch
from repro.sketch.countsketch import CountSketch
from repro.sketch.exact import ExactCounter
from repro.streams.batching import drive_second_pass
from repro.streams.generators import zipf_stream

N = 256


def _stream(seed=11):
    return zipf_stream(n=N, total_mass=10_000, skew=1.2, seed=seed)


def _poll(query, done, timeout=10.0):
    """Repeat ``query()`` until ``done`` accepts its answer; fail after
    ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while True:
        answer = query()
        if done(answer):
            return answer
        assert time.monotonic() < deadline, f"still {answer!r} after {timeout} s"
        time.sleep(0.001)


def _publishers() -> set:
    return {t for t in threading.enumerate() if t.name == PUBLISHER_THREAD}


class _GatedCounter(ExactCounter):
    """An exact counter whose ``merge`` (the clone step of a publish)
    reports that it started, then waits for ``gate``."""

    def merge(self, other):
        self.entered.set()
        assert self.gate.wait(10.0)
        return super().merge(other)


class _FaultyCounter(ExactCounter):
    """An exact counter whose ``merge`` raises while ``failing`` is set."""

    def merge(self, other):
        if self.failing.is_set():
            raise RuntimeError("injected publish failure")
        return super().merge(other)


class _CountingAms(AmsF2Sketch):
    """AMS whose ``estimate()`` records the thread of every call in the
    ``calls`` list it shares with its siblings."""

    def estimate(self):
        self.calls.append(threading.get_ident())
        return super().estimate()


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
        """The query that finds a refresh due answers from the epoch already
        served, with that epoch's values; the publisher thread then serves
        the new epoch; within the next window answers are stale again, and
        consistent."""
        store = SnapshotStore(CountSketch(3, 64, seed=1))
        items, deltas = _stream().as_arrays()
        store.update_batch(items, deltas)
        with QueryEngine(store, refresh_interval=3600.0) as engine:
            first = engine.frequency_batch([1])  # the constructor's snapshot
            assert first["epoch"] == store.epoch == 1
            store.update_batch(items, deltas)
            due = engine.frequency_batch([1])  # hands one publish off
            assert due == first
            fresh = _poll(
                lambda: engine.frequency_batch([1]), lambda out: out["epoch"] == 2
            )
            assert fresh["estimates"] == store.live.estimate_batch([1]).tolist()
            store.update_batch(items, deltas)
            # Within the throttle window the engine serves the old epoch — but
            # consistently so: the answer still matches that epoch's state.
            stale = engine.frequency_batch([1])
            assert stale["epoch"] == fresh["epoch"] < store.epoch
            assert stale["estimates"] == fresh["estimates"]

    def test_due_query_returns_while_the_publish_is_blocked(self):
        live = _GatedCounter(N)
        live.entered, live.gate = threading.Event(), threading.Event()
        live.gate.set()  # the constructor's publish clones freely
        store = SnapshotStore(live)
        store.update_batch([3], [5])
        with QueryEngine(store, refresh_interval=0.001) as engine:
            live.gate.clear()
            live.entered.clear()
            store.update_batch([3], [2])
            try:
                first = engine.frequency(3)  # due: the publisher blocks in merge
                assert live.entered.wait(10.0)
                time.sleep(0.002)  # let the refresh interval lapse again
                started = time.monotonic()
                answers = [engine.frequency(3) for _ in range(50)]
                elapsed = time.monotonic() - started
            finally:
                live.gate.set()
            assert elapsed < 1.0
            assert first == {"item": 3, "estimate": 5.0, "epoch": 1}
            assert all(answer == first for answer in answers)
            fresh = _poll(lambda: engine.frequency(3), lambda out: out["epoch"] == 2)
            assert fresh["estimate"] == 7.0

    def test_aggregate_is_computed_once_per_snapshot_off_the_query_thread(self):
        live = _CountingAms(3, 16, seed=1)
        live.calls = []
        store = SnapshotStore(live)
        items, deltas = _stream().as_arrays()
        store.update_batch(items, deltas)
        with QueryEngine(store, refresh_interval=3600.0) as engine:
            assert engine.supports_aggregate
            store.update_batch(items, deltas)
            live.calls.clear()  # the constructor's publish
            engine.aggregate()  # due: hands one publish off
            fresh = _poll(engine.aggregate, lambda out: out["epoch"] == store.epoch)
            answers = [engine.aggregate() for _ in range(50)]
        calls = list(live.calls)
        assert len(calls) == 1 and calls[0] != threading.get_ident()
        assert all(answer == fresh for answer in answers)
        assert fresh["estimate"] == float(store.live.estimate())

    def test_inline_publish_computes_the_aggregate_on_first_ask(self, monkeypatch):
        """At ``refresh_interval == 0`` a publish runs no ``estimate()``:
        frequency-only traffic never pays for one, and the first
        ``aggregate()`` on a snapshot computes it once."""
        calls = []
        estimate = GSumEstimator.estimate

        def counting_estimate(sketch):
            calls.append(threading.get_ident())
            return estimate(sketch)

        monkeypatch.setattr(GSumEstimator, "estimate", counting_estimate)
        store = SnapshotStore(
            GSumEstimator(moment(2.0), N, heaviness=0.1, repetitions=2, seed=5)
        )
        items, deltas = _stream().as_arrays()
        engine = QueryEngine(store)
        for _ in range(3):
            store.update_batch(items, deltas)
            assert engine.frequency(1)["epoch"] == store.epoch
        assert calls == []
        answers = [engine.aggregate() for _ in range(50)]
        assert calls == [threading.get_ident()]
        assert answers[0] == {"estimate": float(store.live.estimate()), "epoch": 3}
        assert all(answer == answers[0] for answer in answers)

    @pytest.mark.parametrize("refresh_interval", (0.0, 0.001))
    def test_two_pass_sketch_in_pass_one_fails_only_its_aggregate(
        self, refresh_interval
    ):
        """A two-pass g-SUM estimator's ``estimate()`` raises until its
        second pass has run.  Meanwhile frequencies are served at every
        new epoch and only ``/estimate`` fails; after the second pass the
        aggregate is served."""
        stream = _stream()
        items, deltas = stream.as_arrays()
        store = SnapshotStore(GSumEstimator(
            moment(2.0), N, passes=2, heaviness=0.1, repetitions=2, seed=5
        ))
        with QueryEngine(store, refresh_interval=refresh_interval) as engine:
            server = SketchServer(engine)
            for epoch in (1, 2):
                store.update_batch(items, deltas)
                fresh = _poll(
                    lambda: engine.frequency_batch([1, 2]),
                    lambda out: out["epoch"] == epoch,
                )
                direct = store.live.frequency_batch(np.array([1, 2]))
                assert fresh["estimates"] == direct.tolist()
                status, payload = server._route("/estimate")
                assert status == 404, payload
                assert "second pass has not run" in payload["error"]
            store.mutate(lambda live: live.begin_second_pass())
            store.mutate(lambda live: drive_second_pass(live, stream))
            _poll(lambda: engine.frequency(1), lambda out: out["epoch"] == 4)
            estimate = float(store.live.estimate())
            assert engine.aggregate() == {"estimate": estimate, "epoch": 4}

    def test_failed_publish_keeps_the_served_snapshot(self, caplog):
        live = _FaultyCounter(N)
        live.failing = threading.Event()
        store = SnapshotStore(live)
        store.update_batch([3], [4])
        caplog.set_level(logging.ERROR, logger="repro.serve.engine")
        with QueryEngine(store, refresh_interval=0.001) as engine:
            live.failing.set()
            store.update_batch([3], [1])
            before = engine.frequency(3)  # due: the publisher's clone raises
            _poll(lambda: caplog.records, bool)
            assert "injected publish failure" in caplog.text
            assert engine.frequency(3) == before == {"item": 3, "estimate": 4.0, "epoch": 1}
            assert store.current().epoch == 1
            live.failing.clear()
            fresh = _poll(lambda: engine.frequency(3), lambda out: out["epoch"] == 2)
            assert fresh["estimate"] == 5.0

    def test_publisher_thread_lifecycle(self):
        """None at ``refresh_interval == 0``; one while an engine with a
        positive interval is open; none once it is closed."""
        before = _publishers()
        store = SnapshotStore(CountSketch(3, 64, seed=1))
        items, deltas = _stream().as_arrays()
        inline = QueryEngine(store)
        for _ in range(3):
            store.update_batch(items, deltas)
            assert inline.frequency(1)["epoch"] == store.epoch
        inline.close()
        assert inline._publisher is None and _publishers() == before
        with QueryEngine(store, refresh_interval=0.001) as engine:
            store.update_batch(items, deltas)
            _poll(lambda: engine.frequency(1), lambda out: out["epoch"] == store.epoch)
            assert len(_publishers() - before) == 1
        assert _publishers() == before
        engine.close()  # closing twice is harmless


# ----------------------------------------------- queries during ingestion


class TestQueryUnderIngestion:
    def test_concurrent_queries_see_only_epoch_consistent_values(self):
        """Reader threads hammer the engine while a writer applies chunks
        (and one merge); every answer must equal the precomputed reference
        for the exact epoch it claims, never a torn intermediate, and the
        final epoch is served at once."""
        self._hammer(refresh_interval=0.0)

    def test_publisher_thread_serves_only_epoch_consistent_values(self):
        """The same hammer with snapshots published by the publisher
        thread: answers may be stale, never torn, and the final epoch is
        served soon after the writer stops."""
        self._hammer(refresh_interval=0.002)

    def _hammer(self, refresh_interval):
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

        engine = QueryEngine(store, cache_size=64, refresh_interval=refresh_interval)
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
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
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
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers)
        assert not errors, errors
        assert store.epoch == len(chunks) + 1
        epochs = {epoch for epoch, _ in seen}
        assert epochs  # readers actually ran
        for epoch, estimates in seen:
            assert estimates == refs[epoch], f"torn read at epoch {epoch}"
        # The final epoch (including the merge) must be served.
        final = _poll(
            lambda: engine.frequency_batch(probe),
            lambda out: out["epoch"] == store.epoch,
            timeout=0.0 if refresh_interval == 0 else 10.0,
        )
        engine.close()
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


def _read_response(sock: socket.socket) -> bytes:
    """One complete response (head and ``Content-Length`` body)."""
    raw = b""
    while b"\r\n\r\n" not in raw:
        raw += sock.recv(1 << 16)
    head, _, body = raw.partition(b"\r\n\r\n")
    length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
    while len(body) < length:
        body += sock.recv(1 << 16)
    return head


def _closed_after(sock: socket.socket) -> float:
    """Seconds until the server closes ``sock`` without answering."""
    started = time.monotonic()
    try:
        assert sock.recv(1 << 16) == b""
    except ConnectionResetError:
        pass
    return time.monotonic() - started


class TestReadDeadline:
    """With ``READ_TIMEOUT`` patched down, a connection that does not
    deliver a whole request in time is closed; a prompt keep-alive client
    is not."""

    TIMEOUT = 0.3

    @pytest.fixture()
    def server(self, monkeypatch, caplog):
        monkeypatch.setattr(server_module, "READ_TIMEOUT", self.TIMEOUT)
        caplog.set_level(logging.ERROR, logger="asyncio")
        store = SnapshotStore(CountSketch(3, 64, track=16, seed=1))
        store.update_batch(*_stream().as_arrays())
        server = SketchServer(QueryEngine(store)).start_background()
        try:
            yield server
        finally:
            server.stop_background()
        assert not caplog.records

    @pytest.mark.parametrize(
        "sent",
        (b"GET /hea", b"GET /health HTTP/1.1\r\nHost: x\r\n"),
        ids=("half-request-line", "headers-without-blank-line"),
    )
    def test_stalled_request_is_closed(self, server, sent):
        with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
            sock.sendall(sent)
            assert _closed_after(sock) < self.TIMEOUT + 1.0

    def test_idle_keep_alive_connection_is_closed(self, server):
        with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
            sock.sendall(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n")
            assert _read_response(sock).startswith(b"HTTP/1.1 200")
            assert _closed_after(sock) < self.TIMEOUT + 1.0

    def test_prompt_keep_alive_exchange_outlives_the_deadline(self, server):
        """Each request gets its own deadline, so a connection that keeps
        sending stays open for longer than one."""
        with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
            started = time.monotonic()
            for _ in range(5):
                sock.sendall(b"GET /frequency/3 HTTP/1.1\r\nHost: x\r\n\r\n")
                head = _read_response(sock)
                assert head.startswith(b"HTTP/1.1 200")
                assert b"Connection: keep-alive" in head
                time.sleep(self.TIMEOUT / 3)
            assert time.monotonic() - started > self.TIMEOUT


#: Valid requests the fuzzer mutates: a bare GET, one with a body, and two
#: pipelined on one connection.
VALID_REQUESTS = (
    b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n",
    b"GET /frequency?items=1,2 HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc",
    b"GET /estimate HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
    b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n",
)

http_mutation = st.tuples(
    st.sampled_from(("truncate", "overwrite", "insert", "delete")),
    st.integers(0, 1 << 8),
    st.binary(min_size=1, max_size=8),
)
http_fuzz_plans = st.tuples(
    st.sampled_from(VALID_REQUESTS), st.lists(http_mutation, min_size=1, max_size=3)
)


def _mutated(base: bytes, mutations) -> bytes:
    raw = bytearray(base)
    for kind, offset, data in mutations:
        at = offset % (len(raw) + 1)
        if kind == "truncate":
            del raw[at:]
        elif kind == "overwrite":
            raw[at:at + len(data)] = data
        elif kind == "insert":
            raw[at:at] = data
        else:
            del raw[at:at + len(data)]
    return bytes(raw)


async def _read_every_request(data: bytes) -> list:
    """``_read_request`` outcomes over ``data`` until it returns ``None`` or
    raises: a request tuple, ``None``, or the exception class."""
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    outcomes: list = []
    while not outcomes or isinstance(outcomes[-1], tuple):
        try:
            outcomes.append(await SketchServer._read_request(reader))
        except (ValueError, asyncio.IncompleteReadError) as exc:
            outcomes.append(type(exc))
    return outcomes


def _check_http_request_parse(plan) -> None:
    base, mutations = plan
    outcomes = asyncio.run(
        asyncio.wait_for(_read_every_request(_mutated(base, mutations)), timeout=5.0)
    )
    for outcome in outcomes[:-1]:
        method, target, keep_alive = outcome
        assert isinstance(method, str) and isinstance(target, str)
        assert isinstance(keep_alive, bool)
    assert outcomes[-1] in (None, ValueError, asyncio.IncompleteReadError)


@given(http_fuzz_plans)
@settings(max_examples=60, deadline=None)
def test_fuzzed_requests_parse_or_fail_typed(plan):
    _check_http_request_parse(plan)


@pytest.mark.slow
@given(http_fuzz_plans)
@settings(max_examples=3_000, deadline=None)
def test_fuzzed_requests_parse_or_fail_typed_at_scale(plan):
    _check_http_request_parse(plan)


def test_repro_serve_exit_leaves_no_publisher(tmp_path):
    """A live ``repro serve`` with a refresh interval publishes on its
    publisher thread, and none is left once the command returns."""
    stream = tmp_path / "stream.jsonl"
    assert main(["generate", str(stream), "--n", "256", "--mass", "20000",
                 "--seed", "3"]) == 0
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    before = _publishers()
    seen: dict = {}

    def client() -> None:
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                estimate = fetch_json("127.0.0.1", port, "/estimate", timeout=1.0)
            except OSError:
                time.sleep(0.01)
                continue
            if estimate["epoch"] > 0:
                seen["epoch"] = estimate["epoch"]
                seen["publishers"] = len(_publishers() - before)
                return
            time.sleep(0.005)

    thread = threading.Thread(target=client)
    thread.start()
    try:
        assert main([
            "serve", str(stream), "--sketch", "ams", "--port", str(port),
            "--live-chunk", "64", "--live-delay", "0.005",
            "--refresh-interval", "0.01", "--duration", "1.5",
        ]) == 0
    finally:
        thread.join(timeout=15.0)
    assert not thread.is_alive()
    assert seen.get("publishers") == 1, seen
    assert _publishers() == before
