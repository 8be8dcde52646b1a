"""Distributed coordinator/worker ingestion (``repro.distributed``).

The acceptance gates: ``distributed_ingest()`` (a one-round session of
the round protocol) over both transports (file, socket) with k in {2, 4}
workers produces coordinator state bit-identical to single-machine
ingestion — for a raw sketch and for the full ``GSumEstimator`` — and the
coordinated two-pass **round protocol** (``distributed_two_pass()``, one
state frame per round or streaming delta merges) reproduces
single-machine 2-pass ``GSumEstimator.run()`` bit for bit over the same
matrix.  Plus version skew (an older worker's ``dense-json`` frame fails
its round; an older coordinator's ``codec`` advertisement is ignored) and
the protocol pieces: framing, envelope validation (malformed binary
frames included), failure propagation (worker crash mid-round,
duplicate/stale frames, compat rejection of candidate broadcasts),
tmp-file GC for killed workers, poll back-off, the many-files-per-worker
mode, and the CLI commands.
"""

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.cli import main
from repro.core.gsum import GSumEstimator
from repro.distributed import (
    FileTransport,
    FileWorkerSession,
    RoundCoordinator,
    RoundTracker,
    SocketHub,
    SocketSession,
    TransportTimeout,
    WorkerFailure,
    delta_message,
    delta_skipped_message,
    distributed_ingest,
    distributed_two_pass,
    error_message,
    partition_bounds,
    recv_frame,
    round_begin_message,
    round_end_message,
    run_worker_rounds,
    send_frame,
    ship_round,
    worker_slice,
)
from repro.distributed.specs import build_sketch
from repro.distributed.wire import BINARY_MAGIC, LENGTH_PREFIX
from repro.functions.library import moment
from repro.sketch.base import dumps_state
from repro.sketch.codec import STATE_CODEC
from repro.sketch.countsketch import CountSketch
from repro.streams.batching import drive
from repro.streams.generators import zipf_stream
from repro.streams.io import save_stream
from repro.streams.model import TurnstileStream

N = 512
G2 = moment(2.0)
STREAM = zipf_stream(n=N, total_mass=12_000, skew=1.2, seed=31, turnstile_noise=0.3)

TRANSPORTS = ("file", "socket")
WORKER_COUNTS = (2, 4)


def fresh_countsketch():
    return CountSketch(5, 256, track=16, seed=9)


def fresh_estimator(**kwargs):
    return GSumEstimator(G2, N, heaviness=0.15, repetitions=2, seed=5, **kwargs)


def coordinate_states(structure, box, states):
    """Ship each state as worker ``i``'s single round-1 frame through the
    drop-box ``box``, then merge them into ``structure`` as a one-round
    session; returns ``structure``."""
    for worker, state in enumerate(states):
        box.send_round(delta_message(worker, 1, 0, state))
        box.send_round(round_end_message(worker, 1, 1))
    return RoundCoordinator(
        structure, box, workers=len(states), timeout=10.0
    ).run_single_pass()


class TestEqualityGate:
    """The non-negotiable: distributed == single-machine, bit for bit."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_countsketch_state_bit_identical(self, transport, workers, tmp_path):
        sequential = drive(fresh_countsketch(), STREAM)
        rendezvous = str(tmp_path / "rv") if transport == "file" else None
        merged = distributed_ingest(
            fresh_countsketch(), STREAM, workers=workers,
            transport=transport, rendezvous=rendezvous,
        )
        assert np.array_equal(merged._table, sequential._table)
        assert merged._candidates == sequential._candidates
        assert merged.top_candidates() == sequential.top_candidates()
        assert dumps_state(merged.to_state()) == dumps_state(sequential.to_state())

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_gsum_estimator_state_bit_identical(self, transport, workers):
        sequential = drive(fresh_estimator(), STREAM)
        merged = distributed_ingest(
            fresh_estimator(), STREAM, workers=workers, transport=transport
        )
        assert merged.estimate() == sequential.estimate()
        assert dumps_state(merged.to_state()) == dumps_state(sequential.to_state())

    def test_gsum_estimator_process_workers(self):
        """Workers in real child processes: the estimator crosses the
        boundary via the registry-backed pickle path."""
        sequential = drive(fresh_estimator(), STREAM)
        merged = distributed_ingest(
            fresh_estimator(), STREAM, workers=2, transport="file",
            mode="process",
        )
        assert merged.estimate() == sequential.estimate()
        assert dumps_state(merged.to_state()) == dumps_state(sequential.to_state())

    def test_two_pass_distributed_both_passes(self):
        """Both passes distributed, at a worker count outside the k in
        {2, 4} matrix: the two-round session equals single-machine
        ingestion of both passes."""
        sequential = fresh_estimator(passes=2)
        sequential.process(STREAM)
        sequential.begin_second_pass()
        sequential.process_second_pass(STREAM)

        dist = fresh_estimator(passes=2)
        distributed_two_pass(dist, STREAM, workers=3, transport="socket")
        assert dist.estimate() == sequential.estimate()

    def test_adds_to_existing_state(self):
        earlier = zipf_stream(n=N, total_mass=4_000, seed=3)
        merged = drive(fresh_countsketch(), earlier)
        distributed_ingest(merged, STREAM, workers=2)
        direct = drive(fresh_countsketch(), earlier.concat(STREAM))
        assert np.array_equal(merged._table, direct._table)

    def test_empty_stream(self):
        merged = distributed_ingest(
            fresh_countsketch(), TurnstileStream(N), workers=4
        )
        assert not merged._table.any()


def sequential_two_pass():
    reference = fresh_estimator(passes=2)
    reference.run(STREAM, exact=False)
    return reference


class TestRoundProtocol:
    """The tentpole acceptance gate: the coordinated two-pass round
    protocol — round 1 merges first-pass states, the merged candidate
    export is broadcast back, round 2 merges exact tabulations — is
    bit-identical to single-machine 2-pass ``GSumEstimator.run()``, over
    both transports, k in {2, 4} workers, with and without streaming
    delta merges."""

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_two_pass_bit_identical(self, transport, workers, tmp_path):
        sequential = sequential_two_pass()
        rendezvous = str(tmp_path / "rv") if transport == "file" else None
        dist = fresh_estimator(passes=2)
        distributed_two_pass(
            dist, STREAM, workers=workers, transport=transport,
            rendezvous=rendezvous,
        )
        assert dist.estimate() == sequential.estimate()
        assert dumps_state(dist.to_state()) == dumps_state(
            sequential.to_state()
        )

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_streaming_delta_merge_equals_batch_merge(self, transport):
        """Periodic incremental delta frames merged on arrival equal the
        one-frame-per-round batch merge (and hence the single-machine
        run) bit for bit — states are linear, so frame granularity is
        invisible in the result."""
        sequential = sequential_two_pass()
        dist = fresh_estimator(passes=2)
        distributed_two_pass(
            dist, STREAM, workers=2, transport=transport, delta_every=500
        )
        assert dist.estimate() == sequential.estimate()
        assert dumps_state(dist.to_state()) == dumps_state(
            sequential.to_state()
        )

    def test_two_pass_process_workers(self):
        """Round-protocol workers in real child processes: siblings cross
        the boundary via the registry-backed pickle path, sessions are
        re-dialed inside the children."""
        sequential = sequential_two_pass()
        dist = fresh_estimator(passes=2)
        distributed_two_pass(
            dist, STREAM, workers=2, transport="file", mode="process"
        )
        assert dumps_state(dist.to_state()) == dumps_state(
            sequential.to_state()
        )

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("codec", ("sparse-binary",))
    def test_two_pass_codec_bit_identical(self, transport, codec, tmp_path):
        """The codec equality gate: the coordinated two-pass protocol
        under the sparse-binary state codec — with streaming deltas, so
        short-period frames actually exercise the sparse win — equals
        single-machine ``GSumEstimator.run()`` bit for bit at k=2."""
        sequential = sequential_two_pass()
        rendezvous = str(tmp_path / "rv") if transport == "file" else None
        dist = fresh_estimator(passes=2)
        distributed_two_pass(
            dist, STREAM, workers=2, transport=transport, codec=codec,
            delta_every=500, rendezvous=rendezvous,
        )
        assert dist.estimate() == sequential.estimate()
        assert dumps_state(dist.to_state()) == dumps_state(
            sequential.to_state()
        )

    def test_two_pass_rejects_other_codecs(self):
        with pytest.raises(ValueError, match="codec must be 'sparse-binary'"):
            distributed_two_pass(
                fresh_estimator(passes=2), STREAM, codec="dense-json"
            )

    def test_mixed_codec_fleet_fails_loudly(self, tmp_path, peer_state):
        """A worker older than the coordinator ships ``dense-json``: the
        coordinator refuses that frame before decoding it, so the round
        fails with "unknown state codec" instead of merging wrongly."""
        items, deltas = STREAM.as_arrays()
        for worker_id in range(2):
            part = worker_slice(items, deltas, worker_id, 3)
            run_worker_rounds(
                fresh_countsketch(), part[0], part[1], worker_id,
                FileWorkerSession(tmp_path / "rv"),
            )
        old = fresh_countsketch()
        old.update_batch(*worker_slice(items, deltas, 2, 3))
        box = FileWorkerSession(tmp_path / "rv")
        box.send(delta_message(2, 1, 0, peer_state(old, "dense-json")))
        box.send(round_end_message(2, 1, 1))
        with pytest.raises(ValueError, match="unknown state codec"):
            RoundCoordinator(
                fresh_countsketch(),
                FileTransport(tmp_path / "rv", poll_interval=0.01),
                workers=3, timeout=10.0,
            ).run_single_pass()

    def test_worker_ignores_advertised_codec(self):
        """An older coordinator advertises a ``codec`` in its round-2
        broadcast.  The broadcast still validates, and the worker ships
        every frame of both rounds under ``sparse-binary`` anyway."""
        from repro.distributed.wire import validate_message

        donor = fresh_estimator(passes=2)
        donor.process(STREAM)
        donor.begin_second_pass()
        items, deltas = STREAM.as_arrays()

        class ScriptedSession:
            def __init__(self, begin):
                self.begin = begin
                self.sent = []

            def send(self, message):
                self.sent.append(message)

            def recv_broadcast(self, round_id, timeout):
                return self.begin

        sibling = fresh_estimator(passes=2)
        begin = validate_message(dict(
            round_begin_message(
                2, sibling.compat_digest(), donor.export_candidates()
            ),
            codec="dense-json",
        ))
        session = ScriptedSession(begin)
        run_worker_rounds(sibling, items, deltas, 0, session, passes=2)
        frames = [m for m in session.sent if m["type"] == "delta"]
        assert {m["round"] for m in frames} == {1, 2}
        assert all(m["state"]["codec"] == STATE_CODEC for m in frames)
        assert '"dense-json"' not in json.dumps([m["state"] for m in frames])

    def test_round_summaries_recorded(self, tmp_path):
        dist = fresh_estimator(passes=2)
        channel = FileTransport(tmp_path / "rv", poll_interval=0.01)
        coordinator = RoundCoordinator(dist, channel, workers=1, timeout=30.0)
        items, deltas = STREAM.as_arrays()
        session = FileWorkerSession(tmp_path / "rv")
        runner = threading.Thread(
            target=run_worker_rounds,
            args=(dist.spawn_sibling(), items, deltas, 0, session),
            kwargs={"passes": 2},
        )
        runner.start()
        coordinator.run_two_pass()
        runner.join()
        assert [r["round"] for r in coordinator.rounds] == [1, 2]
        assert coordinator.stale_frames == 0
        assert all(r["workers"] == [0] for r in coordinator.rounds)

    def test_rejects_one_pass_structures(self):
        with pytest.raises(ValueError, match="passes=2"):
            distributed_two_pass(fresh_estimator(passes=1), STREAM)
        with pytest.raises(TypeError, match="candidate hooks"):
            distributed_two_pass(fresh_countsketch(), STREAM)


class TestDeltaSkipping:
    """Empty-delta periods ship a ``delta_skipped`` heartbeat, not an
    empty sketch payload — and round accounting stays exact."""

    def test_zero_net_period_is_skipped(self, tmp_path):
        """A period whose updates cancel exactly (and admit nothing to
        any candidate pool) leaves the sibling blank: skipped."""
        from repro.sketch.countmin import CountMinSketch

        box = FileTransport(tmp_path / "rv", poll_interval=0.01)
        sketch = CountMinSketch(3, 64, seed=2)
        items = np.array([5, 5, 7, 9], dtype=np.int64)
        deltas = np.array([4, -4, 2, 1], dtype=np.int64)  # 1st period cancels
        frames = ship_round(
            sketch, items, deltas, 0, 1, box.send_round, delta_every=2,
        )
        assert frames == 2
        merged = CountMinSketch(3, 64, seed=2)
        summary = box.collect_round(
            1, expected=1, timeout=10.0,
            on_state=lambda m: merged.merge(merged.from_state(m["state"])),
        )
        assert summary["skipped"] == 1
        assert summary["frames"] == {0: 2}
        reference = CountMinSketch(3, 64, seed=2)
        reference.update_batch(items, deltas)
        assert dumps_state(merged.to_state()) == dumps_state(
            reference.to_state()
        )

    def test_zero_delta_still_ships_when_state_changes(self, tmp_path):
        """A zero-sum period can still change state (candidate-pool
        admission), so skipping keys off the *state*, not the deltas."""
        box = FileTransport(tmp_path / "rv", poll_interval=0.01)
        sketch = fresh_countsketch()  # track > 0: pool admits on any update
        items = np.array([5, 5], dtype=np.int64)
        deltas = np.array([4, -4], dtype=np.int64)
        ship_round(sketch, items, deltas, 0, 1, box.send_round, delta_every=2)
        merged = fresh_countsketch()
        summary = box.collect_round(
            1, expected=1, timeout=10.0,
            on_state=lambda m: merged.merge(merged.from_state(m["state"])),
        )
        assert summary["skipped"] == 0
        assert 5 in merged._candidates

    def test_empty_partition_ships_heartbeat_only(self, tmp_path):
        box = FileTransport(tmp_path / "rv", poll_interval=0.01)
        empty = np.empty(0, dtype=np.int64)
        frames = ship_round(
            fresh_countsketch(), empty, empty, 0, 1, box.send_round
        )
        assert frames == 1
        merges = []
        summary = box.collect_round(
            1, expected=1, timeout=10.0, on_state=lambda m: merges.append(m)
        )
        assert summary["skipped"] == 1
        assert merges == []  # nothing decoded, nothing merged

    def test_tracker_counts_skipped_toward_completion(self):
        tracker = RoundTracker(1, 1)
        assert tracker.offer(delta_skipped_message(0, 1, 0)) == "skip"
        assert tracker.offer(
            delta_message(0, 1, 1, fresh_countsketch().to_state())
        ) == "delta"
        tracker.offer(round_end_message(0, 1, 2))
        assert tracker.complete()
        assert tracker.summary()["skipped"] == 1

    def test_duplicate_skip_frame_rejected(self):
        tracker = RoundTracker(1, 1)
        tracker.offer(delta_skipped_message(0, 1, 0))
        with pytest.raises(ValueError, match="duplicate delta frame"):
            tracker.offer(delta_skipped_message(0, 1, 0))

    def test_streaming_run_with_skips_is_bit_identical(self):
        """End to end: a sparse stream over many short periods produces
        skipped periods on real worker partitions without disturbing the
        equality gate."""
        sequential = sequential_two_pass()
        dist = fresh_estimator(passes=2)
        distributed_two_pass(dist, STREAM, workers=2, delta_every=137)
        assert dumps_state(dist.to_state()) == dumps_state(
            sequential.to_state()
        )


class TestRendezvousGc:
    """Consumed round frames and broadcasts are garbage-collected at
    round boundaries, so long sessions keep the rendezvous dir bounded."""

    def test_two_pass_leaves_dir_bounded(self, tmp_path):
        rendezvous = tmp_path / "rv"
        dist = fresh_estimator(passes=2)
        distributed_two_pass(
            dist, STREAM, workers=2, delta_every=300,
            rendezvous=str(rendezvous),
        )
        # Dozens of delta frames crossed the dir; none may remain.
        assert list(rendezvous.glob("rmsg-*")) == []
        assert list(rendezvous.glob("bcast-*")) == []
        assert list(rendezvous.glob("*.tmp")) == []

    def test_gc_runs_per_round(self, tmp_path):
        box = FileTransport(tmp_path / "rv", poll_interval=0.01)
        sketch = drive(fresh_countsketch(), STREAM)
        box.send_round(delta_message(0, 1, 0, sketch.to_state()))
        box.send_round(round_end_message(0, 1, 1))
        box.collect_round(1, expected=1, timeout=10.0)
        assert list((tmp_path / "rv").glob("rmsg-001-*")) == []

    def test_killed_worker_tmp_debris_swept_at_round_boundary(self, tmp_path):
        """A worker killed mid-publish leaves a torn ``*.json.tmp`` that
        nothing will ever rename; the round's GC sweeps it with the
        round's frames."""
        box = FileTransport(tmp_path / "rv", poll_interval=0.01)
        sketch = drive(fresh_countsketch(), STREAM)
        box.send_round(delta_message(0, 1, 0, sketch.to_state()))
        box.send_round(round_end_message(0, 1, 1))
        (tmp_path / "rv" / "rmsg-001-w0099-d000001.json.tmp").write_text("{")
        box.collect_round(1, expected=1, timeout=10.0)
        assert list((tmp_path / "rv").glob("rmsg-*")) == []
        assert list((tmp_path / "rv").glob("*.tmp")) == []

    def test_stale_retransmit_after_gc_is_dropped(self, tmp_path):
        """A round-1 frame re-published after round 1 was collected (and
        GCed) is re-read in round 2 and dropped as stale, never merged."""
        box = FileTransport(tmp_path / "rv", poll_interval=0.01)
        sketch = drive(fresh_countsketch(), STREAM)
        box.send_round(delta_message(0, 1, 0, sketch.to_state()))
        box.send_round(round_end_message(0, 1, 1))
        box.collect_round(1, expected=1, timeout=10.0)
        box.send_round(delta_message(0, 1, 0, sketch.to_state()))  # retransmit
        box.send_round(delta_message(0, 2, 0, sketch.to_state()))
        box.send_round(round_end_message(0, 2, 1))
        merged = fresh_countsketch()
        summary = box.collect_round(
            2, expected=1, timeout=10.0,
            on_state=lambda m: merged.merge(merged.from_state(m["state"])),
        )
        assert summary["stale"] == 1
        assert np.array_equal(merged._table, sketch._table)


def _binary_frame(spec: dict, payload: bytes) -> bytes:
    """A binary wire frame whose header is a delta carrying the one
    buffer ``spec`` by hand, followed by ``payload`` as its buffers."""
    head = json.dumps(delta_message(0, 1, 0, {"t": spec})).encode("utf-8")
    return BINARY_MAGIC + LENGTH_PREFIX.pack(len(head)) + head + payload


_SPEC = {"codec": "binary", "dtype": "<i8", "shape": [1]}

#: Malformed binary frames and the ``ValueError`` message each must get.
MALFORMED_FRAMES = {
    "short": (BINARY_MAGIC + b"\x00", "truncated"),
    "cut-buffer": (
        _binary_frame(dict(_SPEC, buffer=0, nbytes=8), bytes(3)), "truncated"
    ),
    "skipped-index": (
        _binary_frame(dict(_SPEC, buffer=1, nbytes=8), bytes(8)), "skip"
    ),
    "non-integer-nbytes": (
        _binary_frame(dict(_SPEC, buffer=0, nbytes=None), bytes(8)),
        "bad buffer spec",
    ),
}


class TestBinaryWire:
    """Sparse-binary states ship as raw-buffer binary frames — no base64
    on the socket, decode straight from the buffer — and both frame
    shapes coexist on every channel."""

    def test_binary_frame_socket_round_trip(self):
        original = drive(fresh_countsketch(), STREAM)
        message = delta_message(0, 1, 0, original.to_state())
        a, b = socket.socketpair()
        try:
            send_frame(a, message)
            received = recv_frame(b)
        finally:
            a.close()
            b.close()
        clone = original.from_state(received["state"])
        assert clone.to_state() == original.to_state()

    def test_binary_frame_smaller_than_base64_json(self):
        from repro.distributed.wire import dumps_frame, dumps_message

        state = drive(fresh_countsketch(), STREAM).to_state()
        message = delta_message(0, 1, 0, state)
        assert len(dumps_frame(message)) < len(dumps_message(message))

    def test_binary_frame_file_transport(self, tmp_path):
        original = drive(fresh_countsketch(), STREAM)
        merged = coordinate_states(
            fresh_countsketch(),
            FileTransport(tmp_path / "rv", poll_interval=0.01),
            [original.to_state()],
        )
        assert dumps_state(merged.to_state()) == dumps_state(
            original.to_state()
        )

    def test_json_frames_for_buffer_free_messages(self):
        """A message with no binary buffer to lift ships as its plain JSON
        document: envelopes without state, and a state whose one map holds
        a count beyond int64 (the exact pair-list form)."""
        from repro.distributed.wire import dumps_frame, dumps_message
        from repro.sketch.exact import ExactCounter

        counter = ExactCounter(N)
        counter.update(3, 1 << 70)
        state = counter.to_state()
        assert state["payload"]["counts"] == [[3, 1 << 70]]
        for message in (
            delta_message(0, 1, 0, state),
            delta_skipped_message(0, 1, 1),
            round_end_message(0, 1, 2),
        ):
            assert dumps_frame(message) == dumps_message(message)

    def test_truncated_binary_frame_rejected(self):
        from repro.distributed.wire import dumps_frame, loads_frame

        state = drive(fresh_countsketch(), STREAM).to_state()
        frame = dumps_frame(delta_message(0, 1, 0, state))
        with pytest.raises(ValueError, match="trailing bytes"):
            loads_frame(frame + b"\x00")

    @pytest.mark.parametrize("case", sorted(MALFORMED_FRAMES))
    def test_malformed_binary_frame_raises_value_error(self, case):
        from repro.distributed.wire import loads_frame

        frame, match = MALFORMED_FRAMES[case]
        with pytest.raises(ValueError, match=match):
            loads_frame(frame)


class TestCandidateHooks:
    """export_candidates()/import_candidates() — the seam that lets a
    merged first-pass cover seed remote second passes."""

    def test_export_import_round_trip(self):
        coordinator = fresh_estimator(passes=2)
        coordinator.process(STREAM)
        coordinator.begin_second_pass()
        exported = coordinator.export_candidates()
        # JSON-serializable and non-trivial
        replayed = json.loads(json.dumps(exported))

        remote = fresh_estimator(passes=2)
        remote.process(STREAM)
        remote.import_candidates(replayed)
        # Identical restriction -> identical pass-2 tabulation state.
        remote.process_second_pass(STREAM)
        coordinator.process_second_pass(STREAM)
        assert dumps_state(remote.to_state()) == dumps_state(
            coordinator.to_state()
        )

    def test_export_requires_open_second_pass(self):
        est = fresh_estimator(passes=2)
        est.process(STREAM)
        with pytest.raises(RuntimeError, match="begin_second_pass"):
            est.export_candidates()

    def test_hooks_require_two_pass_estimator(self):
        est = fresh_estimator(passes=1)
        with pytest.raises(RuntimeError, match="passes=2"):
            est.export_candidates()
        with pytest.raises(RuntimeError, match="passes=2"):
            est.import_candidates({"reps": []})

    def test_import_rejects_mismatched_layout(self):
        est = fresh_estimator(passes=2)
        with pytest.raises(ValueError, match="repetitions"):
            est.import_candidates({"reps": [None]})


class TestRoundFailures:
    """The round protocol's failure paths fail fast and loudly."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_FRAMES))
    def test_malformed_frame_fails_socket_round_fast(self, case):
        """A worker that ships a good frame and then a malformed one
        fails the round with ``WorkerFailure`` at once, not after the
        round's timeout."""
        bad = MALFORMED_FRAMES[case][0]
        with SocketHub() as hub:
            with socket.create_connection(hub.address) as conn:
                send_frame(conn, delta_message(0, 1, 0, {"x": 1}))
                conn.sendall(LENGTH_PREFIX.pack(len(bad)) + bad)
                start = time.monotonic()
                with pytest.raises(WorkerFailure, match="worker 0"):
                    hub.collect_round(1, expected=1, timeout=10.0)
        assert time.monotonic() - start < 5.0

    def test_worker_crash_mid_round_two(self):
        """A worker that dies after the candidate broadcast (its
        connection drops mid-round-2) fails the round immediately via the
        persistent socket session — no timeout burn."""
        est = fresh_estimator(passes=2)
        items, deltas = STREAM.as_arrays()
        with SocketHub() as hub:
            host, port = hub.address

            def good_worker():
                session = SocketSession(host, port)
                try:
                    run_worker_rounds(
                        est.spawn_sibling(),
                        *worker_slice(items, deltas, 0, 2), 0, session,
                        passes=2, timeout=30.0,
                    )
                except Exception:
                    pass  # the coordinator aborts the round under it
                finally:
                    session.close()

            def crashing_worker():
                session = SocketSession(host, port)
                part = worker_slice(items, deltas, 1, 2)
                ship_round(
                    est.spawn_sibling(), part[0], part[1], 1, 1, session.send
                )
                session.recv_broadcast(2, timeout=30.0)
                session.close()  # dies without shipping round 2

            threads = [
                threading.Thread(target=good_worker),
                threading.Thread(target=crashing_worker),
            ]
            for t in threads:
                t.start()
            coordinator = RoundCoordinator(est, hub, workers=2, timeout=30.0)
            with pytest.raises(WorkerFailure, match="worker 1 disconnected"):
                coordinator.run_two_pass()
            for t in threads:
                t.join()

    def test_worker_error_envelope_aborts_round(self, tmp_path):
        box = FileTransport(tmp_path / "rv", poll_interval=0.01)
        box.send_round(error_message(0, "exploded", round_id=1))
        with pytest.raises(WorkerFailure, match="worker 0.*round 1.*exploded"):
            box.collect_round(1, expected=2, timeout=30.0)

    def test_duplicate_delta_frame_rejected(self):
        state = fresh_countsketch().to_state()
        tracker = RoundTracker(1, 1)
        assert tracker.offer(delta_message(0, 1, 0, state)) == "delta"
        with pytest.raises(ValueError, match="duplicate delta frame"):
            tracker.offer(delta_message(0, 1, 0, state))

    def test_duplicate_round_end_rejected(self):
        tracker = RoundTracker(1, 2)
        tracker.offer(round_end_message(0, 1, 0))
        with pytest.raises(ValueError, match="duplicate round_end"):
            tracker.offer(round_end_message(0, 1, 0))

    def test_duplicate_frame_rejected_over_socket(self):
        state = fresh_countsketch().to_state()
        with SocketHub() as hub:
            session = SocketSession(*hub.address)
            session.send(delta_message(0, 1, 0, state))
            session.send(delta_message(0, 1, 0, state))
            with pytest.raises(ValueError, match="duplicate delta frame"):
                hub.collect_round(1, expected=1, timeout=10.0)
            session.close()

    def test_stale_frame_dropped_and_counted(self, tmp_path):
        """A round-1 retransmit landing during round 2 is dropped (and
        counted), not merged — the merged result is unaffected."""
        sketch = drive(fresh_countsketch(), STREAM)
        box = FileTransport(tmp_path / "rv", poll_interval=0.01)
        box.send_round(delta_message(0, 1, 7, sketch.to_state()))  # stale
        box.send_round(delta_message(0, 2, 0, sketch.to_state()))
        box.send_round(round_end_message(0, 2, 1))
        merged = fresh_countsketch()
        summary = box.collect_round(
            2, expected=1, timeout=10.0,
            on_state=lambda m: merged.merge(merged.from_state(m["state"])),
        )
        assert summary["stale"] == 1
        assert np.array_equal(merged._table, sketch._table)

    def test_future_round_frame_rejected(self, tmp_path):
        box = FileTransport(tmp_path / "rv", poll_interval=0.01)
        box.send_round(delta_message(0, 3, 0, fresh_countsketch().to_state()))
        with pytest.raises(ValueError, match="future round 3"):
            box.collect_round(2, expected=1, timeout=10.0)

    def test_candidate_broadcast_compat_mismatch(self):
        """A worker built from a different seed refuses the candidate
        broadcast before importing anything — a mismatched spec cannot
        silently poison pass two."""
        coordinator = fresh_estimator(passes=2)
        coordinator.process(STREAM)
        coordinator.begin_second_pass()
        broadcast = round_begin_message(
            2, coordinator.compat_digest(), coordinator.export_candidates()
        )

        class FakeSession:
            def __init__(self):
                self.sent = []

            def send(self, message):
                self.sent.append(message)

            def recv_broadcast(self, round_id, timeout=120.0):
                return broadcast

        session = FakeSession()
        imposter = GSumEstimator(
            G2, N, heaviness=0.15, repetitions=2, seed=6, passes=2
        )
        items, deltas = STREAM.as_arrays()
        with pytest.raises(ValueError, match="compat digest"):
            run_worker_rounds(
                imposter, items, deltas, 0, session, passes=2
            )
        # The failure was also published, round-tagged, for the
        # coordinator's fail-fast path.
        assert session.sent[-1]["type"] == "error"
        assert session.sent[-1]["round"] == 2

    def test_straggler_timeout_names_missing_workers(self, tmp_path):
        box = FileTransport(tmp_path / "rv", poll_interval=0.01)
        box.send_round(delta_message(0, 1, 0, fresh_countsketch().to_state()))
        box.send_round(round_end_message(0, 1, 1))
        with pytest.raises(TransportTimeout, match=r"stragglers: workers \[1\]"):
            box.collect_round(1, expected=2, timeout=0.1)

    def test_socket_round_timeout(self):
        with SocketHub() as hub:
            with pytest.raises(TransportTimeout, match="round 1 incomplete"):
                hub.collect_round(1, expected=1, timeout=0.1)

    def test_broadcast_refuses_dead_workers(self):
        """A worker whose session dropped cannot join the round a
        broadcast opens, so the broadcast fails fast instead of leaving
        the fleet waiting on a round that can never complete."""
        with SocketHub() as hub:
            session = SocketSession(*hub.address)
            session.send(delta_message(0, 1, 0, fresh_countsketch().to_state()))
            session.send(round_end_message(0, 1, 1))
            hub.collect_round(1, expected=1, timeout=10.0)
            session.close()
            deadline = time.monotonic() + 5.0
            while not hub._dead and time.monotonic() < deadline:
                time.sleep(0.01)  # reader thread notices the close
            with pytest.raises(WorkerFailure, match="disconnected before"):
                hub.broadcast(round_begin_message(2, "abcd", None))

    def test_cli_coordinate_purges_stale_broadcasts(self, tmp_path):
        """A leftover broadcast on a reused rendezvous dir (previous run
        crashed between rounds) is purged when the coordinator starts, so
        fresh workers cannot be advanced to a stale round 2."""
        rendezvous = tmp_path / "rv"
        FileTransport(rendezvous).publish_broadcast(
            round_begin_message(2, "stale", None)
        )
        with pytest.raises(TransportTimeout):
            main(["coordinate", "--workers", "1", "--timeout", "0.1",
                  "--sketch", "gsum", "--function", "x^2", "--n", str(N),
                  "--heaviness", "0.15", "--repetitions", "2", "--seed", "5",
                  "--passes", "2", "--rendezvous", str(rendezvous)])
        assert not list(rendezvous.glob("bcast-*.json"))


class TestStreamFileMode:
    """Many-files-per-worker mode: each worker owns a whole shard file —
    no shared stream, no partition bounds — and the merged state equals
    single-machine ingestion of the concatenated files."""

    def _split_files(self, tmp_path):
        updates = list(STREAM)
        half = len(updates) // 2
        shards = [
            TurnstileStream(N, updates[:half]),
            TurnstileStream(N, updates[half:]),
        ]
        paths = []
        for i, shard in enumerate(shards):
            path = tmp_path / f"shard-{i}.jsonl"
            save_stream(shard, path)
            paths.append(path)
        full = tmp_path / "full.jsonl"
        save_stream(STREAM, full)  # == the concatenation of the shards
        return paths, full

    def _flags(self, rendezvous, extra=()):
        return [*extra, "--sketch", "countsketch", "--rows", "3",
                "--buckets", "128", "--track", "8", "--seed", "7",
                "--rendezvous", str(rendezvous)]

    def test_cli_equivalence_vs_concatenated_ingestion(self, tmp_path, capsys):
        paths, full = self._split_files(tmp_path)
        rendezvous = tmp_path / "rv"
        for worker_id, path in enumerate(paths):
            code = main(
                ["worker", "--stream-file", str(path), "--worker-id",
                 str(worker_id), "--workers", "2",
                 *self._flags(rendezvous)]
            )
            assert code == 0
        code = main(
            ["coordinate", "--workers", "2", "--verify-stream", str(full),
             *self._flags(rendezvous)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "identical to single-machine ingestion: True" in out

    def test_cli_rejects_both_stream_sources(self, tmp_path):
        paths, full = self._split_files(tmp_path)
        with pytest.raises(SystemExit, match="not both"):
            main(["worker", str(full), "--stream-file", str(paths[0]),
                  "--worker-id", "0", "--workers", "1",
                  *self._flags(tmp_path / "rv")])

    def test_cli_two_pass_round_protocol_over_shard_files(self, tmp_path, capsys):
        """Composition: many-files-per-worker + the 2-pass round protocol
        + streaming deltas, driven end to end through the CLI."""
        paths, full = self._split_files(tmp_path)
        rendezvous = tmp_path / "rv"
        gsum_flags = ["--sketch", "gsum", "--function", "x^2",
                      "--n", str(N), "--heaviness", "0.15",
                      "--repetitions", "2", "--seed", "5", "--passes", "2",
                      "--delta-every", "300", "--rendezvous", str(rendezvous)]
        threads = [
            threading.Thread(target=main, args=(
                ["worker", "--stream-file", str(path), "--worker-id",
                 str(i), "--workers", "2", *gsum_flags],
            ))
            for i, path in enumerate(paths)
        ]
        for t in threads:
            t.start()
        code = main(["coordinate", "--workers", "2", "--verify-stream",
                     str(full), *gsum_flags])
        for t in threads:
            t.join()
        out = capsys.readouterr().out
        assert code == 0
        assert "identical to single-machine ingestion: True" in out


class TestBackoff:
    """The file transport polls with exponential back-off instead of a
    fixed-rate busy-wait, and every transport wait raises the one
    ``TransportTimeout``."""

    def test_transport_timeout_is_timeout_error(self):
        assert issubclass(TransportTimeout, TimeoutError)

    def test_poll_interval_backs_off_and_caps(self, tmp_path, monkeypatch):
        sleeps = []
        monkeypatch.setattr(
            "repro.distributed.transport.time.sleep", sleeps.append
        )
        box = FileTransport(
            tmp_path / "rv", poll_interval=0.01, max_poll_interval=0.04
        )
        with pytest.raises(TransportTimeout):
            box.collect_round(1, expected=1, timeout=0.2)
        assert sleeps[:3] == pytest.approx([0.01, 0.02, 0.04])
        assert max(sleeps) <= 0.04 + 1e-9

    def test_backoff_resets_on_progress(self, tmp_path, monkeypatch):
        box = FileTransport(
            tmp_path / "rv", poll_interval=0.01, max_poll_interval=0.08
        )
        sleeps = []

        def drop_late(interval):
            sleeps.append(interval)
            if len(sleeps) == 4:  # worker 0 arrives after the 4th idle poll
                box.send_round(delta_message(0, 1, 0, {"x": 1}))
                box.send_round(round_end_message(0, 1, 1))

        monkeypatch.setattr(
            "repro.distributed.transport.time.sleep", drop_late
        )
        with pytest.raises(TransportTimeout, match=r"workers \[1\]"):
            box.collect_round(1, expected=2, timeout=0.3)
        # Ramped to the cap while idle, then the arrival reset the
        # interval back to the initial value.
        assert sleeps[:4] == pytest.approx([0.01, 0.02, 0.04, 0.08])
        assert sleeps[4] == pytest.approx(0.01)

    def test_socket_session_recv_timeout(self):
        with SocketHub() as hub:
            session = SocketSession(*hub.address)
            with pytest.raises(TransportTimeout, match="no frame"):
                session.recv(timeout=0.1)
            session.close()


class TestPartitioning:
    def test_bounds_cover_exactly(self):
        for total in (0, 1, 7, 1000):
            for workers in (1, 2, 4, 9):
                bounds = partition_bounds(total, workers)
                assert bounds[0] == 0 and bounds[-1] == total
                assert len(bounds) == workers + 1
                assert (np.diff(bounds) >= 0).all()

    def test_worker_slice_disjoint_union(self):
        items, deltas = STREAM.as_arrays()
        parts = [worker_slice(items, deltas, i, 4) for i in range(4)]
        assert sum(p[0].shape[0] for p in parts) == items.shape[0]
        assert np.array_equal(np.concatenate([p[0] for p in parts]), items)

    def test_bad_worker_id(self):
        items, deltas = STREAM.as_arrays()
        with pytest.raises(ValueError, match="worker_id"):
            worker_slice(items, deltas, 4, 4)


class TestWire:
    def test_socket_frame_round_trip(self):
        a, b = socket.socketpair()
        try:
            message = delta_message(3, 1, 0, {"format": "repro-sketch-state"})
            send_frame(a, message)
            assert recv_frame(b) == message
        finally:
            a.close()
            b.close()

    def test_validation_rejects_garbage(self):
        from repro.distributed.wire import validate_message

        with pytest.raises(ValueError, match="not a repro-dist"):
            validate_message({"format": "nope"})
        with pytest.raises(ValueError, match="version"):
            validate_message({"format": "repro-dist", "version": 99})
        with pytest.raises(ValueError, match="message type"):
            validate_message(
                {"format": "repro-dist", "version": 1, "type": "gossip"}
            )
        with pytest.raises(ValueError, match="state dict"):
            validate_message(
                {"format": "repro-dist", "version": 1, "type": "delta",
                 "worker": 0, "round": 1, "seq": 0}
            )
        # An older peer's one-shot envelope is rejected, never merged.
        with pytest.raises(ValueError, match="message type 'state'"):
            validate_message(
                {"format": "repro-dist", "version": 1, "type": "state",
                 "worker": 0, "state": {}}
            )

    def test_round_envelopes_validate(self):
        from repro.distributed.wire import validate_message

        state = {"format": "repro-sketch-state"}
        assert validate_message(delta_message(1, 2, 0, state))["seq"] == 0
        assert validate_message(round_end_message(1, 2, 3))["frames"] == 3
        begin = validate_message(round_begin_message(2, "abcd", {"reps": []}))
        assert begin["worker"] == -1 and begin["round"] == 2

        with pytest.raises(ValueError, match="seq"):
            validate_message(
                {"format": "repro-dist", "version": 1, "type": "delta",
                 "worker": 0, "round": 1, "state": state}
            )
        with pytest.raises(ValueError, match="round id"):
            validate_message(
                {"format": "repro-dist", "version": 1, "type": "round_end",
                 "worker": 0, "frames": 1}
            )
        with pytest.raises(ValueError, match="compat"):
            validate_message(
                {"format": "repro-dist", "version": 1, "type": "round_begin",
                 "worker": -1, "round": 2, "candidates": None}
            )
        with pytest.raises(ValueError, match="candidates"):
            validate_message(
                {"format": "repro-dist", "version": 1, "type": "round_begin",
                 "worker": -1, "round": 2, "compat": "abcd"}
            )

    def test_round_begin_codec_advertisement(self):
        """A current coordinator advertises no codec; an older one's
        ``codec`` field, of any value, still validates."""
        from repro.distributed.wire import validate_message

        begin = round_begin_message(2, "abcd", {"reps": []})
        assert "codec" not in begin
        for advertised in ("dense-json", "sparse-binary", 7):
            message = validate_message(dict(begin, codec=advertised))
            assert message["codec"] == advertised


class TestTransports:
    def test_file_atomic_publish_and_collect(self, tmp_path):
        box = FileTransport(tmp_path / "rv", poll_interval=0.01)
        for worker in (1, 0):
            box.send_round(delta_message(worker, 1, 0, {"x": worker}))
            box.send_round(round_end_message(worker, 1, 1))
        merged = []
        summary = box.collect_round(
            1, expected=2, timeout=1.0,
            on_state=lambda message: merged.append(message["worker"]),
        )
        assert merged == [0, 1]  # canonical order, whatever the arrival
        assert summary["workers"] == [0, 1]
        assert not list((tmp_path / "rv").glob("*.tmp"))

    def test_file_collect_timeout(self, tmp_path):
        """A missing worker times out by name — including one that
        predates the round protocol and dropped a one-shot
        ``msg-*.json`` state file, which the coordinator never reads."""
        box = FileTransport(tmp_path / "rv", poll_interval=0.01)
        box.send_round(delta_message(0, 1, 0, {}))
        box.send_round(round_end_message(0, 1, 1))
        (tmp_path / "rv" / "msg-0001.json").write_text(json.dumps(
            {"format": "repro-dist", "version": 1, "type": "state",
             "worker": 1, "state": {}}
        ))
        with pytest.raises(TransportTimeout, match=r"stragglers: workers \[1\]"):
            box.collect_round(1, expected=2, timeout=0.05)

    def test_file_error_envelope_fails_fast(self, tmp_path):
        """Even an untagged error envelope lands in the round inbox."""
        FileWorkerSession(tmp_path / "rv").send(error_message(1, "exploded"))
        box = FileTransport(tmp_path / "rv", poll_interval=0.01)
        with pytest.raises(WorkerFailure, match="worker 1.*exploded"):
            # no 30s wait: the error short-circuits the round
            box.collect_round(1, expected=2, timeout=30.0)

    def test_socket_collect_and_failure(self):
        def ship(address, worker):
            with SocketSession(*address) as session:
                session.send(delta_message(worker, 1, 0, {"i": worker}))
                session.send(round_end_message(worker, 1, 1))

        with SocketHub() as hub:
            threads = [
                threading.Thread(target=ship, args=(hub.address, i))
                for i in range(3)
            ]
            for t in threads:
                t.start()
            summary = hub.collect_round(1, expected=3, timeout=10.0)
            for t in threads:
                t.join(timeout=10.0)
                assert not t.is_alive()
        assert summary["workers"] == [0, 1, 2]

        with SocketHub() as hub:
            with SocketSession(*hub.address) as session:
                session.send(error_message(7, "boom", round_id=1))
                with pytest.raises(WorkerFailure, match="worker 7"):
                    hub.collect_round(1, expected=2, timeout=10.0)

    def test_socket_connect_timeout(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            host, port = probe.getsockname()
        # closed without ever listening: every dial is refused
        with pytest.raises(TransportTimeout, match="could not connect"):
            SocketSession(host, port, connect_timeout=0.05, retry_interval=0.01)

    def test_socket_listener_timeout(self):
        """A worker that predates the round protocol connects, ships one
        one-shot ``state`` frame and hangs up.  The frame fails
        validation, so nothing merges and the round times out naming
        that worker."""
        with SocketHub() as hub:
            with socket.create_connection(hub.address) as legacy:
                send_frame(legacy, {"format": "repro-dist", "version": 1,
                                    "type": "state", "worker": 0, "state": {}})
            with pytest.raises(TransportTimeout, match=r"stragglers: workers \[0\]"):
                hub.collect_round(1, expected=1, timeout=0.3)


class TestCompatibility:
    def test_wrong_seed_rejected_at_merge(self, tmp_path):
        shipped = drive(fresh_countsketch(), STREAM).to_state()
        other = CountSketch(5, 256, track=16, seed=10)  # different lineage
        box = FileTransport(tmp_path / "rv", poll_interval=0.01)
        with pytest.raises(ValueError, match="different configuration"):
            coordinate_states(other, box, [shipped])
        assert not other._table.any()  # rejected before anything merged

    def test_wrong_shape_rejected_at_merge(self, tmp_path):
        shipped = drive(fresh_countsketch(), STREAM).to_state()
        other = CountSketch(5, 512, track=16, seed=9)
        box = FileTransport(tmp_path / "rv", poll_interval=0.01)
        with pytest.raises(ValueError, match="different configuration"):
            coordinate_states(other, box, [shipped])

    def test_driver_validates_inputs(self):
        with pytest.raises(ValueError, match="transport"):
            distributed_ingest(fresh_countsketch(), STREAM, transport="pigeon")
        with pytest.raises(ValueError, match="mode"):
            distributed_ingest(fresh_countsketch(), STREAM, mode="fiber")
        with pytest.raises(TypeError, match="mergeable-sketch"):
            distributed_ingest(object(), STREAM)


class TestSpecs:
    def test_round_trips_builds_siblings(self):
        spec = {"kind": "countsketch", "rows": 4, "buckets": 128,
                "track": 8, "seed": 3}
        a, b = build_sketch(spec), build_sketch(json.loads(json.dumps(spec)))
        assert a.compat_digest() == b.compat_digest()

    def test_gsum_spec(self):
        spec = {"kind": "gsum", "function": "x^2", "n": 256,
                "heaviness": 0.3, "repetitions": 1, "seed": 2}
        a, b = build_sketch(spec), build_sketch(dict(spec))
        assert a.compat_digest() == b.compat_digest()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown sketch spec keys"):
            build_sketch({"kind": "countmin", "rows": 3, "bukets": 64})

    def test_two_pass_gsum_spec_builds(self):
        spec = {"kind": "gsum", "function": "x^2", "n": 256, "passes": 2,
                "heaviness": 0.3, "repetitions": 1, "seed": 2}
        a, b = build_sketch(spec), build_sketch(dict(spec))
        assert a.passes == 2
        assert a.compat_digest() == b.compat_digest()

    def test_bad_pass_count_rejected(self):
        with pytest.raises(ValueError, match="passes"):
            build_sketch({"kind": "gsum", "passes": 3})


class TestCli:
    def _args(self, extra):
        return extra + ["--sketch", "countsketch", "--rows", "3",
                        "--buckets", "128", "--track", "8", "--seed", "7"]

    def test_file_transport_round_trip(self, tmp_path, capsys):
        stream_path = tmp_path / "stream.jsonl"
        save_stream(STREAM, stream_path)
        rendezvous = str(tmp_path / "rv")
        for worker_id in (0, 1):
            code = main(self._args(
                ["worker", str(stream_path), "--worker-id", str(worker_id),
                 "--workers", "2", "--rendezvous", rendezvous]
            ))
            assert code == 0
        code = main(self._args(
            ["coordinate", "--workers", "2", "--rendezvous", rendezvous,
             "--verify-stream", str(stream_path)]
        ))
        out = capsys.readouterr().out
        assert code == 0
        assert "merged 2 worker states" in out
        assert "identical to single-machine ingestion: True" in out

    def test_coordinate_consumes_messages(self, tmp_path, capsys):
        """A reused rendezvous dir must not replay a previous run's
        states: coordinate purges the drop-box after a successful merge,
        so a second coordinate times out instead of silently remerging."""
        stream_path = tmp_path / "stream.jsonl"
        save_stream(STREAM, stream_path)
        rendezvous = tmp_path / "rv"
        main(self._args(
            ["worker", str(stream_path), "--worker-id", "0", "--workers", "1",
             "--rendezvous", str(rendezvous)]
        ))
        assert main(self._args(
            ["coordinate", "--workers", "1", "--rendezvous", str(rendezvous)]
        )) == 0
        assert not list(rendezvous.glob("rmsg-*.json"))
        with pytest.raises(TransportTimeout):
            main(self._args(
                ["coordinate", "--workers", "1", "--timeout", "0.1",
                 "--rendezvous", str(rendezvous)]
            ))

    def test_round_trip_reports_state_bytes(self, tmp_path, capsys):
        """The coordinator reports the merged state's size, which equals
        the single-machine state's, since the two are the same bits."""
        stream_path = tmp_path / "stream.jsonl"
        save_stream(STREAM, stream_path)
        rendezvous = str(tmp_path / "rv")
        for worker_id in (0, 1):
            code = main(self._args(
                ["worker", str(stream_path), "--worker-id", str(worker_id),
                 "--workers", "2", "--rendezvous", rendezvous]
            ))
            assert code == 0
        code = main(self._args(
            ["coordinate", "--workers", "2", "--rendezvous", rendezvous,
             "--verify-stream", str(stream_path)]
        ))
        out = capsys.readouterr().out
        single = drive(build_sketch({"kind": "countsketch", "rows": 3,
                                     "buckets": 128, "track": 8, "seed": 7}),
                       STREAM)
        assert code == 0
        assert f"state bytes: {len(dumps_state(single.to_state())):,}" in out
        assert "identical to single-machine ingestion: True" in out

    def _two_pass_delta_fleet(self, tmp_path, transport, rendezvous) -> int:
        """Two CLI workers and a CLI coordinator run the two-pass round
        protocol with streaming deltas; returns the coordinator's exit
        code."""
        stream_path = tmp_path / "stream.jsonl"
        save_stream(STREAM, stream_path)
        flags = ["--sketch", "gsum", "--function", "x^2", "--n", str(N),
                 "--heaviness", "0.15", "--repetitions", "2", "--seed", "5",
                 "--passes", "2", "--delta-every", "400", "--timeout", "30",
                 "--transport", transport, "--rendezvous", rendezvous]
        threads = [
            threading.Thread(target=main, args=(
                ["worker", str(stream_path), "--worker-id", str(i),
                 "--workers", "2", *flags],
            ))
            for i in range(2)
        ]
        for t in threads:
            t.start()
        code = main(["coordinate", "--workers", "2",
                     "--verify-stream", str(stream_path), *flags])
        for t in threads:
            t.join(timeout=30.0)
            assert not t.is_alive()
        return code

    def test_two_pass_delta_cli(self, tmp_path, capsys):
        """The two-pass round protocol with ``--delta-every``, end to end
        through the CLI over the file transport."""
        code = self._two_pass_delta_fleet(tmp_path, "file", str(tmp_path / "rv"))
        out = capsys.readouterr().out
        assert code == 0
        assert "identical to single-machine ingestion: True" in out

    def test_two_pass_delta_cli_socket(self, tmp_path, capsys):
        """The same fleet over the socket transport."""
        with socket.socket() as probe:  # a free port for the hub
            probe.bind(("127.0.0.1", 0))
            rendezvous = f"127.0.0.1:{probe.getsockname()[1]}"
        code = self._two_pass_delta_fleet(tmp_path, "socket", rendezvous)
        out = capsys.readouterr().out
        assert code == 0
        assert "identical to single-machine ingestion: True" in out

    def test_one_pass_round_trip_socket(self, tmp_path, capsys):
        """The 1-pass CLI fleet over the socket transport, which the file
        round trip above does not reach."""
        stream_path = tmp_path / "stream.jsonl"
        save_stream(STREAM, stream_path)
        with socket.socket() as probe:  # a free port for the hub
            probe.bind(("127.0.0.1", 0))
            rendezvous = f"127.0.0.1:{probe.getsockname()[1]}"
        flags = ["--transport", "socket", "--rendezvous", rendezvous]
        threads = [
            threading.Thread(target=main, args=(self._args(
                ["worker", str(stream_path), "--worker-id", str(i),
                 "--workers", "2", *flags]
            ),))
            for i in range(2)
        ]
        for t in threads:
            t.start()
        code = main(self._args(
            ["coordinate", "--workers", "2", "--timeout", "30",
             "--verify-stream", str(stream_path), *flags]
        ))
        for t in threads:
            t.join(timeout=30.0)
            assert not t.is_alive()
        out = capsys.readouterr().out
        assert code == 0
        assert "identical to single-machine ingestion: True" in out

    def test_worker_reports_shipped_frames(self, tmp_path, capsys):
        """A worker reports the frames it shipped per round, not the
        blank estimate and size of the CLI sketch it never feeds."""
        stream_path = tmp_path / "stream.jsonl"
        save_stream(STREAM, stream_path)
        share = int(partition_bounds(len(STREAM), 2)[1])
        code = main(
            ["worker", str(stream_path), "--worker-id", "0", "--workers",
             "2", "--sketch", "gsum", "--function", "x^2", "--n", str(N),
             "--heaviness", "0.15", "--repetitions", "2", "--seed", "5",
             "--delta-every", "400", "--rendezvous", str(tmp_path / "rv")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"round 1: {-(-share // 400)} frame(s) shipped" in out
        assert "estimate:" not in out
        assert "state bytes" not in out

    def test_mismatched_seed_fails_loudly(self, tmp_path):
        stream_path = tmp_path / "stream.jsonl"
        save_stream(STREAM, stream_path)
        rendezvous = str(tmp_path / "rv")
        code = main(self._args(
            ["worker", str(stream_path), "--worker-id", "0", "--workers", "1",
             "--rendezvous", rendezvous]
        ))
        assert code == 0
        with pytest.raises(ValueError, match="different configuration"):
            main(["coordinate", "--workers", "1", "--rendezvous", rendezvous,
                  "--sketch", "countsketch", "--rows", "3", "--buckets",
                  "128", "--track", "8", "--seed", "8"])
