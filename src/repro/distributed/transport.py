"""Transports for the coordinator/worker round protocol.

Interchangeable ways to move :mod:`repro.distributed.wire` envelopes
between shard workers and a coordinator; every one of them carries the
same rounds (a 1-pass job is a one-round session):

:class:`FileTransport` / :class:`FileWorkerSession`
    A drop-box directory (typically on a shared filesystem) doubling as
    an **inbox/outbox pair**: workers drop round-tagged ``rmsg-*`` frame
    files (inbox), the coordinator publishes ``bcast-*`` round-begin
    broadcasts (outbox) that every worker polls for.  Each file is
    written via an atomic write-to-temp-then-rename, so a polling peer
    only ever observes complete messages.  No daemon, no ports, survives
    coordinator restarts; the natural choice for batch jobs and tests.
    All polling loops back off exponentially from ``poll_interval`` up
    to ``max_poll_interval``, resetting whenever a message actually
    arrives — idle waits cost little CPU, active bursts stay responsive.

:class:`SocketSession` / :class:`SocketHub`
    TCP with length-prefixed frames (see :mod:`repro.distributed.wire`).
    Each worker holds one long-lived connection (:class:`SocketSession`)
    carrying many frames in both directions — state deltas up,
    round-begin broadcasts down; it retries the connect until the
    coordinator is listening, so start order does not matter.  The
    coordinator side (:class:`SocketHub`) accepts every worker once,
    reads frames off each connection on a reader thread, and can
    broadcast to all connected workers.  A connection dropping mid-round
    fails the round immediately instead of waiting for the timeout.

:class:`ShmTransport` / :class:`ShmWorkerSession`
    The zero-copy same-host shape: drop-box control flow identical to
    :class:`FileTransport`, but the binary array buffers of each frame
    ship through a named ``multiprocessing.shared_memory`` segment
    instead of the file — the JSON envelope in the drop-box carries only
    a segment handle, and the coordinator maps the segment read-only and
    decodes straight out of it, no serialization round-trip.  Peers
    prove same-hostness against a coordinator beacon file; a worker on a
    different machine (or a frame with no binary buffers) transparently
    falls back to the inline file shape, so mixed fleets still merge.

Every collect path raises the single :class:`TransportTimeout` on expiry
(:data:`CollectTimeout` remains as a backwards-compatible alias) and
:class:`WorkerFailure` when a worker ships an ``error`` envelope.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import queue
import socket
import threading
import time
from typing import Callable, Dict, List, Set

from repro.distributed.wire import (
    COORDINATOR_ID,
    _attach_buffers,
    _buffer_sizes,
    _lift_buffers,
    dumps_frame,
    loads_frame,
    recv_frame,
    send_frame,
    validate_message,
)

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - exotic builds without _posixshmem
    resource_tracker = None
    shared_memory = None


class WorkerFailure(RuntimeError):
    """A worker shipped an ``error`` envelope (or died mid-round) instead
    of completing its state."""


class TransportTimeout(TimeoutError):
    """A transport wait (collect, broadcast poll, connect) expired.  Both
    transports raise exactly this class, so callers handle stragglers
    uniformly regardless of deployment shape."""


#: Backwards-compatible alias (the pre-round-protocol exception name).
CollectTimeout = TransportTimeout


class _Backoff:
    """Exponential poll back-off: sleep intervals grow by ``factor`` from
    ``initial`` up to ``maximum``; :meth:`reset` after any progress."""

    def __init__(self, initial: float, maximum: float, factor: float = 2.0):
        self.initial = max(float(initial), 1e-4)
        self.maximum = max(float(maximum), self.initial)
        self.factor = max(float(factor), 1.0)
        self.current = self.initial

    def reset(self) -> None:
        self.current = self.initial

    def sleep(self, remaining: float | None = None) -> None:
        interval = self.current
        if remaining is not None:
            interval = max(min(interval, remaining), 0.0)
        time.sleep(interval)
        self.current = min(self.current * self.factor, self.maximum)


class RoundTracker:
    """Round bookkeeping shared by both transports' ``collect_round``:
    which workers have which delta frames, who has declared round-end,
    and the protocol checks — duplicate frames and frames from a *future*
    round raise ``ValueError``; frames from a past round are counted as
    stale and dropped (a straggler retransmit must not corrupt the current
    round); ``delta_skipped`` heartbeats occupy their ``seq`` slot (so
    frame accounting stays exact) without offering anything to merge;
    ``error`` envelopes raise :class:`WorkerFailure` immediately."""

    def __init__(self, round_id: int, expected: int):
        self.round_id = int(round_id)
        self.expected = int(expected)
        self.frames: Dict[int, Set[int]] = {}
        self.ends: Dict[int, int] = {}
        self.stale = 0
        self.skipped = 0

    def offer(self, message: dict) -> str:
        """Feed one envelope; returns ``"delta"`` when the caller should
        merge the frame, ``"end"`` / ``"skip"`` / ``"stale"`` otherwise."""
        kind = message["type"]
        if kind == "error":
            raise WorkerFailure(
                f"worker {message['worker']} failed in round "
                f"{message.get('round', '?')}: {message.get('detail', '?')}"
            )
        if kind not in ("delta", "delta_skipped", "round_end"):
            raise ValueError(
                f"unexpected {kind!r} message during round {self.round_id}"
            )
        round_id = message["round"]
        if round_id < self.round_id:
            self.stale += 1
            return "stale"
        if round_id > self.round_id:
            raise ValueError(
                f"frame from future round {round_id} during round "
                f"{self.round_id} (worker {message['worker']})"
            )
        worker = message["worker"]
        if kind in ("delta", "delta_skipped"):
            seen = self.frames.setdefault(worker, set())
            seq = message["seq"]
            if seq in seen:
                raise ValueError(
                    f"duplicate delta frame (round {round_id}, worker "
                    f"{worker}, seq {seq})"
                )
            seen.add(seq)
            if kind == "delta_skipped":
                self.skipped += 1
                return "skip"
            return "delta"
        if worker in self.ends:
            raise ValueError(
                f"duplicate round_end (round {round_id}, worker {worker})"
            )
        self.ends[worker] = message["frames"]
        return "end"

    def worker_complete(self, worker: int) -> bool:
        frames = self.ends.get(worker)
        return frames is not None and len(self.frames.get(worker, ())) >= frames

    def complete(self) -> bool:
        if len(self.ends) < self.expected:
            return False
        return all(self.worker_complete(worker) for worker in self.ends)

    def missing(self) -> List[int]:
        """Straggler report: worker ids (by the 0..expected-1 convention)
        that have not completed the round."""
        return [w for w in range(self.expected) if not self.worker_complete(w)]

    def summary(self) -> dict:
        return {
            "round": self.round_id,
            "workers": sorted(self.ends),
            "frames": {w: len(s) for w, s in sorted(self.frames.items())},
            "stale": self.stale,
            "skipped": self.skipped,
        }


# ------------------------------------------------------------ file drop-box

class FileTransport:
    """Drop-box directory transport (both endpoints).

    Parameters
    ----------
    directory:
        The rendezvous directory; created on first use.  Workers and the
        coordinator must point at the same path (typically on a shared
        filesystem for real cross-machine runs).
    poll_interval:
        Initial polling period in seconds; every idle poll doubles it (see
        ``backoff``) so long waits do not busy-spin.
    max_poll_interval:
        Back-off ceiling in seconds.
    backoff:
        Multiplier applied to the poll interval after each idle poll;
        progress (a new message) resets the interval to ``poll_interval``.
    """

    def __init__(
        self,
        directory: str | pathlib.Path,
        poll_interval: float = 0.02,
        max_poll_interval: float = 0.5,
        backoff: float = 2.0,
    ):
        self.directory = pathlib.Path(directory)
        self.poll_interval = float(poll_interval)
        self.max_poll_interval = float(max_poll_interval)
        self.backoff = float(backoff)
        self._round_parsed: Set[str] = set()

    def _backoff(self) -> _Backoff:
        return _Backoff(self.poll_interval, self.max_poll_interval, self.backoff)

    def _round_path(self, message: dict) -> pathlib.Path:
        kind = message["type"]
        worker = int(message["worker"])
        round_id = int(message.get("round", 0))
        if kind in ("delta", "delta_skipped"):
            # A skipped frame occupies the same (round, worker, seq) name a
            # real delta would, so retransmits still overwrite themselves.
            name = f"rmsg-{round_id:03d}-w{worker:04d}-d{message['seq']:06d}.json"
        elif kind == "round_end":
            name = f"rmsg-{round_id:03d}-w{worker:04d}-end.json"
        else:  # error
            name = f"rmsg-{round_id:03d}-w{worker:04d}-err.json"
        return self.directory / name

    def _broadcast_path(self, round_id: int) -> pathlib.Path:
        return self.directory / f"bcast-{int(round_id):03d}.json"

    def _publish(self, path: pathlib.Path, message: dict) -> None:
        """Atomic publish: write ``*.tmp``, then rename.  POSIX rename is
        atomic within a filesystem, so a polling peer never reads a
        half-written message."""
        validate_message(message)
        self._write_atomic(path, dumps_frame(message))

    def _write_atomic(self, path: pathlib.Path, payload: bytes) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        temp = path.with_suffix(".json.tmp")
        temp.write_bytes(payload)
        try:
            temp.replace(path)
        except FileNotFoundError:
            # Round-boundary GC unlinked the tmp under us — only possible
            # for a frame whose round already completed (a stale
            # retransmit), which the tracker would drop anyway.
            pass

    def _load(self, path: pathlib.Path) -> dict:
        """Read one published frame file back into an envelope — the
        single read-side hook subclasses override to resolve out-of-band
        payloads (see :class:`ShmTransport`)."""
        return loads_frame(path.read_bytes())

    # ---------------------------------------------------------- worker side

    def send_round(self, message: dict) -> None:
        """Publish a worker envelope (``delta`` / ``delta_skipped`` /
        ``round_end`` / ``error``) under a name unique per (round, worker,
        frame) — a retransmit overwrites its own file, so the file
        transport deduplicates frames by construction."""
        self._publish(self._round_path(message), message)

    def wait_broadcast(self, round_id: int, timeout: float = 120.0) -> dict:
        """Worker side: poll (with back-off) for the coordinator's
        ``round_begin`` broadcast opening ``round_id``."""
        deadline = time.monotonic() + timeout
        backoff = self._backoff()
        path = self._broadcast_path(round_id)
        while True:
            if path.is_file():
                return self._load(path)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportTimeout(
                    f"file transport: no round-{round_id} broadcast in "
                    f"{self.directory} after {timeout:.0f}s"
                )
            backoff.sleep(remaining)

    # ----------------------------------------------------- coordinator side

    def collect_round(
        self,
        round_id: int,
        expected: int,
        timeout: float = 120.0,
        on_state: Callable[[dict], None] = lambda message: None,
    ) -> dict:
        """Poll until ``expected`` workers have completed ``round_id``
        (every delta frame present plus the ``round_end``), invoking
        ``on_state`` on each new delta frame as it lands — the streaming
        merge hook.  Returns the round summary dict.  Stale frames (from a
        past round) are dropped and counted; duplicates and future-round
        frames raise ``ValueError``; a worker ``error`` raises
        :class:`WorkerFailure`; expiry raises :class:`TransportTimeout`
        naming the stragglers."""
        tracker = RoundTracker(round_id, expected)
        deadline = time.monotonic() + timeout
        backoff = self._backoff()
        while True:
            progressed = False
            if self.directory.is_dir():
                for path in sorted(self.directory.glob("rmsg-*.json")):
                    if path.name in self._round_parsed:
                        continue
                    message = self._load(path)
                    self._round_parsed.add(path.name)
                    progressed = True
                    if tracker.offer(message) == "delta":
                        on_state(message)
            if tracker.complete():
                self._gc_round(round_id)
                return tracker.summary()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportTimeout(
                    f"file transport: round {round_id} incomplete after "
                    f"{timeout:.0f}s (stragglers: workers {tracker.missing()})"
                )
            if progressed:
                backoff.reset()
            backoff.sleep(remaining)

    def publish_broadcast(self, message: dict) -> None:
        """Coordinator side: publish a ``round_begin`` broadcast for every
        worker to pick up via :meth:`wait_broadcast`."""
        self._publish(self._broadcast_path(message["round"]), message)

    @staticmethod
    def _frame_round(name: str) -> int:
        """The round id encoded in an ``rmsg-RRR-*`` / ``bcast-RRR`` file
        name (0 when the name does not parse — never collected)."""
        try:
            return int(name.split("-")[1].split(".")[0])
        except (IndexError, ValueError):  # pragma: no cover - foreign files
            return 0

    def _gc_round(self, round_id: int) -> None:
        """Garbage-collect a completed round: every ``rmsg-*`` frame and
        ``bcast-*`` broadcast tagged with this round or earlier has been
        consumed by everyone who will ever read it (a broadcast for round
        R is read by each worker *before* it ships its round-R frames, so
        round-R completion proves full consumption).  Without this, long
        streaming sessions accumulate one file per delta frame per round
        forever.  A straggler retransmit recreating a collected name later
        is re-read and dropped as stale by :class:`RoundTracker`.

        ``*.json.tmp`` debris for collected rounds is swept too: a worker
        killed mid-publish leaves its half-written temp file orphaned
        forever (nothing will ever rename it), and a *live* writer losing
        its tmp to this sweep just drops the frame — harmless, because
        only frames of already-completed rounds are swept and those would
        be dropped as stale anyway."""
        if not self.directory.is_dir():
            return
        for pattern in (
            "rmsg-*.json", "bcast-*.json",
            "rmsg-*.json.tmp", "bcast-*.json.tmp",
        ):
            for path in self.directory.glob(pattern):
                if 1 <= self._frame_round(path.name) <= round_id:
                    try:
                        path.unlink()
                    except OSError:  # pragma: no cover - concurrent unlink
                        continue
                    self._round_parsed.discard(path.name)

    def purge(self) -> None:
        """Delete all drop-box messages — round frames and broadcasts
        alike (between runs on a reused dir)."""
        if self.directory.is_dir():
            for pattern in ("rmsg-*.json*", "bcast-*.json*"):
                for path in self.directory.glob(pattern):
                    path.unlink()
        self._round_parsed.clear()

    def purge_broadcasts(self) -> None:
        """Delete leftover ``bcast-*`` files only.  A round coordinator
        starting up has not broadcast anything yet, so any broadcast file
        is debris from a previous run on a reused rendezvous dir — and
        would wrongly advance freshly-started workers to a past run's
        round 2.  Worker frames are left alone: workers may legitimately
        publish before the coordinator starts."""
        if self.directory.is_dir():
            for path in self.directory.glob("bcast-*.json*"):
                path.unlink()


class FileWorkerSession:
    """Worker-side session facade over a :class:`FileTransport` directory:
    the same ``send`` / ``recv_broadcast`` surface as
    :class:`SocketSession`, so the round protocol is transport-agnostic.
    Picklable (plain paths and floats), so process-hosted workers can carry
    it across the process boundary."""

    def __init__(self, directory: str | pathlib.Path, **transport_kwargs):
        self._transport = FileTransport(directory, **transport_kwargs)

    def send(self, message: dict) -> None:
        self._transport.send_round(message)

    def recv_broadcast(self, round_id: int, timeout: float = 120.0) -> dict:
        return self._transport.wait_broadcast(round_id, timeout)

    def close(self) -> None:  # symmetry with SocketSession
        pass


# ------------------------------------------------- shared-memory zero-copy

def host_token() -> str:
    """An identity string two processes share exactly when they run on
    the same machine *since the same boot* (hostname alone survives
    reboots and clones; the boot id does not)."""
    boot = ""
    try:
        boot = (
            pathlib.Path("/proc/sys/kernel/random/boot_id")
            .read_text()
            .strip()
        )
    except OSError:  # pragma: no cover - non-Linux hosts
        pass
    return f"{socket.gethostname()}:{boot}"


def _untrack_segment(name: str) -> None:
    """Opt a segment out of the per-process resource tracker.  Python
    (< 3.13) registers every attach unconditionally, so each worker exit
    would otherwise unlink segments the coordinator still reads and spam
    leak warnings; this transport owns segment lifetime explicitly
    (coordinator GC at round boundaries, :meth:`ShmTransport.purge`)."""
    if resource_tracker is None:  # pragma: no cover - no shm support
        return
    try:
        resource_tracker.unregister(name, "shared_memory")
    except Exception:  # pragma: no cover - tracker already gone
        pass


def _tracked_unlink(segment) -> None:
    """Unlink with level tracker books: every attach untracked itself
    immediately, but ``SharedMemory.unlink()`` sends its own unregister —
    so re-register just before, and the pair cancels.  (An unmatched
    unregister makes the tracker process print a KeyError traceback.)"""
    if resource_tracker is not None:
        try:
            resource_tracker.register(segment._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker already gone
            pass
    try:
        segment.unlink()
    except (OSError, ValueError):
        # Concurrently unlinked: unlink raised before sending its
        # unregister, so take the re-registration back out.
        _untrack_segment(segment._name)


class ShmTransport(FileTransport):
    """Same-host zero-copy drop-box: :class:`FileTransport` control flow
    with binary buffers shipped through named shared-memory segments.

    The drop-box file for a frame carrying binary-codec arrays holds only
    the JSON header (buffers lifted out, exactly as the socket transport's
    binary frames do) plus a ``"shm_segment"`` handle; the buffer bytes
    live in one ``multiprocessing.shared_memory`` segment per frame.  The
    coordinator maps the segment and decodes arrays *directly out of the
    mapping* — no base64, no JSON array parsing, no copy until the final
    ``np.frombuffer(...).astype`` materializes the mutable array.

    Same-host proof: the coordinator :meth:`announce`\\ s a beacon file
    carrying its :func:`host_token`; a sender only uses shared memory
    once it has seen a matching beacon, and falls back to the inline file
    shape otherwise (different machine, beacon not yet written, frame
    with no binary buffers, or ``/dev/shm`` creation failure).  Readers
    accept both shapes per file, so mixed fleets merge fine.

    Segment lifetime: writers create, fill, and close (never unlink);
    the coordinator unlinks at round boundaries (:meth:`_gc_round` — by
    *name pattern*, so segments orphaned by a killed worker die too) and
    on :meth:`purge`.  Every attach is unregistered from the resource
    tracker, which double-frees otherwise (see :func:`_untrack_segment`).
    """

    BEACON = "shm-host.json"

    def __init__(self, directory, **kwargs):
        super().__init__(directory, **kwargs)
        digest = hashlib.sha256(
            str(pathlib.Path(directory).resolve()).encode("utf-8")
        ).hexdigest()[:8]
        #: Segment-name prefix unique to this rendezvous directory, so
        #: concurrent runs never collide and GC can glob safely.
        self.segment_prefix = f"rps{digest}"
        self._segments: Dict[str, object] = {}
        self._deferred: List[object] = []
        self._shm_peer: bool | None = None

    # Sessions pickle their transport into process-hosted workers; open
    # segment handles stay behind (they are per-process resources).
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_segments"] = {}
        state["_deferred"] = []
        return state

    # ------------------------------------------------------------ same-host

    def announce(self) -> None:
        """Coordinator side: publish the beacon workers check before
        shipping through shared memory."""
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = json.dumps({"token": host_token()}).encode("utf-8")
        temp = self.directory / (self.BEACON + ".tmp")
        temp.write_bytes(payload)
        temp.replace(self.directory / self.BEACON)

    def _same_host(self) -> bool:
        """Whether a coordinator beacon proves same-hostness.  Matches
        and mismatches are cached; an *absent* beacon is re-checked per
        send, so a worker that starts before the coordinator upgrades to
        shared memory the moment the beacon lands."""
        if self._shm_peer is not None:
            return self._shm_peer
        if shared_memory is None:  # pragma: no cover - no shm support
            self._shm_peer = False
            return False
        try:
            beacon = json.loads(
                (self.directory / self.BEACON).read_text()
            )
        except (OSError, ValueError):
            return False
        self._shm_peer = beacon.get("token") == host_token()
        return self._shm_peer

    # ------------------------------------------------------------ write side

    def _segment_name(self, path: pathlib.Path) -> str:
        return f"{self.segment_prefix}-{path.name.removesuffix('.json')}"

    def _publish(self, path: pathlib.Path, message: dict) -> None:
        validate_message(message)
        buffers: list = []
        header = _lift_buffers(message, buffers)
        if not buffers or not self._same_host():
            self._write_atomic(path, dumps_frame(message))
            return
        name = self._segment_name(path)
        segment = self._create_segment(
            name, max(sum(len(b) for b in buffers), 1)
        )
        if segment is None:  # /dev/shm unavailable or full: inline
            self._write_atomic(path, dumps_frame(message))
            return
        offset = 0
        for buf in buffers:
            segment.buf[offset : offset + len(buf)] = buf
            offset += len(buf)
        segment.close()
        header["shm_segment"] = name
        self._write_atomic(
            path, json.dumps(header, separators=(",", ":")).encode("utf-8")
        )

    def _create_segment(self, name: str, size: int):
        try:
            segment = shared_memory.SharedMemory(
                name=name, create=True, size=size
            )
        except FileExistsError:
            # A retransmit of the same frame name: replace the segment,
            # mirroring how a frame file overwrites itself.
            self._unlink_segment(name)
            try:
                segment = shared_memory.SharedMemory(
                    name=name, create=True, size=size
                )
            except OSError:  # pragma: no cover - racing creators
                return None
        except (OSError, ValueError):  # pragma: no cover - shm exhausted
            return None
        _untrack_segment(segment._name)
        return segment

    # ------------------------------------------------------------- read side

    def _load(self, path: pathlib.Path) -> dict:
        data = path.read_bytes()
        if not data.startswith(b"{"):
            return loads_frame(data)
        header = json.loads(data.decode("utf-8"))
        name = header.pop("shm_segment", None)
        if name is None:
            return loads_frame(data)
        segment = shared_memory.SharedMemory(name=name)
        _untrack_segment(segment._name)
        views, offset = [], 0
        for nbytes in _buffer_sizes(header):
            views.append(segment.buf[offset : offset + nbytes])
            offset += nbytes
        message = validate_message(_attach_buffers(header, views))
        self._segments[name] = segment
        return message

    # ------------------------------------------------------------ lifecycle

    def _unlink_segment(self, name: str) -> None:
        """Unlink one segment by name (and close our mapping of it, when
        decoding finished with the buffers; a mapping with live views
        defers its close but the name still dies now, so ``/dev/shm``
        never leaks)."""
        segment = self._segments.pop(name, None)
        if segment is None:
            if shared_memory is None:  # pragma: no cover - no shm support
                return
            try:
                segment = shared_memory.SharedMemory(name=name)
            except (OSError, ValueError):
                return  # never created, or already unlinked
            _untrack_segment(segment._name)
        _tracked_unlink(segment)
        try:
            segment.close()
        except BufferError:
            self._deferred.append(segment)

    def _close_deferred(self) -> None:
        still_live = []
        for segment in self._deferred:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - views still exported
                still_live.append(segment)
        self._deferred = still_live

    def _segment_files(self) -> List[pathlib.Path]:
        """This rendezvous's segments currently present on the host, by
        name pattern — including ones orphaned by killed workers whose
        frame file never landed."""
        shm_dir = pathlib.Path("/dev/shm")
        if not shm_dir.is_dir():  # pragma: no cover - non-Linux hosts
            return []
        return list(shm_dir.glob(f"{self.segment_prefix}-*"))

    def _gc_round(self, round_id: int) -> None:
        super()._gc_round(round_id)
        self._close_deferred()
        for path in self._segment_files():
            stem = path.name[len(self.segment_prefix) + 1 :]
            if stem.startswith(("rmsg-", "bcast-")) and (
                1 <= self._frame_round(stem) <= round_id
            ):
                self._unlink_segment(path.name)

    def purge(self) -> None:
        super().purge()
        for name in list(self._segments):
            self._unlink_segment(name)
        for path in self._segment_files():
            self._unlink_segment(path.name)
        self._close_deferred()
        try:
            (self.directory / self.BEACON).unlink()
        except OSError:
            pass
        self._shm_peer = None


class ShmWorkerSession(FileWorkerSession):
    """Worker-side session facade over a :class:`ShmTransport` — the
    ``send`` / ``recv_broadcast`` surface of :class:`FileWorkerSession`
    with buffers travelling through shared memory when the coordinator's
    beacon proves same-hostness."""

    def __init__(self, directory: str | pathlib.Path, **transport_kwargs):
        self._transport = ShmTransport(directory, **transport_kwargs)


# ------------------------------------------------------------- TCP sockets

def _connect_with_retry(
    host: str, port: int, connect_timeout: float, retry_interval: float
) -> socket.socket:
    deadline = time.monotonic() + connect_timeout
    while True:
        try:
            return socket.create_connection((host, port), timeout=connect_timeout)
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise TransportTimeout(
                    f"socket transport: could not connect to coordinator at "
                    f"{host}:{port} within {connect_timeout:.0f}s ({exc})"
                ) from exc
            time.sleep(retry_interval)


class SocketSession:
    """Worker-side persistent TCP session: one long-lived connection
    carrying many frames in both directions — delta frames and round-ends
    up to the coordinator, round-begin broadcasts back down.  Connecting
    retries until ``connect_timeout`` elapses, so start order does not
    matter."""

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 30.0,
        retry_interval: float = 0.05,
    ):
        self.host = host
        self.port = int(port)
        self._sock = _connect_with_retry(
            host, self.port, float(connect_timeout), float(retry_interval)
        )

    def send(self, message: dict) -> None:
        validate_message(message)
        send_frame(self._sock, message)

    def recv(self, timeout: float = 120.0) -> dict:
        """Read the next frame from the coordinator."""
        self._sock.settimeout(max(float(timeout), 1e-3))
        try:
            return recv_frame(self._sock)
        except socket.timeout as exc:
            raise TransportTimeout(
                f"socket session: no frame from coordinator at "
                f"{self.host}:{self.port} within {timeout:.0f}s"
            ) from exc
        finally:
            self._sock.settimeout(None)

    def recv_broadcast(self, round_id: int, timeout: float = 120.0) -> dict:
        """Read the ``round_begin`` broadcast for ``round_id`` (any other
        frame here is a protocol violation and raises)."""
        message = self.recv(timeout)
        if message["type"] != "round_begin":
            raise ValueError(
                f"expected round_begin broadcast, got {message['type']!r}"
            )
        if message["round"] != round_id:
            raise ValueError(
                f"expected round-{round_id} broadcast, got round "
                f"{message['round']}"
            )
        return message

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close races are benign
            pass

    def __enter__(self) -> "SocketSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SocketHub:
    """Coordinator-side persistent TCP endpoint for the round protocol.

    Accepts one long-lived connection per worker (an accept thread plus a
    reader thread per connection feed an internal event queue), exposes
    :meth:`collect_round` (streaming-merge collection with the same
    :class:`RoundTracker` semantics as the file transport) and
    :meth:`broadcast` (push a frame to every connected worker).  A
    connection dropping before its worker completed the current round
    raises :class:`WorkerFailure` immediately — crashes fail the round
    fast instead of burning the timeout.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, backlog: int = 16):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(backlog)
        self._events: "queue.Queue[tuple]" = queue.Queue()
        self._conns: Dict[int, socket.socket] = {}
        self._dead: Set[int] = set()
        self._lock = threading.Lock()
        self._closed = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-hub-accept", daemon=True
        )
        self._accept_thread.start()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — what workers should dial."""
        host, port = self._sock.getsockname()[:2]
        return host, port

    # ------------------------------------------------------- reader threads

    def _accept_loop(self) -> None:
        self._sock.settimeout(0.1)
        while not self._closed:
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            threading.Thread(
                target=self._reader, args=(conn,), name="repro-hub-reader",
                daemon=True,
            ).start()

    def _reader(self, conn: socket.socket) -> None:
        worker: int | None = None
        try:
            while True:
                message = recv_frame(conn)
                sender = message.get("worker")
                if worker is None and isinstance(sender, int) and sender >= 0:
                    worker = sender
                    with self._lock:
                        self._conns[worker] = conn
                self._events.put(("message", message, None))
        except (ConnectionError, OSError, ValueError) as exc:
            if worker is not None:
                with self._lock:
                    self._conns.pop(worker, None)
                    self._dead.add(worker)
            self._events.put(("eof", worker, f"{type(exc).__name__}: {exc}"))
            try:
                conn.close()
            except OSError:  # pragma: no cover - close races are benign
                pass

    # --------------------------------------------------------- coordinator

    def collect_round(
        self,
        round_id: int,
        expected: int,
        timeout: float = 120.0,
        on_state: Callable[[dict], None] = lambda message: None,
    ) -> dict:
        """Consume frames until ``expected`` workers have completed
        ``round_id``, invoking ``on_state`` on each delta frame as it
        arrives (the streaming merge hook).  Semantics mirror
        :meth:`FileTransport.collect_round` — stale frames dropped and
        counted, duplicates and future rounds raise, worker errors or
        mid-round disconnects raise :class:`WorkerFailure`, expiry raises
        :class:`TransportTimeout` naming the stragglers."""
        tracker = RoundTracker(round_id, expected)
        deadline = time.monotonic() + timeout
        while not tracker.complete():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportTimeout(
                    f"socket transport: round {round_id} incomplete on "
                    f"{self.address} after {timeout:.0f}s (stragglers: "
                    f"workers {tracker.missing()})"
                )
            try:
                event, payload, detail = self._events.get(
                    timeout=min(remaining, 0.1)
                )
            except queue.Empty:
                continue
            if event == "message":
                if tracker.offer(payload) == "delta":
                    on_state(payload)
            else:  # eof
                worker = payload
                if worker is not None and not tracker.worker_complete(worker):
                    raise WorkerFailure(
                        f"worker {worker} disconnected mid-round {round_id} "
                        f"({detail})"
                    )
                # A completed (or never-identified) peer closing is normal.
        return tracker.summary()

    def broadcast(self, message: dict) -> int:
        """Send ``message`` to every connected worker; returns how many
        workers it reached.  A worker whose session already dropped cannot
        take part in the round the broadcast opens, so any known-dead
        worker fails the broadcast immediately."""
        if message.get("worker") != COORDINATOR_ID:
            raise ValueError("broadcasts must originate from the coordinator")
        validate_message(message)
        with self._lock:
            if self._dead:
                raise WorkerFailure(
                    f"workers {sorted(self._dead)} disconnected before the "
                    "broadcast"
                )
            conns = dict(self._conns)
        reached = 0
        for worker, conn in sorted(conns.items()):
            try:
                send_frame(conn, message)
                reached += 1
            except OSError as exc:
                raise WorkerFailure(
                    f"worker {worker} unreachable for broadcast ({exc})"
                ) from exc
        return reached

    # The coordinator-channel surface shared with FileTransport.
    publish_broadcast = broadcast

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close races are benign
            pass
        with self._lock:
            conns = list(self._conns.values())
            self._conns.clear()
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - close races are benign
                pass

    def __enter__(self) -> "SocketHub":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
