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

Every collect path raises the single :class:`TransportTimeout` on expiry
and :class:`WorkerFailure` when a worker ships an ``error`` envelope.
"""

from __future__ import annotations

import pathlib
import queue
import socket
import threading
import time
from typing import Callable, Dict, List, Set

from repro.distributed.wire import (
    COORDINATOR_ID,
    dumps_frame,
    loads_frame,
    recv_frame,
    send_frame,
    validate_message,
)

class WorkerFailure(RuntimeError):
    """A worker shipped an ``error`` envelope (or died mid-round) instead
    of completing its state."""


class TransportTimeout(TimeoutError):
    """A transport wait (collect, broadcast poll, connect) expired.  Both
    transports raise exactly this class, so callers handle stragglers
    uniformly regardless of deployment shape."""


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
        self.directory.mkdir(parents=True, exist_ok=True)
        temp = path.with_suffix(".json.tmp")
        temp.write_bytes(dumps_frame(message))
        try:
            temp.replace(path)
        except FileNotFoundError:
            # Round-boundary GC unlinked the tmp under us — only possible
            # for a frame whose round already completed (a stale
            # retransmit), which the tracker would drop anyway.
            pass

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
                return loads_frame(path.read_bytes())
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
                    message = loads_frame(path.read_bytes())
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
