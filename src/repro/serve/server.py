"""A dependency-free asyncio HTTP/1.1 JSON server over a QueryEngine.

No web framework is available in the reference container, so this is a
minimal hand-rolled HTTP/1.1 implementation: GET-only, keep-alive by
default, JSON bodies, enough of the protocol for ``urllib``, browsers, and
the load harness.  Endpoints:

====================  ====================================================
``GET /health``       liveness + current/snapshot epoch + query counter
``GET /stats``        cache hit rate, capabilities, epochs
``GET /estimate``     the sketch's aggregate estimate (g-SUM, F2, ...)
``GET /frequency/<item>``          one point frequency estimate
``GET /frequency?items=1,2,3``     batched frequency probes
``GET /heavy-hitters?k=16``        top-k cover entries
====================  ====================================================

Every JSON answer carries the ``epoch`` of the snapshot that produced it,
so clients can detect staleness and tests can assert epoch consistency.
A connection that takes longer than :data:`READ_TIMEOUT` to deliver a
request, idle keep-alive included, is closed.

The server can run in the foreground (:meth:`SketchServer.serve_forever`,
what ``repro serve`` does) or on a background thread with its own event
loop (:meth:`SketchServer.start_background`, what the tests and the bench
harness do).
"""

from __future__ import annotations

import asyncio
import json
import threading
from urllib.parse import parse_qs, urlsplit

from repro.serve.engine import QueryEngine

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found", 500: "Internal Server Error"}

#: Largest request body read (and discarded), in bytes: asyncio's own
#: stream limit.  Every route is a GET, so no valid request comes near it.
MAX_BODY = 1 << 16

#: Seconds a connection may take to deliver one request, from the wait
#: for its request line until its headers and body are read; then it is
#: closed.  This bounds an idle keep-alive connection and a half-sent
#: request alike.  Every client in this repository sends its next request
#: within milliseconds.
READ_TIMEOUT = 30.0


class SketchServer:
    """Asyncio HTTP/JSON front-end for a :class:`QueryEngine`."""

    def __init__(self, engine: QueryEngine, host: str = "127.0.0.1", port: int = 0):
        self.engine = engine
        self.host = str(host)
        self.port = int(port)  # 0 = ephemeral; updated once bound
        self._server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = threading.Event()

    # -------------------------------------------------------------- routing

    def _route(self, target: str) -> tuple[int, dict]:
        parts = urlsplit(target)
        path = parts.path.rstrip("/") or "/"
        query = parse_qs(parts.query)
        engine = self.engine
        try:
            if path == "/health":
                return 200, engine.health()
            if path == "/stats":
                return 200, engine.stats()
            if path == "/estimate":
                return 200, engine.aggregate()
            if path == "/heavy-hitters":
                k = None
                if "k" in query:
                    k = int(query["k"][0])
                    if k < 0:
                        raise ValueError("k must be non-negative")
                return 200, engine.heavy_hitters(k)
            if path == "/frequency":
                raw = query.get("items", [""])[0]
                if not raw:
                    return 400, {"error": "missing ?items=<id,id,...>"}
                items = [int(tok) for tok in raw.split(",") if tok]
                return 200, engine.frequency_batch(items)
            if path.startswith("/frequency/"):
                return 200, engine.frequency(int(path[len("/frequency/"):]))
            return 404, {"error": f"no route for {path}"}
        except LookupError as exc:
            return 404, {"error": str(exc)}
        except (ValueError, TypeError) as exc:
            return 400, {"error": str(exc)}

    # ------------------------------------------------------------ protocol

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader) -> tuple[str, str, bool] | None:
        """The next request's method, target and keep-alive flag, its body
        read and discarded; ``None`` at EOF or on a non-HTTP request line.
        A line over the stream limit, or a ``Content-Length`` outside
        ``[0, MAX_BODY]``, raises ``ValueError`` before any body is read."""
        fields = (await reader.readline()).decode("latin1").split()
        if len(fields) != 3:
            return None
        method, target, version = fields
        keep_alive = version.upper() != "HTTP/1.0"
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin1").partition(":")
            name, value = name.strip().lower(), value.strip()
            if name == "content-length":
                if not value.isdecimal() or int(value) > MAX_BODY:
                    raise ValueError(f"Content-Length must be in [0, {MAX_BODY}]")
                content_length = int(value)
            elif name == "connection":
                keep_alive = value.lower() != "close"
        if content_length:
            await reader.readexactly(content_length)
        return method, target, keep_alive

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            while True:
                # One timer per request, not a task per line: when it fires
                # the transport closes, and the reader sees end of stream.
                # Routing never awaits, so cancelling after it is as good
                # as cancelling once the request is read.
                deadline = loop.call_later(READ_TIMEOUT, writer.transport.close)
                try:
                    request = await self._read_request(reader)
                except ValueError as exc:  # answered, then the connection closes
                    status, payload, keep_alive = 400, {"error": str(exc)}, False
                else:
                    if request is None or writer.transport.is_closing():
                        break
                    method, target, keep_alive = request
                    if method != "GET":
                        status, payload = 400, {"error": "GET only"}
                    else:
                        status, payload = self._route(target)
                finally:
                    deadline.cancel()
                body = json.dumps(payload, separators=(",", ":")).encode()
                head = (
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                    "\r\n"
                ).encode("latin1")
                writer.write(head + body)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    # ----------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Bind and start accepting connections on the running loop."""
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self, duration: float | None = None) -> None:
        """Run in the foreground: bind, announce, serve until ``duration``
        elapses (``None`` = until cancelled)."""
        await self.start()
        print(f"serving on http://{self.host}:{self.port}", flush=True)
        try:
            if duration is None:
                await asyncio.Event().wait()
            else:
                await asyncio.sleep(duration)
        finally:
            await self.stop()

    def start_background(self) -> "SketchServer":
        """Run the server on a daemon thread with its own event loop;
        returns once the port is bound.  Pair with :meth:`stop_background`."""
        if self._thread is not None:
            raise RuntimeError("server already started")

        def _run() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)

            async def _main() -> None:
                await self.start()
                self._started.set()
                await asyncio.Event().wait()

            try:
                loop.run_until_complete(_main())
            except asyncio.CancelledError:  # pragma: no cover - shutdown path
                pass
            finally:
                loop.close()

        self._thread = threading.Thread(target=_run, name="sketch-server", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("server failed to start within 10s")
        return self

    def stop_background(self) -> None:
        if self._thread is None:
            return
        loop = self._loop
        if loop is not None and loop.is_running():

            def _shutdown() -> None:
                for task in asyncio.all_tasks():
                    task.cancel()

            loop.call_soon_threadsafe(_shutdown)
        self._thread.join(timeout=10.0)
        self._thread = None
        self._loop = None
        self._started.clear()
