"""``serve-live``: the HTTP estimate server answering an open-loop load
while it keeps ingesting its stream.

The server runs in its own process with the arguments of ``repro serve
--sketch gsum --live-chunk <chunk>`` plus a fixed ``--live-delay`` and
``--refresh-interval``, started through :mod:`perfbench.serve_launcher`
(which installs the tracing wrappers only in a traced launch).  One
asyncio thread in the benchmark process sends requests on a fixed
schedule over two keep-alive connections, pipelining when a connection is
busy, and times each request from when it was due.  Every response is
checked against an estimator the benchmark feeds the same chunks.
"""

from __future__ import annotations

import asyncio
import collections
import http.client
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from .workloads import (
    SKETCH_SEED,
    Run,
    Sizes,
    chunked,
    every_item_once,
    gsum_spec,
    signed_deltas,
    zipf_items,
)

ROOT = Path(__file__).resolve().parent.parent

#: Request mix: repeated point queries on the heaviest items (cache hits
#: once an epoch's first answer is cached), point queries on items never
#: asked before (a frequency-kernel call each), and the aggregate (one
#: ``estimate()`` per snapshot, then cached).  Cached answers are nine in
#: ten of the requests no publish delays, so the median lies among them
#: rather than in the gap up to the kernel calls, where it would jump
#: with the share of delayed requests.  Aggregates are common enough that
#: the first one after each publish, which recomputes the estimate, comes
#: within the first few requests queued behind it, so every stall carries
#: that recompute rather than about half of them.
MIX = {"hot": 0.7, "unseen": 0.1, "estimate": 0.2}
HOT_ITEMS = 32
CONNECTIONS = 2
#: Seconds the live stream lasts beyond set-up, warm-up and the load
#: phase at zero ingest cost.
STREAM_SLACK_S = 5.0
LAUNCH_TIMEOUT_S = 60.0
#: asyncio wakes from a sleep on whole milliseconds (epoll), which made
#: the generator send a median 0.66 ms late; the sender sleeps the last
#: stretch before each due time with the clock's own precision instead.
SEND_GRAIN_S = 0.0015


class Server:
    """One server process: spawn, wait for its banner, stop with SIGINT
    (``repro serve`` returns normally on it, so a traced launch still
    writes its spans)."""

    def __init__(self, args: list, trace_dir: Path | None, log: Path):
        launcher = [sys.executable, "-m", "perfbench.serve_launcher"]
        if trace_dir is not None:
            launcher += ["--trace-dir", str(trace_dir)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        self._log = log.open("w")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            launcher + args, cwd=ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=self._log,
        )
        self.host, self.port = self._banner()

    def _banner(self) -> tuple[str, int]:
        deadline = self.spawned + LAUNCH_TIMEOUT_S
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith("serving on http://"):
                host, _, port = line.strip()[len("serving on http://"):].rpartition(":")
                return host, int(port)
        self.stop()
        raise RuntimeError(f"server did not start; see {self._log.name}")

    def get(self, path: str) -> tuple[int, dict]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def await_ingest(self, timeout: float) -> None:
        """Wait until live ingestion has moved past the published snapshot,
        so the next query publishes a new one."""
        deadline = time.perf_counter() + timeout
        while True:
            _, health = self.get("/health")
            if health["epoch"] > health["snapshot_epoch"]:
                return
            if time.perf_counter() > deadline:
                raise RuntimeError("live ingestion did not advance")
            time.sleep(0.02)

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def _write_stream(path: Path, n: int, items: np.ndarray, deltas: np.ndarray) -> None:
    """The ``repro.streams.io`` JSON-lines format: header, then one
    ``[item,delta]`` line per update."""
    header = {"format": "repro-stream", "version": 1, "domain_size": n,
              "magnitude_bound": None, "length": int(items.shape[0])}
    lines = [json.dumps(header)]
    lines.extend(f"[{i},{d}]" for i, d in zip(items.tolist(), deltas.tolist()))
    path.write_text("\n".join(lines) + "\n")


async def _open_loop(host: str, port: int, paths: list, rate: float, start: float,
                     timeout: float):
    """Send ``paths[k]`` at ``start + k / rate`` (``perf_counter`` time) on
    connection ``k % 2``; returns per-request ``[due, sent, done, status,
    body]`` (``status`` None when the request got no response)."""
    conns = [await asyncio.open_connection(host, port) for _ in range(CONNECTIONS)]
    records = [[0.0, 0.0, 0.0, None, b""] for _ in paths]
    queues = [collections.deque() for _ in conns]
    expected = [len(range(c, len(paths), CONNECTIONS)) for c in range(CONNECTIONS)]

    async def read(c: int) -> None:
        reader = conns[c][0]
        for _ in range(expected[c]):
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            status = int(line.split()[1])
            length = 0
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _, value = header.decode("latin1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            body = await reader.readexactly(length)
            record = records[queues[c].popleft()]
            record[2] = time.perf_counter()
            record[3] = status
            record[4] = body

    async def send() -> None:
        for k, path in enumerate(paths):
            due = start + k / rate
            delay = due - time.perf_counter() - SEND_GRAIN_S
            if delay > 0:
                await asyncio.sleep(delay)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            c = k % CONNECTIONS
            records[k][0] = due
            records[k][1] = time.perf_counter()
            queues[c].append(k)
            conns[c][1].write(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())

    readers = [asyncio.ensure_future(read(c)) for c in range(CONNECTIONS)]
    try:
        await send()
        done, _ = await asyncio.wait(readers, timeout=timeout)
        for task in done:
            task.result()
    except (ConnectionError, OSError, asyncio.IncompleteReadError, ValueError) as exc:
        print(f"serve-live: connection failed: {exc!r}", file=sys.stderr)
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, writer in conns:
            writer.close()
    return records


def _reference(spec: dict, chunks: list, needs: dict) -> tuple[dict, int]:
    """``{epoch: (estimate, {item: frequency})}`` from an estimator fed
    the server's chunks, for the epochs and items the responses carry."""
    from repro.distributed import specs

    estimator = specs.build_sketch(spec)
    answers = {}
    applied = 0
    for epoch in sorted(needs):
        while applied < epoch:
            estimator.update_batch(*chunks[applied])
            applied += 1
        want_estimate, items = needs[epoch]
        estimate = estimator.estimate() if want_estimate else None
        ordered = sorted(items)
        values = estimator.frequency_batch(np.asarray(ordered, dtype=np.int64))
        answers[epoch] = (estimate, dict(zip(ordered, values.tolist())))
    return answers, estimator.space_counters


def _answers(body: dict) -> tuple[bool, list]:
    """(is the aggregate, [(item, value)]) of one decoded response."""
    if "items" in body:
        return False, list(zip(body["items"], body["estimates"]))
    if "item" in body:
        return False, [(body["item"], body["estimate"])]
    return True, [(None, body["estimate"])]


def _decode(status: int | None, raw: bytes) -> dict | None:
    if status != 200:
        return None
    try:
        return json.loads(raw)
    except ValueError:
        return None


def _check(bodies: list, live_epoch: int, spec: dict, chunks: list) -> tuple[list, int]:
    """Per decoded response (``None`` for a failed request): a 200
    carrying an epoch no later than the live epoch whose values equal the
    reference estimator's at that epoch.  Also returns the reference's
    space counters at the last epoch checked."""
    needs: dict = collections.defaultdict(lambda: [False, set()])
    decoded = []
    for body in bodies:
        try:
            epoch = int(body["epoch"])
            is_aggregate, pairs = _answers(body)
        except (KeyError, TypeError, ValueError):
            decoded.append(None)
            continue
        if not 0 <= epoch <= min(live_epoch, len(chunks)):
            decoded.append(None)
            continue
        need = needs[epoch]
        need[0] = need[0] or is_aggregate
        need[1].update(item for item, _ in pairs if item is not None)
        decoded.append((epoch, is_aggregate, pairs))
    reference, space_counters = _reference(
        spec, chunks, {e: tuple(v) for e, v in needs.items()}
    )
    verdicts = []
    for entry in decoded:
        if entry is None:
            verdicts.append(False)
            continue
        epoch, is_aggregate, pairs = entry
        estimate, frequencies = reference[epoch]
        if is_aggregate:
            verdicts.append(pairs[0][1] == estimate)
        else:
            verdicts.append(all(frequencies[item] == value for item, value in pairs))
    return verdicts, space_counters


def serve_live(
    sizes: Sizes,
    seed: int,
    seconds: float,
    out_dir: Path,
    trace_dir: Path | None = None,
    warm_launch: bool = True,
    setups: int | None = None,
) -> Run:
    """One ``serve-live`` run.  Set-up runs from server spawn to the first
    answered request (stream load and the first snapshot publish
    included); it is measured on ``setups`` launches and the last one
    serves the load.  ``warm_launch`` first starts and stops one untimed
    server so bytecode caches exist.  ``trace_dir`` makes the load launch
    a traced one that flushes its spans there."""
    rng = np.random.default_rng(seed)
    chunk, n = sizes.chunk, sizes.serve_n
    refresh = sizes.serve_refresh_s
    count = math.ceil((seconds + refresh + STREAM_SLACK_S) / sizes.serve_live_delay_s) * chunk
    # The stream opens with every domain item once (as on ingest-hot), so
    # live ingestion reaches its warm per-chunk cost within the set-up
    # rather than competing with queries at cold cost for the whole load.
    prime_items, prime_deltas = every_item_once(rng, n)
    items = np.concatenate([prime_items, zipf_items(rng, n, count - n)])
    deltas = np.concatenate([prime_deltas, signed_deltas(rng, count - n)])
    stream_path = out_dir / f"serve-stream-{seed}.jsonl"
    _write_stream(stream_path, n, items, deltas)
    chunks = chunked(items, deltas, chunk)

    requests = max(20, round(sizes.serve_rate * seconds))
    by_weight = np.argsort(-np.bincount(items, minlength=n), kind="stable")
    hot, unseen = by_weight[:HOT_ITEMS], rng.permutation(by_weight[HOT_ITEMS:])
    kinds = rng.choice(list(MIX), size=requests, p=list(MIX.values()))
    paths = []
    fresh = 0
    for kind in kinds:
        if kind == "hot":
            paths.append(f"/frequency/{int(rng.choice(hot))}")
        elif kind == "unseen":
            paths.append(f"/frequency/{int(unseen[fresh % unseen.shape[0]])}")
            fresh += 1
        else:
            paths.append("/estimate")

    args = [
        "serve", str(stream_path), "--sketch", "gsum", "--function", "x^2",
        "--n", str(n), "--seed", str(SKETCH_SEED), "--live-chunk", str(chunk),
        "--live-delay", str(sizes.serve_live_delay_s),
        "--refresh-interval", str(refresh),
        "--duration", str(seconds + 4 * LAUNCH_TIMEOUT_S), "--port", "0",
    ]
    if warm_launch:
        Server(args, None, out_dir / "server-warm.log").stop()

    setup_times = []
    launches = setups or sizes.serve_launches
    for launch in range(launches):
        last = launch == launches - 1
        server = Server(
            args, trace_dir if last else None, out_dir / f"server-{launch}.log"
        )
        try:
            status, _ = server.get("/health")
            setup_times.append(time.perf_counter() - server.spawned)
            if status != 200:
                raise RuntimeError(f"first /health answered {status}")
            if not last:
                continue
            # The warm-up request publishes a snapshot and restarts the
            # server's refresh clock.  The schedule starts half a refresh
            # interval after it, so the load's publishes come in the middle
            # of consecutive refresh intervals and their number, which sets
            # the share of delayed requests, is the same on every run.
            server.await_ingest(LAUNCH_TIMEOUT_S)
            warm_sent = time.perf_counter()
            server.get("/estimate")
            start = warm_sent + refresh / 2
            time.sleep(max(0.0, start - 0.05 - time.perf_counter()))
            _, before = server.get("/health")
            t0 = time.perf_counter()
            records = asyncio.run(
                _open_loop(server.host, server.port, paths, sizes.serve_rate, start,
                           seconds + 60.0)
            )
            _, after = server.get("/health")
            t1 = time.perf_counter()
            _, stats = server.get("/stats")
            finals = [
                server.get("/estimate")[1],
                server.get("/frequency?items=" + ",".join(str(int(i)) for i in hot))[1],
            ]
            _, health = server.get("/health")
            rss = server.peak_rss_mb()
        finally:
            server.stop()

    spec = gsum_spec("x^2", n, passes=1)
    verdicts, space_counters = _check(
        [_decode(r[3], r[4]) for r in records] + finals, health["epoch"], spec, chunks
    )
    load_ok, final_ok = verdicts[: len(records)], all(verdicts[len(records):])
    answered = [r for r in records if r[3] is not None]
    latencies = [r[2] - r[0] for r in answered]
    late = [r[1] - r[0] for r in records]
    # A growing backlog delays every request of the last tenth; a snapshot
    # stall delays a burst of them.  So the flag compares the fastest
    # tenth of the last tenth with the median of the first tenth.
    tenth = max(1, len(latencies) // 10)
    first = statistics.median(latencies[:tenth])
    last_tenth = sorted(latencies[-tenth:])
    return Run(
        setups=setup_times,
        latencies=latencies,
        attempted=len(records),
        ok=sum(load_ok) if final_ok else 0,
        upd_per_s=(after["epoch"] - before["epoch"]) * chunk / (t1 - t0),
        peak_rss_mb=rss,
        checks_ok=final_ok,
        notes={
            "n": n,
            "chunk": chunk,
            "stream_updates": count,
            "requests": requests,
            "rate_per_s": sizes.serve_rate,
            "refresh_interval_s": refresh,
            "live_delay_s": sizes.serve_live_delay_s,
            "connections": CONNECTIONS,
            "space_counters": space_counters,
            "backlog_growing": last_tenth[len(last_tenth) // 10] > 2 * first,
            "first_tenth_p50_ms": first * 1e3,
            "last_tenth_p50_ms": statistics.median(last_tenth) * 1e3,
        },
        layer={
            "serve.cache_hit_ratio": stats["cache"]["hit_rate"],
            "serve.cache_invalidations": stats["cache"]["invalidations"],
            "serve.epoch_lag": stats["epoch"] - stats["snapshot_epoch"],
            "serve.http_errors": sum(1 for r in records if r[3] != 200),
            "loadgen.late_ms": float(np.percentile(late, 99)) * 1e3,
        },
    )
