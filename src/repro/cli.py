"""Command-line interface: ``python -m repro <command>``.

Commands
--------
classify   apply the zero-one laws to a function expression
estimate   run a g-SUM estimator over a stream file (see repro.streams.io)
generate   synthesize a workload stream file
catalog    print the zero-one-law table for the built-in catalog
ingest     measure scalar vs batch vs sharded ingestion throughput on a
           stream file (``--shards N`` exercises the parallel engine)
worker     ingest one stream partition (or a whole shard file via
           ``--stream-file``) and ship the sketch state to a coordinator
           round by round (file drop-box or TCP socket transport);
           ``--passes 2`` adds the second round of the two-pass
           protocol, ``--delta-every N`` streams incremental state deltas
coordinate collect worker states, merge them, and report — bit-identical
           to single-machine ingestion (``--verify-stream`` proves it);
           with ``--passes 2`` merges round-1 states, broadcasts the
           merged candidates, and merges round 2
serve      long-lived asyncio HTTP/JSON query server over a snapshot
           store: ``/estimate``, ``/frequency/<item>``,
           ``/heavy-hitters``, ``/health``, ``/stats``; ``--live-chunk``
           keeps ingesting the stream in the background while queries
           are served from epoch-consistent copy-on-write snapshots

Every state ships under the one state codec, ``sparse-binary`` (only
the nonzero cells, as raw buffers; see ``repro.sketch.codec``), and the
reported state sizes are its bytes.

The function argument accepts either a catalog name (see ``catalog``) or a
Python expression in ``x`` (evaluated in a restricted math namespace),
e.g. ``"x**1.5"`` or ``"(2+math.sin(math.sqrt(x)))*x*x"``.

A distributed run points every participant at the same *rendezvous* — a
drop-box directory for the file transport, ``host:port`` for the socket
transport — and the same sketch flags and ``--seed`` (the sketch spec; see
``repro.distributed.specs``).  Mismatched specs are rejected at merge time
by the compatibility digest.  Example, 2 workers over a drop-box::

    repro worker stream.jsonl --worker-id 0 --workers 2 --rendezvous /tmp/rv &
    repro worker stream.jsonl --worker-id 1 --workers 2 --rendezvous /tmp/rv &
    repro coordinate --workers 2 --rendezvous /tmp/rv --verify-stream stream.jsonl
"""

from __future__ import annotations

import argparse
import sys

from repro.core.tractability import classify, zero_one_table
from repro.functions.base import GFunction
from repro.functions.library import catalog
from repro.functions.registry import resolve_function
from repro.streams.generators import uniform_stream, zipf_stream
from repro.streams.io import load_stream, save_stream


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _resolve_function(spec: str) -> GFunction:
    """Catalog name or restricted ``x``-expression, via the named-function
    registry (so the resolved function also serializes across processes)."""
    try:
        return resolve_function(spec)
    except ValueError as exc:  # pragma: no cover - error path formatting
        raise SystemExit(f"error: {exc}")


def _cmd_classify(args: argparse.Namespace) -> int:
    g = _resolve_function(args.function)
    verdict = classify(g, domain_max=args.domain)
    print(f"function: {g.name}")
    print(f"  slow-jumping:  {verdict.slow_jumping}")
    print(f"  slow-dropping: {verdict.slow_dropping}")
    print(f"  predictable:   {verdict.predictable}")
    print(f"  normal:        {verdict.normal}")
    print(f"  1-pass tractable: {verdict.one_pass}")
    print(f"  2-pass tractable: {verdict.two_pass}")
    for reason in verdict.reasons:
        print(f"  - {reason}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.core.gsum import GSumEstimator
    from repro.sketch.base import dumps_state

    g = _resolve_function(args.function)
    stream = load_stream(args.stream)
    estimator = GSumEstimator(
        g, stream.domain_size, epsilon=args.epsilon, passes=args.passes,
        heaviness=args.heaviness, repetitions=args.repetitions,
        seed=args.seed, shards=args.shards,
    )
    result = estimator.run(stream, chunk_size=args.chunk)
    print(f"g-SUM estimate for {g.name} over {args.stream}")
    print(f"  estimate: {result.estimate:,.4f}")
    if result.exact is not None:
        print(f"  exact:    {result.exact:,.4f}")
        print(f"  relative error: {result.relative_error:.2%}")
    print(f"  passes: {result.passes}  repetitions: {result.repetitions}")
    print(f"  space: {result.space_counters:,} counters")
    print(f"  state bytes: {len(dumps_state(estimator.to_state())):,}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "zipf":
        stream = zipf_stream(args.n, args.mass, skew=args.skew, seed=args.seed)
    else:
        stream = uniform_stream(args.n, magnitude=args.magnitude, seed=args.seed)
    save_stream(stream, args.output)
    vec = stream.frequency_vector()
    print(f"wrote {args.output}: n={stream.domain_size}, updates={len(stream)}, "
          f"support={vec.support_size()}, M={vec.max_abs()}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Ingestion throughput check: feed the same in-memory stream to a
    CountSketch through the scalar update loop, through chunked
    ``update_batch``, and (with ``--shards N``) through the sharded
    parallel engine, and report all rates.  Parsing/columnar conversion
    happen outside the timed regions so the comparison is engine vs
    engine, not engine vs disk.  Sharded state is verified identical to
    the batch-ingested state before reporting."""
    import time

    import numpy as np

    from repro.sketch.countsketch import CountSketch
    from repro.streams.sharding import ingest_sharded

    stream = load_stream(args.stream)
    stream.as_arrays()  # columnar conversion paid up front
    scalar = CountSketch(args.rows, args.buckets, seed=args.seed)
    start = time.perf_counter()
    for u in stream:
        scalar.update(u.item, u.delta)
    scalar_s = time.perf_counter() - start

    batched = CountSketch(args.rows, args.buckets, seed=args.seed)
    start = time.perf_counter()
    for items, deltas in stream.iter_array_chunks(args.chunk):
        batched.update_batch(items, deltas)
    batch_s = time.perf_counter() - start

    count = len(stream)
    print(f"ingested {count:,} updates into CountSketch({args.rows}x{args.buckets})")
    print(f"  scalar: {scalar_s:.4f}s  ({count / scalar_s:,.0f} updates/s)")
    print(f"  batch:  {batch_s:.4f}s  ({count / batch_s:,.0f} updates/s, "
          f"chunk={args.chunk})")
    print(f"  speedup: {scalar_s / batch_s:.1f}x")

    if args.shards > 1:
        sharded = CountSketch(args.rows, args.buckets, seed=args.seed)
        start = time.perf_counter()
        ingest_sharded(sharded, stream, args.shards, args.chunk)
        shard_s = time.perf_counter() - start
        identical = np.array_equal(sharded._table, batched._table)
        print(f"  sharded: {shard_s:.4f}s  ({count / shard_s:,.0f} updates/s, "
              f"shards={args.shards})")
        print(f"  sharded speedup over batch: {batch_s / shard_s:.1f}x")
        print(f"  sharded state identical to sequential: {identical}")
        if not identical:
            return 1

    from repro.sketch.base import dumps_state

    start = time.perf_counter()
    wire = dumps_state(batched.to_state())
    encode_s = time.perf_counter() - start
    print(f"  state bytes: {len(wire):,} (encoded in {encode_s * 1e3:.1f}ms)")
    return 0


# ------------------------------------------------------- distributed cmds

def _sketch_spec(args: argparse.Namespace) -> dict:
    """The shared sketch spec both distributed commands build from their
    flags — every worker and the coordinator must agree on it."""
    if args.passes == 2 and args.sketch != "gsum":
        raise SystemExit("error: --passes 2 applies to --sketch gsum only")
    spec = {"kind": args.sketch, "seed": args.seed}
    if args.sketch == "countsketch":
        spec.update(rows=args.rows, buckets=args.buckets, track=args.track)
    elif args.sketch == "countmin":
        spec.update(rows=args.rows, buckets=args.buckets)
    elif args.sketch == "ams":
        spec.update(medians=args.rows, means_size=args.buckets)
    else:  # gsum
        spec.update(
            function=args.function, n=args.n, epsilon=args.epsilon,
            heaviness=args.heaviness, repetitions=args.repetitions,
            passes=args.passes,
        )
    return spec


def _add_distributed_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--transport", choices=("file", "socket"),
                   default="file",
                   help="file: drop-box directory; socket: TCP")
    p.add_argument("--rendezvous", required=True,
                   help="drop-box directory (file transport) or "
                        "host:port (socket transport)")
    p.add_argument("--sketch",
                   choices=("gsum", "countsketch", "countmin", "ams"),
                   default="gsum")
    p.add_argument("--function", default="x^2",
                   help="gsum: catalog name or expression in x")
    p.add_argument("--n", type=_positive_int, default=4096,
                   help="gsum: domain size")
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--heaviness", type=float, default=0.05)
    p.add_argument("--repetitions", type=_positive_int, default=3)
    p.add_argument("--passes", type=int, choices=(1, 2), default=1,
                   help="1 = one round (every worker ships its state), "
                        "gsum only: 2 = the coordinated two-pass protocol "
                        "(candidate broadcast between the two rounds)")
    p.add_argument("--delta-every", type=int, default=0,
                   help="ship an incremental state delta every N updates "
                        "(streaming merges over a persistent session; "
                        "0 = one state frame per round)")
    p.add_argument("--rows", type=_positive_int, default=5,
                   help="countsketch/countmin rows; ams medians")
    p.add_argument("--buckets", type=_positive_int, default=1024,
                   help="countsketch/countmin buckets; ams means-size")
    p.add_argument("--track", type=int, default=16,
                   help="countsketch candidate tracking width")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chunk", type=_positive_int, default=4096)


def _socket_address(rendezvous: str) -> tuple[str, int]:
    host, sep, port = rendezvous.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(
            f"error: socket rendezvous must be host:port, got {rendezvous!r}"
        )
    return host or "127.0.0.1", int(port)


def _state_summary(sketch) -> str:
    """The merged state in lines a human can compare across machines: the
    compat digest (what must match), an estimate when the sketch has one,
    and the serialized size."""
    from repro.sketch.base import dumps_state

    line = f"  compat digest: {sketch.compat_digest()}"
    estimate = getattr(sketch, "estimate", None)
    if callable(estimate):
        try:
            line += f"\n  estimate: {estimate():,.4f}"
        except Exception:
            pass
    line += f"\n  state bytes: {len(dumps_state(sketch.to_state())):,}"
    return line


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.distributed.specs import build_sketch
    from repro.distributed.transport import FileWorkerSession, SocketSession
    from repro.distributed.worker import run_worker_rounds, worker_slice

    if not 0 <= args.worker_id < args.workers:
        raise SystemExit(
            f"error: --worker-id must be in [0, {args.workers})"
        )
    sketch = build_sketch(_sketch_spec(args))
    if args.stream_file is not None:
        # Many-files-per-worker mode: this worker owns its whole shard
        # file — no shared stream, no partition bounds.
        if args.stream is not None:
            raise SystemExit(
                "error: give either a shared stream or --stream-file, not both"
            )
        part_items, part_deltas = load_stream(args.stream_file).as_arrays()
        source = args.stream_file
    elif args.stream is not None:
        items, deltas = load_stream(args.stream).as_arrays()
        part_items, part_deltas = worker_slice(
            items, deltas, args.worker_id, args.workers
        )
        source = args.stream
    else:
        raise SystemExit("error: a shared stream or --stream-file is required")

    if args.transport == "file":
        session = FileWorkerSession(args.rendezvous)
    else:
        host, port = _socket_address(args.rendezvous)
        session = SocketSession(host, port, connect_timeout=args.timeout)
    try:
        frames = run_worker_rounds(
            sketch, part_items, part_deltas, args.worker_id, session,
            chunk_size=args.chunk, delta_every=args.delta_every,
            passes=args.passes, timeout=args.timeout,
        )
    finally:
        session.close()
    print(f"worker {args.worker_id}/{args.workers}: completed "
          f"{args.passes}-pass round protocol over "
          f"{part_items.shape[0]:,} updates from {source} "
          f"via {args.transport} to {args.rendezvous}")
    # ship_round feeds fresh siblings, never ``sketch`` itself, so its
    # estimate and size say nothing about what this worker shipped.
    print(f"  compat digest: {sketch.compat_digest()}")
    for round_id, count in enumerate(frames, start=1):
        print(f"  round {round_id}: {count} frame(s) shipped")
    return 0


def _cmd_coordinate(args: argparse.Namespace) -> int:
    from repro.distributed.coordinator import RoundCoordinator
    from repro.distributed.specs import build_sketch
    from repro.distributed.transport import FileTransport, SocketHub
    from repro.sketch.base import dumps_state

    sketch = build_sketch(_sketch_spec(args))

    def run_rounds(channel) -> RoundCoordinator:
        coordinator = RoundCoordinator(
            sketch, channel, args.workers, timeout=args.timeout
        )
        if args.passes == 2:
            coordinator.run_two_pass()
        else:
            coordinator.run_single_pass()
        return coordinator

    if args.transport == "file":
        channel = FileTransport(args.rendezvous)
        # A leftover broadcast from a previous run on a reused rendezvous
        # dir would advance fresh workers to a stale round 2; worker
        # frames stay (workers may start first).
        channel.purge_broadcasts()
        coordinator = run_rounds(channel)
        # Consume the merged frames: a reused rendezvous dir must not feed
        # this run's frames to the next run's coordinator.
        channel.purge()
    else:
        host, port = _socket_address(args.rendezvous)
        with SocketHub(host, port) as channel:
            coordinator = run_rounds(channel)
    for summary in coordinator.rounds:
        frames = sum(summary["frames"].values())
        print(f"round {summary['round']}: merged "
              f"{frames - summary['skipped']} delta frame(s) from "
              f"workers {summary['workers']} ({summary['stale']} stale, "
              f"{summary['skipped']} skipped)")
    print(f"coordinator: merged {args.workers} worker states in a "
          f"{args.passes}-pass round protocol via {args.transport} from "
          f"{args.rendezvous}")
    print(_state_summary(sketch))
    if args.verify_stream is not None:
        reference = build_sketch(_sketch_spec(args))
        chunks = load_stream(args.verify_stream).iter_array_chunks(args.chunk)
        for items, deltas in chunks:
            reference.update_batch(items, deltas)
        if args.passes == 2:
            reference.begin_second_pass()
            chunks = load_stream(args.verify_stream).iter_array_chunks(
                args.chunk
            )
            for items, deltas in chunks:
                reference.update_batch_second_pass(items, deltas)
        identical = dumps_state(sketch.to_state()) == dumps_state(
            reference.to_state()
        )
        print(f"  merged state identical to single-machine ingestion: "
              f"{identical}")
        if not identical:
            return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve live estimates over HTTP while (optionally) still ingesting.

    ``--live-chunk N`` starts serving immediately and feeds the stream in
    the background, one epoch per chunk — queries run against lock-free
    copy-on-write snapshots while the live sketch advances.  Without it,
    the stream is ingested up front and the server answers from a single
    final epoch (every answer cache-able until the process exits).
    """
    import asyncio
    import threading
    import time

    from repro.distributed.specs import build_sketch
    from repro.serve import QueryEngine, SketchServer, SnapshotStore

    spec = {"kind": args.sketch, "seed": args.seed}
    if args.sketch == "countsketch":
        spec.update(rows=args.rows, buckets=args.buckets, track=args.track)
    elif args.sketch == "countmin":
        spec.update(rows=args.rows, buckets=args.buckets)
    elif args.sketch == "ams":
        spec.update(medians=args.rows, means_size=args.buckets)
    else:  # gsum: 1-pass only (a live stream has no second pass to drive)
        spec.update(
            function=args.function, n=args.n, epsilon=args.epsilon,
            heaviness=args.heaviness, repetitions=args.repetitions, passes=1,
        )
    sketch = build_sketch(spec)
    store = SnapshotStore(sketch)
    items, deltas = load_stream(args.stream).as_arrays()

    stop = threading.Event()
    ingest_thread: threading.Thread | None = None
    if args.live_chunk > 0:
        def _ingest() -> None:
            for start in range(0, items.shape[0], args.live_chunk):
                if stop.is_set():
                    return
                stop_at = start + args.live_chunk
                store.update_batch(items[start:stop_at], deltas[start:stop_at])
                if args.live_delay > 0:
                    time.sleep(args.live_delay)

        ingest_thread = threading.Thread(
            target=_ingest, name="serve-ingest", daemon=True
        )
    else:
        for start in range(0, items.shape[0], args.chunk):
            stop_at = start + args.chunk
            store.update_batch(items[start:stop_at], deltas[start:stop_at])

    engine = QueryEngine(
        store, cache_size=args.cache_size,
        refresh_interval=args.refresh_interval,
    )
    server = SketchServer(engine, args.host, args.port)
    if ingest_thread is not None:
        ingest_thread.start()
    try:
        asyncio.run(
            server.serve_forever(args.duration if args.duration > 0 else None)
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        stop.set()
        if ingest_thread is not None:
            ingest_thread.join(timeout=10.0)
        engine.close()
    stats = engine.stats()
    print(f"served {stats['queries']:,} queries over {store.epoch} epoch(s); "
          f"cache hit rate {stats['cache']['hit_rate']:.1%}")
    return 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    table = zero_one_table(list(catalog().values()))
    width = max(len(v.name) for v in table)
    print(f"{'function'.ljust(width)}  jump  drop  pred  1-pass  2-pass")
    for v in table:
        def fmt(flag):
            return " n/a" if flag is None else (" yes" if flag else "  no")
        print(
            f"{v.name.ljust(width)}  {fmt(v.slow_jumping)}  {fmt(v.slow_dropping)}"
            f"  {fmt(v.predictable)}  {fmt(v.one_pass):>6s}  {fmt(v.two_pass):>6s}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Streaming g-SUM zero-one laws (PODS 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="apply the zero-one laws to a function")
    p.add_argument("function", help="catalog name or expression in x")
    p.add_argument("--domain", type=int, default=1 << 14,
                   help="numeric-tester probe domain (default 2^14)")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("estimate", help="estimate a g-SUM over a stream file")
    p.add_argument("function")
    p.add_argument("stream", help="stream file from `repro generate`")
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--passes", type=int, default=1, choices=(0, 1, 2))
    p.add_argument("--heaviness", type=float, default=0.05)
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chunk", type=_positive_int, default=4096,
                   help="batch-ingestion chunk size (default 4096)")
    p.add_argument("--shards", type=_positive_int, default=1,
                   help="parallel ingestion shards (results are "
                        "bit-identical to --shards 1)")
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("generate", help="synthesize a workload stream file")
    p.add_argument("output")
    p.add_argument("--kind", choices=("zipf", "uniform"), default="zipf")
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--mass", type=int, default=100_000)
    p.add_argument("--skew", type=float, default=1.2)
    p.add_argument("--magnitude", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser(
        "ingest", help="measure scalar vs batch ingestion throughput"
    )
    p.add_argument("stream", help="stream file from `repro generate`")
    p.add_argument("--rows", type=_positive_int, default=5)
    p.add_argument("--buckets", type=_positive_int, default=1024)
    p.add_argument("--chunk", type=_positive_int, default=4096)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=_positive_int, default=1,
                   help="also time sharded parallel ingestion with this "
                        "many shards (state verified identical)")
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser(
        "worker",
        help="ingest one stream partition (or a whole shard file) and "
             "ship the state to a coordinator",
    )
    p.add_argument("stream", nargs="?", default=None,
                   help="shared stream file from `repro generate` (this "
                        "worker ingests its --worker-id partition of it)")
    p.add_argument("--stream-file", default=None,
                   help="many-files-per-worker mode: this worker owns the "
                        "whole named shard file (no shared stream, no "
                        "partition bounds) — the log-shipping deployment "
                        "shape")
    p.add_argument("--worker-id", type=int, required=True,
                   help="this worker's partition index, 0-based")
    p.add_argument("--workers", type=_positive_int, required=True,
                   help="total worker count (defines the partitioning)")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="socket connect / broadcast wait timeout in seconds")
    _add_distributed_args(p)
    p.set_defaults(fn=_cmd_worker)

    p = sub.add_parser(
        "coordinate",
        help="collect and merge worker states; bit-identical to "
             "single-machine ingestion",
    )
    p.add_argument("--workers", type=_positive_int, required=True,
                   help="how many worker states to wait for")
    p.add_argument("--timeout", type=float, default=120.0,
                   help="collection timeout in seconds")
    p.add_argument("--verify-stream", default=None,
                   help="stream file to ingest single-machine and compare "
                        "states bit-for-bit (exit 1 on mismatch)")
    _add_distributed_args(p)
    p.set_defaults(fn=_cmd_coordinate)

    p = sub.add_parser(
        "serve",
        help="serve estimates over HTTP from lock-free snapshots, "
             "optionally while still ingesting the stream",
    )
    p.add_argument("stream", help="stream file from `repro generate`")
    p.add_argument("--sketch", choices=("countsketch", "countmin", "ams", "gsum"),
                   default="countsketch")
    p.add_argument("--function", default="x^2",
                   help="g function for --sketch gsum (catalog name or "
                        "expression in x)")
    p.add_argument("--n", type=_positive_int, default=4096,
                   help="domain size for --sketch gsum")
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--heaviness", type=float, default=0.05)
    p.add_argument("--repetitions", type=_positive_int, default=3)
    p.add_argument("--rows", type=_positive_int, default=5,
                   help="countsketch/countmin rows (ams: median groups)")
    p.add_argument("--buckets", type=_positive_int, default=1024,
                   help="countsketch/countmin buckets (ams: means size)")
    p.add_argument("--track", type=int, default=16,
                   help="countsketch heavy-hitter candidate pool size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (0 = ephemeral; the bound port is "
                        "printed at startup)")
    p.add_argument("--cache-size", type=_positive_int, default=4096,
                   help="epoch-keyed LRU result-cache capacity")
    p.add_argument("--refresh-interval", type=float, default=0.0,
                   help="minimum seconds between snapshot refreshes under "
                        "live ingestion.  0 = every query that finds the "
                        "epoch advanced publishes first, so answers are "
                        "always current; > 0 = a background thread "
                        "publishes, woken by the first query this long "
                        "after the last refresh, and answers are stale by "
                        "at most one interval plus one publish")
    p.add_argument("--chunk", type=_positive_int, default=4096,
                   help="up-front ingestion chunk size (one epoch each)")
    p.add_argument("--live-chunk", type=int, default=0,
                   help="serve immediately and ingest the stream in the "
                        "background in chunks of this size (0 = ingest "
                        "everything before serving)")
    p.add_argument("--live-delay", type=float, default=0.0,
                   help="sleep between background ingestion chunks, seconds")
    p.add_argument("--duration", type=float, default=0.0,
                   help="stop after this many seconds (0 = serve until "
                        "interrupted)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("catalog", help="print the catalog zero-one table")
    p.set_defaults(fn=_cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
