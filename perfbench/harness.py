"""Command line, metric assembly and reporting of the benchmark.

``--trace 0`` runs one workload with tracing off and reports the six
end-to-end metrics.  ``--trace 1`` runs the workload twice on the same
inputs, for half of ``--seconds`` each: first untraced, then with the
wrappers of :mod:`perfbench.tracing` installed, and reports the per-layer
metrics (``trace.overhead`` is the traced over the untraced
``op_p50_ms``).  The last line of standard output is the JSON result;
the lines before it are a readable table and the run metadata.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

from . import tracing
from .serve import serve_live
from .workloads import (
    ROUNDS_REPETITIONS,
    ROUNDS_WORKERS,
    SIZES,
    WIDE_CHUNKS_PER_SECOND,
    NoTrace,
    Run,
    ingest,
    rounds,
)

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ingest-hot", "ingest-wide", "rounds-2pass", "serve-live")
#: Ops beyond the reported tail percentile, and the fewest ops a tail
#: needs (below it the metric is left out).
TAIL_BEYOND = 10
TAIL_MIN_OPS = 20

END_TO_END = (
    ("setup_s", "s"),
    ("upd_per_s", "upd/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "ratio"),
)

PER_LAYER = (
    ("streams.load_s", "s"),
    ("core.construct_s", "s"),
    ("core.update_calls", "count"),
    ("core.update_s", "s"),
    ("core.update_self_s", "s"),
    ("core.plan_builds", "count"),
    ("core.plan_build_s", "s"),
    ("core.second_pass_s", "s"),
    ("core.estimate_calls", "count"),
    ("core.estimate_s", "s"),
    ("core.frequency_s", "s"),
    ("core.space_counters", "count"),
    ("sketch.hash_items", "count"),
    ("sketch.hash_s", "s"),
    ("sketch.hash_items_per_update", "ratio"),
    ("sketch.ams_s", "s"),
    ("sketch.admitted", "count"),
    ("sketch.admit_s", "s"),
    ("sketch.spawn_calls", "count"),
    ("sketch.spawn_s", "s"),
    ("sketch.encode_s", "s"),
    ("sketch.state_bytes", "B"),
    ("sketch.decode_calls", "count"),
    ("sketch.decode_s", "s"),
    ("sketch.merge_s", "s"),
    ("distributed.ship_s", "s"),
    ("distributed.frames", "count"),
    ("distributed.skipped_frames", "count"),
    ("distributed.frame_bytes", "B"),
    ("distributed.wire_s", "s"),
    ("distributed.collect_wait_s", "s"),
    ("distributed.broadcast_s", "s"),
    ("distributed.failures", "count"),
    ("serve.publish_calls", "count"),
    ("serve.publish_s", "s"),
    ("serve.ingest_wait_s", "s"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_invalidations", "count"),
    ("serve.query_self_s", "s"),
    ("serve.epoch_lag", "epochs"),
    ("serve.http_errors", "count"),
    ("loadgen.late_ms", "ms"),
    ("trace.overhead", "ratio"),
)


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes: full (the benchmark) or tiny (self-test)")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_out",
                        help="directory for streams, logs and traces")
    return parser.parse_args(argv)


def tail(latencies: list) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with at least
    :data:`TAIL_BEYOND` ops beyond it; ``None`` below
    :data:`TAIL_MIN_OPS` ops.  The value is a measured op: exactly
    ``TAIL_BEYOND`` ops are slower."""
    count = len(latencies)
    if count < TAIL_MIN_OPS:
        return None
    return sorted(latencies)[count - TAIL_BEYOND - 1], 100.0 * (count - TAIL_BEYOND) / count


def op_tail(latencies: list, windows: int = 1) -> tuple[float, float, int] | None:
    """:func:`tail` as the median over up to ``windows`` consecutive
    groups of ops (fewer when a group would hold under
    :data:`TAIL_MIN_OPS` ops): (value, percentile, groups used)."""
    windows = max(1, min(windows, len(latencies) // TAIL_MIN_OPS))
    tails = [tail(list(group)) for group in np.array_split(np.asarray(latencies), windows)]
    if None in tails:
        return None
    return (statistics.median(value for value, _ in tails),
            statistics.median(percentile for _, percentile in tails), windows)


def run_workload(name: str, sizes, seed: int, seconds: float, out_dir: Path,
                 trace=NoTrace, setups: int | None = None, trace_dir: Path | None = None,
                 warm_launch: bool = True) -> Run:
    if name == "serve-live":
        return serve_live(sizes, seed, seconds, out_dir, trace_dir=trace_dir,
                          warm_launch=warm_launch, setups=setups)
    if name == "rounds-2pass":
        return rounds(sizes, seed, seconds, trace=trace, setups=setups)
    return ingest(sizes, seed, seconds, wide=name == "ingest-wide", trace=trace,
                  setups=setups)


def end_to_end(run: Run) -> dict:
    metrics = {
        "setup_s": statistics.median(run.setups),
        "upd_per_s": run.upd_per_s,
        "op_p50_ms": statistics.median(run.latencies) * 1e3,
    }
    measured = op_tail(run.latencies, run.tail_windows)
    if measured is not None:
        metrics["op_tail_ms"] = measured[0] * 1e3
    metrics["peak_rss_mb"] = run.peak_rss_mb
    metrics["ok_share"] = run.ok / run.attempted
    return metrics


def per_layer(analysis: dict, run: Run, overhead: float) -> dict:
    names = analysis["names"]

    def total(name: str, key: str = "total_s") -> float:
        return names.get(name, {}).get(key, 0.0)

    updates = total("core.update", "n") + total("core.second_pass", "n")
    hash_items = total("sketch.hash", "items")
    measured = {
        "streams.load_s": total("streams.load"),
        "core.construct_s": total("core.construct"),
        "core.update_calls": total("core.update", "calls"),
        "core.update_s": total("core.update"),
        "core.update_self_s": total("core.update", "self_s"),
        "core.plan_builds": total("core.plan_build", "calls"),
        "core.plan_build_s": total("core.plan_build"),
        "core.second_pass_s": total("core.second_pass"),
        "core.estimate_calls": total("core.estimate", "calls"),
        "core.estimate_s": total("core.estimate"),
        "core.frequency_s": total("core.frequency"),
        "core.space_counters": run.notes.get("space_counters", 0),
        "sketch.hash_items": hash_items,
        "sketch.hash_s": total("sketch.hash"),
        "sketch.hash_items_per_update": hash_items / updates if updates else 0.0,
        "sketch.ams_s": total("sketch.ams"),
        "sketch.admitted": total("sketch.admit", "items"),
        "sketch.admit_s": total("sketch.admit"),
        "sketch.spawn_calls": total("sketch.spawn", "calls"),
        "sketch.spawn_s": total("sketch.spawn"),
        "sketch.encode_s": total("sketch.encode"),
        "sketch.state_bytes": total("sketch.encode", "bytes"),
        "sketch.decode_calls": total("sketch.decode", "calls"),
        "sketch.decode_s": total("sketch.decode"),
        "sketch.merge_s": total("sketch.merge"),
        "distributed.ship_s": total("distributed.ship"),
        "distributed.frames": total("distributed.wire", "type:delta"),
        "distributed.skipped_frames": total("distributed.wire", "type:delta_skipped"),
        "distributed.frame_bytes": total("distributed.wire", "outbytes"),
        "distributed.wire_s": total("distributed.wire"),
        "distributed.collect_wait_s": total("distributed.collect", "self_s"),
        "distributed.broadcast_s": total("distributed.broadcast"),
        "serve.publish_calls": total("serve.publish", "calls"),
        "serve.publish_s": total("serve.publish"),
        "serve.ingest_wait_s": total("serve.ingest", "self_s"),
        "serve.query_self_s": total("serve.query", "self_s"),
        "trace.overhead": overhead,
    }
    measured.update(run.layer)
    return {name: measured.get(name, 0) for name, _ in PER_LAYER}


def _traced(name: str, sizes, seed: int, seconds: float, out_dir: Path):
    """Untraced then traced half-runs on the same inputs."""
    half = seconds / 2
    base = run_workload(name, sizes, seed, half, out_dir, setups=1)
    trace_dir = out_dir / "spans"
    tracer = tracing.Tracer(trace_dir)
    if name == "serve-live":
        run = run_workload(name, sizes, seed, half, out_dir, setups=1,
                           trace_dir=trace_dir, warm_launch=False)
    else:
        uninstall = tracing.install(tracer)
        try:
            run = run_workload(name, sizes, seed, half, out_dir, trace=tracer, setups=1)
        finally:
            uninstall()
    spans = tracer.spans + tracing.load_spans(trace_dir)
    return base, run, spans


def _print_table(rows: list) -> None:
    for name, value, unit, note in rows:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<30} {text:>14} {unit:<7} {note}".rstrip())


def _breakdown(ops: dict) -> tuple[bool, list]:
    """Layer shares of op wall time; the shares plus ``other`` must add
    up to the wall time."""
    wall = ops["wall_s"]
    consistent = abs(ops["residual_s"]) <= 1e-6 * max(wall, 1e-9)
    rows = [
        (f"share.{layer}", seconds / wall if wall else 0.0, "ratio", f"{seconds:.4f} s")
        for layer, seconds in ops["layers_s"].items()
    ]
    rows.append(("share.other", ops["other_s"] / wall if wall else 0.0, "ratio",
                 f"{ops['other_s']:.4f} s"))
    rows.append(("share.sum", (wall - ops["residual_s"]) / wall if wall else 0.0, "ratio",
                 f"{ops['count']} ops, {wall:.4f} s wall"))
    return consistent, rows


def main(argv: list) -> int:
    args = parse_args(argv)
    sizes = SIZES[args.size]
    out_dir = args.out / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sizes": dataclasses.asdict(sizes),
        "wide_chunks_per_second": WIDE_CHUNKS_PER_SECOND,
        "rounds_repetitions": ROUNDS_REPETITIONS,
        "rounds_workers": ROUNDS_WORKERS,
    }
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    if args.trace:
        base, run, spans = _traced(args.workload, sizes, args.seed, args.seconds, out_dir)
        analysis = tracing.analyze(spans)
        overhead = statistics.median(run.latencies) / statistics.median(base.latencies)
        metrics = per_layer(analysis, run, overhead)
        units = dict(PER_LAYER)
        consistent, shares = _breakdown(analysis["ops"])
        trace_path = out_dir / f"trace-{args.workload}.json"
        meta.update(notes=run.notes, trace_file=str(trace_path),
                    breakdown_consistent=consistent)
        tracing.write_chrome_trace(spans, trace_path, meta)
        _print_table([(k, v, units[k], "") for k, v in metrics.items()] + shares)
        if not consistent:
            print("WARNING: layer self times plus other do not add up to op wall time",
                  file=sys.stderr)
        runs = (base, run)
    else:
        run = run_workload(args.workload, sizes, args.seed, args.seconds, out_dir)
        metrics = end_to_end(run)
        units = dict(END_TO_END)
        notes = {
            "setup_s": f"median of {len(run.setups)} set-ups",
            "peak_rss_mb": f"space {run.notes.get('space_counters', '?')} counters",
            "ok_share": f"{run.ok}/{run.attempted} ops",
        }
        measured = op_tail(run.latencies, run.tail_windows)
        if measured is not None:
            notes["op_tail_ms"] = f"p{measured[1]:.4g} of {len(run.latencies)} ops"
            if measured[2] > 1:
                notes["op_tail_ms"] += f" in {measured[2]} windows, median"
        meta.update(notes=run.notes)
        _print_table([(k, v, units[k], notes.get(k, "")) for k, v in metrics.items()])
        runs = (run,)
    if run.notes.get("backlog_growing"):
        print("WARNING: latency grew over the load (backlog); lower the rate",
              file=sys.stderr)
    correct = all(r.checks_ok and r.ok == r.attempted for r in runs)
    print("meta " + json.dumps(meta, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": int(run.attempted),
        "failed": int(run.attempted - run.ok),
        "metrics": {
            k: {"value": v if isinstance(v, int) else float(v), "unit": units[k]}
            for k, v in metrics.items()
        },
    }))
    return 0
