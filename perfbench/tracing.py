"""Benchmark-side tracing: timed spans around the calls into each layer.

Nothing under ``src/`` is edited.  :func:`install` swaps, for one traced
phase, the functions and methods in :data:`METHODS` and
:data:`FUNCTIONS` for wrappers that record a :class:`Span` (name, start,
end, parent, thread, process) and hands back an ``uninstall`` callable
that restores the originals.

Rules the wrappers follow:

* A function is patched at every name it is bound to in the loaded
  ``repro`` modules, because several callers import by name
  (``gsum.py`` imports ``fused_update_batch``, ``driver.py`` imports
  ``run_worker_rounds``, ``cli.py`` imports ``load_stream``).  Modules
  imported after :func:`install` bind the wrapper themselves.
* Methods are patched on the estimator class only (``GSumEstimator``),
  never on the ``MergeableSketch`` base, so a sub-sketch's nested
  ``to_state``/``from_state``/``merge`` is not counted twice.  A call
  whose innermost open span already has the same name passes through
  untimed for the same reason (``StackedKWiseBank.signs_batch`` calls
  ``values_batch``).
* The fused plane's depth bank is hashing done by ``core``, not by the
  sketch hash families, so ``IngestPlan._depths`` runs *quiet*: nothing
  beneath it is traced and its time stays in ``core.update`` self time.

Spans stay in memory.  Process-pool workers write theirs to
``spans-<pid>-<n>.json`` when ``run_worker_rounds`` returns (pool
children leave through ``os._exit`` and never run atexit hooks); the
server launcher writes its spans after ``repro.cli.main`` returns.
:func:`write_chrome_trace` emits Chrome trace-event JSON, and
:func:`analyze` computes self times and the per-op layer breakdown.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable

#: Span name of one benchmark op; its descendants are split by layer.
OP = "op"

#: Layers, named after the ``repro`` modules they time; a span's layer
#: is the part of its name before the first dot.
LAYERS = ("streams", "core", "sketch", "distributed", "serve")


class Span:
    """One timed call.  ``parent`` is the ``sid`` of the span that was
    open on the same thread when this one started (``None`` at a root)."""

    __slots__ = ("sid", "name", "start", "end", "parent", "tid", "pid", "args")

    def to_list(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent,
                self.tid, self.pid, _resolve_args(self.args)]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        span = cls()
        (span.sid, span.name, span.start, span.end, span.parent, span.tid,
         span.pid, span.args) = row
        return span


# Stack marker pushed by quiet wrappers: calls beneath it are not traced.
_QUIET = object()


class Tracer:
    """In-memory span recorder, one per process (forked children reset
    their copy, so a worker reports only the spans it recorded)."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.root_pid = os.getpid()
        self._reset()
        self._flushes = itertools.count()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def open(self, name: str, stack: list) -> Span:
        span = Span()
        span.sid = next(self._ids)
        span.name = name
        span.parent = stack[-1].sid if stack else None
        span.tid = threading.get_ident()
        span.pid = self.pid
        span.args = None
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span, stack: list) -> None:
        span.end = time.perf_counter()
        stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        stack = self.stack()
        span = self.open(name, stack)
        try:
            yield span
        finally:
            self.close(span, stack)

    def op(self):
        """Span of one benchmark op."""
        return self.span(OP)

    @contextmanager
    def quiet(self):
        """Nothing beneath is traced (the benchmark's own checks)."""
        stack = self.stack()
        stack.append(_QUIET)
        try:
            yield
        finally:
            stack.pop()

    def flush(self) -> Path:
        """Write this process's spans to the output directory and drop
        them from memory."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}-{next(self._flushes)}.json"
        rows = [span.to_list() for span in self.spans]
        self.spans = []
        path.write_text(json.dumps(rows))
        return path


def load_spans(out_dir: Path) -> list[Span]:
    """Every span flushed to ``out_dir`` by other processes."""
    spans: list[Span] = []
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        spans.extend(Span.from_list(row) for row in json.loads(path.read_text()))
    return spans


def _resolve_args(args):
    """Span arguments are computed lazily: a to_state span keeps the
    state it returned, and its size is measured here, outside any span."""
    if args is None or "state" not in args:
        return args
    resolved = dict(args)
    state = resolved.pop("state")
    resolved["bytes"] = len(json.dumps(state, separators=(",", ":")))
    return resolved


# ------------------------------------------------------------------ wrappers


def _timed(tracer: Tracer, name: str, fn: Callable, args_of=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = tracer.stack()
        if stack and (stack[-1] is _QUIET or stack[-1].name == name):
            return fn(*args, **kwargs)
        span = tracer.open(name, stack)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span, stack)
        if args_of is not None:
            span.args = args_of(args, result)
        return result

    return wrapper


def _quiet(tracer: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.quiet():
            return fn(*args, **kwargs)

    return wrapper


def _publish(tracer: Tracer, fn: Callable) -> Callable:
    """``SnapshotStore.snapshot`` is a span only when it builds a new
    snapshot; the fast path (published snapshot already current) is a
    plain attribute read and stays untimed."""
    timed = _timed(tracer, "serve.publish", fn)

    @functools.wraps(fn)
    def wrapper(store):
        published = store._published
        if published is not None and published.epoch == store.epoch:
            return fn(store)
        return timed(store)

    return wrapper


def _worker(tracer: Tracer, fn: Callable) -> Callable:
    """``run_worker_rounds``: timed, and in a pool child the spans are
    flushed before it returns."""
    timed = _timed(tracer, "distributed.worker", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return timed(*args, **kwargs)
        finally:
            if os.getpid() != tracer.root_pid:
                tracer.flush()

    return wrapper


def _count(key: str):
    """Span argument ``key``: the length of the call's first argument
    after ``self`` (items hashed, updates ingested, items admitted)."""
    return lambda args, result: {key: len(args[1])}


def _frame_out(args, result):
    return {"dir": "out", "type": args[0].get("type"), "bytes": len(result)}


def _frame_in(args, result):
    return {"dir": "in", "bytes": len(args[0])}


def _state(args, result):
    return {"state": result}


#: (module, class, method, span name, argument extractor); ``None`` as the
#: span name marks a quiet wrapper, ``"publish"`` the snapshot wrapper.
METHODS = (
    ("repro.core.gsum", "GSumEstimator", "update_batch", "core.update", _count("n")),
    ("repro.core.gsum", "GSumEstimator", "update_batch_second_pass",
     "core.second_pass", _count("n")),
    ("repro.core.gsum", "GSumEstimator", "estimate", "core.estimate", None),
    ("repro.core.gsum", "GSumEstimator", "frequency_batch", "core.frequency", None),
    ("repro.core.gsum", "GSumEstimator", "spawn_sibling", "sketch.spawn", None),
    ("repro.core.gsum", "GSumEstimator", "to_state", "sketch.encode", _state),
    ("repro.core.gsum", "GSumEstimator", "from_state", "sketch.decode", None),
    ("repro.core.gsum", "GSumEstimator", "merge", "sketch.merge", None),
    ("repro.core.gsum", "GSumEstimator", "export_candidates",
     "distributed.broadcast", None),
    ("repro.core.ingest_plan", "IngestPlan", "_depths", None, None),
    ("repro.core.ingest_plan", "SecondPassIngestPlan", "_depths", None, None),
    ("repro.sketch.hashing", "StackedKWiseBank", "values_batch", "sketch.hash",
     _count("items")),
    ("repro.sketch.hashing", "StackedKWiseBank", "signs_batch", "sketch.hash",
     _count("items")),
    ("repro.sketch.hashing", "VectorKWiseHash", "signs_batch", "sketch.hash",
     _count("items")),
    ("repro.sketch.hashing", "KWiseHash", "values_batch", "sketch.hash",
     _count("items")),
    ("repro.sketch.ams", "AmsF2Sketch", "apply_net", "sketch.ams", None),
    ("repro.sketch.countsketch", "CountSketch", "_admit_batch", "sketch.admit",
     _count("items")),
    ("repro.distributed.transport", "SocketHub", "collect_round",
     "distributed.collect", None),
    ("repro.distributed.transport", "SocketHub", "publish_broadcast",
     "distributed.broadcast", None),
    ("repro.serve.snapshot", "SnapshotStore", "snapshot", "publish", None),
    ("repro.serve.snapshot", "SnapshotStore", "update_batch", "serve.ingest", None),
    ("repro.serve.engine", "QueryEngine", "frequency_batch", "serve.query", None),
    ("repro.serve.engine", "QueryEngine", "aggregate", "serve.query", None),
    ("repro.serve.server", "SketchServer", "_route", OP, None),
)

#: (module, function, span name, argument extractor); ``"worker"`` marks
#: the flushing ``run_worker_rounds`` wrapper.
FUNCTIONS = (
    ("repro.distributed.specs", "build_sketch", "core.construct", None),
    ("repro.core.ingest_plan", "build_ingest_plan", "core.plan_build", None),
    ("repro.streams.io", "load_stream", "streams.load", None),
    ("repro.distributed.worker", "ship_round", "distributed.ship", None),
    ("repro.distributed.worker", "run_worker_rounds", "worker", None),
    ("repro.distributed.wire", "dumps_frame", "distributed.wire", _frame_out),
    ("repro.distributed.wire", "loads_frame", "distributed.wire", _frame_in),
)


def _wrap(tracer: Tracer, fn: Callable, name, args_of) -> Callable:
    if name is None:
        return _quiet(tracer, fn)
    if name == "publish":
        return _publish(tracer, fn)
    if name == "worker":
        return _worker(tracer, fn)
    return _timed(tracer, name, fn, args_of)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every call listed above; returns the function that undoes it."""
    import importlib

    undo: list[Callable[[], None]] = []
    for module_name, cls_name, attr, name, args_of in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        own = attr in cls.__dict__
        original = cls.__dict__[attr] if own else getattr(cls, attr)
        setattr(cls, attr, _wrap(tracer, original, name, args_of))
        undo.append(
            functools.partial(setattr, cls, attr, original)
            if own
            else functools.partial(delattr, cls, attr)
        )
    for module_name, attr, name, args_of in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = _wrap(tracer, original, name, args_of)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    undo.append(functools.partial(setattr, module, key, original))

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall


# ------------------------------------------------------------------ analysis


def _children(spans: Iterable[Span]) -> dict:
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[(span.pid, span.parent)].append(span)
    return children


def self_times(spans: list[Span], children: dict | None = None) -> dict:
    """``(pid, sid) -> self time``: a span's duration minus the part of it
    its child spans cover."""
    if children is None:
        children = _children(spans)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for kid in sorted(children.get((span.pid, span.sid), ()), key=lambda k: k.start):
            lo, hi = max(kid.start, cursor), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[(span.pid, span.sid)] = (span.end - span.start) - covered
    return result


def analyze(spans: list[Span]) -> dict:
    """Per-name totals and the per-op layer breakdown.

    Returns ``{"names": {name: {...}}, "ops": {...}}``.  Each name carries
    ``calls``, ``total_s`` (inclusive), ``self_s`` and summed span
    arguments.  ``ops`` sums, over every span named :data:`OP`, the self
    time of its descendants per layer plus the op's own self time as
    ``other``; ``residual_s`` is how far that sum misses the ops' wall
    time (zero up to rounding when spans nest properly)."""
    children = _children(spans)
    selfs = self_times(spans, children)
    names: dict = defaultdict(lambda: defaultdict(float))
    for span in spans:
        span.args = _resolve_args(span.args)
        entry = names[span.name]
        entry["calls"] += 1
        entry["total_s"] += span.end - span.start
        entry["self_s"] += selfs[(span.pid, span.sid)]
        args = span.args or {}
        for key, value in args.items():
            if key == "type":
                entry[f"type:{value}"] += 1
            elif key != "dir":
                entry[f"{args.get('dir', '')}{key}"] += value
    layers = {layer: 0.0 for layer in LAYERS}
    wall = other = 0.0
    count = 0
    for op in (s for s in spans if s.name == OP):
        count += 1
        wall += op.end - op.start
        other += selfs[(op.pid, op.sid)]
        pending = list(children.get((op.pid, op.sid), ()))
        while pending:
            span = pending.pop()
            layer = span.name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + selfs[(span.pid, span.sid)]
            pending.extend(children.get((span.pid, span.sid), ()))
    return {
        "names": {name: dict(entry) for name, entry in names.items()},
        "ops": {
            "count": count,
            "wall_s": wall,
            "layers_s": layers,
            "other_s": other,
            "residual_s": wall - other - sum(layers.values()),
        },
    }


def write_chrome_trace(spans: list[Span], path: Path, metadata: dict) -> None:
    """Chrome trace-event JSON (``chrome://tracing``, Perfetto): one
    complete event per span, timestamps in microseconds from the first
    span, span ids and parents in ``args``."""
    origin = min((span.start for span in spans), default=0.0)
    events = []
    for span in spans:
        args = dict(_resolve_args(span.args) or {})
        args.update(id=span.sid, parent=span.parent)
        events.append({
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "pid": span.pid,
            "tid": span.tid,
            "args": args,
        })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "metadata": metadata}))
