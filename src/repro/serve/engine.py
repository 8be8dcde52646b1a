"""The query engine: snapshot + epoch cache + capability detection.

One object the HTTP server, the load harness, and the tests all share.
Reads go against an immutable :class:`~repro.serve.snapshot.SketchSnapshot`
(never the live sketch), results are memoized in an
:class:`~repro.serve.cache.EpochLRUCache` keyed by the snapshot's epoch,
and the engine decides when a new snapshot is published while ingestion
is advancing the epoch underneath it: inline on every advance, or on a
refresh clock by its own publisher thread, off the request path.

Capabilities are detected from the wrapped sketch once:

* **frequency** — point/batch frequency probes, via ``frequency_batch``
  (:class:`~repro.core.gsum.GSumEstimator`) or the mergeable protocol's
  ``estimate_batch`` (CountSketch, Count-Min, exact, heavy-hitter
  wrappers).
* **heavy hitters** — ``top_candidates`` (CountSketch) or ``cover()``
  (the g-heavy-hitter sketches).
* **aggregate** — a nullary ``estimate()`` (the g-SUM estimators, AMS),
  computed at most once per snapshot: by the publisher thread before the
  snapshot is served, or, at ``refresh_interval == 0``, by the first
  ``aggregate()`` query on it.
"""

from __future__ import annotations

import inspect
import logging
import threading
import time
from typing import Sequence

import numpy as np

from repro.serve.cache import EpochLRUCache
from repro.serve.snapshot import SketchSnapshot, SnapshotStore

logger = logging.getLogger(__name__)

#: Name of the thread that publishes snapshots for an engine with
#: ``refresh_interval > 0``; the engine starts it and :meth:`close` ends it.
PUBLISHER_THREAD = "snapshot-publisher"


def _required_positional(fn) -> int | None:
    """Number of required positional parameters of a bound callable, or
    ``None`` when the signature cannot be introspected."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):  # pragma: no cover - C callables
        return None
    count = 0
    for param in sig.parameters.values():
        if (
            param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD)
            and param.default is param.empty
        ):
            count += 1
    return count


class QueryEngine:
    """Serve queries from epoch-consistent snapshots with an LRU in front.

    A *publish* clones the live sketch (:meth:`SnapshotStore.snapshot`)
    and serves the clone; the constructor runs the first one.  A sketch's
    aggregate ``estimate()`` is cached on the snapshot it was computed on,
    together with the error it raised, if any: a two-pass sketch before
    its second pass fails ``aggregate()`` and answers its other queries.

    Parameters
    ----------
    store:
        The :class:`SnapshotStore` wrapping the live sketch.
    cache_size:
        LRU capacity (entries) of the epoch-keyed result cache.
    refresh_interval:
        Minimum seconds between snapshot refreshes.  ``0`` publishes
        inline, on the querying thread, whenever the epoch has advanced,
        so every query sees the newest state; the first ``aggregate()``
        query on a snapshot computes its aggregate.  A positive value
        hands the publish to the engine's publisher thread, which computes
        the aggregate before it serves the clone: the first query at least
        this long after the last refresh, with the epoch advanced, wakes
        it and answers from the snapshot already served.  Answers are then
        stale by at most one interval plus one publish, never torn, and no
        query runs a clone or an ``estimate()``.  :meth:`close` stops the
        thread.
    """

    def __init__(
        self,
        store: SnapshotStore,
        cache_size: int = 4096,
        refresh_interval: float = 0.0,
    ):
        self.store = store
        self.cache = EpochLRUCache(cache_size)
        self.refresh_interval = float(refresh_interval)
        self._last_refresh = float("-inf")
        self.queries = 0
        self._publish_lock = threading.Lock()  # one publish at a time
        self._wake = threading.Event()
        self._closed = False
        self._served: SketchSnapshot | None = None
        live = store.live
        estimate = getattr(live, "estimate", None)
        arity = None if estimate is None else _required_positional(estimate)
        if hasattr(live, "frequency_batch"):
            self._frequency_attr = "frequency_batch"
        elif estimate is not None and arity == 1:
            self._frequency_attr = "estimate_batch"
        else:
            self._frequency_attr = None
        if hasattr(live, "top_candidates"):
            self._hh_attr = "top_candidates"
        elif hasattr(live, "cover"):
            self._hh_attr = "cover"
        else:
            self._hh_attr = None
        self._aggregate = estimate is not None and arity == 0
        self._publish()
        self._publisher: threading.Thread | None = None
        if self.refresh_interval > 0:
            self._publisher = threading.Thread(
                target=self._run_publisher, name=PUBLISHER_THREAD, daemon=True
            )
            self._publisher.start()

    def close(self) -> None:
        """Stop the publisher thread once the publish it may be running
        ends.  Queries still answer afterwards; with ``refresh_interval >
        0`` they keep the last snapshot served."""
        self._closed = True
        self._wake.set()
        if self._publisher is not None:
            self._publisher.join()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------- capabilities

    @property
    def supports_frequency(self) -> bool:
        return self._frequency_attr is not None

    @property
    def supports_heavy_hitters(self) -> bool:
        return self._hh_attr is not None

    @property
    def supports_aggregate(self) -> bool:
        return self._aggregate

    # ----------------------------------------------------------- snapshots

    def snapshot(self) -> SketchSnapshot:
        """The snapshot queries run against, read lock-free.  When the
        epoch has advanced, ``refresh_interval == 0`` publishes inline
        first; otherwise a query a refresh interval after the last one
        wakes the publisher thread, and every query returns the snapshot
        already served."""
        served = self._served
        if served.epoch == self.store.epoch:
            return served
        if self.refresh_interval <= 0:
            return self._publish()
        now = time.monotonic()
        if now - self._last_refresh >= self.refresh_interval:
            # Queries racing here may each wake the publisher; wake-ups
            # that arrive before or during a publish fold into one more,
            # so the clock needs no lock.
            self._last_refresh = now
            self._wake.set()
        return served

    def _publish(self) -> SketchSnapshot:
        """Clone the live sketch and serve the clone, unless a snapshot as
        new is served already.  With a refresh interval the clone's
        aggregate is computed first."""
        with self._publish_lock:
            snap = self.store.snapshot()
            served = self._served
            if served is not None and snap.epoch <= served.epoch:
                return served
            if self.refresh_interval > 0:
                self._compute_aggregate(snap)
            self._served = snap
            return snap

    def _compute_aggregate(self, snap: SketchSnapshot) -> None:
        """Cache ``snap``'s aggregate, or the error computing it raised,
        unless either is cached already.  The caller holds
        ``_publish_lock``, so it runs at most once per snapshot."""
        done = snap.aggregate is not None or snap.aggregate_error is not None
        if done or not self._aggregate:
            return
        try:
            snap.aggregate = float(snap.sketch.estimate())
        except Exception as exc:  # the snapshot still answers other queries
            snap.aggregate_error = exc

    def _run_publisher(self) -> None:
        while True:
            self._wake.wait()
            self._wake.clear()
            if self._closed:  # set before close() wakes us, so never missed
                return
            try:
                self._publish()
            except Exception:  # the served snapshot stays; the next refresh retries
                logger.exception(
                    "snapshot publish failed; still serving epoch %d",
                    self._served.epoch,
                )

    # ------------------------------------------------------------- queries

    def frequency(self, item: int) -> dict:
        """Point frequency estimate for one item."""
        result = self.frequency_batch([int(item)])
        return {
            "item": int(item),
            "estimate": result["estimates"][0],
            "epoch": result["epoch"],
        }

    def frequency_batch(self, items: Sequence[int]) -> dict:
        """Batched frequency probes against one epoch-consistent snapshot."""
        if self._frequency_attr is None:
            raise LookupError(
                f"{type(self.store.live).__name__} does not support "
                "frequency queries"
            )
        self.queries += 1
        key = ("freq", tuple(int(i) for i in items))
        snap = self.snapshot()
        cached = self.cache.get(snap.epoch, key)
        if cached is None:
            arr = np.asarray(key[1], dtype=np.int64)
            cached = getattr(snap.sketch, self._frequency_attr)(arr).tolist()
            self.cache.put(snap.epoch, key, cached)
        return {"items": list(key[1]), "estimates": cached, "epoch": snap.epoch}

    def heavy_hitters(self, k: int | None = None) -> dict:
        """Top heavy-hitter candidates from the snapshot's cover."""
        if self._hh_attr is None:
            raise LookupError(
                f"{type(self.store.live).__name__} does not support "
                "heavy-hitter queries"
            )
        self.queries += 1
        key = ("hh", None if k is None else int(k))
        snap = self.snapshot()
        cached = self.cache.get(snap.epoch, key)
        if cached is None:
            if self._hh_attr == "top_candidates":
                pairs = snap.sketch.top_candidates(key[1])
                cached = [
                    {"item": p.item, "estimate": p.estimate} for p in pairs
                ]
            else:
                pairs = snap.sketch.cover()
                if key[1] is not None:
                    pairs = pairs[: key[1]]
                cached = [
                    {
                        "item": p.item,
                        "estimate": p.frequency,
                        "g_weight": p.g_weight,
                    }
                    for p in pairs
                ]
            self.cache.put(snap.epoch, key, cached)
        return {"heavy_hitters": cached, "epoch": snap.epoch}

    def aggregate(self) -> dict:
        """The sketch's whole-stream estimate (g-SUM, F2, ...), computed
        once per snapshot.  ``LookupError`` when the snapshot's
        ``estimate()`` raised, chained to that error."""
        if not self._aggregate:
            raise LookupError(
                f"{type(self.store.live).__name__} does not expose an "
                "aggregate estimate()"
            )
        self.queries += 1
        snap = self.snapshot()
        if snap.aggregate is None and snap.aggregate_error is None:
            with self._publish_lock:
                self._compute_aggregate(snap)
        if snap.aggregate_error is not None:
            raise LookupError(
                f"no aggregate estimate at epoch {snap.epoch}: "
                f"{snap.aggregate_error}"
            ) from snap.aggregate_error
        return {"estimate": snap.aggregate, "epoch": snap.epoch}

    # --------------------------------------------------------------- admin

    def health(self) -> dict:
        return {
            "status": "ok",
            "sketch": type(self.store.live).__name__,
            "epoch": self.store.epoch,
            "snapshot_epoch": self._served.epoch,
            "queries": self.queries,
        }

    def stats(self) -> dict:
        return {
            "queries": self.queries,
            "epoch": self.store.epoch,
            "snapshot_epoch": self._served.epoch,
            "cache": self.cache.stats(),
            "capabilities": {
                "frequency": self.supports_frequency,
                "heavy_hitters": self.supports_heavy_hitters,
                "aggregate": self.supports_aggregate,
            },
        }
