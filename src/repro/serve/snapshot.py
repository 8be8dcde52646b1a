"""Copy-on-write snapshots over a live mergeable sketch.

The concurrency model is writer-locked, reader-lock-free:

* Every mutation of the live sketch — ``update_batch``, a round merge, any
  ``mutate(fn)`` — runs under one writer lock and advances a monotonically
  increasing **merge epoch**.
* :meth:`SnapshotStore.snapshot` publishes an immutable
  :class:`SketchSnapshot`: a structural clone of the live sketch, made
  under the lock by spawning an empty sibling and merging the live sketch
  into it.  The sketches are linear over fixed hash families and their
  candidate pools are functions of the item set, so the clone's state is
  the live state bit for bit, with no codec round trip.  The clone shares
  the live sketch's immutable hash families and none of its mutable
  state.
* Readers hold a reference to a published snapshot and query it with plain
  attribute reads — no lock, no torn tables.  A snapshot is forever
  consistent with the epoch stamped on it; freshness is the caller's
  policy (:class:`repro.serve.engine.QueryEngine` publishes on a
  request-driven refresh clock, off the request path).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

import numpy as np

from repro.sketch.base import MergeableSketch


class SketchSnapshot:
    """An immutable (by convention: never mutate ``sketch``) view of the
    live sketch as of ``epoch``.  The sketch is an independent sibling —
    it shares the live one's immutable hash families but no mutable state
    (tables, pools, counters, memos), so concurrent ingestion cannot tear
    it.  ``aggregate`` caches the sketch's whole-stream ``estimate()``,
    or ``aggregate_error`` the exception it raised, once
    :class:`~repro.serve.engine.QueryEngine` has computed it; both stay
    ``None`` until then, and for sketches without one."""

    __slots__ = ("epoch", "sketch", "aggregate", "aggregate_error")

    def __init__(self, epoch: int, sketch: MergeableSketch):
        self.epoch = int(epoch)
        self.sketch = sketch
        self.aggregate: float | None = None
        self.aggregate_error: Exception | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SketchSnapshot(epoch={self.epoch}, {type(self.sketch).__name__})"


class SnapshotStore:
    """Serializes writers, frees readers.

    ``live`` is the sketch being ingested into (any
    :class:`MergeableSketch`).  A snapshot is ``live.spawn_sibling()``
    with ``live`` merged into it, under the writer lock: it shares the
    live sketch's immutable hash families and none of its mutable state,
    and builds no hash family.
    """

    def __init__(self, live: MergeableSketch):
        self._live = live
        self._lock = threading.RLock()
        self._epoch = 0
        self._published: SketchSnapshot | None = None

    # ------------------------------------------------------------- writers

    @property
    def live(self) -> MergeableSketch:
        """The live sketch.  Mutate it only through :meth:`mutate` (or the
        convenience wrappers below) so the epoch stays truthful."""
        return self._live

    @property
    def epoch(self) -> int:
        """Monotonically increasing merge-epoch counter: the number of
        mutations applied to the live sketch."""
        return self._epoch

    def mutate(self, fn: Callable[[MergeableSketch], Any]) -> Any:
        """Run ``fn(live)`` under the writer lock and advance the epoch.
        Every write path — ingestion chunks, round merges, imports — goes
        through here, so an epoch number identifies exactly one prefix of
        the mutation sequence."""
        with self._lock:
            result = fn(self._live)
            self._epoch += 1
        return result

    def update_batch(
        self,
        items: "np.ndarray | Sequence[int]",
        deltas: "np.ndarray | Sequence[int]",
    ) -> None:
        """One ingestion chunk = one epoch."""
        self.mutate(lambda live: live.update_batch(items, deltas))

    def merge(self, other: MergeableSketch) -> None:
        """Fold a sibling sketch into the live one (one epoch)."""
        self.mutate(lambda live: live.merge(other))

    def merge_state(self, state: dict) -> None:
        """Decode a shipped sibling state and fold it in (one epoch).  The
        decode runs outside the lock; only the merge itself blocks
        writers/snapshotters."""
        sibling = self._live.from_state(state)
        self.mutate(lambda live: live.merge(sibling))

    # ------------------------------------------------------------- readers

    def snapshot(self) -> SketchSnapshot:
        """An immutable snapshot at the *current* epoch.

        Fast path: when the published snapshot is already current this is
        a plain attribute read.  Otherwise one caller pays the copy: under
        the writer lock, an empty sibling with the live sketch merged into
        it, stamped with the epoch whose state it holds.  A caller that
        waited for the lock while another published returns that one.
        """
        published = self._published
        if published is not None and published.epoch == self._epoch:
            return published
        with self._lock:
            published = self._published
            if published is None or published.epoch < self._epoch:
                clone = self._live.spawn_sibling().merge(self._live)
                published = self._published = SketchSnapshot(self._epoch, clone)
            return published

    def current(self) -> SketchSnapshot:
        """The last *published* snapshot without forcing a refresh — always
        lock-free for readers once anything has been published (possibly
        stale, never torn).  Builds the first snapshot on first use."""
        published = self._published
        if published is not None:
            return published
        return self.snapshot()
