"""Parallel merge pipeline: fold worker frames on a pool, not a thread.

The coordinator's original merge path was strictly serial — every frame
paid ``from_state`` (JSON/buffer decode) plus ``merge`` on the collector
thread, so at many workers the coordinator itself became the bottleneck
(the PR-4 follow-up this module closes).  :class:`MergePool` turns that
path into a **merge tree** with two backends:

``mode="thread"``
    Each submitted frame is decoded *and pre-merged* on a thread pool —
    an arriving sibling either becomes a new partial accumulator or folds
    into a free one, so up to ``workers`` partial merges run concurrently
    while frames are still landing (the streaming shape);
    :meth:`MergePool.drain` then reduces the partial accumulators
    pairwise (again on the pool) and folds the single survivor into the
    root sketch.  Decode and merge hold the GIL, so thread mode overlaps
    I/O waits but not CPU work.

``mode="process"``
    The GIL-free backend: a ``ProcessPoolExecutor`` whose children each
    hold one blank sibling template (shipped once at pool start through
    the picklable spec/registry machinery — see
    :mod:`repro.functions.registry`).  Submitted frames batch into
    groups; each group is pickled to a child, which decodes every state
    and pre-merges the group into **one** sketch that travels back as a
    pickled object (numpy arrays pickle as raw buffers — far cheaper
    than the JSON decode it displaces).  :meth:`MergePool.drain` folds
    the returned group partials into the root serially: at group size
    ``g`` the parent does ``frames / g`` object merges while the
    children soak up all ``frames`` decodes in parallel.

Exactness: sketch states are linear, so merges commute and associate —
for the integer-valued states this library ships, bit for bit (the same
invariance contract behind sharded ingestion, enforced for this module by
``tests/test_distributed.py``).  Any grouping of frames therefore yields
the root state serial merging would, which is what lets the tree pick its
grouping by arrival order and pool availability, in either mode.

The root structure is never mutated until :meth:`~MergePool.drain`; pool
tasks only *read* it (``from_state`` -> ``spawn_sibling`` + compat
check), so streaming submissions are safe while a round is open.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from threading import Lock
from typing import List

__all__ = ["MergePool", "MERGE_MODES"]

#: The merge-pool backends: ``thread`` (GIL-shared, overlap-I/O) and
#: ``process`` (GIL-free pre-merging in child processes).
MERGE_MODES = ("thread", "process")

#: How many frames a process-mode dispatch groups together.  Larger
#: groups amortize pickling and inter-process transfer; smaller groups
#: start merging sooner.  Four keeps a 4-child pool busy from the fifth
#: frame on while still collapsing 4 decodes into one returned object.
DEFAULT_GROUP_FRAMES = 4

# Per-child sibling template for process mode, installed by the pool
# initializer.  Each child decodes states against its own copy, so the
# parent's root structure never crosses the process boundary after start.
_PROC_TEMPLATE = None


def _init_merge_process(template) -> None:
    global _PROC_TEMPLATE
    _PROC_TEMPLATE = template


def _premerge_group(states: List[dict]):
    """Child-side group fold: decode every state against the template and
    merge the group into one sketch, which pickles back to the parent
    along with the frame count it absorbed."""
    accumulator = None
    for state in states:
        sibling = _PROC_TEMPLATE.from_state(state)
        if accumulator is None:
            accumulator = sibling
        else:
            accumulator = accumulator.merge(sibling)
    return len(states), accumulator


def _freeze_raw(value):
    """Deep-copy ``value`` with every buffer-like field (``memoryview``
    from a shared-memory attach, ``bytearray``) frozen to ``bytes``, so
    states lifted off zero-copy transports survive pickling to a merge
    process.  Plain-bytes states pass through untouched (same object)."""
    if isinstance(value, (memoryview, bytearray)):
        return bytes(value)
    if isinstance(value, dict):
        return {k: _freeze_raw(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_freeze_raw(v) for v in value]
    return value


class MergePool:
    """A pool of mergers feeding one root sketch.

    Parameters
    ----------
    structure:
        The root sketch; submitted states must be sibling states.  Left
        untouched until :meth:`drain`.
    workers:
        Pool width (concurrent decode/merge tasks).  Must be >= 1; a
        width of 1 is the serial pipeline on one background worker.
    mode:
        ``"thread"`` (default) decodes/merges on a thread pool under the
        GIL; ``"process"`` ships frame groups to child processes that
        decode and pre-merge GIL-free (the structure must pickle — true
        for every sketch built from :mod:`repro.distributed.specs`).
    group_frames:
        Process mode only: frames per child dispatch (default
        :data:`DEFAULT_GROUP_FRAMES`).
    """

    def __init__(
        self,
        structure,
        workers: int = 2,
        mode: str = "thread",
        group_frames: int = DEFAULT_GROUP_FRAMES,
    ):
        if workers < 1:
            raise ValueError("merge workers must be positive")
        if mode not in MERGE_MODES:
            raise ValueError(
                f"merge mode must be one of {MERGE_MODES}, got {mode!r}"
            )
        self.structure = structure
        self.workers = int(workers)
        self.mode = mode
        self.group_frames = max(int(group_frames), 1)
        if mode == "process":
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_merge_process,
                initargs=(structure.spawn_sibling(),),
            )
        else:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-merge"
            )
        self._lock = Lock()
        self._partials: List = []
        self._futures: List[Future] = []
        self._group: List[dict] = []
        self.merged_frames = 0

    # ------------------------------------------------------------- pipeline

    def submit(self, state: dict) -> None:
        """Queue one sibling state for decode + pre-merge on the pool."""
        if self.mode == "process":
            self._group.append(_freeze_raw(state))
            if len(self._group) >= self.group_frames:
                self._dispatch_group()
        else:
            self._futures.append(self._pool.submit(self._fold, state))

    def _dispatch_group(self) -> None:
        group, self._group = self._group, []
        if group:
            self._futures.append(self._pool.submit(_premerge_group, group))

    def _fold(self, state: dict) -> None:
        sibling = self.structure.from_state(state)
        with self._lock:
            acc = self._partials.pop() if self._partials else None
            self.merged_frames += 1
        if acc is not None:
            sibling = acc.merge(sibling)
        with self._lock:
            self._partials.append(sibling)

    def drain(self):
        """Wait for every queued frame, reduce the partial accumulators,
        fold the survivor(s) into the root, and return the root.  Errors
        from any pool task (a non-sibling state, a corrupt payload)
        re-raise here with their original tracebacks — the pool itself
        stays drainable, never deadlocked, after a poisoned frame."""
        if self.mode == "process":
            return self._drain_process()
        futures, self._futures = self._futures, []
        for future in futures:
            future.result()
        with self._lock:
            partials, self._partials = self._partials, []
        while len(partials) > 1:
            carry = [partials[-1]] if len(partials) % 2 else []
            merges = [
                self._pool.submit(partials[i].merge, partials[i + 1])
                for i in range(0, len(partials) - 1, 2)
            ]
            partials = [m.result() for m in merges] + carry
        if partials:
            self.structure.merge(partials[0])
        return self.structure

    def _drain_process(self):
        self._dispatch_group()
        futures, self._futures = self._futures, []
        failure = None
        for future in futures:
            try:
                frames, partial = future.result()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                # Keep consuming so the pool is quiescent before raising;
                # the first failure wins (deterministic in dispatch order).
                if failure is None:
                    failure = exc
                continue
            if failure is None and partial is not None:
                self.structure.merge(partial)
                self.merged_frames += frames
        if failure is not None:
            raise failure
        return self.structure

    # ---------------------------------------------------------------- admin

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "MergePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
