"""Parallel merge pipeline: fold worker frames in child processes.

The coordinator's serial merge path pays ``from_state`` (JSON/buffer
decode) plus ``merge`` for every frame on the collector thread, so at
many workers the coordinator itself becomes the bottleneck.
:class:`MergePool` turns that path into a **merge tree** on a
``ProcessPoolExecutor`` whose children each hold one blank sibling
template (shipped once at pool start through the picklable
spec/registry machinery — see :mod:`repro.functions.registry`).
Submitted frames batch into groups; each group is pickled to a child,
which decodes every state and pre-merges the group into **one** sketch
that travels back as a pickled object (numpy arrays pickle as raw
buffers — far cheaper than the JSON decode it displaces).
:meth:`MergePool.drain` folds the returned group partials into the root
serially: at group size ``g`` the parent does ``frames / g`` object
merges while the children soak up all ``frames`` decodes in parallel,
off the coordinator's GIL.

Exactness: sketch states are linear, so merges commute and associate —
for the integer-valued states this library ships, bit for bit (the same
invariance contract behind sharded ingestion, enforced for this module by
``tests/test_distributed.py``).  Any grouping of frames therefore yields
the root state serial merging would, which is what lets the tree group
frames by arrival order.

The root structure is never mutated until :meth:`~MergePool.drain`, so
streaming submissions are safe while a round is open.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from typing import List

__all__ = ["MergePool"]

#: How many frames one child dispatch groups together.  Larger groups
#: amortize pickling and inter-process transfer; smaller groups start
#: merging sooner.  Four keeps a 4-child pool busy from the fifth frame
#: on while still collapsing 4 decodes into one returned object.
DEFAULT_GROUP_FRAMES = 4

# Per-child sibling template, installed by the pool initializer.  Each
# child decodes states against its own copy, so the parent's root
# structure never crosses the process boundary after start.
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


class MergePool:
    """A pool of child-process mergers feeding one root sketch.

    Parameters
    ----------
    structure:
        The root sketch; submitted states must be sibling states.  Left
        untouched until :meth:`drain`.  It must pickle — true for every
        sketch built from :mod:`repro.distributed.specs`; fold other
        sketches serially instead.
    workers:
        Pool width (child processes decoding and pre-merging
        concurrently).  Must be >= 1.
    """

    def __init__(self, structure, workers: int = 2):
        if workers < 1:
            raise ValueError("merge workers must be positive")
        self.structure = structure
        self.workers = int(workers)
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_merge_process,
            initargs=(structure.spawn_sibling(),),
        )
        self._futures: List[Future] = []
        self._group: List[dict] = []
        self.merged_frames = 0

    # ------------------------------------------------------------- pipeline

    def submit(self, state: dict) -> None:
        """Queue one sibling state for decode + pre-merge on the pool."""
        self._group.append(state)
        if len(self._group) >= DEFAULT_GROUP_FRAMES:
            self._dispatch_group()

    def _dispatch_group(self) -> None:
        group, self._group = self._group, []
        if group:
            self._futures.append(self._pool.submit(_premerge_group, group))

    def drain(self):
        """Wait for every queued frame, fold the group partials into the
        root, and return the root.  Errors from any pool task (a
        non-sibling state, a corrupt payload) re-raise here with their
        original tracebacks — the pool itself stays drainable, never
        deadlocked, after a poisoned frame."""
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
