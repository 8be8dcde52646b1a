"""Fused ingestion plane: the whole repetition x level x row fan-out as
stacked kernels.

A ``GSumEstimator`` (and both universal sketches) is structurally a large
fan-out: ``repetitions`` independent recursive sketches, each with
``levels + 1`` subsampling levels, each backed by a multi-row CountSketch
(plus an AMS F2 sketch in the one-pass configuration).  The per-cell
fan-out (:meth:`~repro.core.recursive_sketch.RecursiveGSumSketch.update_batch`)
walks that structure in Python per chunk — every cell re-deduplicates
and re-hashes the same items — so per-cell numpy calls, not arithmetic,
dominate its runtime.  An :class:`IngestPlan` collapses the walk:

* **One plane.**  Every cell's CountSketch table is restacked into a
  single contiguous ``(cells, rows, buckets)`` float64 plane and the cell
  keeps a *view* (``cs._table = plane[i]``).  All existing protocol code
  (merge's ``+=``, scalar updates, codec encoders, query kernels) reads
  and writes through the views unchanged; the plan scatters the whole
  chunk into the flattened plane with one ``np.add.at`` over composite
  ``(cell_index * rows + row) * buckets + bucket`` keys.
* **Stacked hash banks.**  Each cell's per-row bucket and sign
  polynomials are stacked into :class:`~repro.sketch.hashing.StackedKWiseBank`
  coefficient banks (one broadcasted Horner pass per cell instead of one
  per row), and all repetitions' subsampling bit polynomials into one
  depth bank evaluated once per chunk.
* **Per-cell hash memos.**  Hash families are immutable once constructed
  — state payloads carry tables, pools, and registers, never
  coefficients — so each cell memoizes its evaluated (key, sign) rows by
  item.  Steady-state chunks reduce to sorted-array lookups, one scatter,
  and one small matmul per AMS cell.

**Bit-for-bit equality.**  Updates arrive through
:func:`~repro.streams.batching.as_batch`, which coerces deltas to int64,
so every table cell and register is an *integer-valued* float64 sum far
below 2^53.  Integer float64 addition is exact and therefore associative
and commutative on this range, which makes the fused reordering (single
scatter instead of per-row ``np.bincount``; shared dedup instead of
per-cell) produce identical bits; the hash banks reproduce the per-hash
arithmetic column for column.  ``tests/test_ingest_plan.py`` and the
hypothesis interleavings in ``tests/test_property_codec_merge.py``
enforce fused == per-cell fan-out == scalar across both passes, merges,
spawns, and all codecs.

**Invalidation.**  A plan is a pure cache of *structure*: it holds the
live sketch objects and the plane their tables view.  Any operation that
replaces objects or rebinds tables (``from_state`` payload loads, codec
round-trips, ``spawn_sibling``, ``begin_second_pass`` /
``import_candidates``) makes it stale.  Estimators drop their plans via
``_invalidate_ingest_plans()`` on every such operation, and — belt and
braces — :meth:`IngestPlan.is_valid` re-walks the object identities and
``table.base`` linkage every chunk, so even an unanticipated mutation
degrades to a rebuild instead of corrupting state.

**One path.**  The plan is the only batched ingest path of the estimators
it serves; it never falls back.  A closed first pass or an unbegun second
pass raises from the level hook the plan reads (``fused_cell()`` /
``second_pass_counter``); the level's own batch methods raise through the
same hooks, so each message has one owner.  Exact-oracle levels
(``passes=0``) have no plane cell, so that estimator feeds its
repetitions' per-cell fan-out instead.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence

import numpy as np

from repro.core.recursive_sketch import RecursiveGSumSketch
from repro.sketch.exact import ExactCounter
from repro.sketch.hashing import StackedKWiseBank
from repro.streams.batching import as_batch

#: Per-cell bound on memoized hash rows (items).  Beyond it, misses are
#: evaluated per chunk without being stored — correctness is unaffected,
#: steady-state speed degrades toward the bank-only cost.  The AMS sign
#: rows dominate the footprint (~1.8 KB per item at default dimensions).
CACHE_ITEMS_LIMIT = 1 << 15


class _PlaneCell:
    """One (repetition, level) cell: a CountSketch slab of the plane, its
    stacked hash banks, optional AMS twin, and the per-item memo."""

    __slots__ = (
        "owner",
        "cs",
        "ams",
        "bucket_bank",
        "sign_bank",
        "ams_bank",
        "row_offsets",
        "items",
        "keys",
        "signs",
        "ams_rows",
    )

    def __init__(self, owner, cs, ams, cell_index: int):
        self.owner = owner  # the (unwrapped) level heavy-hitter sketch
        self.cs = cs
        self.ams = ams
        self.bucket_bank = StackedKWiseBank.from_hashes(cs._bucket_hashes)
        self.sign_bank = StackedKWiseBank.from_sign_hashes(cs._sign_hashes)
        self.ams_bank = None if ams is None else ams.sign_bank
        self.row_offsets = (
            np.arange(cs.rows, dtype=np.int64) + cell_index * cs.rows
        ) * cs.buckets
        self.items = np.empty(0, dtype=np.int64)
        self.keys = np.empty((0, cs.rows), dtype=np.int64)
        self.signs = np.empty((0, cs.rows), dtype=np.float64)
        self.ams_rows = (
            None
            if self.ams_bank is None
            else np.empty((0, self.ams_bank.count), dtype=np.float64)
        )

    def adopt_memo(self, old: "_PlaneCell") -> None:
        """Carry a previous plan's memo over a rebuild that kept the same
        sketch objects (e.g. after a merge): hash values only depend on
        the immutable families, so they stay exact."""
        self.items = old.items
        self.keys = old.keys
        self.signs = old.signs
        self.ams_rows = old.ams_rows

    def _evaluate(self, miss: np.ndarray):
        """Bank-evaluate uncached items: flat plane keys, CountSketch
        signs, and (for one-pass cells) AMS sign rows."""
        keys = self.bucket_bank.values_batch(miss) + self.row_offsets
        signs = self.sign_bank.signs_batch(miss)
        ams_rows = (
            None if self.ams_bank is None else self.ams_bank.signs_batch(miss)
        )
        return keys, signs, ams_rows

    def lookup(self, su: np.ndarray):
        """(keys, signs, ams_rows) for the sorted survivor array ``su``,
        served from the memo; misses are bank-evaluated and inserted
        (bounded by :data:`CACHE_ITEMS_LIMIT`)."""
        cached = self.items
        n = cached.shape[0]
        if n:
            pos = np.searchsorted(cached, su)
            pos[pos == n] = n - 1
            hit = cached[pos] == su
            if hit.all():
                return (
                    self.keys[pos],
                    self.signs[pos],
                    None if self.ams_rows is None else self.ams_rows[pos],
                )
            miss = su[~hit]
        else:
            hit = None
            miss = su
        keys_m, signs_m, ams_m = self._evaluate(miss)
        if n + miss.shape[0] <= CACHE_ITEMS_LIMIT:
            merged = np.concatenate([cached, miss])
            order = np.argsort(merged, kind="stable")
            self.items = merged[order]
            self.keys = np.concatenate([self.keys, keys_m])[order]
            self.signs = np.concatenate([self.signs, signs_m])[order]
            if self.ams_rows is not None:
                self.ams_rows = np.concatenate([self.ams_rows, ams_m])[order]
            pos = np.searchsorted(self.items, su)
            return (
                self.keys[pos],
                self.signs[pos],
                None if self.ams_rows is None else self.ams_rows[pos],
            )
        # Memo full: assemble this chunk's rows without storing the misses.
        if hit is None:
            return keys_m, signs_m, ams_m
        keys = np.empty((su.shape[0], self.keys.shape[1]), dtype=np.int64)
        signs = np.empty((su.shape[0], self.signs.shape[1]), dtype=np.float64)
        keys[hit] = self.keys[pos[hit]]
        keys[~hit] = keys_m
        signs[hit] = self.signs[pos[hit]]
        signs[~hit] = signs_m
        if self.ams_rows is None:
            return keys, signs, None
        ams_rows = np.empty((su.shape[0], self.ams_rows.shape[1]), dtype=np.float64)
        ams_rows[hit] = self.ams_rows[pos[hit]]
        ams_rows[~hit] = ams_m
        return keys, signs, ams_rows


def _unwrap_level(level_sketch):
    """A level sketch, stripped of the universal sketches' frequency-level
    wrappers (which delegate ingestion to ``.inner`` untouched)."""
    return getattr(level_sketch, "inner", level_sketch)


class _CounterCell(NamedTuple):
    """One (repetition, level) cell of a second pass: the level sketch and
    its open exact tabulator."""

    owner: object
    counter: ExactCounter


class _FusedPlan:
    """What both plans share: the live repetition sketches, their cells
    in walk order (repetition-major, level 0 first), the depth bank, the
    per-chunk validity walk, and the survivor walk."""

    #: dtype of the per-item net deltas the survivor walk hands each cell.
    _net_dtype = np.float64

    def __init__(
        self, rep_sketches: Sequence[RecursiveGSumSketch], cells: list, levels: int
    ):
        self._reps = list(rep_sketches)
        self._cells = cells
        self._levels = int(levels)
        bits = []
        for rep in self._reps:
            subsample, _ = rep.ingest_layout()
            bits.extend(subsample.bit_hashes())
        self._depth_bank = StackedKWiseBank.from_hashes(bits)

    def _cell_is_live(self, inner, cell) -> bool:
        """Whether ``cell`` still fronts the live level sketch ``inner``."""
        raise NotImplementedError

    def is_valid(self, rep_sketches: Sequence) -> bool:
        """True when the live structure is exactly the one this plan was
        built from: same objects at every layer and each cell still live
        (:meth:`_cell_is_live`).  Checked every chunk (a few dozen
        identity tests), so any state mutation the explicit invalidation
        hooks miss degrades to a rebuild, never to divergence."""
        if len(rep_sketches) != len(self._reps):
            return False
        for rep, ref, rep_cells in zip(rep_sketches, self._reps, self._cells):
            if rep is not ref:
                return False
            _, level_sketches = rep.ingest_layout()
            if len(level_sketches) != len(rep_cells):
                return False
            for level_sketch, cell in zip(level_sketches, rep_cells):
                inner = _unwrap_level(level_sketch)
                if inner is not cell.owner or not self._cell_is_live(inner, cell):
                    return False
        return True

    def _depths(self, unique: np.ndarray) -> np.ndarray:
        """Per-repetition subsampling depths of the chunk's unique items,
        shape ``(repetitions, len(unique))``; row ``r`` equals
        ``min(subsample_r.levels_batch(unique), levels)`` bit for bit
        (depth = number of leading all-ones bits = sum of the cumulative
        bit product)."""
        bits = self._depth_bank.values_batch(unique)
        alive = np.cumprod(
            bits.reshape(unique.shape[0], len(self._reps), self._levels) == 1,
            axis=2,
        )
        return np.minimum(alive.sum(axis=2, dtype=np.int64), self._levels).T

    def _survivors(self, items, deltas):
        """Net the chunk once, then yield ``(cell, su, sn)`` for every cell
        that has survivors, in walk order: ``su`` are the sorted unique
        items that reach the cell's level and ``sn`` their net deltas.
        Level ``j + 1`` filters level ``j``'s survivors instead of
        rescanning the chunk."""
        items, deltas = as_batch(items, deltas)
        if items.shape[0] == 0:
            return
        unique, inverse = np.unique(items, return_inverse=True)
        net = np.bincount(
            inverse, weights=deltas.astype(np.float64), minlength=unique.shape[0]
        ).astype(self._net_dtype, copy=False)
        depths = self._depths(unique)
        for rep_cells, d in zip(self._cells, depths):
            idx = None  # survivor positions into ``unique``; None = all
            su, sn = unique, net
            for j, cell in enumerate(rep_cells):
                if j:
                    idx = np.flatnonzero(d >= 1) if idx is None else idx[d[idx] >= j]
                    if idx.shape[0] == 0:
                        break
                    su = unique[idx]
                    sn = net[idx]
                yield cell, su, sn


class IngestPlan(_FusedPlan):
    """First-pass fused ingestion for one estimator's repetition fan-out.

    Built lazily by :func:`build_ingest_plan`; holds strong references to
    the live sketch objects, the stacked plane their CountSketch tables
    view, the hash banks, and the per-cell memos.  See the module
    docstring for the equality and invalidation contracts.
    """

    def __init__(
        self,
        rep_sketches: Sequence[RecursiveGSumSketch],
        cells: List[List[_PlaneCell]],
        levels: int,
        plane: np.ndarray,
    ):
        super().__init__(rep_sketches, cells, levels)
        self._plane = plane
        self._flat_plane = plane.reshape(-1)

    def _cell_is_live(self, inner, cell: _PlaneCell) -> bool:
        # ``fused_cell()`` raises once a two-pass level's first pass closed.
        cs, ams = inner.fused_cell()
        return cs is cell.cs and ams is cell.ams and cs._table.base is self._plane

    def update_batch(self, items, deltas) -> None:
        """The fused chunk ingest: one dedup, one depth-bank pass, one
        memo lookup per surviving cell, one plane-wide scatter, then the
        per-cell AMS matmuls and candidate-pool admissions — bit-for-bit
        the per-cell fan-out."""
        key_parts: List[np.ndarray] = []
        weight_parts: List[np.ndarray] = []
        admissions = []
        for cell, su, sn in self._survivors(items, deltas):
            keys, signs, ams_rows = cell.lookup(su)
            key_parts.append(keys.ravel())
            weight_parts.append((signs * sn[:, None]).ravel())
            if ams_rows is not None:
                cell.ams.apply_net(sn, ams_rows)
            if cell.cs.track > 0:
                admissions.append((cell.cs, su))
        if not key_parts:
            return
        np.add.at(
            self._flat_plane,
            np.concatenate(key_parts),
            np.concatenate(weight_parts),
        )
        for cs, su in admissions:
            cs._admit_batch(cs._fresh_candidates(su))


class SecondPassIngestPlan(_FusedPlan):
    """Fused second-pass dispatch for two-pass estimators: one dedup and
    one depth-bank pass per chunk, then each surviving cell's open
    :class:`~repro.sketch.exact.ExactCounter` tabulates its ``(items,
    net)`` slice directly — the counter's own (restricted, aggregated)
    arithmetic, so end state is identical to the per-cell fan-out."""

    _net_dtype = np.int64

    def _cell_is_live(self, inner, cell: _CounterCell) -> bool:
        # ``second_pass_counter`` raises while the second pass is unbegun.
        return inner.second_pass_counter is cell.counter

    def update_batch_second_pass(self, items, deltas) -> None:
        for cell, su, sn in self._survivors(items, deltas):
            cell.counter.update_batch(su, sn)


# --------------------------------------------------------------- builders


def _level_grid(rep_sketches: Sequence[RecursiveGSumSketch]) -> tuple:
    """``(levels, grid)``: the repetitions' common level count and, per
    repetition, its unwrapped level sketches in walk order.  The depth
    bank needs one level layout across repetitions."""
    levels = rep_sketches[0].levels
    grid = []
    for rep in rep_sketches:
        subsample, level_sketches = rep.ingest_layout()
        if subsample.levels != levels or len(level_sketches) != levels + 1:
            raise ValueError("fused ingestion needs one level layout per repetition")
        grid.append([_unwrap_level(level_sketch) for level_sketch in level_sketches])
    return levels, grid


def build_ingest_plan(
    rep_sketches: Sequence, previous: "IngestPlan | None" = None
) -> IngestPlan:
    """An :class:`IngestPlan` over the live repetition sketches.  Restacks
    every CountSketch table into a fresh plane (rebinding ``cs._table``
    to a view — values copied exactly, protocol state untouched) and, on
    a rebuild, carries over per-cell hash memos for cells whose sketch
    objects survived (hash families are immutable, so the memo stays
    exact)."""
    reps = list(rep_sketches)
    levels, grid = _level_grid(reps)
    # Every hook runs before any table is rebound: a closed pass raises
    # with the structure untouched.
    specs = [(inner, *inner.fused_cell()) for rep in grid for inner in rep]
    # Every level is built from one configuration, so cells share a shape.
    rows, buckets = specs[0][1].rows, specs[0][1].buckets
    old_memos = {}
    if previous is not None:
        old_memos = {id(cell.cs): cell for rep in previous._cells for cell in rep}
    plane = np.empty((len(specs), rows, buckets), dtype=np.float64)
    flat_cells: List[_PlaneCell] = []
    for i, (owner, cs, ams) in enumerate(specs):
        plane[i] = cs._table
        cs._table = plane[i]
        cell = _PlaneCell(owner, cs, ams, i)
        old = old_memos.get(id(cs))
        if old is not None and old.cs is cs:
            cell.adopt_memo(old)
        flat_cells.append(cell)
    per_rep = levels + 1
    cells = [flat_cells[r * per_rep : (r + 1) * per_rep] for r in range(len(reps))]
    return IngestPlan(reps, cells, levels, plane)


def build_second_pass_plan(rep_sketches: Sequence) -> SecondPassIngestPlan:
    """A :class:`SecondPassIngestPlan` over the live repetition sketches'
    open second-pass counters."""
    reps = list(rep_sketches)
    levels, grid = _level_grid(reps)
    cells = [
        [_CounterCell(inner, inner.second_pass_counter) for inner in rep]
        for rep in grid
    ]
    return SecondPassIngestPlan(reps, cells, levels)


# ----------------------------------------------------------------- wiring


def fused_update_batch(owner, items, deltas) -> None:
    """Route a first-pass chunk through ``owner``'s cached plan, building
    or rebuilding it as needed."""
    plan = owner._ingest_plan
    if plan is None or not plan.is_valid(owner._sketches):
        plan = owner._ingest_plan = build_ingest_plan(owner._sketches, previous=plan)
    plan.update_batch(items, deltas)


def fused_update_batch_second_pass(owner, items, deltas) -> None:
    """Second-pass analogue of :func:`fused_update_batch`."""
    plan = owner._second_plan
    if plan is None or not plan.is_valid(owner._sketches):
        plan = owner._second_plan = build_second_pass_plan(owner._sketches)
    plan.update_batch_second_pass(items, deltas)
