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
* **Hash memos under one budget.**  Hash families are immutable once
  constructed — state payloads carry tables, pools, and registers, never
  coefficients — so each cell memoizes its evaluated (key, sign, AMS
  sign) rows by item, and steady-state chunks reduce to sorted-array
  lookups, one scatter, and one small matmul per AMS cell.  The memos
  of all cells share one byte budget per plan
  (:data:`MEMO_BUDGET_BYTES`), granted first come, first served
  (:class:`_MemoBudget`): once it is spent, a cell still gathers its
  hits and hashes its misses through the banks without storing them.

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
degrades to a rebuild instead of corrupting state.  A rebuilt plan starts
with empty memos and a fresh budget.

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

#: Bytes of memoized hash rows one plan may hold, summed over its cells
#: and charged for the capacity the rows grow into (item index, plane
#: keys, CountSketch signs and AMS sign rows).  A row costs 352 bytes at
#: the default dimensions (224 of them its AMS signs, one byte each), so
#: this holds the whole working set of the n = 2^12, 3-repetition plane
#: (24,546 rows, 8.3 MiB) many times over.  The memo is a pure cache:
#: what it refuses is hashed again, never lost.
MEMO_BUDGET_BYTES = 64 << 20


class _MemoBudget:
    """The byte budget the cells' hash memos share.  ``used`` counts the
    bytes they have reserved; :meth:`grant` reserves room first come,
    first served, and never gives it back while the plan lives."""

    __slots__ = ("used",)

    def __init__(self):
        self.used = 0

    def grant(self, need: int, want: int, row_bytes: int) -> int:
        """Reserve between ``need`` and ``want`` rows of ``row_bytes``
        each, as many as the budget can pay for; returns the rows
        reserved, or 0 when ``need`` overflows."""
        rows = min(want, (MEMO_BUDGET_BYTES - self.used) // row_bytes)
        if rows < need:
            return 0
        self.used += rows * row_bytes
        return rows


class _PlaneCell:
    """One (repetition, level) cell: a CountSketch slab of the plane, its
    stacked hash banks, optional AMS twin, and the per-item memo.

    The memo appends rows (plane keys, CountSketch signs, AMS sign rows)
    in arrival order into arrays that grow geometrically, and finds them
    through a sorted index: ``items`` ascending, ``slots[i]`` the row of
    ``items[i]``.  A store copies the index, not the rows.  AMS signs are
    kept as ``int8`` (±1 is exact in any dtype), an eighth of the bytes a
    hit gathers; the AMS matmul reads them as float64."""

    __slots__ = (
        "owner",
        "cs",
        "ams",
        "bucket_bank",
        "sign_bank",
        "ams_bank",
        "row_offsets",
        "row_bytes",
        "items",
        "slots",
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
        ams_count = 0 if self.ams_bank is None else self.ams_bank.count
        # int64 item and slot, int64 keys and float64 signs, int8 AMS signs.
        self.row_bytes = 8 * (2 + 2 * cs.rows) + ams_count
        self.items = np.empty(0, dtype=np.int64)
        self.slots = np.empty(0, dtype=np.int64)
        self.keys = np.empty((0, cs.rows), dtype=np.int64)
        self.signs = np.empty((0, cs.rows), dtype=np.float64)
        self.ams_rows = (
            None
            if self.ams_bank is None
            else np.empty((0, self.ams_bank.count), dtype=np.int8)
        )

    def _evaluate(self, miss: np.ndarray):
        """Bank-evaluate uncached items: flat plane keys, CountSketch
        signs, and (for one-pass cells) AMS sign rows."""
        keys = self.bucket_bank.values_batch(miss) + self.row_offsets
        signs = self.sign_bank.signs_batch(miss)
        ams_rows = (
            None if self.ams_bank is None else self.ams_bank.signs_batch(miss)
        )
        return keys, signs, ams_rows

    def _gather(self, rows: np.ndarray):
        return (
            self.keys[rows],
            self.signs[rows],
            None if self.ams_rows is None else self.ams_rows[rows],
        )

    def _store(self, miss: np.ndarray, keys_m, signs_m, ams_m, budget) -> bool:
        """Append the rows of the sorted, uncached ``miss`` and index
        them; False, with nothing stored, when ``budget`` cannot pay for
        the room they need.  Capacity at least doubles when it grows, as
        far as the budget allows."""
        n = self.items.shape[0]
        end = n + miss.shape[0]
        capacity = self.keys.shape[0]
        if end > capacity:
            extra = budget.grant(
                end - capacity, max(end, 2 * capacity) - capacity, self.row_bytes
            )
            if not extra:
                return False
            for name in ("keys", "signs", "ams_rows"):
                old = getattr(self, name)
                if old is not None:
                    grown = np.empty((capacity + extra, old.shape[1]), dtype=old.dtype)
                    grown[:n] = old[:n]
                    setattr(self, name, grown)
        self.keys[n:end] = keys_m
        self.signs[n:end] = signs_m
        if self.ams_rows is not None:
            self.ams_rows[n:end] = ams_m
        at = np.searchsorted(self.items, miss)
        self.items = np.insert(self.items, at, miss)
        self.slots = np.insert(self.slots, at, np.arange(n, end, dtype=np.int64))
        return True

    def lookup(self, su: np.ndarray, budget: _MemoBudget):
        """(keys, signs, ams_rows) for the sorted survivor array ``su``:
        hits are gathered from the memo, misses are bank-evaluated and
        stored when ``budget`` grants their room."""
        cached = self.items
        n = cached.shape[0]
        if n:
            pos = np.searchsorted(cached, su)
            pos[pos == n] = n - 1
            hit = cached[pos] == su
            if hit.all():
                return self._gather(self.slots[pos])
            miss = su[~hit]
        else:
            hit = None
            miss = su
        keys_m, signs_m, ams_m = self._evaluate(miss)
        if self._store(miss, keys_m, signs_m, ams_m, budget):
            return self._gather(self.slots[np.searchsorted(self.items, su)])
        # Refused: assemble this chunk's rows without storing the misses.
        if hit is None:
            return keys_m, signs_m, ams_m
        keys, signs, ams_rows = self._gather(self.slots[pos])
        keys[~hit] = keys_m
        signs[~hit] = signs_m
        if ams_rows is not None:
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
    view, the hash banks, the per-cell memos and their shared budget.
    See the module docstring for the equality and invalidation contracts.
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
        self._memo = _MemoBudget()

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
            keys, signs, ams_rows = cell.lookup(su, self._memo)
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


def build_ingest_plan(rep_sketches: Sequence) -> IngestPlan:
    """An :class:`IngestPlan` over the live repetition sketches.  Restacks
    every CountSketch table into a fresh plane (rebinding ``cs._table``
    to a view — values copied exactly, protocol state untouched); its
    cells start with empty hash memos and a fresh memo budget."""
    reps = list(rep_sketches)
    levels, grid = _level_grid(reps)
    # Every hook runs before any table is rebound: a closed pass raises
    # with the structure untouched.
    specs = [(inner, *inner.fused_cell()) for rep in grid for inner in rep]
    # Every level is built from one configuration, so cells share a shape.
    rows, buckets = specs[0][1].rows, specs[0][1].buckets
    plane = np.empty((len(specs), rows, buckets), dtype=np.float64)
    flat_cells: List[_PlaneCell] = []
    for i, (owner, cs, ams) in enumerate(specs):
        plane[i] = cs._table
        cs._table = plane[i]
        flat_cells.append(_PlaneCell(owner, cs, ams, i))
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
        plan = owner._ingest_plan = build_ingest_plan(owner._sketches)
    plan.update_batch(items, deltas)


def fused_update_batch_second_pass(owner, items, deltas) -> None:
    """Second-pass analogue of :func:`fused_update_batch`."""
    plan = owner._second_plan
    if plan is None or not plan.is_valid(owner._sketches):
        plan = owner._second_plan = build_second_pass_plan(owner._sketches)
    plan.update_batch_second_pass(items, deltas)
