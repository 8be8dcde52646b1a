"""Fused ingestion plane: bit-for-bit equivalence with the per-cell fan-out.

The ingest plan reorders integer-valued float64 additions (exact below
2^53) and evaluates the same hash families through stacked coefficient
banks, so every test here demands *exact* equality — full serialized
state (exact float64 bytes), estimates, and frequency answers — never
approximate closeness.  The suite covers both passes, the universal
wrappers, a state round-trip mid-stream, and each protocol operation
that must invalidate the plan (``merge``, ``spawn_sibling``,
``from_state``, ``begin_second_pass``, ``import_candidates``).

The oracle side of every comparison is a twin estimator (same seed) that
never touches the plan: :func:`_oracle_feed` sends each chunk to every
repetition's own :meth:`RecursiveGSumSketch.update_batch` fan-out, and
each case ends by asserting the twin never built a plan.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import ingest_plan
from repro.core.gsum import GSumEstimator
from repro.core.universal import TwoPassUniversalSketch, UniversalGSumSketch
from repro.functions.library import moment
from repro.sketch.hashing import KWiseHash, SignHash, StackedKWiseBank
from repro.util.rng import as_source

N = 64
CHUNK = 48


def _stream(seed: int, size: int = 400) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    items = (rng.zipf(1.3, size=size) % N).astype(np.int64)
    deltas = rng.integers(-3, 6, size=size).astype(np.int64)
    deltas[deltas == 0] = 1
    return items, deltas


def _gsum(seed: int, passes: int = 1, **kw) -> GSumEstimator:
    return GSumEstimator(
        moment(2.0), N, epsilon=0.5, passes=passes, heaviness=0.4,
        repetitions=2, seed=seed, **kw,
    )


def _pair(seed: int, passes: int = 1, **kw):
    """A (fused, oracle) pair sharing identical hash families."""
    return _gsum(seed, passes, **kw), _gsum(seed, passes, **kw)


def _state(est) -> str:
    return json.dumps(est.to_state(), sort_keys=True)


def _feed(est, items, deltas, chunk: int = CHUNK, second_pass: bool = False) -> None:
    method = est.update_batch_second_pass if second_pass else est.update_batch
    for i in range(0, items.shape[0], chunk):
        method(items[i:i + chunk], deltas[i:i + chunk])


def _oracle_feed(
    est, items, deltas, chunk: int = CHUNK, second_pass: bool = False
) -> None:
    """The reference path: each chunk goes to every repetition's own
    per-cell fan-out, bypassing the estimator (and so its plan)."""
    name = "update_batch_second_pass" if second_pass else "update_batch"
    for i in range(0, items.shape[0], chunk):
        for rep in est._sketches:
            getattr(rep, name)(items[i:i + chunk], deltas[i:i + chunk])


def _assert_twin(fused, oracle) -> None:
    # Compared outside the assert: a diff of two large states would take
    # pytest minutes to render.
    same = _state(fused) == _state(oracle)
    assert same, "fused state differs from the oracle's"
    assert oracle._ingest_plan is None and oracle._second_plan is None


class TestStackedKWiseBank:
    def test_values_match_per_hash_columns(self):
        source = as_source(5, "bank")
        hashes = [KWiseHash(32, 4, source.child(str(i))) for i in range(6)]
        bank = StackedKWiseBank.from_hashes(hashes)
        xs = np.arange(-10, 200, dtype=np.int64)
        stacked = bank.values_batch(xs)
        for column, h in enumerate(hashes):
            assert np.array_equal(stacked[:, column], h.values_batch(xs))

    def test_signs_match_sign_hashes(self):
        source = as_source(9, "signs")
        signs = [SignHash(4, source.child(str(i))) for i in range(5)]
        bank = StackedKWiseBank.from_sign_hashes(signs)
        xs = np.arange(0, 300, dtype=np.int64)
        stacked = bank.signs_batch(xs)
        for column, s in enumerate(signs):
            assert np.array_equal(stacked[:, column], s.values_batch(xs))

    def test_rejects_mixed_ranges(self):
        source = as_source(2, "mixed")
        hashes = [KWiseHash(16, 2, source.child("a")), KWiseHash(32, 2, source.child("b"))]
        with pytest.raises(ValueError):
            StackedKWiseBank.from_hashes(hashes)


class TestFusedEqualsLegacy:
    def test_one_pass_bit_identical(self):
        fused, legacy = _pair(11)
        items, deltas = _stream(1)
        _feed(fused, items, deltas)
        _oracle_feed(legacy, items, deltas)
        _assert_twin(fused, legacy)
        assert fused.estimate() == legacy.estimate()
        probe = np.arange(N, dtype=np.int64)
        assert np.array_equal(fused.frequency_batch(probe), legacy.frequency_batch(probe))

    def test_scalar_and_batch_interleaved(self):
        fused, legacy = _pair(12)
        items, deltas = _stream(2, size=120)
        for i in range(0, items.shape[0], 40):
            fused.update_batch(items[i:i + 40], deltas[i:i + 40])
            _oracle_feed(legacy, items[i:i + 40], deltas[i:i + 40])
            fused.update(int(items[i]), int(deltas[i]))
            legacy.update(int(items[i]), int(deltas[i]))
        _assert_twin(fused, legacy)

    def test_second_pass_bit_identical(self):
        fused, legacy = _pair(13, passes=2)
        items, deltas = _stream(3)
        for est, feed in ((fused, _feed), (legacy, _oracle_feed)):
            feed(est, items, deltas)
            est.begin_second_pass()
            feed(est, items, deltas, second_pass=True)
        _assert_twin(fused, legacy)
        assert fused.estimate() == legacy.estimate()

    def test_ragged_chunks_and_empty_batches(self):
        fused, legacy = _pair(14)
        items, deltas = _stream(4, size=150)
        cuts = [0, 1, 1, 7, 40, 41, 150]
        for lo, hi in zip(cuts, cuts[1:]):
            fused.update_batch(items[lo:hi], deltas[lo:hi])
            _oracle_feed(legacy, items[lo:hi], deltas[lo:hi])
        _assert_twin(fused, legacy)

    def test_universal_sketch_bit_identical(self):
        kw = dict(epsilon=0.5, heaviness=0.4, repetitions=2, seed=21)
        fused = UniversalGSumSketch(N, **kw)
        legacy = UniversalGSumSketch(N, **kw)
        items, deltas = _stream(5)
        _feed(fused, items, deltas)
        _oracle_feed(legacy, items, deltas)
        _assert_twin(fused, legacy)
        g = moment(2.0)
        assert fused.estimate(g) == legacy.estimate(g)
        assert fused.distinct_count() == legacy.distinct_count()

    def test_two_pass_universal_bit_identical(self):
        kw = dict(epsilon=0.5, heaviness=0.4, repetitions=2, seed=22)
        fused = TwoPassUniversalSketch(N, **kw)
        legacy = TwoPassUniversalSketch(N, **kw)
        items, deltas = _stream(6)
        for est, feed in ((fused, _feed), (legacy, _oracle_feed)):
            feed(est, items, deltas)
            est.begin_second_pass()
            feed(est, items, deltas, second_pass=True)
        _assert_twin(fused, legacy)

    def test_memo_cap_overflow_path(self, monkeypatch):
        # A budget of half the working set: warm memos keep serving their
        # hits while the budget refuses the rest, so chunks assemble rows
        # from memo hits and unstored misses.  That path must give the
        # cached bits.
        items, deltas = _stream(7, size=2000)
        probe = _gsum(15)
        _feed(probe, items, deltas)
        monkeypatch.setattr(
            ingest_plan, "MEMO_BUDGET_BYTES", probe._ingest_plan._memo.used // 2
        )
        partial = []
        store = ingest_plan._PlaneCell._store

        def watching(cell, miss, *rows):
            cached = cell.items.shape[0]
            stored = store(cell, miss, *rows)
            partial.append(cached > 0 and not stored)
            return stored

        monkeypatch.setattr(ingest_plan._PlaneCell, "_store", watching)
        fused, legacy = _pair(15)
        _feed(fused, items, deltas)
        _oracle_feed(legacy, items, deltas)
        assert any(partial)
        _assert_twin(fused, legacy)


WIDE_N = 1 << 16
ADMIT_CHUNK = 256


def _wide_gsum(seed: int) -> GSumEstimator:
    return GSumEstimator(
        moment(2.0), WIDE_N, epsilon=0.5, heaviness=0.4, repetitions=2, seed=seed
    )


def _flood(seed: int, chunks: int) -> list:
    """Uniform chunks over the wide domain: nearly every item is new."""
    rng = np.random.default_rng(seed)
    return [
        (rng.integers(0, WIDE_N, ADMIT_CHUNK).astype(np.int64),
         rng.integers(-2, 4, ADMIT_CHUNK).astype(np.int64))
        for _ in range(chunks)
    ]


def _hot(seed: int, chunks: int, domain: int) -> list:
    """Zipf chunks over ``domain`` items: the same few items recur."""
    rng = np.random.default_rng(seed)
    return [
        ((rng.zipf(1.2, ADMIT_CHUNK) % domain).astype(np.int64),
         rng.integers(1, 4, ADMIT_CHUNK).astype(np.int64))
        for _ in range(chunks)
    ]


def _cells(est) -> list:
    return [cell for rep in est._ingest_plan._cells for cell in rep]


def _memo_bytes(est) -> int:
    """Bytes the plan's memos hold, summed over cells: the item index and
    the key, sign and AMS sign rows (with their spare capacity)."""
    total = 0
    for cell in _cells(est):
        total += cell.items.nbytes + cell.slots.nbytes
        total += cell.keys.nbytes + cell.signs.nbytes
        if cell.ams_rows is not None:
            total += cell.ams_rows.nbytes
    return total


def _memo_rows(est) -> int:
    return sum(cell.items.shape[0] for cell in _cells(est))


@pytest.fixture
def evaluated_rows(monkeypatch):
    """A list that receives, per bank evaluation, the number of items a
    plane cell hashes (its memo misses)."""
    rows = []
    evaluate = ingest_plan._PlaneCell._evaluate

    def counting(cell, items):
        rows.append(items.shape[0])
        return evaluate(cell, items)

    monkeypatch.setattr(ingest_plan._PlaneCell, "_evaluate", counting)
    return rows


class TestMemoBudget:
    """Admission control: the cells' memos share one byte budget per plan,
    granted first come, first served."""

    ROW_BYTES = 352  # 8 * (item + slot + 7 keys + 7 signs) + 224 int8 AMS signs

    def test_flood_stays_within_budget(self, monkeypatch):
        budget = 1500 * self.ROW_BYTES
        monkeypatch.setattr(ingest_plan, "MEMO_BUDGET_BYTES", budget)
        refusals = []
        grant = ingest_plan._MemoBudget.grant

        def counting(memo, need, want, row_bytes):
            rows = grant(memo, need, want, row_bytes)
            refusals.append(rows == 0)
            return rows

        monkeypatch.setattr(ingest_plan._MemoBudget, "grant", counting)
        fused, oracle = _wide_gsum(51), _wide_gsum(51)
        for items, deltas in _flood(1, 24):
            fused.update_batch(items, deltas)
            _oracle_feed(oracle, items, deltas, chunk=ADMIT_CHUNK)
            assert _cells(fused)[0].row_bytes == self.ROW_BYTES
            assert _memo_bytes(fused) <= fused._ingest_plan._memo.used <= budget
        assert any(refusals)  # the flood outgrew the budget
        _assert_twin(fused, oracle)
        assert fused.estimate() == oracle.estimate()

    def test_working_set_that_fits_is_hashed_once(self, monkeypatch, evaluated_rows):
        domain = 512
        prefix = [(np.arange(domain, dtype=np.int64), np.ones(domain, dtype=np.int64))]
        probe = _wide_gsum(52)
        probe.update_batch(*prefix[0])
        working_set = probe._ingest_plan._memo.used
        # The budget holds the working set and not one row more.
        monkeypatch.setattr(ingest_plan, "MEMO_BUDGET_BYTES", working_set)
        del evaluated_rows[:]
        est = _wide_gsum(52)
        est.update_batch(*prefix[0])
        assert sum(evaluated_rows) == _memo_rows(est)
        del evaluated_rows[:]
        for items, deltas in _hot(2, 40, domain):
            est.update_batch(items, deltas)
        assert evaluated_rows == []
        assert est._ingest_plan._memo.used == working_set


class TestInvalidationPaths:
    def test_codec_roundtrip_mid_stream(self):
        fused, legacy = _pair(31)
        items, deltas = _stream(8)
        half = items.shape[0] // 2
        _feed(fused, items[:half], deltas[:half])
        _oracle_feed(legacy, items[:half], deltas[:half])
        # Round-trip rebinds every table array, severing the plane views;
        # the plan must detect it and rebuild rather than scatter into a
        # dead plane.
        fused = fused.spawn_sibling().from_state(fused.to_state())
        legacy = legacy.spawn_sibling().from_state(legacy.to_state())
        _feed(fused, items[half:], deltas[half:])
        _oracle_feed(legacy, items[half:], deltas[half:])
        _assert_twin(fused, legacy)

    def test_merge_mid_stream(self):
        fused, legacy = _pair(32)
        items, deltas = _stream(9)
        half = items.shape[0] // 2
        shard_f, shard_l = fused.spawn_sibling(), legacy.spawn_sibling()
        _feed(fused, items[:half], deltas[:half])
        _oracle_feed(legacy, items[:half], deltas[:half])
        _feed(shard_f, items[half:], deltas[half:])
        _oracle_feed(shard_l, items[half:], deltas[half:])
        assert shard_l._ingest_plan is None
        fused.merge(shard_f)
        legacy.merge(shard_l)
        # Keep streaming after the merge — the merged tables (still plane
        # views, merge adds in place) must accumulate correctly.
        more_i, more_d = _stream(10, size=100)
        _feed(fused, more_i, more_d)
        _oracle_feed(legacy, more_i, more_d)
        _assert_twin(fused, legacy)

    def test_spawn_sibling_gets_fresh_plan(self):
        fused, legacy = _pair(33)
        items, deltas = _stream(11)
        _feed(fused, items, deltas)
        _oracle_feed(legacy, items, deltas)
        sib_f, sib_l = fused.spawn_sibling(), legacy.spawn_sibling()
        more_i, more_d = _stream(12, size=100)
        _feed(sib_f, more_i, more_d)
        _oracle_feed(sib_l, more_i, more_d)
        _assert_twin(sib_f, sib_l)
        _assert_twin(fused, legacy)  # parent untouched by sibling traffic

    def test_second_pass_rebuild_after_roundtrip(self):
        fused, legacy = _pair(34, passes=2)
        items, deltas = _stream(13)
        _feed(fused, items, deltas)
        _oracle_feed(legacy, items, deltas)
        for est in (fused, legacy):
            est.begin_second_pass()
        fused = fused.spawn_sibling().from_state(fused.to_state())
        legacy = legacy.spawn_sibling().from_state(legacy.to_state())
        _feed(fused, items, deltas, second_pass=True)
        _oracle_feed(legacy, items, deltas, second_pass=True)
        _assert_twin(fused, legacy)


class TestFallbacks:
    def test_passes_zero_is_unfusible(self):
        # Exact-oracle levels have no plane cell: passes=0 feeds each
        # repetition's fan-out and never builds a plan.
        fused, legacy = _pair(41, passes=0)
        items, deltas = _stream(15)
        _feed(fused, items, deltas)
        _oracle_feed(legacy, items, deltas)
        assert fused._ingest_plan is None
        _assert_twin(fused, legacy)
        assert fused.estimate() == legacy.estimate()

    def test_closed_first_pass_error_surface_preserved(self):
        fused, legacy = _pair(42, passes=2)
        items, deltas = _stream(16, size=100)
        _feed(fused, items, deltas)
        _oracle_feed(legacy, items, deltas)
        for est in (fused, legacy):
            est.begin_second_pass()
        before = _state(fused)
        with pytest.raises(RuntimeError, match="first pass is closed"):
            legacy._sketches[0].update_batch(items[:10], deltas[:10])
        with pytest.raises(RuntimeError, match="first pass is closed"):
            fused.update_batch(items[:10], deltas[:10])
        assert _state(fused) == before

    def test_second_pass_before_begin_errors(self):
        fused, legacy = _pair(43, passes=2)
        items, deltas = _stream(17, size=60)
        _feed(fused, items, deltas)
        _oracle_feed(legacy, items, deltas)
        before = _state(fused)
        with pytest.raises(RuntimeError, match="begin_second_pass"):
            legacy._sketches[0].update_batch_second_pass(items[:10], deltas[:10])
        with pytest.raises(RuntimeError, match="begin_second_pass"):
            fused.update_batch_second_pass(items[:10], deltas[:10])
        assert _state(fused) == before

    @pytest.mark.parametrize("passes", [0, 1])
    def test_second_pass_on_one_pass_estimator_errors(self, passes):
        est = _gsum(45, passes=passes)
        items, deltas = _stream(20, size=60)
        _feed(est, items, deltas)
        before = _state(est)
        with pytest.raises((AttributeError, RuntimeError)):
            est.update_batch_second_pass(items[:10], deltas[:10])
        assert _state(est) == before

    def test_old_pickle_formats_load_and_ingest(self):
        # Earlier releases pickled (shards, shard_mode, shard_axis, fused),
        # before that (shards, shard_mode, shard_axis), and before that
        # (shards, shard_mode) with any of the deleted "thread", "process"
        # and "serial" modes.  All still load, read only ``shards``, and
        # keep ingesting through the plan bit-identically to the oracle.
        import pickle

        for shard_opts in (
            (2, "thread", "repetition", False),
            (2, "thread", "slab"),
            (2, "process"),
            (2, "serial"),
        ):
            est, legacy = _pair(44)
            items, deltas = _stream(18, size=100)
            _feed(est, items, deltas)
            _oracle_feed(legacy, items, deltas)
            rebuild, args = est.__reduce__()
            old_args = args[:3] + (shard_opts,) + args[4:]
            revived = pickle.loads(pickle.dumps(_Reduced(rebuild, old_args)))
            assert revived.shards == 2
            assert not hasattr(revived, "shard_mode")
            more_i, more_d = _stream(19, size=80)
            _feed(revived, more_i, more_d)
            _oracle_feed(legacy, more_i, more_d)
            _assert_twin(revived, legacy)


class _Reduced:
    """Pickles as an arbitrary ``(callable, args)`` pair — here an
    estimator reduction in an older release's argument layout."""

    def __init__(self, rebuild, args):
        self._reduced = (rebuild, args)

    def __reduce__(self):
        return self._reduced
