"""Cheap siblings: the mergeable protocol reuses hash families in process.

* **No re-derivation** — an in-process ``spawn_sibling``, ``from_state``,
  ``merge``, ``to_state`` or snapshot publish constructs no hash family
  and no :class:`~repro.util.rng.RandomSource`; a spawned sibling holds
  the source's own family objects.  Only unpickling rebuilds from the
  lineage, exactly once.
* **No cyclic garbage** — building, feeding, spawning, encoding, decoding,
  merging and dropping an estimator leaves nothing for the cyclic garbage
  collector, so the tables are freed as soon as the last reference goes.
* **Shared memos stay exact** — siblings share the subsampling hash and
  with it its per-item level memo; threads feeding siblings at once must
  still merge to the sequential state.
"""

import collections
import gc
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.core.gsum import GSumEstimator
from repro.core.heavy_hitters import OnePassGHeavyHitter
from repro.core.recursive_sketch import RecursiveGSumSketch
from repro.core.universal import TwoPassUniversalSketch, UniversalGSumSketch
from repro.functions.library import moment
from repro.serve import SnapshotStore
from repro.sketch.base import MergeableSketch
from repro.sketch.hashing import (
    BernoulliHash,
    KWiseHash,
    SignHash,
    SubsampleHash,
    VectorKWiseHash,
)
from repro.util.rng import RandomSource

N = 256
G2 = moment(2.0)
ITEMS = (np.arange(4_000, dtype=np.int64) * 7919) % N
DELTAS = np.where(np.arange(4_000) % 5 == 0, -1, 1).astype(np.int64)

COUNTED = (KWiseHash, SignHash, VectorKWiseHash, SubsampleHash, RandomSource)
FAMILIES = (KWiseHash, SignHash, VectorKWiseHash, SubsampleHash, BernoulliHash)


@pytest.fixture
def constructions(monkeypatch):
    """Counts ``__init__`` calls of every hash family and random source
    (``ResolvedSource`` counts as a ``RandomSource``)."""
    counts = collections.Counter()

    def counting(cls):
        original = cls.__init__

        def init(self, *args, **kwargs):
            counts[cls.__name__] += 1
            original(self, *args, **kwargs)

        return init

    for cls in COUNTED:
        monkeypatch.setattr(cls, "__init__", counting(cls))
    return counts


def _gsum(passes):
    return GSumEstimator(G2, N, passes=passes, heaviness=0.1, repetitions=2, seed=5)


def _fed(build, second_pass=False):
    sketch = build()
    sketch.update_batch(ITEMS, DELTAS)
    if second_pass:
        sketch.begin_second_pass()
        sketch.update_batch_second_pass(ITEMS, DELTAS)
    return sketch


CASES = {
    "gsum_one_pass": (lambda: _gsum(1), False),
    "gsum_two_pass_first": (lambda: _gsum(2), False),
    "gsum_two_pass_second": (lambda: _gsum(2), True),
    "universal": (lambda: UniversalGSumSketch(N, repetitions=2, seed=5), False),
    "universal_two_pass_first": (
        lambda: TwoPassUniversalSketch(N, repetitions=2, seed=5),
        False,
    ),
    "universal_two_pass_second": (
        lambda: TwoPassUniversalSketch(N, repetitions=2, seed=5),
        True,
    ),
}


def _families(sketch, out=None):
    """Every hash family reachable through ``sketch`` and its nested
    sketches, in attribute order."""
    out = [] if out is None else out
    for value in vars(sketch).values():
        for member in value if isinstance(value, list) else [value]:
            if isinstance(member, FAMILIES):
                out.append(member)
            elif isinstance(member, MergeableSketch):
                _families(member, out)
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_protocol_builds_no_hash_family(name, constructions):
    build, second_pass = CASES[name]
    source = _fed(build, second_pass)
    other = _fed(build, second_pass)
    constructions.clear()
    sibling = source.spawn_sibling()
    state = other.to_state()
    decoded = source.from_state(state)
    dense = source.from_state(other.to_state())
    sibling.merge(decoded).merge(dense)
    source.merge(sibling)
    assert sum(constructions.values()) == 0, dict(constructions)


@pytest.mark.parametrize("name", sorted(CASES))
def test_publish_builds_no_hash_family(name, constructions):
    """A snapshot publish is a spawn plus a merge: neither the first
    publish nor one after a further chunk builds a family or a source."""
    build, second_pass = CASES[name]
    store = SnapshotStore(_fed(build, second_pass))
    feed = "update_batch_second_pass" if second_pass else "update_batch"
    constructions.clear()
    first = store.snapshot()
    store.mutate(lambda live: getattr(live, feed)(ITEMS[::3], DELTAS[::3]))
    second = store.snapshot()
    assert (first.epoch, second.epoch) == (0, 1)
    assert sum(constructions.values()) == 0, dict(constructions)
    assert second.sketch.to_state() == store.live.to_state()


@pytest.mark.parametrize("name", sorted(CASES))
def test_siblings_hold_the_source_families(name):
    build, second_pass = CASES[name]
    source = _fed(build, second_pass)
    theirs = _families(source)
    assert len(theirs) > 0
    for sibling in (source.spawn_sibling(), source.from_state(source.to_state())):
        mine = _families(sibling)
        assert len(mine) == len(theirs)
        assert all(a is b for a, b in zip(mine, theirs))


@pytest.mark.parametrize(
    "passes,second_pass",
    ((1, False), (2, False), (2, True)),
    ids=("one_pass", "two_pass_first", "two_pass_second"),
)
def test_unpickling_builds_one_constructor_worth(passes, second_pass, constructions):
    source = _fed(lambda: _gsum(passes), second_pass)
    blob = pickle.dumps(source)
    constructions.clear()
    GSumEstimator(
        G2, N, passes=passes, heaviness=0.1, repetitions=2,
        seed=RandomSource.resolved(*source._merge_lineage),
    )
    one_build = collections.Counter(constructions)
    constructions.clear()
    clone = pickle.loads(blob)
    assert constructions == one_build
    assert clone.to_state() == source.to_state()


def _exercise(passes):
    """Build, feed, spawn, encode, decode, merge and drop two estimators."""
    estimator = _gsum(passes)
    estimator.update_batch(ITEMS, DELTAS)
    sibling = estimator.spawn_sibling()
    sibling.update_batch(ITEMS[::3], DELTAS[::3])
    if passes == 2:
        estimator.merge(sibling)
        estimator.begin_second_pass()
        estimator.update_batch_second_pass(ITEMS, DELTAS)
        sibling = estimator.spawn_sibling()
        sibling.update_batch_second_pass(ITEMS[::3], DELTAS[::3])
    decoded = estimator.from_state(sibling.to_state())
    estimator.merge(decoded)
    del estimator, sibling, decoded


@pytest.mark.parametrize("passes", (1, 2))
def test_protocol_leaves_no_cyclic_garbage(passes):
    _exercise(passes)  # first use may create one-time import garbage
    gc.collect()
    gc.disable()
    try:
        _exercise(passes)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_threads_feeding_siblings_share_the_level_memo_exactly():
    """Eight threads on a 2-CPU host, a tiny switch interval: each feeds
    its own sibling through scalar updates, which read and fill the shared
    subsampling memo.  The merged state equals sequential ingestion."""

    def build():
        return RecursiveGSumSketch(
            G2, N,
            lambda level, rng: OnePassGHeavyHitter(G2, 0.1, 0.25, 0.1, N, seed=rng),
            seed=5,
        )

    items, deltas = ITEMS.tolist(), DELTAS.tolist()
    sequential = build()
    for item, delta in zip(items, deltas):
        sequential.update(item, delta)
    root = build()
    siblings = [root.spawn_sibling() for _ in range(8)]
    assert all(s._subsample is root._subsample for s in siblings)

    def feed(sibling, offset):
        for item, delta in zip(items[offset::8], deltas[offset::8]):
            sibling.update(item, delta)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=feed, args=(s, i)) for i, s in enumerate(siblings)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    for sibling in siblings:
        root.merge(sibling)
    assert root.to_state() == sequential.to_state()
