"""The mergeable-sketch protocol contract, for every implementer.

Five properties, enforced bit-for-bit:

* **Shard invariance** — splitting any stream across k sibling sketches
  (k in {1, 2, 7}) and merging yields state and estimates identical to
  single-sketch ingestion.  This is the exactness guarantee behind
  ``repro.streams.sharding``.
* **State round-trip** — ``from_state(to_state())`` reconstructs an equal
  sketch, including through an actual JSON wire encoding.
* **One codec** — every implementer round-trips through the
  ``sparse-binary`` state codec and decodes-then-merges to the same
  bits, and refuses a ``dense-json`` state (what older workers shipped)
  with "unknown state codec" before decoding or merging anything.
* **Sibling discipline** — ``spawn_sibling`` yields an empty,
  merge-compatible clone; merging or loading state across different
  configurations or randomness lineages raises ``ValueError``.
* **Sibling isolation** — spawned and decoded siblings share hash
  families with their source but no mutable state: writing either side
  leaves the other's state bytes as they were.
* **Structural clone** — an empty sibling with the source merged into it
  (how a snapshot is published) equals the source and its codec round
  trip byte for byte, and shares none of the source's mutable state.
"""

import json

import numpy as np
import pytest

from repro.core.dist import DistDetector
from repro.core.gnp import GnpHeavyHitterSketch
from repro.core.gsum import GSumEstimator
from repro.core.heavy_hitters import (
    ExactHeavyHitter,
    OnePassGHeavyHitter,
    TwoPassGHeavyHitter,
)
from repro.core.recursive_sketch import NaiveTopKGSum, RecursiveGSumSketch
from repro.core.universal import TwoPassUniversalSketch, UniversalGSumSketch
from repro.functions.library import moment
from repro.sketch.ams import AmsF2Sketch
from repro.sketch.base import dumps_state, loads_state
from repro.sketch.codec import STATE_CODEC
from repro.sketch.countmin import CountMinSketch
from repro.sketch.countsketch import CountSketch
from repro.sketch.exact import ExactCounter
from repro.sketch.f0 import BjkstF0Sketch, TurnstileF0Estimator
from repro.streams.batching import drive, drive_second_pass
from repro.streams.generators import zipf_stream
from repro.streams.sharding import ingest_sharded, shard_slabs
from repro.util.rng import RandomSource

N = 256
G2 = moment(2.0)
SHARD_COUNTS = (1, 2, 7)

STREAM = zipf_stream(n=N, total_mass=8_000, skew=1.2, seed=23, turnstile_noise=0.4)


def _recursive_exact(seed=5):
    return RecursiveGSumSketch(
        G2, N, lambda level, rng: ExactHeavyHitter(G2, N), seed=seed
    )


def _recursive_one_pass(seed=5):
    return RecursiveGSumSketch(
        G2,
        N,
        lambda level, rng: OnePassGHeavyHitter(G2, 0.1, 0.25, 0.1, N, seed=rng),
        seed=seed,
    )


# (name, build, observe) — ``observe`` extracts comparable estimates.
IMPLEMENTERS = [
    (
        "countsketch",
        lambda: CountSketch(5, 128, track=8, seed=9),
        lambda s: (s.top_candidates(), [s.estimate(i) for i in range(N)]),
    ),
    (
        "countsketch_untracked",
        lambda: CountSketch(5, 128, track=0, seed=9),
        lambda s: [s.estimate(i) for i in range(N)],
    ),
    (
        "countmin",
        lambda: CountMinSketch(5, 128, seed=9),
        lambda s: [s.estimate(i) for i in range(N)],
    ),
    ("ams", lambda: AmsF2Sketch(5, 16, seed=9), lambda s: s.estimate()),
    ("bjkst_f0", lambda: BjkstF0Sketch(32, seed=9), lambda s: s.estimate()),
    (
        "turnstile_f0",
        lambda: TurnstileF0Estimator(N, 32, seed=9),
        lambda s: s.estimate(),
    ),
    (
        "exact_counter",
        lambda: ExactCounter(N),
        lambda s: s.frequency_vector().to_dict(),
    ),
    (
        "exact_counter_restricted",
        lambda: ExactCounter(N, restrict_to=range(0, N, 3)),
        lambda s: s.frequency_vector().to_dict(),
    ),
    (
        "dist_detector",
        lambda: DistDetector([5, 101], 1, N, pieces=24, seed=9),
        lambda s: s.decide(),
    ),
    (
        "one_pass_hh",
        lambda: OnePassGHeavyHitter(G2, 0.1, 0.25, 0.1, N, seed=5),
        lambda s: (s.cover(), s.frequency_error_bound()),
    ),
    (
        "exact_hh",
        lambda: ExactHeavyHitter(G2, N, heaviness=0.05),
        lambda s: s.cover(),
    ),
    (
        "gnp_hh",
        lambda: GnpHeavyHitterSketch(N, 0.3, seed=7),
        lambda s: s.recoveries(),
    ),
    ("recursive_exact", _recursive_exact, lambda s: s.estimate()),
    ("recursive_one_pass", _recursive_one_pass, lambda s: s.estimate()),
    (
        "naive_topk",
        lambda: NaiveTopKGSum(G2, OnePassGHeavyHitter(G2, 0.1, 0.25, 0.1, N, seed=5)),
        lambda s: s.estimate(),
    ),
    (
        "universal",
        lambda: UniversalGSumSketch(N, repetitions=2, seed=5),
        lambda s: (s.estimate(G2), s.distinct_count()),
    ),
    (
        "gsum_one_pass",
        lambda: GSumEstimator(G2, N, heaviness=0.1, repetitions=2, seed=5),
        lambda s: s.estimate(),
    ),
]

IDS = [name for name, _, _ in IMPLEMENTERS]
CASES = [(build, observe) for _, build, observe in IMPLEMENTERS]


def sharded_copy(build, stream, shards):
    """Build a structure and ingest ``stream`` through k spawned siblings
    on the sharding engine's thread pool, merged back in slab order (the
    path ``shards=N`` users get)."""
    return ingest_sharded(build(), stream, shards, chunk_size=61)


@pytest.mark.parametrize("build,observe", CASES, ids=IDS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
class TestShardInvariance:
    def test_split_merge_identical(self, build, observe, shards):
        sequential = drive(build(), STREAM)
        sharded = sharded_copy(build, STREAM, shards)
        assert sharded.to_state() == sequential.to_state()
        assert observe(sharded) == observe(sequential)


#: The state codecs a peer may ship: ``dense-json``, which workers that
#: predate the one codec wrote by default, and ``sparse-binary``.
PEER_CODECS = ("dense-json", STATE_CODEC)


@pytest.mark.parametrize("codec", PEER_CODECS)
@pytest.mark.parametrize("build,observe", CASES, ids=IDS)
class TestCodecMatrix:
    """Every implementer × every codec a peer may ship: a sparse-binary
    state round-trips and decodes-then-merges bit for bit; a dense-json
    state is refused before anything is decoded or merged."""

    def test_codec_round_trip(self, build, observe, codec, peer_state):
        original = drive(build(), STREAM)
        wire = dumps_state(peer_state(original, codec))
        if codec != STATE_CODEC:
            with pytest.raises(ValueError, match="unknown state codec"):
                original.from_state(loads_state(wire))
            return
        clone = original.from_state(loads_state(wire))
        assert clone.to_state() == original.to_state()
        assert observe(clone) == observe(original)

    def test_cross_codec_merge(self, build, observe, codec, peer_state):
        """Decode one shard's shipped state, merge it, then the other
        shard's under ``codec``.  Under sparse-binary the result equals
        single-sketch ingestion of the whole stream; a dense-json shard
        (a worker older than the coordinator) is refused and leaves the
        merged state as the first shard left it."""
        updates = list(STREAM)
        half = len(updates) // 2
        first, second = build(), build()
        drive(first, iter(updates[:half]))
        drive(second, iter(updates[half:]))
        merged = build()
        merged.merge(merged.from_state(loads_state(
            dumps_state(second.to_state())
        )))
        wire = dumps_state(peer_state(first, codec))
        if codec != STATE_CODEC:
            before = merged.to_state()
            with pytest.raises(ValueError, match="unknown state codec"):
                merged.merge(merged.from_state(loads_state(wire)))
            assert merged.to_state() == before
            return
        merged.merge(merged.from_state(loads_state(wire)))
        sequential = drive(build(), STREAM)
        assert merged.to_state() == sequential.to_state()
        assert observe(merged) == observe(sequential)


@pytest.mark.parametrize("build,observe", CASES, ids=IDS)
class TestStateRoundTrip:
    def test_round_trip_through_json(self, build, observe):
        original = drive(build(), STREAM)
        wire = dumps_state(original.to_state())
        clone = original.from_state(loads_state(wire))
        assert clone.to_state() == original.to_state()
        assert observe(clone) == observe(original)

    def test_spawn_sibling_is_empty_and_compatible(self, build, observe):
        original = drive(build(), STREAM)
        sibling = original.spawn_sibling()
        assert sibling.compat_digest() == original.compat_digest()
        fresh = build()
        assert sibling.to_state() == fresh.to_state()

    def test_merge_into_sibling_equals_original(self, build, observe):
        original = drive(build(), STREAM)
        merged = original.spawn_sibling().merge(original)
        assert merged.to_state() == original.to_state()
        assert observe(merged) == observe(original)


UPDATES = list(STREAM)
FIRST_HALF = UPDATES[: len(UPDATES) // 2]
SECOND_HALF = UPDATES[len(UPDATES) // 2 :]


def _state_bytes(sketch) -> str:
    return dumps_state(sketch.to_state())


def _write_everything(target, build):
    """Feed ``target`` (batch and scalar), merge a fed sibling into it,
    then load a third sketch's state into it in place."""
    drive(target, iter(SECOND_HALF))
    for update in FIRST_HALF[:50]:
        target.update(update.item, update.delta)
    target.merge(drive(target.spawn_sibling(), iter(FIRST_HALF)))
    target._load_state(drive(build(), iter(SECOND_HALF)).to_state())


def _sibling(source, how):
    if how == "spawn":
        return source.spawn_sibling()
    return source.from_state(source.to_state())


def _nested_states(value):
    """Every sketch state in ``value`` (itself included), at any depth."""
    found = []
    if isinstance(value, dict):
        if value.get("format") == "repro-sketch-state":
            found.append(value)
        for member in value.values():
            found.extend(_nested_states(member))
    elif isinstance(value, list):
        for member in value:
            found.extend(_nested_states(member))
    return found


@pytest.mark.parametrize("build,observe", CASES, ids=IDS)
@pytest.mark.parametrize("how", ("spawn", "decode"))
class TestSiblingIsolation:
    """Spawned and decoded siblings are shallow copies that share the
    source's hash families; they must share none of its tables, pools,
    heaps, counter dicts or restriction sets."""

    def test_writing_the_sibling_leaves_the_source(self, build, observe, how):
        source = drive(build(), iter(FIRST_HALF))
        before = _state_bytes(source)
        _write_everything(_sibling(source, how), build)
        assert _state_bytes(source) == before

    def test_writing_the_source_leaves_the_sibling(self, build, observe, how):
        source = drive(build(), iter(FIRST_HALF))
        sibling = _sibling(source, how)
        before = _state_bytes(sibling)
        _write_everything(source, build)
        assert _state_bytes(sibling) == before

    def test_wrong_nested_digest_leaves_the_receiver(self, build, observe, how):
        """Each nested state is checked, whichever one carries the wrong
        digest."""
        receiver = _sibling(drive(build(), iter(FIRST_HALF)), how)
        before = _state_bytes(receiver)
        wire = dumps_state(drive(build(), STREAM).to_state())
        count = len(_nested_states(json.loads(wire)))
        for index in range(count):
            state = json.loads(wire)
            _nested_states(state)[index]["compat"] = "0" * 16
            with pytest.raises(ValueError, match="different configuration"):
                receiver.from_state(state)
        assert _state_bytes(receiver) == before


def _clone(source):
    """What a snapshot publish builds: an empty sibling with ``source``
    merged into it."""
    return source.spawn_sibling().merge(source)


def _round_trip(source):
    return source.from_state(loads_state(_state_bytes(source)))


@pytest.mark.parametrize("build,observe", CASES, ids=IDS)
class TestStructuralClone:
    """The clone a snapshot publish makes equals the codec round trip it
    replaced, byte for byte, and is as isolated from the source as any
    sibling."""

    def test_clone_equals_source_and_round_trip(self, build, observe):
        source = drive(build(), iter(SECOND_HALF))
        for update in FIRST_HALF[:50]:
            source.update(update.item, update.delta)
        clone, round_trip = _clone(source), _round_trip(source)
        assert _state_bytes(clone) == _state_bytes(source)
        assert _state_bytes(clone) == _state_bytes(round_trip)
        assert observe(clone) == observe(source) == observe(round_trip)

    def test_writing_the_source_leaves_the_clone(self, build, observe):
        source = drive(build(), iter(FIRST_HALF))
        clone = _clone(source)
        before = _state_bytes(clone)
        _write_everything(source, build)
        assert _state_bytes(clone) == before


TWO_PASS_BUILDS = {
    "two_pass_hh": lambda: TwoPassGHeavyHitter(G2, 0.1, 0.1, N, seed=5),
    "gsum_two_pass": lambda: GSumEstimator(
        G2, N, passes=2, heaviness=0.1, repetitions=2, seed=5
    ),
    "universal_two_pass": lambda: TwoPassUniversalSketch(N, repetitions=2, seed=5),
}


def _write_second_pass(target):
    """Tabulate into ``target``, merge a tabulating sibling into it, then
    load another second-pass sibling's state into it in place."""
    drive_second_pass(target, iter(SECOND_HALF))
    target.merge(drive_second_pass(target.spawn_sibling(), iter(FIRST_HALF)))
    target._load_state(
        drive_second_pass(target.spawn_sibling(), iter(SECOND_HALF)).to_state()
    )


@pytest.mark.parametrize("name", sorted(TWO_PASS_BUILDS))
@pytest.mark.parametrize("how", ("spawn", "decode"))
def test_second_pass_siblings_share_no_tabulation(name, how):
    """A sibling of an open second pass clones the candidate restriction:
    writing either side leaves the other's state as it was."""
    source = drive(TWO_PASS_BUILDS[name](), STREAM)
    source.begin_second_pass()
    drive_second_pass(source, iter(FIRST_HALF))
    sibling = _sibling(source, how)
    before = _state_bytes(source)
    _write_second_pass(sibling)
    assert _state_bytes(source) == before
    before = _state_bytes(sibling)
    _write_second_pass(source)
    assert _state_bytes(sibling) == before


TWO_PASS_OBSERVE = {
    "two_pass_hh": lambda s: s.cover(),
    "gsum_two_pass": lambda s: s.estimate(),
    "universal_two_pass": lambda s: s.estimate(G2),
}


@pytest.mark.parametrize("name", sorted(TWO_PASS_BUILDS))
def test_second_pass_clone_equals_source_and_round_trip(name):
    """Mid–second pass, fed by batch and scalar updates, the clone equals
    the source and its codec round trip byte for byte."""
    source = drive(TWO_PASS_BUILDS[name](), STREAM)
    source.begin_second_pass()
    drive_second_pass(source, iter(SECOND_HALF))
    for update in FIRST_HALF[:50]:
        source.update_second_pass(update.item, update.delta)
    clone, round_trip = _clone(source), _round_trip(source)
    assert _state_bytes(clone) == _state_bytes(source)
    assert _state_bytes(clone) == _state_bytes(round_trip)
    observe = TWO_PASS_OBSERVE[name]
    assert observe(clone) == observe(source) == observe(round_trip)


class TestTwoPassSharding:
    """Two-pass structures shard both passes: first-pass shards merge, the
    merged sketch elects candidates, and phase-cloned siblings tabulate the
    second pass in shards."""

    def _run_sequential(self, build):
        sketch = build()
        drive(sketch, STREAM)
        sketch.begin_second_pass()
        drive_second_pass(sketch, STREAM)
        return sketch

    def _run_sharded(self, build, shards):
        sketch = build()
        ingest_sharded(sketch, STREAM, shards, chunk_size=61)
        sketch.begin_second_pass()
        ingest_sharded(sketch, STREAM, shards, chunk_size=61, second_pass=True)
        return sketch

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_two_pass_heavy_hitter(self, shards):
        def build():
            return TwoPassGHeavyHitter(G2, 0.1, 0.1, N, seed=5)

        sequential = self._run_sequential(build)
        sharded = self._run_sharded(build, shards)
        assert sharded.to_state() == sequential.to_state()
        assert sharded.cover() == sequential.cover()

    @pytest.mark.parametrize("shards", (2, 7))
    def test_gsum_two_pass(self, shards):
        def build():
            return GSumEstimator(G2, N, passes=2, heaviness=0.1, repetitions=2, seed=5)

        sequential = self._run_sequential(build)
        sharded = self._run_sharded(build, shards)
        assert sharded.estimate() == sequential.estimate()
        assert sharded.to_state() == sequential.to_state()

    def test_two_pass_universal(self):
        sequential = TwoPassUniversalSketch(N, repetitions=2, seed=5).run(STREAM)
        sharded = self._run_sharded(
            lambda: TwoPassUniversalSketch(N, repetitions=2, seed=5), 3
        )
        for g in (G2, moment(1.5)):
            assert sharded.estimate(g) == sequential.estimate(g)

    def test_merge_across_passes_rejected(self):
        first = TwoPassGHeavyHitter(G2, 0.1, 0.1, N, seed=5)
        second = TwoPassGHeavyHitter(G2, 0.1, 0.1, N, seed=5)
        drive(first, STREAM)
        drive(second, STREAM)
        second.begin_second_pass()
        with pytest.raises(ValueError, match="different passes"):
            first.merge(second)


class TestSiblingDiscipline:
    def test_merge_rejects_different_seed(self):
        a = CountSketch(5, 64, track=4, seed=1)
        b = CountSketch(5, 64, track=4, seed=2)
        with pytest.raises(ValueError, match="different configuration"):
            a.merge(b)

    def test_merge_rejects_different_class(self):
        with pytest.raises(ValueError, match="cannot merge"):
            CountSketch(5, 64, seed=1).merge(CountMinSketch(5, 64, seed=1))

    def test_from_state_rejects_different_seed(self):
        a = drive(AmsF2Sketch(3, 8, seed=1), STREAM)
        b = AmsF2Sketch(3, 8, seed=2)
        with pytest.raises(ValueError, match="different configuration"):
            b.from_state(a.to_state())

    def test_from_state_rejects_wrong_class(self):
        a = drive(AmsF2Sketch(3, 8, seed=1), STREAM)
        with pytest.raises(ValueError, match="state is for"):
            CountMinSketch(3, 8, seed=1).from_state(a.to_state())

    def test_shared_source_objects_make_siblings(self):
        source = RandomSource(11, "shared")
        a = CountSketch(5, 64, track=4, seed=source)
        b = CountSketch(5, 64, track=4, seed=source)
        assert a.compat_digest() == b.compat_digest()
        drive(a, STREAM)
        drive(b, STREAM)
        a.merge(b)  # doubles every table cell
        assert np.array_equal(a._table, 2.0 * b._table)

    def test_gsum_estimator_merge_equals_concat(self):
        merged = GSumEstimator(G2, N, heaviness=0.1, repetitions=2, seed=5)
        other = merged.spawn_sibling()
        drive(merged, STREAM)
        drive(other, STREAM)
        merged.merge(other)
        direct = GSumEstimator(G2, N, heaviness=0.1, repetitions=2, seed=5)
        direct.process(STREAM.concat(STREAM))
        assert merged.estimate() == direct.estimate()


class TestShardSlabs:
    def test_slabs_cover_in_order(self):
        items, deltas = STREAM.as_arrays()
        slabs = shard_slabs(items, deltas, 7)
        assert np.array_equal(np.concatenate([s[0] for s in slabs]), items)
        assert np.array_equal(np.concatenate([s[1] for s in slabs]), deltas)

    def test_more_shards_than_updates(self):
        items = np.arange(3, dtype=np.int64)
        deltas = np.ones(3, dtype=np.int64)
        slabs = shard_slabs(items, deltas, 10)
        assert len(slabs) == 3

    def test_empty_stream(self):
        empty = np.empty(0, dtype=np.int64)
        assert shard_slabs(empty, empty, 4) == []

    def test_invalid_shards(self):
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError):
            shard_slabs(empty, empty, 0)


class TestDigestStrictness:
    """The compat digest refuses material it cannot represent faithfully:
    silent stringification (the old ``default=str``) could collapse two
    different configurations onto one digest and let a non-sibling merge
    slip through the compatibility gate."""

    def test_unknown_config_type_raises(self):
        sketch = CountSketch(3, 64, seed=1)
        sketch._merge_config["mystery"] = object()
        with pytest.raises(TypeError, match="cannot digest config value"):
            sketch.compat_digest()

    def test_numpy_scalar_config_preserves_value(self):
        """np.int64 is not an int subclass; the old tokenizer reduced any
        numpy integer to the bare string 'int64', so two different widths
        digested equal.  Now the value survives — and matches the digest
        of the equivalent Python int."""
        a = CountSketch(3, 64, seed=1)
        b = CountSketch(3, 64, seed=1)
        c = CountSketch(3, 64, seed=1)
        a._merge_config["width"] = np.int64(1024)
        b._merge_config["width"] = np.int64(2048)
        c._merge_config["width"] = 1024
        assert a.compat_digest() != b.compat_digest()
        assert a.compat_digest() == c.compat_digest()

    def test_non_serializable_token_rejected_by_encoder(self):
        """Belt and braces: even material that slips past the tokenizer
        (a subclass hook returning raw bytes objects nested where the
        tokenizer passes them through) is rejected by the digest encoder
        instead of being stringified."""
        import repro.sketch.base as base

        with pytest.raises(TypeError, match="not JSON-serializable"):
            import json as _json

            _json.dumps({"x": {1, 2}}, default=base._digest_reject)

    def test_bytes_config_digests_by_value(self):
        a = CountSketch(3, 64, seed=1)
        b = CountSketch(3, 64, seed=1)
        a._merge_config["salt"] = b"\x00\x01"
        b._merge_config["salt"] = b"\x00\x02"
        assert a.compat_digest() != b.compat_digest()


class TestHashFamilyState:
    def test_different_seeds_different_fingerprints(self):
        from repro.sketch.hashing import KWiseHash

        assert KWiseHash(64, 2, seed=1).fingerprint() != KWiseHash(
            64, 2, seed=2
        ).fingerprint()
