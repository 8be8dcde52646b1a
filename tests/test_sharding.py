"""The sharded parallel ingestion engine (``repro.streams.sharding``).

Exactness first: the thread pool must leave state bit-identical to
sequential ingestion — sharding is a throughput decision, never an
accuracy trade.  Then the integration surfaces: ``drive(..., shards=N)``,
``GSumEstimator(..., shards=N)``, and the ``repro ingest --shards N`` CLI
flag.  ``shards`` is the only sharding option: the options that picked an
execution mode, or re-picked the shard count per call, are gone and
raise ``TypeError`` (argparse's error on the CLI).
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core.gsum import GSumEstimator
from repro.functions.library import moment
from repro.sketch.ams import AmsF2Sketch
from repro.sketch.countmin import CountMinSketch
from repro.sketch.countsketch import CountSketch
from repro.streams.batching import drive, drive_second_pass
from repro.streams.generators import zipf_stream
from repro.streams.io import save_stream
from repro.streams.model import StreamUpdate, TurnstileStream
from repro.streams.sharding import ingest_sharded, supports_sharding

N = 512
G2 = moment(2.0)
STREAM = zipf_stream(n=N, total_mass=12_000, skew=1.2, seed=31, turnstile_noise=0.3)


class TestShardedIdentical:
    def test_countsketch(self):
        sequential = drive(CountSketch(5, 256, track=16, seed=9), STREAM)
        sharded = ingest_sharded(CountSketch(5, 256, track=16, seed=9), STREAM, 4)
        assert np.array_equal(sharded._table, sequential._table)
        assert sharded._candidates == sequential._candidates
        assert sharded.top_candidates() == sequential.top_candidates()

    def test_ams_and_countmin(self):
        a = drive(AmsF2Sketch(5, 16, seed=9), STREAM)
        b = ingest_sharded(AmsF2Sketch(5, 16, seed=9), STREAM, 4)
        assert np.array_equal(a._registers, b._registers)
        c = drive(CountMinSketch(5, 256, seed=9), STREAM)
        d = ingest_sharded(CountMinSketch(5, 256, seed=9), STREAM, 4)
        assert np.array_equal(c._table, d._table)

    def test_gsum_estimator(self):
        sequential = drive(
            GSumEstimator(G2, N, heaviness=0.15, repetitions=2, seed=5), STREAM
        )
        sharded = ingest_sharded(
            GSumEstimator(G2, N, heaviness=0.15, repetitions=2, seed=5), STREAM, 4
        )
        assert sharded.estimate() == sequential.estimate()


class TestEngineEdges:
    def test_unsupported_structure(self):
        class Bare:
            def update_batch(self, items, deltas):
                pass

        with pytest.raises(TypeError, match="mergeable-sketch protocol"):
            ingest_sharded(Bare(), STREAM, 2)

    def test_supports_sharding(self):
        assert supports_sharding(CountSketch(3, 32, seed=1))
        assert not supports_sharding(object())

    def test_single_shard_short_circuits(self):
        sequential = drive(CountSketch(3, 64, seed=2), STREAM)
        one = ingest_sharded(CountSketch(3, 64, seed=2), STREAM, 1)
        assert np.array_equal(one._table, sequential._table)

    def test_empty_stream(self):
        sketch = ingest_sharded(
            CountSketch(3, 64, seed=2), TurnstileStream(8), 4
        )
        assert not sketch._table.any()

    def test_generic_iterable_input(self):
        updates = [StreamUpdate(i % 7, 1 + (i % 3)) for i in range(500)]
        sequential = drive(CountSketch(3, 64, seed=2), iter(updates))
        sharded = ingest_sharded(CountSketch(3, 64, seed=2), iter(updates), 3)
        assert np.array_equal(sharded._table, sequential._table)

    def test_two_update_tuple_is_a_stream_not_arrays(self):
        # A 2-tuple of StreamUpdates is a valid iterable stream and must
        # not be mistaken for a prebuilt (items, deltas) array pair.
        pair = (StreamUpdate(1, 3), StreamUpdate(2, -1))
        sequential = drive(CountSketch(3, 64, seed=2), pair)
        sharded = ingest_sharded(CountSketch(3, 64, seed=2), pair, 2)
        assert np.array_equal(sharded._table, sequential._table)

    def test_second_pass_requires_batch_second_pass(self):
        with pytest.raises(TypeError, match="update_batch_second_pass"):
            ingest_sharded(
                CountSketch(3, 64, seed=2), STREAM, 2, second_pass=True
            )

    def test_merges_into_existing_state(self):
        # Sharding appends to whatever the structure already holds.
        first = zipf_stream(n=N, total_mass=4_000, seed=3)
        sketch = drive(CountSketch(3, 64, seed=2), first)
        ingest_sharded(sketch, STREAM, 3)
        direct = drive(CountSketch(3, 64, seed=2), first.concat(STREAM))
        assert np.array_equal(sketch._table, direct._table)

    def test_chunking_immaterial(self):
        a = ingest_sharded(CountSketch(3, 64, seed=2), STREAM, 5, chunk_size=17)
        b = ingest_sharded(CountSketch(3, 64, seed=2), STREAM, 5, chunk_size=4096)
        assert np.array_equal(a._table, b._table)
        assert a._candidates == b._candidates


class TestDriveIntegration:
    def test_drive_shards_param(self):
        sequential = drive(CountSketch(5, 128, track=8, seed=7), STREAM)
        sharded = drive(CountSketch(5, 128, track=8, seed=7), STREAM, shards=4)
        assert np.array_equal(sharded._table, sequential._table)
        assert sharded.top_candidates() == sequential.top_candidates()

    def test_estimator_shards_constructor(self):
        sequential = GSumEstimator(G2, N, heaviness=0.15, repetitions=2, seed=5)
        sequential.process(STREAM)
        sharded = GSumEstimator(
            G2, N, heaviness=0.15, repetitions=2, seed=5, shards=4
        )
        sharded.process(STREAM)
        assert sharded.estimate() == sequential.estimate()

    def test_estimator_two_pass_run_sharded(self):
        sequential = GSumEstimator(
            G2, N, passes=2, heaviness=0.15, repetitions=2, seed=5
        ).run(STREAM, exact=False)
        sharded = GSumEstimator(
            G2, N, passes=2, heaviness=0.15, repetitions=2, seed=5, shards=4
        ).run(STREAM, exact=False)
        assert sharded.estimate == sequential.estimate

    def test_estimator_rejects_bad_shards(self):
        with pytest.raises(ValueError, match="shards"):
            GSumEstimator(G2, N, shards=0)


class TestCliShards:
    def test_ingest_reports_sharded_throughput(self, tmp_path, capsys):
        path = tmp_path / "stream.jsonl"
        save_stream(STREAM, path)
        code = main(
            ["ingest", str(path), "--rows", "3", "--buckets", "128",
             "--shards", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "shards=3" in out
        assert "sharded state identical to sequential: True" in out

    def test_estimate_accepts_shards(self, tmp_path, capsys):
        path = tmp_path / "stream.jsonl"
        save_stream(STREAM, path)
        code = main(
            ["estimate", "x**2", str(path), "--repetitions", "1",
             "--heaviness", "0.3", "--shards", "2"]
        )
        assert code == 0
        assert "estimate" in capsys.readouterr().out


def _two_pass_estimator():
    estimator = GSumEstimator(G2, N, passes=2, heaviness=0.15, repetitions=2, seed=5)
    estimator.begin_second_pass()
    return estimator


#: The removed options that picked an execution mode or re-picked the shard
#: count per call; each is now an unexpected keyword.
REMOVED_OPTIONS = {
    "ingest_sharded-mode": lambda: ingest_sharded(
        CountSketch(3, 32, seed=1), STREAM, 2, mode="thread"
    ),
    "drive-shard_mode": lambda: drive(
        CountSketch(3, 32, seed=1), STREAM, shards=2, shard_mode="thread"
    ),
    "drive_second_pass-shard_mode": lambda: drive_second_pass(
        _two_pass_estimator(), STREAM, shards=2, shard_mode="thread"
    ),
    "GSumEstimator-shard_mode": lambda: GSumEstimator(
        G2, N, shards=2, shard_mode="thread"
    ),
    "process-shards": lambda: GSumEstimator(G2, N, seed=5).process(STREAM, shards=2),
    "process_second_pass-shards": lambda: _two_pass_estimator().process_second_pass(
        STREAM, shards=2
    ),
}


class TestRemovedOptions:
    @pytest.mark.parametrize("option", sorted(REMOVED_OPTIONS))
    def test_removed_option_raises_type_error(self, option):
        with pytest.raises(TypeError, match="unexpected keyword"):
            REMOVED_OPTIONS[option]()

    @pytest.mark.parametrize("command", ("estimate", "ingest"))
    def test_shard_mode_flag_is_an_argparse_error(self, command, tmp_path, capsys):
        path = tmp_path / "stream.jsonl"
        save_stream(STREAM, path)
        args = [command] + (["x**2"] if command == "estimate" else [])
        with pytest.raises(SystemExit) as exit_info:
            main(args + [str(path), "--shards", "2", "--shard-mode", "thread"])
        assert exit_info.value.code == 2
        assert "--shard-mode" in capsys.readouterr().err
