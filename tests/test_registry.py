"""The named-``GFunction`` registry (``repro.functions.registry``).

Round-trip every library function and the random families through the
spec serialization and assert *identical* values, names, and declared
properties; prove the pickling path that lets estimators cross a process
boundary; and pin the equality gate: an estimator ingested by the
distributed driver's process workers equals sequential ingestion bit for
bit.  An estimator whose ``GFunction`` bypassed the registry fails at
once with advice that points here, on every transport.
"""

import json
import pickle
import tempfile
import time

import pytest

from repro.core.gsum import GSumEstimator
from repro.distributed import distributed_ingest
from repro.distributed.specs import build_sketch
from repro.functions.base import GFunction
from repro.functions.library import catalog, linear, moment
from repro.functions.random_g import (
    random_decaying,
    random_family_sample,
    random_oscillator,
    random_power_like,
    random_step_function,
)
from repro.functions.registry import (
    expression,
    from_spec,
    lookup,
    registry_names,
    resolve_function,
    to_spec,
)
from repro.sketch.base import dumps_state
from repro.streams.generators import zipf_stream
from repro.util.rng import RandomSource

PROBE_POINTS = list(range(0, 40)) + [63, 64, 100, 501, 1000, 4097]


def assert_identical(a: GFunction, b: GFunction, points=PROBE_POINTS):
    assert b.name == a.name
    assert b.properties == a.properties
    assert b.analysis_cap == a.analysis_cap
    cap = a.analysis_cap
    for x in points:
        if cap is not None and x > cap:
            continue  # numerically unsafe domain (e.g. 2^x overflow)
        assert b(x) == a(x), (a.name, x)


class TestLibraryRoundTrips:
    def test_every_catalog_function(self):
        for name, g in catalog().items():
            spec = to_spec(g)
            wire = json.loads(json.dumps(spec))  # survives the wire format
            assert_identical(g, from_spec(wire))

    def test_every_catalog_function_pickles(self):
        for g in catalog().values():
            assert_identical(g, pickle.loads(pickle.dumps(g)))

    def test_registry_knows_the_families(self):
        names = registry_names()
        for expected in ("moment", "g_np", "random_oscillator", "expression"):
            assert expected in names
        assert lookup("moment") is not None
        with pytest.raises(KeyError, match="no registered"):
            lookup("definitely_not_registered")


class TestRandomFamilies:
    @pytest.mark.parametrize(
        "maker", (random_power_like, random_decaying, random_oscillator,
                  random_step_function)
    )
    def test_family_round_trip_by_int_seed(self, maker):
        g, props = maker(seed=1234)
        rebuilt = from_spec(json.loads(json.dumps(to_spec(g))))
        assert_identical(g, rebuilt)

    def test_family_round_trip_by_source_lineage(self):
        source = RandomSource(99, "fuzz").child("g3")
        g, props = random_oscillator(seed=source)
        rebuilt = from_spec(to_spec(g))
        assert_identical(g, rebuilt, points=range(0, 3000, 17))

    def test_family_sample_pickles(self):
        for g, props in random_family_sample(8, seed=3):
            clone = pickle.loads(pickle.dumps(g))
            assert_identical(g, clone, points=range(0, 2000, 13))
            assert clone.properties == props


class TestDerivedAndAdHoc:
    def test_renamed_round_trips(self):
        g = moment(2.0).renamed("F2")
        assert_identical(g, pickle.loads(pickle.dumps(g)))

    def test_with_properties_round_trips(self):
        g = linear().with_properties(predictable=False)
        clone = pickle.loads(pickle.dumps(g))
        assert_identical(g, clone)
        assert clone.properties.predictable is False

    def test_expression_factory(self):
        g = expression("x**1.5 + 1")
        assert_identical(g, pickle.loads(pickle.dumps(g)))

    def test_unregistered_function_fails_loudly(self):
        bare = GFunction(lambda x: float(x), "bare")
        with pytest.raises(TypeError, match="registry"):
            to_spec(bare)
        with pytest.raises(pickle.PicklingError, match="registry"):
            pickle.dumps(bare)

    def test_resolve_function_paths(self):
        assert resolve_function("x^2").name == "x^2"  # catalog
        assert resolve_function("g_np").name == "g_np"  # factory name
        assert resolve_function("x**3")(2) == 8.0  # expression
        with pytest.raises(ValueError, match="neither"):
            resolve_function("import os")


class TestProcessModeEstimator:
    """The gate the registry exists for: estimators cross process
    boundaries, and process-mode distributed ingestion equals sequential
    ingestion bit for bit."""

    N = 512
    STREAM = zipf_stream(n=N, total_mass=12_000, skew=1.2, seed=31,
                         turnstile_noise=0.3)

    def _estimator(self, g, **kwargs):
        return GSumEstimator(g, self.N, heaviness=0.15, repetitions=2,
                             seed=5, **kwargs)

    def test_estimator_pickle_round_trip(self):
        est = self._estimator(moment(2.0))
        est.process(self.STREAM)
        clone = pickle.loads(pickle.dumps(est))
        assert clone.estimate() == est.estimate()
        assert dumps_state(clone.to_state()) == dumps_state(est.to_state())

    def test_two_pass_pickle_round_trip_through_both_passes(self):
        est = self._estimator(moment(2.0), passes=2)
        est.process(self.STREAM)
        clone = pickle.loads(pickle.dumps(est))
        assert dumps_state(clone.to_state()) == dumps_state(est.to_state())
        est.begin_second_pass()
        est.update_batch_second_pass(*self.STREAM.as_arrays())
        clone = pickle.loads(pickle.dumps(est))
        assert clone.estimate() == est.estimate()
        assert dumps_state(clone.to_state()) == dumps_state(est.to_state())

    def test_empty_two_pass_sibling_pickles_small(self):
        """A distributed worker receives an empty sibling; its pickle
        carries the sparse state, not the dense tables (~1.4 MB dense)."""
        sibling = build_sketch(
            {
                "kind": "gsum",
                "function": "(2+sin x)x^2",
                "n": 1 << 10,
                "epsilon": 0.25,
                "passes": 2,
                "heaviness": 0.05,
                "repetitions": 1,
                "seed": 7,
            }
        ).spawn_sibling()
        assert len(pickle.dumps(sibling)) < 16 * 1024

    @pytest.mark.parametrize("g_text", ("x^2", "x**1.5"))
    def test_process_workers_equal_sequential(self, g_text):
        """A catalog entry and an expression-built ``g`` both cross a real
        process boundary and merge back to the sequential bits."""
        sequential = self._estimator(resolve_function(g_text))
        sequential.process(self.STREAM)
        process = distributed_ingest(
            self._estimator(resolve_function(g_text)), self.STREAM,
            workers=2, mode="process",
        )
        assert process.estimate() == sequential.estimate()
        assert dumps_state(process.to_state()) == dumps_state(
            sequential.to_state()
        )

    @pytest.mark.parametrize("transport", ("file", "socket"))
    def test_unpicklable_estimator_process_mode_advises(
        self, transport, tmp_path, monkeypatch
    ):
        """A hand-rolled ``GFunction`` fails before any worker starts: the
        registry advice surfaces at once instead of a round timeout that
        blames the workers, and no rendezvous directory is left behind."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        bare = GFunction(lambda x: float(x * x), "adhoc")
        start = time.monotonic()
        with pytest.raises(TypeError, match="registry"):
            distributed_ingest(
                self._estimator(bare), self.STREAM, workers=2,
                transport=transport, mode="process", timeout=60,
            )
        assert time.monotonic() - start < 5
        assert list(tmp_path.iterdir()) == []
