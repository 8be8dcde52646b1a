"""The named-``GFunction`` registry (``repro.functions.registry``).

Round-trip every library function and the random families through the
spec serialization and assert *identical* values, names, and declared
properties; prove the pickling path that unblocks process-mode sharding
for estimators; and pin the equality gate: process-mode
``GSumEstimator(shards=2)`` equals serial bit for bit.
"""

import json
import pickle

import pytest

from repro.core.gsum import GSumEstimator
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
    boundaries, and process-mode sharding equals serial bit for bit."""

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

    @pytest.mark.parametrize("g_text", ("x^2", "x**1.5"))
    def test_process_mode_shards_equal_serial(self, g_text):
        g = resolve_function(g_text)
        serial = self._estimator(g, shards=2, shard_mode="serial")
        serial.process(self.STREAM)
        process = self._estimator(resolve_function(g_text), shards=2,
                                  shard_mode="process")
        process.process(self.STREAM)
        assert process.estimate() == serial.estimate()
        assert dumps_state(process.to_state()) == dumps_state(
            serial.to_state()
        )

    def test_two_pass_process_mode(self):
        a = self._estimator(moment(2.0), passes=2).run(self.STREAM, exact=False)
        b = self._estimator(
            moment(2.0), passes=2, shards=2, shard_mode="process"
        ).run(self.STREAM, exact=False)
        assert b.estimate == a.estimate

    def test_unpicklable_estimator_process_mode_advises(self):
        bare = GFunction(lambda x: float(x * x), "adhoc")
        est = self._estimator(bare, shards=2, shard_mode="process")
        with pytest.raises(TypeError, match="registry"):
            est.process(self.STREAM)
