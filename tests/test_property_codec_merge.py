"""Property-based tests for merge/codec round-trip equivalence.

Hypothesis drives arbitrary interleavings of ``update_batch``, ``merge``,
and ``to_state -> from_state`` round-trips across
a small fleet of sibling shards, then folds the fleet into one sketch.
The invariant: whatever the interleaving, the folded sketch is
bit-identical — table, candidate pool, ranking — to a single sketch fed
every update through the serial scalar path.  This is the mergeable-sketch
protocol's whole contract, so the strategies deliberately hit the corners:
empty shards, merges of merges, repeated round-trips, net-zero items.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gsum import GSumEstimator
from repro.functions.library import moment
from repro.sketch.countmin import CountMinSketch
from repro.sketch.countsketch import CountSketch

DOMAIN = 64
SHARDS = 3

update_op = st.tuples(
    st.just("update"),
    st.integers(0, SHARDS - 1),
    st.lists(
        st.tuples(
            st.integers(0, DOMAIN - 1),
            st.integers(-50, 50).filter(lambda d: d != 0),
        ),
        min_size=1,
        max_size=16,
    ),
)
# merge shard b into shard a (b is then replaced by an empty sibling, so
# every update still reaches the final fold exactly once)
merge_op = st.tuples(
    st.just("merge"), st.integers(0, SHARDS - 1), st.integers(0, SHARDS - 1)
)
roundtrip_op = st.tuples(st.just("roundtrip"), st.integers(0, SHARDS - 1))
plans = st.lists(
    st.one_of(update_op, merge_op, roundtrip_op), min_size=1, max_size=24
)


def run_plan(make_sketch, plan):
    """Execute an interleaving plan; return (folded, serial_reference)."""
    reference = make_sketch()
    shards = [reference.spawn_sibling() for _ in range(SHARDS)]
    for op in plan:
        if op[0] == "update":
            _, idx, updates = op
            items = np.asarray([item for item, _ in updates], dtype=np.int64)
            deltas = np.asarray([delta for _, delta in updates], dtype=np.int64)
            shards[idx].update_batch(items, deltas)
            for item, delta in updates:
                reference.update(item, delta)
        elif op[0] == "merge":
            _, a, b = op
            if a == b:
                continue
            shards[a].merge(shards[b])
            shards[b] = reference.spawn_sibling()
        else:
            _, idx = op
            state = shards[idx].to_state()
            shards[idx] = shards[idx].spawn_sibling().from_state(state)
    folded = shards[0]
    for shard in shards[1:]:
        folded.merge(shard)
    return folded, reference


class TestCountSketchInterleavings:
    @given(plans)
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_serial_scalar_path(self, plan):
        folded, reference = run_plan(
            lambda: CountSketch(3, 16, track=4, seed=101, pool=8), plan
        )
        assert np.array_equal(folded._table, reference._table)
        assert folded._candidates == reference._candidates
        assert folded.top_candidates() == reference.top_candidates()

    @given(plans)
    @settings(max_examples=40, deadline=None)
    def test_final_state_roundtrips_under_every_codec(self, plan):
        folded, reference = run_plan(
            lambda: CountSketch(3, 16, track=4, seed=202, pool=8), plan
        )
        revived = folded.spawn_sibling().from_state(folded.to_state())
        assert np.array_equal(revived._table, reference._table)
        assert revived._candidates == reference._candidates
        assert revived.top_candidates() == reference.top_candidates()


class TestCountMinInterleavings:
    @given(plans)
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_serial_scalar_path(self, plan):
        folded, reference = run_plan(lambda: CountMinSketch(3, 16, seed=303), plan)
        assert np.array_equal(folded._table, reference._table)
        for item in range(DOMAIN):
            assert folded.estimate(item) == reference.estimate(item)


def fused_feed(shard, items, deltas):
    shard.update_batch(items, deltas)


def oracle_feed(shard, items, deltas):
    """The reference path: every repetition's own per-cell fan-out,
    bypassing the estimator's fused plan."""
    for rep in shard._sketches:
        rep.update_batch(items, deltas)


def run_fleet_plan(root, plan, feed):
    """Execute one interleaving plan on a fleet of siblings of ``root``,
    ingesting every update through ``feed(shard, items, deltas)``; return
    the fleet unfolded.  Run once with :func:`fused_feed` and once with
    :func:`oracle_feed` — whatever the interleaving of updates, merges,
    and state round-trips, the ingest plan must land on the same bits as
    the per-cell fan-out."""
    shards = [root.spawn_sibling() for _ in range(SHARDS)]
    for op in plan:
        if op[0] == "update":
            _, idx, updates = op
            items = np.asarray([item for item, _ in updates], dtype=np.int64)
            deltas = np.asarray([delta for _, delta in updates], dtype=np.int64)
            feed(shards[idx], items, deltas)
        elif op[0] == "merge":
            _, a, b = op
            if a == b:
                continue
            shards[a].merge(shards[b])
            shards[b] = root.spawn_sibling()
        else:
            _, idx = op
            state = shards[idx].to_state()
            shards[idx] = shards[idx].spawn_sibling().from_state(state)
    return shards


def fold(fleet):
    folded = fleet[0]
    for shard in fleet[1:]:
        folded.merge(shard)
    return folded


class TestFusedIngestInterleavings:
    """The fused ingestion plane under the same adversarial interleavings:
    a fused GSum fleet and an oracle fleet replay one plan and must agree
    bit for bit on the full serialized state.  Every merge and state
    round-trip in the plan exercises a plan-invalidation path (rebound
    tables, replaced sketch lists) mid-stream."""

    @staticmethod
    def _make():
        return GSumEstimator(
            moment(2.0), DOMAIN, epsilon=0.5, heaviness=0.4,
            repetitions=2, seed=404,
        )

    @given(plans)
    @settings(max_examples=15, deadline=None)
    def test_fused_bit_identical_to_legacy(self, plan):
        fused_fleet = run_fleet_plan(self._make(), plan, fused_feed)
        oracle_fleet = run_fleet_plan(self._make(), plan, oracle_feed)
        assert all(
            shard._ingest_plan is None and shard._second_plan is None
            for shard in oracle_fleet
        )
        fused_fold, oracle_fold = fold(fused_fleet), fold(oracle_fleet)
        assert json.dumps(fused_fold.to_state(), sort_keys=True) == \
            json.dumps(oracle_fold.to_state(), sort_keys=True)
        assert fused_fold.estimate() == oracle_fold.estimate()
