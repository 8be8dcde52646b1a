"""The statistical guarantee verifier (``repro.verify``).

Fast tests pin the verifier's mechanics and check each advertised bound on
moderate seed counts; the ``slow``-marked sweeps push the seed counts to
statistical strength (>= 100 hash seeds) and run in the nightly CI job
(``pytest -m slow``).  ``docs/GUARANTEES.md`` maps each paper bound to the
test that checks it.
"""

from __future__ import annotations

import math

import pytest

from repro.functions.library import moment
from repro.streams.generators import (
    deletion_storm_stream,
    distinct_flood_stream,
    zipf_stream,
    zipf_sweep,
)
from repro.verify import (
    countmin_point_bound,
    countsketch_point_bound,
    probe_items,
    verify_countmin,
    verify_countsketch,
    verify_gsum,
)

pytestmark = pytest.mark.adversarial


@pytest.fixture(scope="module")
def zipf_1024():
    return zipf_stream(1024, 30_000, 1.1, seed=17)


# ------------------------------------------------------------- mechanics


def test_bounds_match_closed_forms(zipf_1024):
    vector = zipf_1024.frequency_vector()
    assert countsketch_point_bound(zipf_1024, 512) == pytest.approx(
        3.0 * math.sqrt(vector.f_moment(2.0) / 512)
    )
    assert countmin_point_bound(zipf_1024, 512) == pytest.approx(
        math.e * vector.f_moment(1.0) / 512
    )


def test_probe_items_mix_heavy_and_tail(zipf_1024):
    probes = probe_items(zipf_1024, 64, seed=1)
    counts = zipf_1024.frequency_vector().to_dict()
    assert probes.shape[0] == 64
    assert len(set(probes.tolist())) == 64
    heaviest = max(counts, key=lambda i: abs(counts[i]))
    assert heaviest in probes.tolist()
    # Deterministic under a fixed seed.
    assert probes.tolist() == probe_items(zipf_1024, 64, seed=1).tolist()


def test_probe_items_small_support_returns_all():
    stream = zipf_stream(64, 500, 1.5, seed=2)
    support = set(stream.frequency_vector().to_dict())
    probes = probe_items(stream, 128, seed=3)
    assert set(probes.tolist()) == support


def test_report_row_shape(zipf_1024):
    report = verify_countsketch(zipf_1024, "zipf-1.1", seeds=5, seed=1)
    row = report.to_row()
    assert row["sketch"] == "countsketch"
    assert row["workload"] == "zipf-1.1"
    assert row["samples"] == 5 * 64
    assert 0.0 <= row["p50"] <= row["p95"] <= row["p99"] <= row["max_error"]
    assert report.holds == (report.failure_rate <= report.delta)


def test_countmin_rejects_deletion_workloads():
    storm = deletion_storm_stream(256, support=64, magnitude=10, seed=1)
    with pytest.raises(ValueError, match="deletion"):
        verify_countmin(storm, "deletion-storm")


# ----------------------------------------------- the bounds hold (quick)


def test_countsketch_bound_holds_on_zipf(zipf_1024):
    report = verify_countsketch(zipf_1024, "zipf-1.1", seeds=20, seed=5)
    assert report.holds, report.to_row()


def test_countmin_bound_holds_on_zipf(zipf_1024):
    report = verify_countmin(zipf_1024, "zipf-1.1", seeds=20, seed=5)
    assert report.holds, report.to_row()


def test_countsketch_bound_holds_on_deletion_storm():
    storm = deletion_storm_stream(1024, support=256, magnitude=100, seed=7)
    report = verify_countsketch(storm, "deletion-storm", seeds=20, seed=5)
    assert report.holds, report.to_row()


def test_countsketch_bound_holds_on_distinct_flood():
    flood = distinct_flood_stream(4096, seed=9)
    report = verify_countsketch(flood, "distinct-flood", seeds=20, seed=5)
    assert report.holds, report.to_row()


def test_gsum_contract_holds_quick(zipf_1024):
    report = verify_gsum(zipf_1024, moment(2.0), "zipf-1.1", seeds=5, seed=5)
    assert report.holds, report.to_row()


# ------------------------------------------------- nightly seed sweeps


@pytest.mark.slow
def test_gsum_seed_sweep_across_zipf_skews():
    """>= 100 hash seeds per Zipf workload: the empirical failure rate of
    the (g, epsilon)-SUM contract stays under the configured delta."""
    for skew, stream in zipf_sweep(1024, 20_000, skews=(1.1, 1.5), seed=31):
        report = verify_gsum(
            stream, moment(2.0), f"zipf-{skew}", epsilon=0.25, seeds=100, seed=13
        )
        assert report.samples >= 100
        assert report.holds, report.to_row()


@pytest.mark.slow
def test_countsketch_seed_sweep_across_zipf_skews():
    for skew, stream in zipf_sweep(2048, 50_000, seed=33):
        report = verify_countsketch(stream, f"zipf-{skew}", seeds=100, seed=13)
        assert report.holds, report.to_row()


@pytest.mark.slow
def test_countmin_seed_sweep_across_zipf_skews():
    for skew, stream in zipf_sweep(2048, 50_000, seed=35):
        report = verify_countmin(stream, f"zipf-{skew}", seeds=100, seed=13)
        assert report.holds, report.to_row()
