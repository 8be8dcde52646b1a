"""Self-tests of the benchmark at tiny sizes.

The in-process tests run in a second or two.  The subprocess tests drive
``perfbench/run.py`` end to end for the multi-process workloads and are
marked ``slow`` (nightly), since each starts worker or server processes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from . import harness, tracing
from .workloads import SIZES, ingest

TINY = SIZES["tiny"]
RUN = Path(__file__).resolve().parent / "run.py"


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    latencies = [float(i) for i in range(1, 31)]
    value, percentile = harness.tail(latencies)
    assert value == 20.0
    assert sum(x > value for x in latencies) == 10
    assert percentile == pytest.approx(100 * 20 / 30)
    assert harness.tail(latencies[:19]) is None


@pytest.mark.parametrize("workload", ["ingest-hot", "ingest-wide"])
def test_ingest_prints_every_end_to_end_metric_with_its_unit(workload, tmp_path, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", "0",
            "--size", "tiny", "--out", str(tmp_path)]
    assert harness.main(argv) == 0
    result = _result(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 20
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(harness.END_TO_END)
    assert result["metrics"]["ok_share"]["value"] == 1.0
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_reference_drives_ok_share_below_one():
    good = ingest(TINY, seed=5, seconds=0.1, wide=False)
    wrong = ingest(TINY, seed=5, seconds=0.1, wide=False, reference_scale=2.0)
    assert harness.end_to_end(good)["ok_share"] == 1.0
    assert not wrong.checks_ok
    assert harness.end_to_end(wrong)["ok_share"] < 1.0


def test_traced_run_reports_every_layer_metric_and_shares_add_up(tmp_path):
    from repro.core.gsum import GSumEstimator

    original = GSumEstimator.__dict__["update_batch"]
    base, run, spans = harness._traced("ingest-hot", TINY, 7, 0.4, tmp_path)
    assert GSumEstimator.__dict__["update_batch"] is original  # wrappers removed
    analysis = tracing.analyze(spans)
    ops = analysis["ops"]
    assert ops["count"] == run.attempted
    assert sum(ops["layers_s"].values()) + ops["other_s"] == pytest.approx(ops["wall_s"])
    assert abs(ops["residual_s"]) < 1e-9
    metrics = harness.per_layer(analysis, run, 1.0)
    assert list(metrics) == [name for name, _ in harness.PER_LAYER]
    assert metrics["core.update_calls"] == run.attempted + 1  # plus the set-up prefix
    assert metrics["core.plan_builds"] == 1
    assert 0 < metrics["core.update_self_s"] < metrics["core.update_s"]
    path = tmp_path / "trace.json"
    tracing.write_chrome_trace(spans, path, {})
    events = json.loads(path.read_text())["traceEvents"]
    assert len(events) == len(spans) and {e["ph"] for e in events} == {"X"}


def test_spans_nest_and_quiet_or_repeated_calls_are_not_traced(tmp_path):
    tracer = tracing.Tracer(tmp_path)
    hash_call = tracing._timed(tracer, "sketch.hash", lambda: None)
    nested_hash = tracing._timed(tracer, "sketch.hash", hash_call)
    with tracer.op():
        with tracer.span("core.update"):
            nested_hash()
        with tracer.quiet():
            hash_call()
    spans = {span.name: span for span in tracer.spans}
    assert [span.name for span in tracer.spans].count("sketch.hash") == 1
    op, update, hashed = spans["op"], spans["core.update"], spans["sketch.hash"]
    assert (hashed.parent, update.parent, op.parent) == (update.sid, op.sid, None)
    selfs = tracing.self_times(tracer.spans)
    assert selfs[(update.pid, update.sid)] == pytest.approx(
        (update.end - update.start) - (hashed.end - hashed.start)
    )


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["rounds-2pass", "serve-live"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_py_end_to_end(workload, trace, tmp_path):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "2", "--seconds", "1",
         "--trace", trace, "--size", "tiny", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = _result(done.stdout)
    assert result["correct"] and result["failed"] == 0
    expected = harness.END_TO_END if trace == "0" else harness.PER_LAYER
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    if trace == "1":
        assert result["metrics"]["trace.overhead"]["value"] > 0
        assert "share.sum" in done.stdout
