"""Tests for the benchmark's statistics, tracing and calibration helpers,
and for the agreement between BENCHMARK.json and what the command emits.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import run as bench_run  # noqa: E402
from stats import (FAILED, MIN_BEYOND, Report, StatsError,  # noqa: E402
                   check_name, fail_ratio, median, percentile)
from tracing import LAYER_NAMES, SpanRecorder, layer_of  # noqa: E402


# -- percentiles ------------------------------------------------------------

def test_p90_refused_until_ten_samples_lie_beyond_it():
    with pytest.raises(StatsError, match="10 samples beyond"):
        percentile(list(range(1, 100)), 90)      # 99 samples leave 9
    assert percentile(list(range(1, 101)), 90) == 90   # 100 leave 10


def test_percentile_is_nearest_rank_on_unsorted_input():
    values = list(range(200, 0, -1))
    assert percentile(values, 50) == 100
    assert percentile(values, 90) == 180


def test_percentile_rejects_out_of_range_q():
    with pytest.raises(StatsError):
        percentile(list(range(1000)), 100)
    with pytest.raises(StatsError):
        percentile(list(range(1000)), 0)


def test_median_needs_samples_but_no_tail():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(StatsError):
        median([])


def test_failed_operations_miss_every_latency_limit():
    values = [1.0] * 100 + [FAILED] * 20
    assert math.isinf(percentile(values, 90))
    assert median(values) == 1.0


# -- fail_ratio ---------------------------------------------------------------

def test_fail_ratio_counts_failed_and_refused():
    assert fail_ratio(10, 0) == 0.0
    assert fail_ratio(10, 2, refused=3) == 0.5


@pytest.mark.parametrize("args", [(0, 0), (5, 6), (5, -1), (5, 3, 3)])
def test_fail_ratio_rejects_impossible_counts(args):
    with pytest.raises(StatsError):
        fail_ratio(*args)


# -- names, units and sample counts -----------------------------------------

@pytest.mark.parametrize("name", ["kips", "core.apf.share", "op_p50_ms",
                                  "setup_s.raw", "a-b"])
def test_valid_names(name):
    assert check_name(name) == name


@pytest.mark.parametrize("name", ["", "p 50", "lat(ms)", "a/b", "é", None])
def test_invalid_names(name):
    with pytest.raises(StatsError):
        check_name(name)


def test_report_prints_unit_and_sample_count():
    report = Report()
    report.add("op_p50_ms", "ms", 12.5, 40)
    [line] = report.lines()
    assert "op_p50_ms" in line and " ms " in line and line.endswith("n=40")


def test_report_rejects_bad_unit_duplicate_and_fractional_count():
    report = Report()
    with pytest.raises(StatsError):
        report.add("x", "m s", 1.0, 1)
    report.add("x", "ms", 1.0, 1)
    with pytest.raises(StatsError):
        report.add("x", "ms", 1.0, 1)
    with pytest.raises(StatsError):
        report.add("y", "ms", 1.0, 1.5)


def test_add_tail_reports_only_when_allowed():
    report = Report()
    assert not report.add_tail("p90_ms", "ms", [1.0] * 50, 90)
    assert report.add_tail("p90_ms", "ms", [1.0] * (10 * MIN_BEYOND), 90)
    assert report.metrics["p90_ms"].samples == 10 * MIN_BEYOND


def test_select_requires_every_declared_metric_in_its_unit():
    report = Report()
    report.add("kips", "kinst/s", 3.0, 9)
    assert report.select([{"name": "kips", "unit": "kinst/s"}]) == {
        "kips": {"value": 3.0, "unit": "kinst/s"}}
    with pytest.raises(StatsError, match="not measured"):
        report.select([{"name": "setup_s", "unit": "s"}])
    with pytest.raises(StatsError, match="declared"):
        report.select([{"name": "kips", "unit": "1/s"}])


# -- spans and layers ---------------------------------------------------------

def test_self_time_subtracts_child_coverage_once():
    recorder = SpanRecorder()
    recorder.spans = [
        {"id": 0, "name": "parent", "parent": None, "start": 0.0,
         "end": 10.0},
        {"id": 1, "name": "child", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "child", "parent": 0, "start": 3.0, "end": 6.0},
        {"id": 3, "name": "child", "parent": 0, "start": 9.0, "end": 12.0},
    ]
    times = recorder.self_times()
    assert times["parent"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert times["child"] == pytest.approx(9.0)


def test_spans_nest_and_carry_the_request_id():
    recorder = SpanRecorder()
    recorder.enabled = True
    recorder.request_id = "r1"
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    outer, inner = recorder.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert inner["request_id"] == "r1"
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_patched_wraps_and_restores():
    class Owner:
        @staticmethod
        def work(x):
            return x + 1

    recorder = SpanRecorder()
    recorder.enabled = True
    original = Owner.work
    with recorder.patched(Owner, "work", "work",
                          on_result=lambda rec, out: rec.update(out=out)):
        assert Owner.work(1) == 2
    assert Owner.work is original
    assert recorder.named("work")[0]["out"] == 2


def test_layer_of_maps_modules_to_layers():
    assert layer_of("repro.core.apf") == "core.apf"
    assert layer_of("repro.memory.dram") == "memory"
    assert layer_of("repro.branch.btb") == "other"


# -- host-speed normalisation -----------------------------------------------

def test_normalise_divides_by_the_local_kernel_median():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_S
    speed.samples = [ref, ref, 2 * ref, 2 * ref, 2 * ref, ref, ref]
    assert speed.normalise(1.0, 3) == pytest.approx(0.5)
    assert speed.normalise(1.0, 0) == pytest.approx(1.0)


def test_kernel_is_deterministic():
    assert hostspeed.kernel(500) == hostspeed.kernel(500)


# -- BENCHMARK.json agrees with the command ---------------------------------

def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_workloads_and_per_layer_metrics_match_the_command():
    spec = _benchmark()
    assert [w["name"] for w in spec["workloads"]] \
        == list(bench_run.WORKLOAD_MODULES)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for layer in LAYER_NAMES:
        assert declared[f"{layer}.share"] == "fraction"
    for metric in spec["end_to_end"] + spec["per_layer"]:
        check_name(metric["name"])


def test_spec_documents_every_workload_and_layer():
    spec = json.loads((BENCH / "spec.json").read_text())
    assert set(spec["workloads"]) == set(bench_run.WORKLOAD_MODULES)
    assert {entry["metric"] for entry in spec["layers"]} \
        == {metric["name"] for metric in _benchmark()["per_layer"]}
    for metric in _benchmark()["end_to_end"]:
        assert metric["name"] in spec["units"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
