"""Tests of the kv-store benchmark itself: a tiny-size smoke run of every
workload, timed and traced, through the same code path as a full run, and
checks that every metric name and unit is well-formed and matches
``BENCHMARK.json``.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = sys.modules["perfbench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: A smoke-size round is too small for the tail percentiles; that gate, and
#: only that one, is expected to fire.
TOO_FEW_SAMPLES = "beyond it"


def _declared(section: str):
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in config[section]]


@pytest.mark.parametrize("metrics", [bench.END_TO_END, bench.PER_LAYER])
def test_metric_names_and_units_are_well_formed(metrics):
    names = [name for name, _unit in metrics]
    assert len(names) == len(set(names))
    for name, unit in metrics:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)


def test_benchmark_json_lists_every_metric_with_its_unit():
    assert _declared("end_to_end") == bench.END_TO_END
    assert _declared("per_layer") == bench.PER_LAYER
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric(workload, trace, tmp_path):
    report = bench.measure(workload, seed=3, seconds=0, trace=trace,
                           scale=0.05, spans_dir=tmp_path)
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert [(name, unit) for name, (_v, unit) in report.metrics.items()] == expected
    for name, (value, _unit) in report.metrics.items():
        assert isinstance(value, float) and math.isfinite(value), (name, value)
    assert report.attempted > 0 and report.failed == 0
    # Atomicity, completion and layer coverage all held.
    assert all(TOO_FEW_SAMPLES in problem for problem in report.problems), report.problems
    line = json.loads(report.result_line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    if trace:
        assert list(tmp_path.glob("spans-*.tsv.gz"))


def test_layer_coverage_catches_an_unexpected_layer():
    spec = bench.WORKLOADS["sim-fastread-mixed"]
    wrong = dataclasses.replace(spec, bypassed=("codec", "engine.client"))
    bench.WORKLOADS["wrong-coverage"] = wrong
    try:
        report = bench.measure("wrong-coverage", seed=3, seconds=0, trace=True, scale=0.05)
    finally:
        del bench.WORKLOADS["wrong-coverage"]
    assert any("engine.client was entered" in p for p in report.problems)
    assert any("engine.proxy was never entered" in p for p in report.problems)


def test_fast_read_condition_is_checked_before_the_run():
    spec = bench.WORKLOADS["sim-fastread-mixed"]
    assert spec.preflight() == []
    too_many_readers = dataclasses.replace(spec, clients=5)
    assert too_many_readers.preflight()


def test_percentile_and_samples_beyond():
    assert bench.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert bench.percentile([0.0, 10.0], 95) == pytest.approx(9.5)
    # Tied values: the median moves with the share of samples at each value.
    assert bench.percentile([2.5] * 20 + [2.6] * 45 + [2.7] * 35, 50) == pytest.approx(2.6167, abs=1e-4)
    assert bench.percentile([2.5] * 30 + [2.6] * 45 + [2.7] * 25, 50) == pytest.approx(2.5944, abs=1e-4)
    assert bench.samples_beyond(1000, 99) == 10
    assert bench.samples_beyond(999, 99) == 9
