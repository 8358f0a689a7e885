"""Metric names, units and workloads agree with BENCHMARK.json."""

import json
import re
from pathlib import Path

import run
from spans import Tracer
from traced import layer_metrics
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_metric_names_are_valid_and_declared():
    for name in [*run.END_TO_END_UNITS, *run.PER_LAYER_UNITS]:
        assert NAME.fullmatch(name), name
    assert run.END_TO_END_UNITS == _declared("end_to_end")
    assert run.PER_LAYER_UNITS == _declared("per_layer")


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    metrics = layer_metrics(Tracer("w"), tmp_path, 1.0, 1.0, (1.0, 1), 0.0)
    assert set(metrics) == set(run.PER_LAYER_UNITS)


def test_workloads_are_declared():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
