"""BENCHMARK.json and the metric tables the workloads print stay in step."""

import json
from pathlib import Path

from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.run import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


def test_workloads_match():
    assert tuple(w["name"] for w in SPEC["workloads"]) == WORKLOADS


def test_setup_bound_is_the_largest():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
