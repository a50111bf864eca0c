"""The registry is well formed and BENCHMARK.json says the same thing."""

import json
import re
import sys
from pathlib import Path

from bench import registry, spans

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_and_units_are_well_formed_and_unique():
    names = [w.name for w in registry.WORKLOADS]
    names += [m.name for m in registry.END_TO_END + registry.PER_LAYER + (registry.FAILED_FRAC,)]
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    units = [m.unit for m in registry.END_TO_END + registry.PER_LAYER]
    assert all(UNIT.match(u) for u in units)


def test_benchmark_json_agrees_with_the_registry():
    spec = benchmark_json()
    assert spec["command"] == ["python3", "-m", "bench", "run"]
    assert spec["paths"] == ["bench"]
    assert spec["run_seconds"] == registry.DEFAULT_SECONDS
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in registry.WORKLOADS]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in registry.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in registry.PER_LAYER
    ]


def test_bounds_fit_the_benchmark_json_limits():
    bounds = {m.name: m.bound for m in registry.END_TO_END}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in registry.WORKLOADS)


def test_every_wrap_point_resolves_in_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        spans.resolve_all(registry.WRAP_POINTS)
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_each_pipeline_layer_has_a_wrap_point():
    layers = {p.layer for p in registry.WRAP_POINTS}
    assert set(registry.PIPELINE_LAYERS + registry.SERVE_LAYERS) == layers
