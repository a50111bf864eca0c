"""A one-app workload end to end, its correctness check, and the bare-checkout refusal."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import check, spans, worker
from bench.registry import WRAP_POINTS, Workload

ROOT = Path(__file__).resolve().parents[2]
MCF = Workload("smoke-mcf", "suite", ("429.mcf",), warm=False, why="smoke test")


@pytest.fixture(scope="module")
def program():
    worker.import_program()


def test_one_app_workload_runs_traced_and_passes_its_check(program, tmp_path):
    recorder = spans.Recorder()
    restore = spans.install(WRAP_POINTS, recorder.wrap)
    try:
        result = worker.run_suite(MCF, 1, 0.0, tmp_path, recorder, probe=False)
    finally:
        restore()
    assert (result["attempted"], result["failed"], result["errors"]) == (1, 0, [])
    assert result["rounds"] == 1
    [(app, t0, t1)] = result["ops"]
    assert app == "429.mcf" and result["window"][0] <= t0 < t1 <= result["window"][1]
    start, end = result["window"]
    own = [s.as_dict() for s in recorder.spans]
    table = spans.layer_table(own)
    assert {"experiments", "frontend", "vm", "ise", "fpga.place", "core.cache.put"} <= set(table)
    assert table["vm"]["vm.instructions"] == sum(
        d["steps"] for d in check.load_expected()["429.mcf"]["datasets"].values()
    )
    assert {s["op"] for s in own} == {"0:429.mcf"}
    assert spans.unattributed(own, start, end) < 0.05 * (end - start)


def test_a_wrong_result_counts_as_a_failed_operation(program, tmp_path, monkeypatch):
    expected = check.load_expected()
    expected["429.mcf"]["datasets"]["train"]["steps"] += 1
    monkeypatch.setattr(check, "load_expected", lambda: expected)
    result = worker.run_suite(MCF, 1, 0.0, tmp_path, None, probe=False)
    assert (result["attempted"], result["failed"], result["ops"]) == (1, 1, [])
    assert "datasets.train.steps" in result["errors"][0]


def test_run_without_the_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "cold-embedded",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert "no program to measure" in done.stderr
