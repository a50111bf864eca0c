"""The committed benchmarks: one writer, one gate check, one header."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs import bench

REPO = Path(__file__).resolve().parents[1]


def _fake(gates: dict):
    return ("repro-bench-fake/1", lambda: {"gates": gates}, lambda body: "")


@pytest.mark.parametrize(
    "argv",
    [
        ["bench-vm"],
        ["mix", "--out", "BENCH_mix.json"],
        ["loadgen", "--out", "BENCH_serve.json"],
        ["regress", "--repeat", "3"],
        ["runs", "list", "--last", "3"],
        ["critpath", "latest"],
        ["whatif", "latest", "--grid"],
        ["slo", "latest"],
        ["anomaly"],
        ["top", "--port", "1", "--once"],
        ["tail", "log.jsonl"],
        ["runs", "trend"],
        ["mix", "--policies", "lru"],
        ["serve", "--backend", "thread"],
        ["analyze", "fft", "--log", "x"],
        ["serve", "--log", "x"],
        ["analyze", "fft", "--metrics"],
        ["serve", "--metrics"],
        ["runs", "diff", "latest~1", "latest"],
        ["regress", "--history", "5"],
        ["runs", "gc", "--keep", "1", "--no-compact"],
    ],
)
def test_removed_commands_and_options_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


def test_bench_names_every_false_gate(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(
        bench,
        "benchmarks",
        lambda: {
            "vm": _fake({"drifted": False, "skipped": None, "held": True}),
            "mix": _fake({"skipped": None}),
        },
    )
    assert main(["bench", "vm"]) == 1
    err = capsys.readouterr().err
    assert "FAIL: vm gate drifted is false" in err
    assert "skipped" not in err and "held" not in err
    report = json.loads((tmp_path / "BENCH_vm.json").read_text())
    assert list(report) == ["schema", "generated", "host", "gates"]
    assert report["schema"] == "repro-bench-fake/1"

    # A null gate does not apply, so it does not fail.
    assert main(["bench", "mix"]) == 0
    # No name runs every benchmark; one false gate fails the whole run.
    (tmp_path / "BENCH_vm.json").unlink()
    assert main(["bench"]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "BENCH_mix.json",
        "BENCH_vm.json",
    ]


def test_bench_rejects_an_unknown_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(bench, "benchmarks", lambda: {"vm": _fake({})})
    assert main(["bench", "vm", "bogus"]) == 2
    assert "unknown benchmark bogus" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command,module,run,render",
    [
        ("mix", "repro.obs.bench", "run_mix_bench", "render_mix_bench"),
        ("loadgen", "repro.serve.loadgen", "run_loadgen", "render_loadgen"),
    ],
)
def test_mix_and_loadgen_fail_on_a_false_gate(
    command, module, run, render, monkeypatch, capsys
):
    body = {"gates": {"lost": False}}
    monkeypatch.setattr(f"{module}.{run}", lambda *args, **kwargs: body)
    monkeypatch.setattr(f"{module}.{render}", lambda body: "")
    assert main([command]) == 1
    assert "gate lost is false" in capsys.readouterr().err


def test_mix_and_loadgen_write_no_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(
        ["mix", "--presets", "uniform", "--slots", "4", "--events", "20"]
    ) == 0
    assert main(
        ["loadgen", "--requests", "10", "--rate", "200", "--concurrency", "4",
         "--workers", "2", "--queue-depth", "4", "--tenants", "2",
         "--mix", "adpcm=1"]
    ) == 0
    assert list(tmp_path.glob("BENCH_*.json")) == []


def test_committed_reports_share_one_header():
    """Every committed BENCH file is the current schema of its benchmark,
    opens with the common header and holds no false gate."""
    for name, (schema, _, _) in bench.benchmarks().items():
        report = json.loads((REPO / f"BENCH_{name}.json").read_text())
        assert report["schema"] == schema, name
        assert list(report)[:3] == ["schema", "generated", "host"], name
        assert set(report["host"]) == {"cpus", "python", "platform"}, name
        assert report["gates"] and False not in report["gates"].values(), name
