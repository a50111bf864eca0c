"""Tests for the run ledger, the regression sentinel, and the run's trace
as its one record."""

from __future__ import annotations

import json
import shlex
from pathlib import Path

import pytest

from repro import obs
from repro.obs.export import fold_stages
from repro.obs.ledger import (
    RunLedger,
    RunRecorder,
    render_manifest,
    render_run_list,
)
from repro.obs.regress import (
    CellDelta,
    compare_manifests,
    flatten_cells,
    parse_tolerances,
)
from repro.obs.tracer import Tracer

REPO = Path(__file__).resolve().parents[1]


def _manifest(run_id="r0001-test", **overrides) -> dict:
    base = {
        "schema": "repro-run/1",
        "run_id": run_id,
        "timestamp": "2026-08-06T12:00:00+0000",
        "command": "analyze",
        "argv": ["analyze", "sor"],
        "config": {"app": "sor", "command": "analyze"},
        "git_rev": "deadbeef",
        "environment": {"python": "3.12.0"},
        "status": 0,
        "wall_seconds": 3.5,
        "measured": ["wall_seconds"],
        "stages": {
            "cad.par": {
                "label": "PAR",
                "spans": 3,
                "real_seconds": 1.25,
                "virtual_seconds": 1336.9,
                "measured": ["real_seconds"],
            },
            "search": {
                "label": None,
                "spans": 1,
                "real_seconds": 0.02,
                "virtual_seconds": 0.02,
                "measured": ["*"],
            },
            "icap.reconfigure": {
                "label": "ICAP",
                "spans": 3,
                "real_seconds": 0.0001,
                "virtual_seconds": 0.045,
                "measured": ["real_seconds"],
            },
        },
        "scalars": {
            "per_app": {
                "sor": {
                    "candidates": 3,
                    "asip_pruned_ratio": 2.35,
                    "toolflow_seconds": 2625.8,
                    "break_even_seconds": 1940.7,
                }
            },
            "aggregate": {"apps": 1, "candidates_total": 3},
        },
        "fidelity": None,
        "artifacts": {},
    }
    base.update(overrides)
    return base


class TestRunLedger:
    def test_reserve_load_and_order(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        first = ledger.reserve_run("analyze")
        second = ledger.reserve_run("fidelity check")
        assert first.startswith("r0001-analyze-")
        assert second.startswith("r0002-fidelity-check-")
        # Only finished runs (with a manifest) are listed.
        assert ledger.run_ids() == []
        for run_id in (first, second):
            with open(ledger.run_dir(run_id) / "manifest.json", "w") as fh:
                json.dump(_manifest(run_id), fh)
        assert ledger.run_ids() == [first, second]
        assert ledger.load(first)["run_id"] == first

    def test_resolve_specs(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ids = []
        for _ in range(3):
            run_id = ledger.reserve_run("analyze")
            with open(ledger.run_dir(run_id) / "manifest.json", "w") as fh:
                json.dump(_manifest(run_id), fh)
            ids.append(run_id)
        assert ledger.resolve("latest") == ids[-1]
        assert ledger.resolve("latest~1") == ids[-2]
        assert ledger.resolve("latest~2") == ids[0]
        assert ledger.resolve(ids[1]) == ids[1]
        assert ledger.resolve("r0002") == ids[1]  # unique prefix
        with pytest.raises(LookupError, match="out of range"):
            ledger.resolve("latest~3")
        with pytest.raises(LookupError, match="ambiguous"):
            ledger.resolve("r000")
        with pytest.raises(LookupError, match="unknown run"):
            ledger.resolve("r9999")

    def test_resolve_empty_ledger_mentions_recording(self, tmp_path):
        with pytest.raises(LookupError, match="--ledger"):
            RunLedger(tmp_path / "missing").resolve("latest")

    def test_recorder_writes_manifest_schema(self, tmp_path):
        tracer = Tracer()
        with tracer.span("cad.par") as sp:
            sp.set_attr("virtual_seconds", 100.0)
        recorder = obs.start_run(
            tmp_path, command="analyze", config={"app": "sor"}, argv=["analyze"]
        )
        assert obs.current_run() is recorder
        recorder.attach_scalars({"per_app": {}, "aggregate": {"apps": 0}})
        manifest_path = obs.finish_run(tracer=tracer, status=0)
        assert obs.current_run() is None
        manifest = json.loads(manifest_path.read_text())
        assert manifest["schema"] == "repro-run/1"
        for key in (
            "run_id", "timestamp", "command", "argv", "config", "git_rev",
            "environment", "status", "wall_seconds", "stages",
            "scalars", "fidelity", "artifacts",
        ):
            assert key in manifest
        assert manifest["stages"]["cad.par"]["virtual_seconds"] == 100.0
        assert manifest["artifacts"]["trace"] == "trace.jsonl"
        assert (recorder.run_dir / "trace.jsonl").is_file()

    def test_start_run_refuses_nested_runs(self, tmp_path):
        obs.start_run(tmp_path, command="analyze")
        try:
            with pytest.raises(RuntimeError, match="already active"):
                obs.start_run(tmp_path, command="analyze")
        finally:
            obs.abandon_run()

    def test_fold_stages_sums_both_clocks(self):
        tracer = Tracer()
        for seconds in (10.0, 20.0):
            with tracer.span("cad.map") as sp:
                sp.set_attr("virtual_seconds", seconds)
        with tracer.span("analysis.run"):
            pass
        stages = fold_stages(obs.tracer_records(tracer))
        assert stages["cad.map"]["spans"] == 2
        assert stages["cad.map"]["virtual_seconds"] == pytest.approx(30.0)
        assert stages["cad.map"]["label"] == "Map"
        assert stages["analysis.run"]["virtual_seconds"] is None

    def test_renderings_contain_key_cells(self):
        manifest = _manifest()
        listing = render_run_list([manifest])
        assert "r0001-test" in listing and "analyze" in listing
        shown = render_manifest(manifest)
        assert "Per-stage times" in shown
        assert "PAR [cad.par]" in shown and "1336.90 s" in shown
        assert "sor" in shown and "2.35" in shown

    def _finished_runs(self, ledger, count):
        ids = []
        for _ in range(count):
            run_id = ledger.reserve_run("analyze")
            with open(ledger.run_dir(run_id) / "manifest.json", "w") as fh:
                json.dump(_manifest(run_id), fh)
            ids.append(run_id)
        return ids

    def test_prune_keeps_newest_runs(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ids = self._finished_runs(ledger, 4)
        assert obs.prune_runs(ledger, keep=2) == ids[:2]
        assert ledger.run_ids() == ids[2:]
        assert not (ledger.run_dir(ids[0])).exists()
        # Pruning below the count is a no-op.
        assert ledger.prune(keep=5) == []

    def test_prune_accepts_a_path(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ids = self._finished_runs(ledger, 2)
        assert obs.prune_runs(tmp_path, keep=1) == ids[:1]

    def test_prune_rejects_negative_keep(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            RunLedger(tmp_path).prune(keep=-1)

    def test_prune_refuses_the_active_run(self, tmp_path):
        ledger = RunLedger(tmp_path)
        recorder = obs.start_run(tmp_path, command="analyze")
        try:
            # Give the active run a manifest so it is enumerated at all.
            with open(recorder.run_dir / "manifest.json", "w") as fh:
                json.dump(_manifest(recorder.run_id), fh)
            assert ledger.prune(keep=0) == []
            assert recorder.run_dir.exists()
        finally:
            obs.abandon_run()


class TestRegressionSentinel:
    def test_parse_tolerances(self):
        parsed = parse_tolerances(["stages.*=0.5", "wall_seconds=info"])
        assert parsed == [("stages.*", 0.5), ("wall_seconds", None)]
        for bad in ("no-equals", "=0.5", "x=abc", "x=-1"):
            with pytest.raises(ValueError):
                parse_tolerances([bad])

    def test_user_tolerances_first_match_wins(self):
        current = _manifest(run_id="r0002-test", wall_seconds=9.9)
        current["stages"]["cad.par"]["spans"] = 4
        report = compare_manifests(
            _manifest(),
            current,
            tolerances=[("stages.*", 0.5), ("*", 1e-9)],
        )
        # stages.* loosens the span count; "*" tightens the measured wall
        # clock into an exact gate.
        assert [d.cell for d in report.regressions] == ["wall_seconds"]

    def test_flatten_cells(self):
        cells = flatten_cells(_manifest())
        assert cells["wall_seconds"] == 3.5
        assert cells["stages.cad.par.virtual_seconds"] == 1336.9
        assert cells["scalars.per_app.sor.candidates"] == 3.0
        assert cells["stages.icap.reconfigure.spans"] == 3.0

    def test_identical_manifests_pass(self):
        report = compare_manifests(_manifest(), _manifest(run_id="r0002-test"))
        assert report.ok
        assert report.checked  # deterministic cells were actually gated

    def test_changed_deterministic_cell_fails_by_name(self):
        current = _manifest(run_id="r0002-test")
        current["scalars"]["per_app"]["sor"]["candidates"] = 2
        report = compare_manifests(_manifest(), current)
        assert not report.ok
        assert [d.cell for d in report.regressions] == [
            "scalars.per_app.sor.candidates"
        ]
        assert "candidates" in report.regressions[0].describe()

    def test_noisy_cells_are_informational_by_default(self):
        current = _manifest(run_id="r0002-test", wall_seconds=9.9)
        current["stages"]["search"]["real_seconds"] = 0.5
        current["stages"]["search"]["virtual_seconds"] = 0.5
        report = compare_manifests(_manifest(), current)
        assert report.ok
        # ... until an explicit tolerance tightens them into checked cells.
        report = compare_manifests(
            _manifest(), current, tolerances=[("wall_seconds", 0.01)]
        )
        assert [d.cell for d in report.regressions] == ["wall_seconds"]

    def test_disappeared_checked_cell_regresses(self):
        current = _manifest(run_id="r0002-test")
        del current["stages"]["cad.par"]
        report = compare_manifests(_manifest(), current)
        assert not report.ok
        assert any("disappeared" in d.describe() for d in report.regressions)

    def test_config_mismatch_is_reported(self):
        current = _manifest(run_id="r0002-test")
        current["config"] = {"app": "fft", "command": "analyze"}
        report = compare_manifests(_manifest(), current)
        assert any("config.app" in w for w in report.config_mismatches)

    def test_onesided_mix_block_is_demoted(self):
        baseline = _manifest()
        current = _manifest(
            run_id="r0002-test",
            mix={"events": 10, "cells": {"uniform": {"lru": {"c04": {
                "fleet_break_even_seconds": 100.0}}}}},
        )
        report = compare_manifests(baseline, current)
        assert report.ok  # appeared cells do not regress...
        assert any(
            "mix block recorded in only one" in w
            for w in report.config_mismatches
        )  # ...but the workflow difference is called out.

    @staticmethod
    def _fidelity_block(tmp_path, drift: float = 0.0, cell: str = "") -> dict:
        from repro.obs.fidelity import CellCheck, FidelityReport

        cells = [
            CellCheck("I/II", "AVG-E", "kernel_size_pct", 26.3, 25.0, "info"),
            CellCheck("II", "AVG-E", "break even [s]", 7200.0, 3350.32, "max"),
            CellCheck("IV", "0/0 vs 30/30", "factor", 2.0, 2.1, "rel", 0.10),
        ]
        for c in cells:
            if f"{c.table}/{c.row}/{c.column}" == cell:
                c.actual *= 1.0 + drift
        recorder = RunRecorder(
            ledger=RunLedger(tmp_path), run_id="r0001-test", command="fidelity"
        )
        recorder.attach_fidelity(FidelityReport("embedded", cells))
        return recorder.fidelity

    @pytest.mark.parametrize(
        "cell, drift, ok",
        [
            ("II/AVG-E/break even [s]", 1e-7, True),
            ("IV/0/0 vs 30/30/factor", 1e-7, True),
            ("II/AVG-E/break even [s]", 1e-3, False),
            ("IV/0/0 vs 30/30/factor", 1e-3, False),
            ("I/II/AVG-E/kernel_size_pct", 1e-6, False),
        ],
    )
    def test_fidelity_cells_folding_search_time_gate_at_1e4(
        self, tmp_path, cell, drift, ok
    ):
        baseline = _manifest(fidelity=self._fidelity_block(tmp_path))
        current = _manifest(
            run_id="r0002-test",
            fidelity=self._fidelity_block(tmp_path, drift, cell),
        )
        report = compare_manifests(baseline, current)
        assert [d.cell for d in report.regressions] == (
            [] if ok else [f"fidelity.{cell}.actual"]
        )

    def test_render_marks_failures(self):
        current = _manifest(run_id="r0002-test")
        current["scalars"]["per_app"]["sor"]["candidates"] = 2
        text = compare_manifests(_manifest(), current).render()
        assert "FAIL" in text and "scalars.per_app.sor.candidates" in text


class TestTraceRecord:
    def test_pipeline_spans_carry_phase_results(self, fp_kernel, monkeypatch):
        """A CAD failure leaves its message on the candidate's span, and the
        pipeline phases carry their outcomes."""
        from repro.core import JitIseSystem
        from repro.fpga.placer import PlacementError
        from repro.fpga.toolflow import CadToolFlow

        def no_room(self, candidate):
            raise PlacementError(f"no room for {candidate.key}")

        monkeypatch.setattr(CadToolFlow, "implement", no_room)
        tracer = obs.enable_tracing()
        try:
            JitIseSystem().run_application(
                fp_kernel, dataset_size=16, dataset_seed=3
            )
        finally:
            obs.disable_tracing()
        candidates = tracer.find("asip_sp.candidate")
        assert candidates
        for span in candidates:
            assert span.attrs["failed"] is True
            assert span.attrs["error"] == f"no room for {span.attrs['candidate']}"
        (specialize,) = tracer.find("pipeline.specialize")
        assert specialize.attrs == {"candidates": 0, "failed": len(candidates)}
        (adapt,) = tracer.find("pipeline.adapt")
        assert adapt.attrs["custom_instructions"] == 0
        (verify,) = tracer.find("pipeline.verify")
        assert verify.attrs["output_equal"] is True


@pytest.mark.parametrize("app", ["fft", "sor"])
def test_vm_scalars_sum_the_dataset_runs(app):
    """The per-app VM cells are the instructions and block executions of
    the app's data-set runs, each run on a freshly compiled module."""
    from repro.apps import compile_app, get_app
    from repro.experiments import analyze_app
    from repro.obs.ledger import scalars_from_analyses

    cells = scalars_from_analyses([analyze_app(app)])["per_app"][app]
    spec = get_app(app)
    runs = [compile_app(spec).run(ds) for ds in spec.datasets]
    assert cells["vm_instructions"] == sum(r.steps for r in runs) > 0
    assert cells["vm_block_executions"] == sum(
        r.profile.total_block_executions for r in runs
    )


@pytest.fixture(scope="module")
def recorded_runs(tmp_path_factory):
    """Two identical ledger-recorded CLI runs of `analyze sor`."""
    from repro.cli import main

    ledger_dir = tmp_path_factory.mktemp("ledger")
    for _ in range(2):
        assert main(["analyze", "sor", "--ledger", str(ledger_dir)]) == 0
    return ledger_dir


class TestCliEndToEnd:
    def test_self_diff_passes(self, recorded_runs):
        from repro.cli import main

        assert (
            main(
                ["regress", "--baseline", "latest~1", "--ledger",
                 str(recorded_runs)]
            )
            == 0
        )

    def test_tightened_tolerance_fails_naming_cell(
        self, recorded_runs, capsys
    ):
        from repro.cli import main

        status = main(
            ["regress", "--baseline", "latest~1", "--ledger",
             str(recorded_runs), "--tol", "stages.search.real_seconds=1e-9"]
        )
        assert status == 1
        captured = capsys.readouterr()
        assert "REGRESSION stages.search.real_seconds" in captured.err

    def test_saved_trace_carries_candidate_decisions(self, recorded_runs):
        ledger = RunLedger(recorded_runs)
        run_dir = ledger.run_dir(ledger.resolve("latest"))
        records = obs.read_jsonl(run_dir / "trace.jsonl")
        selections = [r for r in records if r.name == "search.selection"]
        assert selections
        for rec in selections:
            attrs = rec.attrs
            assert len(attrs["accepted_keys"]) == attrs["selected"] >= 1
            assert len(attrs["rejected_keys"]) == attrs["rejected"]
        # The specialization's own search decides what gets implemented.
        (run,) = [r for r in records if r.name == "asip_sp.run"]
        searches = {r.span_id for r in records if r.parent_id == run.span_id}
        (decided,) = [r for r in selections if r.parent_id in searches]
        candidates = [r for r in records if r.name == "asip_sp.candidate"]
        assert [r.attrs["candidate"] for r in candidates] == (
            decided.attrs["accepted_keys"]
        )
        for rec in candidates:
            assert {"custom_id", "size", "shared", "failed", "cached",
                    "virtual_seconds"} <= set(rec.attrs)
        reconfigurations = [r for r in records if r.name == "icap.reconfigure"]
        assert len(reconfigurations) == len(candidates)
        for rec in reconfigurations:
            assert rec.attrs["bytes"] > 0 and rec.attrs["virtual_seconds"] > 0
            assert {"custom_id", "reason"} <= set(rec.attrs)

    def test_manifest_records_scalars_and_argv(self, recorded_runs):
        ledger = RunLedger(recorded_runs)
        manifest = ledger.load(ledger.resolve("latest"))
        assert manifest["command"] == "analyze"
        assert manifest["argv"][0] == "analyze"
        assert manifest["scalars"]["per_app"]["sor"]["candidates"] >= 1
        assert manifest["stages"]["cad.par"]["virtual_seconds"] > 0

    def test_runs_list_show_and_diff(self, recorded_runs, capsys):
        from repro.cli import main

        assert main(["runs", "list", "--ledger", str(recorded_runs)]) == 0
        assert "analyze" in capsys.readouterr().out
        assert main(
            ["runs", "show", "latest", "--ledger", str(recorded_runs)]
        ) == 0
        assert "Per-stage times" in capsys.readouterr().out
        assert main(
            ["regress", "--baseline", "latest~1", "--candidate", "latest",
             "--ledger", str(recorded_runs)]
        ) == 0

    def test_runs_list_empty_ledger_is_clean(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["runs", "list", "--ledger", str(tmp_path / "none")]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_runs_gc_keeps_newest(self, tmp_path, capsys):
        from repro.cli import main

        ledger = RunLedger(tmp_path)
        ids = []
        for _ in range(3):
            run_id = ledger.reserve_run("analyze")
            with open(ledger.run_dir(run_id) / "manifest.json", "w") as fh:
                json.dump(_manifest(run_id), fh)
            ids.append(run_id)
        assert main(["runs", "gc", "--keep", "1", "--ledger", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "removed 2 run(s)" in out
        assert ledger.run_ids() == ids[-1:]
        assert main(["runs", "gc", "--keep", "1", "--ledger", str(tmp_path)]) == 0
        assert "nothing to remove" in capsys.readouterr().out
        assert main(["runs", "gc", "--keep", "-1", "--ledger", str(tmp_path)]) == 2

    def test_unknown_baseline_is_an_error(self, recorded_runs, capsys):
        from repro.cli import main

        status = main(
            ["regress", "--baseline", "r9999", "--ledger", str(recorded_runs)]
        )
        assert status == 2
        assert "unknown run" in capsys.readouterr().err


def _makefile_regress_legs() -> list[list[str]]:
    """The ``repro regress`` arguments of every Makefile regression leg."""
    return [
        shlex.split(line.split("-m repro ", 1)[1])
        for line in (REPO / "Makefile").read_text().splitlines()
        if "-m repro regress" in line
    ]


class TestRegressGatesOneClock:
    """``regress`` gates deterministic cells; host-clock cells are info."""

    @staticmethod
    def _record(ledger: RunLedger, search_ms: float, candidates: float) -> None:
        recorder = RunRecorder(
            ledger=ledger, run_id=ledger.reserve_run("demo"), command="demo"
        )
        recorder.attach_scalars(
            {
                "search_ms": search_ms,
                "candidates": candidates,
                "measured": ["search_ms"],
            }
        )
        recorder.finalize(status=0)

    def test_measured_jitter_is_info_and_exact_drift_fails(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        ledger = RunLedger(tmp_path)
        # The measured scalar jitters by +/-50 % from run to run.
        for search_ms in (10.0, 15.0, 10.0, 5.0, 10.0):
            self._record(ledger, search_ms, candidates=7.0)
        legs = _makefile_regress_legs()
        assert len(legs) == 4
        for argv in legs:
            assert main([*argv, "--ledger", str(tmp_path)]) == 0
            (row,) = [
                line
                for line in capsys.readouterr().out.splitlines()
                if line.startswith("scalars.search_ms ")
            ]
            assert row.split()[-2:] == ["info", "info"]

        self._record(ledger, 10.0, candidates=7.0 * (1.0 + 1e-8))
        assert main(["regress", "--ledger", str(tmp_path)]) == 1
        assert "REGRESSION scalars.candidates" in capsys.readouterr().err
