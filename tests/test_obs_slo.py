"""Tests for the SLO engine, fleet history, and anomaly detection.

Covers the serving-era observability layer over Section VI's break-even
framing: declarative error-budget objectives with Google-SRE multi-window
burn-rate alerts (``repro slo``), gc compaction of pruned manifests into
``history.jsonl``, per-cell fleet time series with robust median+MAD
changepoint detection (``repro anomaly`` / ``repro runs trend``), and
history-derived noise bands feeding the regression sentinel
(``repro regress --history N``).
"""

from __future__ import annotations

import json

import pytest

from repro.obs.history import (
    append_history,
    build_series,
    collect_entries,
    derive_noise_bands,
    detect_anomalies,
    history_path,
    load_history,
)
from repro.obs.ledger import RunLedger, RunRecorder, prune_runs
from repro.obs.regress import compare_manifests
from repro.obs.slo import (
    apply_objective_spec,
    default_objectives,
    evaluate,
    write_alerts,
)

TRACE_ID = "deadbeef" * 4


def _request_record(
    t: float,
    status: str = "ok",
    be: float | None = 100.0,
    candidates: int = 2,
    cache_hits: int = 2,
    shared: int = 0,
) -> dict:
    """One requests.jsonl row as the daemon's accounting writes it."""
    ok = status == "ok"
    return {
        "t_offset": float(t),
        "tenant": "acme",
        "app": "adpcm",
        "request_id": f"r{int(t):04d}",
        "status": status,
        "queue_wait_ms": 1.0,
        "service_ms": 5.0,
        "break_even_seconds": be if ok else None,
        "candidates": candidates if ok else None,
        "cache_hits": cache_hits if ok else None,
        "shared": shared if ok else None,
        "error": None if ok else "boom",
        "trace_id": TRACE_ID,
        "span_id": 7,
    }


def _record_run(ledger: RunLedger, command: str, scalars: dict) -> str:
    recorder = RunRecorder(
        ledger=ledger,
        run_id=ledger.reserve_run(command),
        command=command,
    )
    recorder.attach_scalars(scalars)
    recorder.finalize(status=0)
    return recorder.run_id


class TestSloEvaluate:
    def test_healthy_stream_keeps_all_budgets(self):
        records = [_request_record(float(i)) for i in range(20)]
        report = evaluate(records)
        summary = report.summary()
        assert set(summary) == {
            "break_even_p95",
            "queue_reject_rate",
            "dedup_efficiency",
            "error_rate",
        }
        assert not report.breached
        assert report.alerts == []
        for row in summary.values():
            assert row["budget_remaining_pct"] == 100.0
            assert row["bad"] == 0
            assert row["alert"] is None
        assert summary["error_rate"]["good"] == 20

    def test_tight_break_even_bound_pages_with_trace_correlation(self):
        # Every completed request misses a deliberately impossible bound:
        # bad fraction 1.0 against a 5% budget burns at 20x on both
        # windows, above the 14.4x page threshold.
        records = [_request_record(float(i), be=500.0) for i in range(20)]
        report = evaluate(records, default_objectives(break_even_threshold=1e-6))
        status = {r.objective.name: r for r in report.results}
        be = status["break_even_p95"]
        assert be.breached
        assert be.burn_fast >= 14.4 and be.burn_slow >= 14.4
        assert be.budget_remaining is not None and be.budget_remaining <= 0.0
        alert = be.alert
        assert alert["kind"] == "fast_burn"
        assert alert["severity"] == "page"
        # The alert resolves against the stitched trace of the offender.
        assert alert["trace_id"] == TRACE_ID
        assert alert["span_id"] == 7
        assert alert["request_id"] == "r0019"
        # The other objectives are unaffected by the tightened bound.
        assert status["error_rate"].alert is None
        assert not status["error_rate"].breached

    def test_old_failures_ticket_slow_burn_without_paging(self):
        # 10 failures early in the run (outside the 60s fast window at
        # evaluation time) plus a clean recent stretch: the slow window
        # burns at ~16x (ticket) but the fast window is quiet (no page).
        records = [
            _request_record(float(i), status="failed" if i < 10 else "ok")
            for i in range(40)
        ]
        records += [_request_record(220.0 + i) for i in range(20)]
        report = evaluate(records)
        status = {r.objective.name: r for r in report.results}
        err = status["error_rate"]
        assert err.burn_fast < 14.4
        assert err.burn_slow >= 6.0
        assert err.alert["kind"] == "slow_burn"
        assert err.alert["severity"] == "ticket"

    def test_empty_stream_is_not_applicable(self):
        report = evaluate([])
        for r in report.results:
            assert r.total == 0
            assert r.budget_remaining is None
            assert r.alert is None
        assert not report.breached


class TestObjectiveSpecs:
    def test_override_keeps_other_fields(self):
        objectives = default_objectives()
        updated = apply_objective_spec(objectives, "error_rate:target=0.5")
        assert len(updated) == len(objectives)
        (err,) = [o for o in updated if o.name == "error_rate"]
        assert err.target == 0.5
        assert err.good == "completed"  # untouched

    def test_new_objective_needs_classifier_and_target(self):
        objectives = default_objectives()
        added = apply_objective_spec(
            objectives, "strict_be:good=break_even_under,target=0.9,threshold=60"
        )
        assert len(added) == len(objectives) + 1
        assert added[-1].name == "strict_be"
        assert added[-1].threshold == 60.0
        with pytest.raises(ValueError):
            apply_objective_spec(objectives, "bare:target=0.5")
        with pytest.raises(ValueError):
            apply_objective_spec(objectives, "bad:good=nope,target=0.5")
        with pytest.raises(ValueError):
            apply_objective_spec(objectives, ":target=0.5")
        with pytest.raises(ValueError):
            apply_objective_spec(objectives, "error_rate:bogus=1")

    def test_write_alerts_appends_and_stamps(self, tmp_path):
        path = tmp_path / "alerts.jsonl"
        write_alerts(path, [{"objective": "a", "kind": "fast_burn"}], "r0001-x")
        write_alerts(path, [{"objective": "b", "kind": "slow_burn"}], "r0002-y")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["run_id"] for r in rows] == ["r0001-x", "r0002-y"]
        assert [r["objective"] for r in rows] == ["a", "b"]
        assert all(isinstance(r["ts"], float) for r in rows)


class TestSloCli:
    def _loadgen_run(self, ledger: RunLedger, records: list[dict]) -> str:
        recorder = RunRecorder(
            ledger=ledger,
            run_id=ledger.reserve_run("loadgen"),
            command="loadgen",
        )
        with open(recorder.run_dir / "requests.jsonl", "w") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        recorder.finalize(status=0)
        return recorder.run_id

    def test_slo_reports_attaches_and_breaches(self, tmp_path, capsys):
        from repro.cli import main

        ledger = RunLedger(tmp_path / "ledger")
        records = [_request_record(float(i)) for i in range(20)]
        run_id = self._loadgen_run(ledger, records)
        ledger_args = ["--ledger", str(ledger.path)]

        assert main(["slo", "latest", *ledger_args]) == 0
        out = capsys.readouterr().out
        assert "SLO evaluation" in out
        for name in ("break_even_p95", "queue_reject_rate", "error_rate"):
            assert name in out
        # The summary block landed on the manifest (regress sees slo.*).
        manifest = ledger.load(run_id)
        assert manifest["slo"]["error_rate"]["budget_remaining_pct"] == 100.0

        # A deliberately breached bound exits 1 and appends a page alert.
        assert (
            main(["slo", "latest", "--break-even-threshold", "1e-6", *ledger_args])
            == 1
        )
        captured = capsys.readouterr()
        assert "BREACHED" in captured.err
        alerts_file = ledger.run_dir(run_id) / "alerts.jsonl"
        alerts = [
            json.loads(line) for line in alerts_file.read_text().splitlines()
        ]
        assert any(
            a["kind"] == "fast_burn" and a["run_id"] == run_id for a in alerts
        )

    def test_slo_without_requests_errors(self, tmp_path, capsys):
        from repro.cli import main

        ledger = RunLedger(tmp_path / "ledger")
        _record_run(ledger, "demo", {"metric": 1.0})
        assert main(["slo", "latest", "--ledger", str(ledger.path)]) == 2
        assert "requests.jsonl" in capsys.readouterr().err


class TestHistoryCompaction:
    def test_gc_compacts_pruned_manifests(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        ids = [
            _record_run(ledger, "demo", {"metric": float(i)}) for i in range(5)
        ]
        removed = prune_runs(ledger, keep=2)
        assert removed == ids[:3]
        compacted = load_history(ledger)
        assert [e["run_id"] for e in compacted] == ids[:3]
        assert compacted[0]["cells"]["scalars.metric"] == 0.0
        # collect_entries stitches compacted + live back into one timeline.
        entries = collect_entries(ledger)
        assert [e["run_id"] for e in entries] == ids
        series = build_series(entries, ["scalars.metric"])
        assert series == {
            "scalars.metric": [(ids[i], float(i)) for i in range(5)]
        }

    def test_gc_cli_reports_compaction_and_no_compact_skips(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        ledger = RunLedger(tmp_path / "ledger")
        for i in range(4):
            _record_run(ledger, "demo", {"metric": float(i)})
        args = ["--ledger", str(ledger.path)]
        assert main(["runs", "gc", "--keep", "3", "--no-compact", *args]) == 0
        assert not history_path(ledger).exists()
        assert main(["runs", "gc", "--keep", "1", *args]) == 0
        out = capsys.readouterr().out
        assert "compacted 2 manifest(s)" in out
        assert history_path(ledger).is_file()
        assert len(load_history(ledger)) == 2

    def test_live_manifest_wins_over_stale_history_entry(self, tmp_path):
        ledger = RunLedger(tmp_path / "ledger")
        run_id = _record_run(ledger, "demo", {"metric": 1.0})
        stale = dict(ledger.load(run_id))
        stale["scalars"] = {"metric": 999.0}
        append_history(ledger, [stale])
        # An interrupted prune must not double-count or shadow the run.
        entries = collect_entries(ledger)
        assert len(entries) == 1
        assert entries[0]["cells"]["scalars.metric"] == 1.0


class TestAnomalyDetection:
    def test_seeded_regression_flags_exactly_one_cell(self):
        runs = [f"r{i:04d}" for i in range(6)]
        series = {
            # Ordinary measurement jitter around a stable level: quiet.
            "serve.latency.p95": list(
                zip(runs, [100.0, 100.4, 99.6, 100.2, 99.8, 100.05])
            ),
            # Seeded regression: a 50% level shift in the newest run.
            "serve.latency.p50": list(
                zip(runs, [50.0, 50.2, 49.8, 50.1, 49.9, 75.0])
            ),
            # Deterministic virtual-clock cell, bit-identical: quiet.
            "scalars.break_even": list(zip(runs, [3.25] * 6)),
        }
        anomalies = detect_anomalies(series)
        assert [a.cell for a in anomalies] == ["serve.latency.p50"]
        (a,) = anomalies
        assert a.run_id == "r0005"
        assert a.baseline_median == pytest.approx(50.0)
        assert a.rel_change == pytest.approx(0.5)
        assert a.zscore > 4.0
        assert "serve.latency.p50" in a.describe()

    def test_constant_cell_shift_flags_with_infinite_z(self):
        runs = [f"r{i:04d}" for i in range(6)]
        series = {
            # A historically bit-identical cell that moves at all IS the
            # regression, however small the move (MAD = 0 branch).
            "scalars.break_even": list(zip(runs, [3.25] * 5 + [3.3]))
        }
        (a,) = detect_anomalies(series)
        assert a.zscore == float("inf")
        assert a.mad == 0.0
        assert "inf" in a.describe()

    def test_short_history_is_never_judged(self):
        series = {"cell": [(f"r{i}", v) for i, v in enumerate([1.0, 1.0, 9.0])]}
        assert detect_anomalies(series) == []

    def test_anomaly_cli_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        ledger = RunLedger(tmp_path / "ledger")
        for value in (50.0, 50.2, 49.8, 50.1, 49.9):
            _record_run(ledger, "demo", {"search_ms": value})
        args = ["--ledger", str(ledger.path), "--cells", "scalars.*"]

        # Five stable runs: quiet, exit 0.
        assert main(["anomaly", *args]) == 0
        assert "no anomalies across 5 run(s)" in capsys.readouterr().out

        # A sixth run with a seeded 60% regression: exactly one cell
        # flagged, exit 1, JSON report written.
        regressed = _record_run(ledger, "demo", {"search_ms": 80.0})
        out_file = tmp_path / "anomalies.json"
        assert main(["anomaly", *args, "--out", str(out_file)]) == 1
        out = capsys.readouterr().out
        assert "1 anomalous cell(s) across 6 run(s)" in out
        assert "scalars.search_ms" in out and regressed in out
        payload = json.loads(out_file.read_text())
        assert payload["schema"] == "repro-anomaly/1"
        (flagged,) = payload["anomalies"]
        assert flagged["cell"] == "scalars.search_ms"
        assert flagged["run_id"] == regressed
        assert flagged["zscore"] is not None  # finite z serializes as-is

    def test_trend_cli_writes_report(self, tmp_path, capsys):
        from repro.cli import main

        ledger = RunLedger(tmp_path / "ledger")
        for value in (50.0, 50.2, 49.8):
            _record_run(ledger, "demo", {"search_ms": value})
        out_file = tmp_path / "trend.json"
        assert (
            main(
                [
                    "runs",
                    "trend",
                    "--ledger",
                    str(ledger.path),
                    "--cells",
                    "scalars.*",
                    "--out",
                    str(out_file),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "scalars.search_ms" in out
        report = json.loads(out_file.read_text())
        assert report["schema"] == "repro-trend/1"
        cell = report["cells"]["scalars.search_ms"]
        assert cell["n"] == 3
        assert cell["values"] == [50.0, 50.2, 49.8]


class TestHistoryNoiseBands:
    def _entries(self, walls: list[float]) -> list[dict]:
        return [
            {
                "run_id": f"r{i:04d}",
                "command": "demo",
                "cells": {
                    "wall_seconds": wall,
                    "scalars.break_even_model": 3.25,
                    "scalars.candidates": 7.0,
                },
            }
            for i, wall in enumerate(walls)
        ]

    def _manifest(
        self, wall: float, be_model: float = 3.25, candidates: int = 7
    ) -> dict:
        return {
            "schema": "repro-run/1",
            "run_id": "r0001-demo",
            "command": "demo",
            "config": {"command": "demo"},
            "status": 0,
            "wall_seconds": wall,
            "measured": ["wall_seconds"],
            "scalars": {
                "break_even_model": be_model,
                "candidates": candidates,
                "tolerance": {"break_even_model": 1e-4},
            },
        }

    def test_bands_cover_only_measured_cells(self):
        bands = derive_noise_bands(self._entries([10.0, 10.2, 9.8, 10.1]))
        # Every cell with enough history gets a band ...
        assert set(bands) == {
            "wall_seconds", "scalars.break_even_model", "scalars.candidates"
        }
        # ... but only the measured one is promoted by it.
        report = compare_manifests(
            self._manifest(10.0), self._manifest(10.0), noise_bands=bands
        )
        assert report.noise_banded == ["wall_seconds"]
        band = bands["wall_seconds"]
        assert band["samples"] == 4
        assert band["median"] == pytest.approx(10.05)
        assert band["mad"] == pytest.approx(0.1)
        # Too few samples: no band at all.
        assert derive_noise_bands(self._entries([10.0, 10.2])) == {}

    def test_bands_gate_measured_cells_without_touching_exact_gates(self):
        bands = derive_noise_bands(self._entries([10.0, 10.2, 9.8, 10.1]))
        baseline = self._manifest(10.0)
        # Within the band (allowance = 5% * 10.0 + 3 * 0.1 = 0.8): passes,
        # and the cell is reported as promoted by a noise band.
        ok = compare_manifests(baseline, self._manifest(10.5), noise_bands=bands)
        assert ok.ok
        assert "wall_seconds" in ok.noise_banded
        # Outside the band: the previously-informational cell now fails.
        bad = compare_manifests(
            baseline, self._manifest(11.5), noise_bands=bands
        )
        assert not bad.ok
        assert [d.cell for d in bad.regressions] == ["wall_seconds"]
        # Deterministic cells keep their own (exact) gates, unaffected by
        # the bands: a drifted modelled break-even fails via its stock
        # tolerance and is never listed as noise-banded.
        drift = compare_manifests(
            baseline, self._manifest(10.0, be_model=3.3), noise_bands=bands
        )
        assert not drift.ok
        assert [d.cell for d in drift.regressions] == [
            "scalars.break_even_model"
        ]
        assert "scalars.break_even_model" not in drift.noise_banded
        drift = compare_manifests(
            baseline, self._manifest(10.0, candidates=8), noise_bands=bands
        )
        assert [d.cell for d in drift.regressions] == ["scalars.candidates"]
        assert drift.noise_banded == ["wall_seconds"]

    def test_regress_cli_history_flag(self, tmp_path, capsys):
        from repro.cli import main

        ledger = RunLedger(tmp_path / "ledger")
        for value in (50.0, 50.2, 49.8, 50.1, 50.05):
            _record_run(
                ledger, "demo", {"search_ms": value, "measured": ["search_ms"]}
            )
        # The recorder's real wall clock is microsecond noise; pin it to a
        # huge numeric tolerance so only the scalar under test is judged.
        args = [
            "--ledger",
            str(ledger.path),
            "--tol",
            "wall_seconds=1000",
            "--history",
            "6",
        ]
        # The newest run sits inside the fleet band: passes, and the
        # measured scalar was promoted to a checked cell.
        assert main(["regress", *args]) == 0
        out = capsys.readouterr().out
        assert "gated by history-derived noise bands" in out
        # A seeded 20% regression breaks out of the band: exit 1.
        _record_run(
            ledger, "demo", {"search_ms": 60.0, "measured": ["search_ms"]}
        )
        assert main(["regress", *args]) == 1
        err = capsys.readouterr().err
        assert "scalars.search_ms" in err
