"""Tests for the run history the regression sentinel reads.

Covers gc compaction of pruned manifests into ``history.jsonl``, the
timeline ``collect_entries`` stitches from compacted and live runs, and
history-derived noise bands feeding the regression sentinel
(``repro regress --history N``).
"""

from __future__ import annotations

import pytest

from repro.obs.history import (
    append_history,
    collect_entries,
    derive_noise_bands,
    history_path,
    load_history,
)
from repro.obs.ledger import RunLedger, RunRecorder, prune_runs
from repro.obs.regress import compare_manifests


def _record_run(ledger: RunLedger, command: str, scalars: dict) -> str:
    recorder = RunRecorder(
        ledger=ledger,
        run_id=ledger.reserve_run(command),
        command=command,
    )
    recorder.attach_scalars(scalars)
    recorder.finalize(status=0)
    return recorder.run_id


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
        assert [e["cells"]["scalars.metric"] for e in entries] == [
            float(i) for i in range(5)
        ]

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
