"""Tests for the critical-path analyzer and the what-if replay engine:

- :mod:`repro.obs.critpath` — trace -> specialization DAG (Figure 2), CPM
  on both clocks, Table III constant-stage summary, break-even headroom;
- :mod:`repro.obs.whatif` — knob validation, cache/speedup/worker replay,
  Table IV grid regeneration with the analytic cross-check.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.obs.critpath import (
    RunReplay,
    STAGE_KEYS,
    analyze_critical_path,
    critpath_block,
    render_critical_path,
    render_table3_summary,
    table3_summary,
)
from repro.obs.export import SpanRecord
from repro.obs.ledger import RunLedger
from repro.obs.whatif import (
    WhatIfKnobs,
    app_overhead_seconds,
    candidate_chain_seconds,
    check_grids,
    whatif_break_even,
)


def rec(name, sid, parent, t0, t1, **attrs):
    return SpanRecord(
        name=name, span_id=sid, parent_id=parent, t0=t0, t1=t1, attrs=attrs
    )


#: Virtual stage split of the fully observed candidate (sums to 70).
STAGE_SPLIT = {
    "cad.c2v": 2.0,
    "cad.syntax": 3.0,
    "cad.synthesis": 5.0,
    "cad.translate": 4.0,
    "cad.map": 6.0,
    "cad.par": 10.0,
    "cad.bitgen": 40.0,
}


def _hand_built_trace():
    """One app, three candidates: observed, shared (no stage spans), failed.

    Known CPM facts on the virtual clock (Figure 2 DAG):

    - serial schedule = 5 (search) + 70 + 0.5 (c0) + 35 + 0.5 (c1) = 111
    - unbounded-worker makespan = 5 + 70 + 0.5 (c0 chain) + 0.5 (c1's
      ICAP serialized after c0's) = 76
    - the critical path runs search -> c0's seven stages -> both ICAPs.
    """
    records = [
        rec("analysis.run", 1, None, 0.0, 100.0, app="alpha"),
        rec("asip_sp.run", 2, 1, 0.0, 100.0, module="alpha"),
        rec("search", 3, 2, 0.0, 10.0, virtual_seconds=5.0),
        rec(
            "asip_sp.candidate", 4, 2, 10.0, 50.0,
            candidate="k0", custom_id=0, virtual_seconds=70.0,
        ),
        rec("cad.implement", 5, 4, 10.0, 45.0, candidate="k0"),
    ]
    sid = 6
    t = 10.0
    for name, virt in STAGE_SPLIT.items():
        records.append(
            rec(name, sid, 5, t, t + 1.0, virtual_seconds=virt)
        )
        sid += 1
        t += 1.0
    records += [
        rec("icap.reconfigure", 13, 4, 49.0, 49.0, virtual_seconds=0.5),
        rec(
            "asip_sp.candidate", 14, 2, 50.0, 52.0,
            candidate="k1", custom_id=1, shared=True, virtual_seconds=35.0,
        ),
        rec("icap.reconfigure", 15, 14, 52.0, 52.0, virtual_seconds=0.5),
        rec(
            "asip_sp.candidate", 16, 2, 52.0, 53.0,
            candidate="k2", custom_id=2, failed=True,
        ),
    ]
    return records


@pytest.fixture
def replay():
    return RunReplay.from_records(_hand_built_trace())


class TestRunReplay:
    def test_reconstruction(self, replay):
        assert replay.app_names == ["alpha"]
        app = replay.apps[0]
        assert app.search_virtual == pytest.approx(5.0)
        assert app.search_real == pytest.approx(10.0)
        assert app.failed == 1
        assert [c.custom_id for c in app.candidates] == [0, 1]
        c0, c1 = app.candidates
        assert c0.virtual_total == pytest.approx(70.0)
        assert not c0.split_estimated
        assert c0.stage_virtual["bitgen"] == pytest.approx(40.0)
        assert c1.shared and not c0.shared
        assert app.overhead_virtual == pytest.approx(111.0)

    def test_shared_candidate_split_is_backfilled(self, replay):
        c1 = replay.apps[0].candidates[1]
        assert c1.split_estimated
        # Backfilled from c0's shares: bitgen = 40/70 * 35.
        assert c1.stage_virtual["bitgen"] == pytest.approx(20.0)
        assert sum(c1.stage_virtual.values()) == pytest.approx(35.0)
        assert all(v == 0.0 for v in c1.stage_real.values())

    def test_reparented_implement_span_still_matches(self):
        # Traces recorded by the former jobs>1 CAD prefetch parent
        # cad.implement under asip_sp.run; the split must still attach to
        # the candidate via the key attribute.
        records = [
            r if r.span_id != 5 else
            rec("cad.implement", 5, 2, 10.0, 45.0, candidate="k0")
            for r in _hand_built_trace()
        ]
        replay = RunReplay.from_records(records)
        c0 = replay.apps[0].candidates[0]
        assert not c0.split_estimated
        assert c0.stage_virtual["bitgen"] == pytest.approx(40.0)

    def test_empty_trace(self):
        assert RunReplay.from_records([]).apps == []


class TestCriticalPath:
    def test_known_path_virtual(self, replay):
        analysis = analyze_critical_path(replay, "virtual")
        assert analysis.serial_seconds == pytest.approx(111.0)
        assert analysis.makespan == pytest.approx(76.0)
        labels = [n.label for n in analysis.path]
        assert labels[0] == "alpha:Search"
        assert labels[-2:] == ["alpha:c0:ICAP", "alpha:c1:ICAP"]
        # The whole c0 stage chain is on the path; c1's chain is not.
        assert "alpha:c0:Bitgen" in labels
        assert "alpha:c1:Bitgen" not in labels
        assert analysis.dominant_stage == "bitgen"
        assert analysis.path_seconds == pytest.approx(76.0)

    def test_slack_of_off_path_chain(self, replay):
        analysis = analyze_critical_path(replay, "virtual")
        by_label = {n.label: n for n in analysis.nodes}
        # c1's chain finishes at 40 but only gates its ICAP at 75.5.
        assert by_label["alpha:c1:Bitgen"].slack == pytest.approx(35.5)
        assert by_label["alpha:c0:Bitgen"].slack == pytest.approx(0.0)
        summary = analysis.stage_summary()
        assert summary["bitgen"]["total"] == pytest.approx(60.0)
        assert summary["bitgen"]["on_path"] == 1
        assert summary["icap"]["on_path"] == 2

    def test_real_clock_uses_measured_durations(self, replay):
        analysis = analyze_critical_path(replay, "real")
        # Search is the heaviest real node (10 s measured).
        assert analysis.dominant_stage == "search"
        with pytest.raises(ValueError, match="unknown clock"):
            analyze_critical_path(replay, "cpu")

    def test_render_names_makespan_and_dominant(self, replay):
        text = render_critical_path(analyze_critical_path(replay, "virtual"))
        assert "unbounded CAD workers" in text
        assert "dominated by Bitgen" in text
        assert "Per-stage slack (virtual clock)" in text

    def test_table3_summary_covers_constant_stages_only(self, replay):
        summary = table3_summary(replay)
        # Only the observed chain counts; constant = 2+3+5+4+40.
        assert summary["candidates"] == 1
        assert summary["constant_sum"] == pytest.approx(54.0)
        assert summary["dominant"] == "bitgen"
        assert summary["bitgen_share"] == pytest.approx(40.0 / 54.0)
        assert "Bitgen-dominated" in render_table3_summary(summary)

    def test_table3_summary_none_without_observed_chains(self):
        assert table3_summary(RunReplay()) is None

    def test_block_shape(self, replay):
        virtual = analyze_critical_path(replay, "virtual")
        real = analyze_critical_path(replay, "real")
        block = critpath_block(virtual, real, table3=table3_summary(replay))
        assert block["virtual"]["makespan"] == pytest.approx(76.0)
        assert block["virtual"]["dominant_stage"] == "bitgen"
        assert set(block["virtual"]["stages"]) >= set(STAGE_KEYS)
        assert block["table3"]["bitgen_share"] == pytest.approx(40.0 / 54.0)
        json.dumps(block)  # must be manifest-serializable


class TestWhatIfKnobs:
    def test_validation(self):
        with pytest.raises(ValueError, match="cache hit"):
            WhatIfKnobs(cache_hit_pct=101.0)
        with pytest.raises(ValueError, match="unknown CAD stage"):
            WhatIfKnobs(stage_speedup_pct=(("bogus", 10.0),))
        with pytest.raises(ValueError, match="workers"):
            WhatIfKnobs(workers=0)
        assert "2 workers" in WhatIfKnobs(workers=2).describe()

    def test_chain_seconds_under_speedups(self, replay):
        c0 = replay.apps[0].candidates[0]
        assert candidate_chain_seconds(c0, WhatIfKnobs()) == pytest.approx(70.0)
        assert candidate_chain_seconds(
            c0, WhatIfKnobs(cad_speedup_pct=50.0)
        ) == pytest.approx(35.0)
        # Halving only Bitgen removes 20 of its 40 seconds.
        assert candidate_chain_seconds(
            c0, WhatIfKnobs(stage_speedup_pct=(("bitgen", 50.0),))
        ) == pytest.approx(50.0)


class TestWhatIfReplay:
    def test_identity_point_matches_recorded_overhead(self, replay):
        app = replay.apps[0]
        neutral = app_overhead_seconds(app, WhatIfKnobs())
        assert neutral == pytest.approx(app.overhead_virtual)
        assert neutral == pytest.approx(111.0)

    def test_workers_overlap_candidate_chains(self, replay):
        app = replay.apps[0]
        # Two workers run the 70 s and 35 s chains concurrently.
        assert app_overhead_seconds(
            app, WhatIfKnobs(workers=2)
        ) == pytest.approx(5.0 + 70.0 + 1.0)

    def test_full_cache_removes_every_chain(self, replay):
        app = replay.apps[0]
        assert app_overhead_seconds(
            app, WhatIfKnobs(cache_hit_pct=100.0)
        ) == pytest.approx(5.0 + 1.0)

    def test_partial_cache_is_bounded_by_extremes(self, replay):
        app = replay.apps[0]
        partial = app_overhead_seconds(app, WhatIfKnobs(cache_hit_pct=50.0))
        assert 6.0 <= partial <= 111.0


@pytest.fixture(scope="module")
def fft_run(tmp_path_factory):
    """One ledger-recorded `analyze fft` run plus its replay and inputs."""
    from repro.cli import main
    from repro.obs.export import read_jsonl
    from repro.obs.whatif import breakeven_inputs

    ledger_dir = tmp_path_factory.mktemp("ledger")
    assert main(["analyze", "fft", "--ledger", str(ledger_dir)]) == 0
    ledger = RunLedger(ledger_dir)
    run_dir = ledger.run_dir(ledger.resolve("latest"))
    records = read_jsonl(run_dir / "trace.jsonl")
    replay = RunReplay.from_records(records)
    return {
        "ledger_dir": ledger_dir,
        "ledger": ledger,
        "replay": replay,
        "inputs": breakeven_inputs(replay.app_names),
    }


class TestRecordedRunWhatIf:
    def test_identity_reproduces_recorded_break_even(self, fft_run):
        manifest = fft_run["ledger"].load(fft_run["ledger"].resolve("latest"))
        recorded = manifest["scalars"]["per_app"]["fft"]["break_even_seconds"]
        result = whatif_break_even(
            fft_run["replay"], fft_run["inputs"], WhatIfKnobs()
        )
        assert len(result.apps) == 1
        assert result.apps[0].break_even == pytest.approx(recorded, rel=1e-5)
        assert result.apps[0].overhead == pytest.approx(
            fft_run["replay"].apps[0].overhead_virtual
        )

    def test_grid_matches_analytic_within_tolerance(self, fft_run):
        from repro.obs.whatif import analytic_grid, whatif_grid

        trace = whatif_grid(fft_run["replay"], fft_run["inputs"])
        analytic = analytic_grid(fft_run["inputs"])
        check = check_grids(trace, analytic, tolerance=0.05)
        assert len(check.cells) == 40
        assert check.ok, [c.key for c in check.flagged]
        # The 1-worker uniform-speedup replay shares the analytic cache
        # protocol bit for bit, so agreement is far tighter than 5%.
        assert max(c.rel_error for c in check.cells) < 1e-3

    def test_axis_mismatch_rejected(self, fft_run):
        from repro.obs.whatif import analytic_grid, whatif_grid

        trace = whatif_grid(
            fft_run["replay"], fft_run["inputs"], hit_rates=[0, 50]
        )
        analytic = analytic_grid(fft_run["inputs"], hit_rates=[0, 90])
        with pytest.raises(ValueError, match="different axes"):
            check_grids(trace, analytic)

    def test_headroom_baseline_matches_recorded(self, fft_run):
        from repro.obs.critpath import headroom_table

        manifest = fft_run["ledger"].load(fft_run["ledger"].resolve("latest"))
        recorded = manifest["scalars"]["per_app"]["fft"]["break_even_seconds"]
        table = headroom_table(fft_run["replay"], fft_run["inputs"])
        assert table.baseline_break_even == pytest.approx(recorded, rel=1e-5)
        bitgen = table.rows["bitgen"]
        # A faster Bitgen can only lower (or hold) break-even, and an
        # infinite speedup is at least as good as any finite one.
        assert bitgen["break_even"]["2x"] <= table.baseline_break_even
        assert bitgen["break_even"]["inf"] <= bitgen["break_even"]["2x"]
        assert "Break-even headroom" in table.render()


class TestCliEndToEnd:
    def test_critpath_latest_names_bitgen_dominance(self, fft_run, capsys):
        from repro.cli import main

        status = main(
            ["critpath", "latest", "--ledger", str(fft_run["ledger_dir"])]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "critical path (virtual clock)" in out
        # Table III consistency line (constant stages, ~85% Bitgen).
        assert "Bitgen-dominated" in out
        assert "Break-even headroom" in out
        manifest = fft_run["ledger"].load(fft_run["ledger"].resolve("latest"))
        block = manifest["critpath"]
        assert block["table3"]["bitgen_share"] == pytest.approx(0.85, abs=0.02)
        assert block["virtual"]["makespan"] <= block["virtual"]["serial_seconds"]

    def test_whatif_grid_cli_attaches_block(self, fft_run, capsys, tmp_path):
        from repro.cli import main

        out_path = tmp_path / "grid.json"
        status = main(
            [
                "whatif", "latest", "--grid",
                "--out", str(out_path),
                "--ledger", str(fft_run["ledger_dir"]),
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "identity check: replayed baseline matches" in out
        manifest = fft_run["ledger"].load(fft_run["ledger"].resolve("latest"))
        block = manifest["whatif"]
        assert block["check"]["checked"] == 40
        assert block["check"]["flagged"] == 0
        assert len(block["grid"]["cells"]) == 40
        artifact = json.loads(out_path.read_text())
        assert len(artifact["cells"]) == 40

    def test_whatif_knobs_scenario(self, fft_run, capsys):
        from repro.cli import main

        status = main(
            [
                "whatif", "latest",
                "--cad-speedup", "bitgen=50",
                "--cache-hit", "30",
                "--workers", "4",
                "--no-save",
                "--ledger", str(fft_run["ledger_dir"]),
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "cache 30%" in out and "4 workers" in out

    def test_bad_speedup_spec_is_an_error(self, fft_run, capsys):
        from repro.cli import main

        status = main(
            [
                "whatif", "latest", "--cad-speedup", "bogus=50",
                "--ledger", str(fft_run["ledger_dir"]),
            ]
        )
        assert status == 2

    def test_empty_ledger_is_a_resolve_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["critpath", "latest", "--ledger", str(tmp_path)]) == 2
        assert "--ledger" in capsys.readouterr().err
