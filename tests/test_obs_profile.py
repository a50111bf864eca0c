"""Tests for the analysis layer over the span substrate:

- :mod:`repro.obs.profile` — profile tree, collapsed stacks, hot paths;
- the per-block heat view of :mod:`repro.obs.vmprof` — virtual time
  shares, kernel flags and annotations through the IR printer;
- :mod:`repro.obs.fidelity` — golden-reference comparison vs. the paper.
"""

import json
import math
from types import SimpleNamespace

import pytest

from repro import obs
from repro.obs.export import SpanRecord
from repro.obs.profile import build_profile


def rec(name, sid, parent, t0, t1, **attrs):
    return SpanRecord(
        name=name, span_id=sid, parent_id=parent, t0=t0, t1=t1, attrs=attrs
    )


def _sample_records():
    return [
        rec("pipeline", 1, None, 0.0, 10.0),
        rec("search", 2, 1, 0.0, 2.0),
        rec("cad.implement", 3, 1, 2.0, 9.0),
        rec("cad.map", 4, 3, 2.0, 5.0, virtual_seconds=100.0),
        rec("cad.par", 5, 3, 5.0, 9.0, virtual_seconds=200.0),
    ]


class TestProfileTree:
    def test_real_self_and_total(self):
        profile = build_profile(_sample_records())
        by_path = {n.path: n for n in profile.nodes()}
        root = by_path[("pipeline",)]
        assert root.total_real == pytest.approx(10.0)
        assert root.self_real == pytest.approx(1.0)  # 10 - (2 + 7)
        impl = by_path[("pipeline", "cad.implement")]
        assert impl.total_real == pytest.approx(7.0)
        assert impl.self_real == pytest.approx(0.0)

    def test_virtual_totals_inherit_from_children(self):
        profile = build_profile(_sample_records())
        by_path = {n.path: n for n in profile.nodes()}
        impl = by_path[("pipeline", "cad.implement")]
        # No virtual_seconds of its own: inherits 100 + 200 and keeps no self.
        assert impl.total_virtual == pytest.approx(300.0)
        assert impl.self_virtual == pytest.approx(0.0)
        assert by_path[("pipeline",)].total_virtual == pytest.approx(300.0)
        map_node = by_path[("pipeline", "cad.implement", "cad.map")]
        assert map_node.self_virtual == pytest.approx(100.0)

    def test_same_path_spans_aggregate(self):
        records = _sample_records() + [
            rec("cad.implement", 6, 1, 9.0, 9.5),
            rec("cad.map", 7, 6, 9.0, 9.5, virtual_seconds=50.0),
        ]
        profile = build_profile(records)
        by_path = {n.path: n for n in profile.nodes()}
        impl = by_path[("pipeline", "cad.implement")]
        assert impl.count == 2
        assert impl.total_virtual == pytest.approx(350.0)
        map_node = by_path[("pipeline", "cad.implement", "cad.map")]
        assert map_node.count == 2
        assert map_node.self_virtual == pytest.approx(150.0)

    def test_orphan_parent_becomes_root(self):
        profile = build_profile([rec("lonely", 1, 99, 0.0, 1.0)])
        paths = [n.path for n in profile.nodes()]
        assert paths == [("lonely",)]

    def test_collapsed_stacks_skip_zero_self(self):
        profile = build_profile(_sample_records())
        virtual = profile.collapsed("virtual")
        assert virtual == [
            "pipeline;cad.implement;cad.map 100000000",
            "pipeline;cad.implement;cad.par 200000000",
        ]
        real = dict(
            line.rsplit(" ", 1) for line in profile.collapsed("real")
        )
        assert real["pipeline"] == str(int(1.0 * 1e6))
        assert "pipeline;cad.implement" not in real  # zero self time

    def test_unknown_clock_rejected(self):
        profile = build_profile(_sample_records())
        with pytest.raises(ValueError):
            profile.collapsed("cpu")
        with pytest.raises(ValueError):
            profile.hot_table(clock="wall")

    def test_hot_table_and_tree_render(self):
        profile = build_profile(_sample_records())
        table = profile.hot_table(clock="virtual", top=2).render()
        assert "cad.par" in table and "cad.map" in table
        assert "Hot paths (virtual time)" in table
        tree = profile.render(clock="real")
        assert "pipeline" in tree and "search" in tree

    def test_empty_trace(self):
        profile = build_profile([])
        assert list(profile.nodes()) == []
        assert profile.collapsed("real") == []
        assert profile.total("virtual") == 0.0

    def _overlapping_records(self):
        # Two concurrent children (parallel CAD workers) sum to 12 s of
        # child time inside a 7 s parent: self-time clamps to zero and
        # the node is flagged as overlapping.
        return [
            rec("pipeline", 1, None, 0.0, 8.0),
            rec("cad.implement", 2, 1, 1.0, 8.0),
            rec("cad.par", 3, 2, 1.0, 7.0, virtual_seconds=10.0),
            rec("cad.par", 4, 2, 2.0, 8.0, virtual_seconds=10.0),
        ]

    def test_overlapping_siblings_flagged_and_clamped(self):
        profile = build_profile(self._overlapping_records())
        by_path = {n.path: n for n in profile.nodes()}
        impl = by_path[("pipeline", "cad.implement")]
        assert impl.overlap
        assert impl.self_real == pytest.approx(0.0)
        # Sequential children never trip the flag.
        seq = build_profile(_sample_records())
        assert not any(n.overlap for n in seq.nodes())

    def test_overlap_marker_in_renderings(self):
        profile = build_profile(self._overlapping_records())
        tree = profile.render(clock="real")
        assert "!overlap" in tree
        table = profile.hot_table(clock="real").render()
        assert "cad.implement !" in table
        assert "overlapping children" in table
        # The marker (and legend) is a real-clock concept only.
        virtual_table = profile.hot_table(clock="virtual").render()
        assert "!" not in virtual_table
        assert "!overlap" not in profile.render(clock="virtual")


@pytest.fixture(scope="module")
def sor_trace_records():
    """Spans of one end-to-end JIT run of the sor app."""
    from repro.apps import compile_app, get_app
    from repro.core import JitIseSystem

    old = obs.get_tracer()
    tracer = obs.Tracer(enabled=True)
    obs.set_tracer(tracer)
    try:
        spec = get_app("sor")
        compiled = compile_app(spec)
        JitIseSystem().run_application(
            compiled.compilation,
            dataset_size=spec.train.size,
            dataset_seed=spec.train.seed,
        )
    finally:
        obs.set_tracer(old)
    return obs.tracer_records(tracer)


class TestPipelineProfile:
    """Acceptance: the collapsed-stack export of a pipeline run carries one
    frame per Table III CAD stage, with virtual self-times summing to the
    stage-table totals within rounding."""

    def test_cad_stage_frames_match_stage_table(self, sor_trace_records):
        records = sor_trace_records
        profile = build_profile(records)
        lines = profile.collapsed("virtual")
        frame_sums = {}
        for line in lines:
            path, value = line.rsplit(" ", 1)
            leaf = path.split(";")[-1]
            frame_sums[leaf] = frame_sums.get(leaf, 0) + int(value)
        # Expected: the per-stage virtual totals the ASCII stage table shows.
        for stage in obs.TABLE3_SPAN_NAMES:
            expected = sum(
                r.virtual_seconds
                for r in records
                if r.name == stage and r.virtual_seconds is not None
            )
            assert expected > 0
            assert stage in frame_sums, f"missing collapsed frame for {stage}"
            assert frame_sums[stage] / 1e6 == pytest.approx(
                expected, abs=1e-3
            )

    def test_profile_totals_cover_the_run(self, sor_trace_records):
        profile = build_profile(sor_trace_records)
        # Real clock: self times decompose the root total exactly.
        assert profile.self_total("real") == pytest.approx(
            profile.total("real"), rel=1e-4
        )
        table = profile.hot_table(clock="virtual", top=5).render()
        assert "cad.par" in table


class TestHeat:
    """The per-block heat view of ``repro vmprof`` (:mod:`repro.obs.vmprof`):
    virtual time shares, kernel flags and the annotated IR listing."""

    @pytest.fixture(scope="class")
    def sor_prof(self):
        from repro.obs.vmprof import profile_app

        return profile_app("sor")

    def test_every_module_block_present(self, sor_prof):
        rows = sor_prof.block_rows()
        keys = {
            (f.name, b.name)
            for f in sor_prof.module.defined_functions()
            for b in f.blocks
        }
        assert {(r.function, r.block) for r in rows} == keys
        assert len(rows) == len(keys)
        # Cold blocks (never executed) are rows too, with no time share.
        cold = [r for r in rows if r.executions == 0]
        assert cold and all(r.virtual_share == 0.0 for r in cold)

    def test_shares_sum_to_one(self, sor_prof):
        rows = sor_prof.block_rows()
        assert sum(r.virtual_share for r in rows) == pytest.approx(1.0)
        assert sor_prof.virtual_cycles > 0
        # Ranked by virtual cycles, hottest first.
        shares = [r.virtual_share for r in rows]
        assert shares == sorted(shares, reverse=True)

    def test_kernel_flags_match_kernel_analysis(self, sor_prof):
        flagged = {(r.function, r.block) for r in sor_prof.block_rows() if r.in_kernel}
        assert flagged == sor_prof.kernel.block_set
        assert flagged  # sor has a hot kernel
        for key in flagged:
            assert key in sor_prof.kernel  # KernelAnalysis.__contains__

    def test_kernel_share_meets_threshold(self, sor_prof):
        kernel_share = sum(
            r.virtual_share for r in sor_prof.block_rows() if r.in_kernel
        )
        assert kernel_share >= 0.90
        assert kernel_share * 100 == pytest.approx(
            sor_prof.kernel.freq_pct, abs=0.1
        )

    def test_annotated_listing(self, sor_prof):
        from repro.obs.vmprof import render_vmprof

        text = render_vmprof(sor_prof)
        assert "[kernel]" in text
        assert "% time" in text
        assert "; cold" in text
        assert "define" in text  # IR listing present
        # The summary line mirrors Table I's kernel size/freq columns.
        k = sor_prof.kernel
        assert f"size {k.size_pct:.1f}%" in text
        assert f"freq {k.freq_pct:.1f}%" in text

    def test_single_function_filter(self, sor_prof):
        from repro.obs.vmprof import render_listing

        text = render_listing(sor_prof, function="sor_sweep")
        assert "@sor_sweep" in text and "@main" not in text
        with pytest.raises(KeyError):
            render_listing(sor_prof, function="nope")

    def test_printer_annotate_hook(self):
        from repro.frontend.compiler import compile_source
        from repro.ir.printer import print_function, print_module

        module = compile_source("int main() { return 3; }").module
        func = module.functions["main"]
        notes = print_function(func, annotate=lambda f, b: f"{f}.{b}")
        assert "; main.entry" in notes
        assert print_function(func, annotate=lambda f, b: None) == print_function(func)
        assert "; main.entry" in print_module(module, annotate=lambda f, b: f"{f}.{b}")


def _stage_times(**overrides):
    from repro.fpga.timingmodel import StageTimes

    values = dict(
        c2v=3.22, syn=4.22, xst=10.60, tra=8.99,
        map=100.0, par=200.0, bitgen=151.00,
    )
    values.update(overrides)
    return StageTimes(**values)


def _fake_analysis(
    name="fake", domain="embedded", times=None, candidates=3,
    break_even=3000.0, kernel_freq=95.0, search_seconds=0.002,
):
    times = times or _stage_times()
    impls = [SimpleNamespace(times=times) for _ in range(candidates)]
    return SimpleNamespace(
        name=name,
        domain=domain,
        specialization=SimpleNamespace(
            implementations=impls,
            candidate_count=candidates,
            const_seconds=times.constant_sum * candidates,
            toolflow_seconds=times.total * candidates,
        ),
        kernel=SimpleNamespace(freq_pct=kernel_freq, size_pct=20.0),
        search_pruned=SimpleNamespace(search_seconds=search_seconds),
        runtime=SimpleNamespace(ratio=1.05),
        asip_max=SimpleNamespace(ratio=2.5),
        asip_pruned=SimpleNamespace(ratio=2.4),
        breakeven=SimpleNamespace(live_aware_seconds=break_even),
    )


class TestFidelityChecks:
    def test_calibrated_run_passes(self):
        from repro.obs.fidelity import fidelity_from_analyses

        report = fidelity_from_analyses([_fake_analysis()], domain="embedded")
        assert report.ok
        assert report.failures == []
        assert report.apps == ["fake"]
        checked = {(c.table, c.row, c.column) for c in report.checked}
        assert ("III", "Average", "Bitgen") in checked
        assert ("III", "Average", "Sum") in checked

    def test_drifted_stage_fails_its_cell(self):
        from repro.obs.fidelity import fidelity_from_analyses

        bad = _fake_analysis(times=_stage_times(bitgen=400.0))
        report = fidelity_from_analyses([bad], domain="embedded")
        assert not report.ok
        failed = {(c.row, c.column) for c in report.failures}
        assert ("Average", "Bitgen") in failed
        assert ("Average", "Sum") in failed

    def test_bound_modes(self):
        from repro.obs.fidelity import fidelity_from_analyses

        slow_search = _fake_analysis(search_seconds=0.5)  # not milliseconds
        report = fidelity_from_analyses([slow_search], domain="embedded")
        assert any(
            c.column == "search [s]" and c.passed is False
            for c in report.checked
        )
        late = _fake_analysis(break_even=10 * 3600.0)  # over two hours
        report = fidelity_from_analyses([late], domain="embedded")
        assert any(
            c.column == "break even [s]" and c.passed is False
            for c in report.cells
        )

    def test_info_cells_never_fail(self):
        from repro.obs.fidelity import fidelity_from_analyses

        report = fidelity_from_analyses(
            [_fake_analysis(break_even=math.inf, kernel_freq=99.0)],
            domain="embedded",
        )
        info = [c for c in report.cells if c.mode == "info"]
        assert info and all(c.passed is None for c in info)
        # Infinite break-even: info cell records it, bound cell fails.
        be = next(c for c in report.cells if c.column == "break even [s]")
        assert be.passed is False

    def test_report_json_round_trip(self, tmp_path):
        from repro.obs.fidelity import fidelity_from_analyses

        report = fidelity_from_analyses([_fake_analysis()], domain="embedded")
        path = tmp_path / "BENCH_fidelity_test.json"
        report.write(path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro-fidelity/1"
        assert doc["ok"] is True
        assert doc["failed"] == 0
        assert doc["checked"] == len(report.checked)
        by_cell = {
            (c["table"], c["row"], c["column"]): c for c in doc["cells"]
        }
        bitgen = by_cell[("III", "Average", "Bitgen")]
        assert bitgen["passed"] is True
        assert bitgen["rel_error"] == pytest.approx(151.0 / 151.0 - 1.0, abs=1e-6)

    def test_render_lists_every_cell(self):
        from repro.obs.fidelity import fidelity_from_analyses

        report = fidelity_from_analyses([_fake_analysis()], domain="embedded")
        text = report.render()
        assert "pass" in text and "info" in text
        assert f"{len(report.cells)} cells" in text

    def test_unknown_domain_rejected(self):
        from repro.obs.fidelity import run_fidelity

        with pytest.raises(ValueError):
            run_fidelity(domain="bogus")


class TestFidelityEndToEnd:
    """Acceptance: `repro fidelity` over the 4 embedded apps — every checked
    Table III cell within tolerance of the paper's constants."""

    def test_embedded_suite_matches_paper(self, tmp_path):
        from repro.obs.fidelity import run_fidelity

        out = tmp_path / "BENCH_fidelity_embedded.json"
        report = run_fidelity(domain="embedded", out=out)
        assert sorted(report.apps) == ["adpcm", "fft", "sor", "whetstone"]
        table3 = [c for c in report.checked if c.table == "III"]
        assert len(table3) >= 7  # five means + sum + bitgen share
        for cell in table3:
            assert cell.passed, (
                f"Table III {cell.row}/{cell.column}: expected "
                f"{cell.expected}, got {cell.actual}"
            )
        assert report.ok
        assert report.wall_seconds > 0
        doc = json.loads(out.read_text())
        assert doc["ok"] is True and doc["wall_seconds"] > 0

    def test_runner_emits_fidelity_report(self, tmp_path):
        from repro.experiments.runner import analyze_suite

        out = tmp_path / "BENCH_suite.json"
        analyses = analyze_suite("embedded", fidelity_out=out)
        assert len(analyses) == 4
        doc = json.loads(out.read_text())
        assert doc["domain"] == "embedded"
        assert doc["ok"] is True
