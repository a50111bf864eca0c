"""Tests for the core JIT ISE system: ASIP-SP, break-even, cache,
extrapolation, end-to-end pipeline."""

import math

import pytest

from repro.core import (
    AsipSpecializationProcess,
    BitstreamCache,
    BreakEvenModel,
    CacheSimulation,
    JitIseSystem,
    extrapolate_break_even,
    render_figure1,
    render_figure2,
)
from repro.core.extrapolate import AppBreakEvenInputs
from repro.frontend import compile_source
from repro.profiling import classify_blocks
from repro.vm import Interpreter
from repro.vm.profiler import static_block_costs


@pytest.fixture(scope="module")
def app_setup():
    src = """
double a[64]; double b[64]; double c[64];
int main() {
    int n = dataset_size();
    if (n < 8) n = 8;
    if (n > 64) n = 64;
    srand(dataset_seed());
    for (int i = 0; i < 64; i++) { a[i] = 0.01 * (double)(rand() % 100); b[i] = 1.0; }
    double s = 0.0;
    for (int it = 0; it < 12; it++)
        for (int i = 0; i < n - 1; i++) {
            c[i] = a[i] * b[i] + a[i + 1] * 0.25 - b[i] / 3.0;
            s += c[i] * c[i];
        }
    print_f64(s);
    return 0;
}
"""
    comp = compile_source(src, "jitapp")
    module = comp.module
    p_train = Interpreter(module, dataset_size=48, dataset_seed=3).run("main").profile
    p_small = Interpreter(module, dataset_size=16, dataset_seed=5).run("main").profile
    coverage = classify_blocks(module, [p_train, p_small])
    report = AsipSpecializationProcess().run(module, p_train)
    return comp, module, p_train, coverage, report


class TestAsipSp:
    def test_report_aggregates(self, app_setup):
        _, module, profile, coverage, report = app_setup
        assert report.candidate_count >= 1
        assert report.toolflow_seconds == pytest.approx(
            report.const_seconds + report.map_seconds + report.par_seconds
        )
        assert report.total_overhead_seconds > report.toolflow_seconds

    def test_one_reconfiguration_per_candidate(self, app_setup):
        _, _, _, _, report = app_setup
        assert len(report.reconfigurations) == report.candidate_count
        assert report.reconfiguration_seconds < 1.0  # ms-scale each

    def test_structural_sharing_detected(self, app_setup):
        _, _, _, _, report = app_setup
        sigs = [ci.estimate.candidate.signature for ci in report.implementations]
        shared_flags = [ci.shared_with_signature for ci in report.implementations]
        # every repeated signature after the first must be marked shared
        seen = set()
        for sig, shared in zip(sigs, shared_flags):
            if sig in seen:
                assert shared
            else:
                assert not shared
                seen.add(sig)

    def test_constant_overheads_per_candidate(self, app_setup):
        _, _, _, _, report = app_setup
        for ci in report.implementations:
            assert 150 < ci.times.constant_sum < 220  # Table III ballpark


class TestBreakEven:
    def test_live_aware_finite_for_profitable_app(self, app_setup):
        _, module, profile, coverage, report = app_setup
        model = BreakEvenModel()
        analysis = model.analyze(
            static_block_costs(module, model.cost_model),
            profile,
            coverage,
            report.search.selected,
            report.total_overhead_seconds,
        )
        assert analysis.reachable
        assert analysis.live_aware_seconds > 0

    def test_break_even_monotone_in_overhead(self, app_setup):
        _, module, profile, coverage, report = app_setup
        model = BreakEvenModel()
        costs = static_block_costs(module, model.cost_model)
        a1 = model.analyze(costs, profile, coverage, report.search.selected, 100.0)
        a2 = model.analyze(costs, profile, coverage, report.search.selected, 1000.0)
        assert a2.live_aware_seconds > a1.live_aware_seconds
        assert a2.simple_runs > a1.simple_runs

    def test_no_savings_never_breaks_even(self, app_setup):
        _, module, profile, coverage, _ = app_setup
        model = BreakEvenModel()
        costs = static_block_costs(module, model.cost_model)
        analysis = model.analyze(costs, profile, coverage, [], 1000.0)
        assert not analysis.reachable
        assert math.isinf(analysis.live_aware_seconds)

    def test_simple_model_consistency(self, app_setup):
        _, module, profile, coverage, report = app_setup
        model = BreakEvenModel()
        analysis = model.analyze(
            static_block_costs(module, model.cost_model),
            profile,
            coverage,
            report.search.selected,
            500.0,
        )
        assert analysis.simple_seconds == pytest.approx(
            analysis.simple_runs
            * (analysis.simple_seconds / analysis.simple_runs)
        )


class TestBitstreamCache:
    def test_hit_miss_accounting(self):
        cache = BitstreamCache()
        assert cache.get(42) is None
        from repro.fpga.bitgen import PartialBitstream

        bs = PartialBitstream("e", b"\x01", 1, 1, 100)
        cache.put(42, bs)
        assert cache.get(42) is bs
        assert cache.hits == 1 and cache.misses == 1
        assert 42 in cache and len(cache) == 1

    def test_simulation_full_hit_zero_cost(self, app_setup):
        _, _, _, _, report = app_setup
        sim = CacheSimulation()
        assert sim.effective_toolflow_seconds(report, 100.0) == 0.0

    def test_simulation_zero_hit_full_cost(self, app_setup):
        _, _, _, _, report = app_setup
        sim = CacheSimulation()
        assert sim.effective_toolflow_seconds(report, 0.0) == pytest.approx(
            sum(ci.times.total for ci in report.implementations)
        )

    def test_simulation_monotone_in_hit_rate(self, app_setup):
        _, _, _, _, report = app_setup
        sim = CacheSimulation()
        values = [
            sim.average_effective_seconds(report, hit, trials=8)
            for hit in (0, 30, 60, 90)
        ]
        assert values == sorted(values, reverse=True)

    def test_invalid_hit_rate_rejected(self, app_setup):
        _, _, _, _, report = app_setup
        with pytest.raises(ValueError):
            CacheSimulation().effective_toolflow_seconds(report, 120.0)


class TestExtrapolation:
    def test_grid_monotone_both_axes(self, app_setup):
        _, module, profile, coverage, report = app_setup
        inputs = [
            AppBreakEvenInputs(
                name="jitapp",
                module=module,
                profile=profile,
                coverage=coverage,
                estimates=report.search.selected,
                report=report,
                search_seconds=report.search.search_seconds,
                reconfig_seconds=report.reconfiguration_seconds,
            )
        ]
        grid = extrapolate_break_even(
            inputs, hit_rates=[0, 50, 90], cad_speedups=[0, 60], trials=4
        )
        for speedup in (0, 60):
            col = [grid.at(h, speedup) for h in (0, 50, 90)]
            assert col == sorted(col, reverse=True)
        for hit in (0, 50, 90):
            row = [grid.at(hit, s) for s in (0, 60)]
            assert row == sorted(row, reverse=True)


class TestEndToEnd:
    def test_jit_system_run(self):
        # fresh compilation: the system patches the module in place
        comp2 = compile_source(_SRC_AGAIN, "jitapp2")
        system = JitIseSystem()
        result = system.run_application(comp2)
        assert result.output_equal
        assert result.asip_ratio >= 1.0
        assert result.specialization.candidate_count >= 1
        assert result.runtime.vm_seconds > 0

    def test_figures_render(self):
        fig1 = render_figure1()
        fig2 = render_figure2()
        assert "Virtual Machine" in fig1 and "ASIP Specialization" in fig1
        assert "Candidate Search" in fig2 and "Partial Reconfiguration" in fig2
        assert "MAXMISO" in fig2


_SRC_AGAIN = """\
double a[64]; double b[64]; double c[64];
int main() {
    for (int i = 0; i < 64; i++) { a[i] = 0.02 * (double)i; b[i] = 1.25; }
    double s = 0.0;
    for (int it = 0; it < 10; it++)
        for (int i = 0; i < 63; i++) {
            c[i] = a[i] * b[i] + a[i + 1] * 0.5 - b[i] / 7.0;
            s += c[i] * c[i];
        }
    print_f64(s);
    return 0;
}
"""


