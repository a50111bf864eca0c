"""Integration tests: real benchmark applications through the full JIT flow.

Uses the two fastest applications (sor, adpcm) on their small datasets to
keep runtime reasonable; the full 14-app sweep lives in benchmarks/.
"""

import pytest

from repro.apps import compile_app, get_app
from repro.core import AsipSpecializationProcess
from repro.ir.verifier import verify_module
from repro.vm import Interpreter
from repro.vm.patcher import BinaryPatcher
from repro.vm.profiler import static_block_costs
from repro.woolcano import WoolcanoMachine


@pytest.fixture(scope="module", params=["sor", "adpcm"])
def jit_run(request):
    app = get_app(request.param)
    compiled = compile_app(app)
    small = app.dataset("small")
    baseline = compiled.run(small)
    report = AsipSpecializationProcess().run(compiled.module, baseline.profile)
    return app, compiled, small, baseline, report


class TestFullFlowOnRealApps:
    def test_specialization_produces_bitstreams(self, jit_run):
        app, compiled, small, baseline, report = jit_run
        assert report.candidate_count >= 1
        for ci in report.implementations:
            assert ci.implementation.bitstream.size_bytes > 0
            assert ci.implementation.vhdl.line_count > 20

    def test_adaptation_preserves_program_output(self, jit_run):
        # Patch a *fresh* compilation: the module-scoped fixture must stay
        # unpatched for the other tests (candidates refer to their module).
        app, _, small, baseline, _ = jit_run
        fresh = compile_app(app)
        base2 = fresh.run(small)
        assert base2.output == baseline.output
        report = AsipSpecializationProcess().run(fresh.module, base2.profile)
        patcher = BinaryPatcher()
        patcher.patch_module(
            fresh.module,
            [ci.estimate.candidate for ci in report.implementations],
        )
        verify_module(fresh.module)
        interp = Interpreter(
            fresh.module, dataset_size=small.size, dataset_seed=small.seed
        )
        patcher.install(interp)
        patched = interp.run("main")
        assert patched.output == baseline.output
        assert patched.steps <= baseline.steps

    def test_speedup_and_overhead_sane(self, jit_run):
        app, compiled, small, baseline, report = jit_run
        machine = WoolcanoMachine()
        sp = machine.speedup(
            static_block_costs(compiled.module, machine.cost_model),
            baseline.profile,
            [ci.estimate for ci in report.implementations],
        )
        assert 1.0 <= sp.ratio < 50.0
        # overhead: minutes-scale per candidate, dominated by the tool flow
        assert report.toolflow_seconds > 170 * report.candidate_count
        assert report.search.search_seconds < 2.0

    def test_candidate_search_is_milliseconds(self, jit_run):
        """Paper: 'total candidate search time is in the order of
        milliseconds and thus insignificant'."""
        app, compiled, small, baseline, report = jit_run
        assert report.search.search_seconds * 1000 < 500
        assert (
            report.search.search_seconds < 0.01 * report.toolflow_seconds
        )
