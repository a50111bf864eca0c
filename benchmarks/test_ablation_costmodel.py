"""Ablation A3: sensitivity to the soft-float emulation cost.

DESIGN.md calls out the FPU-less PowerPC-405 as the single most important
constant in the reproduction: FP emulation cost drives which candidates are
profitable. This ablation sweeps `soft_float_scale` and shows the achievable
ASIP ratio of an FP-heavy embedded app growing with emulation cost, while an
integer app stays flat.
"""

import pytest

from conftest import print_report
from repro.ise import CandidateSearch
from repro.ise.pruning import NO_PRUNING
from repro.util.tables import Table
from repro.vm.costmodel import PPC405_COST_MODEL
from repro.vm.profiler import static_block_costs
from repro.woolcano import PowerPC405, WoolcanoMachine

SCALES = [0.5, 1.0, 2.0, 4.0]


def _ratio_for(analysis, scale: float) -> float:
    cm = PPC405_COST_MODEL.with_soft_float_scale(scale)
    machine = WoolcanoMachine(cpu=PowerPC405(cost_model=cm))
    search = CandidateSearch(pruning=NO_PRUNING, cost_model=cm).run(
        analysis.compiled.module, analysis.train_profile
    )
    return machine.speedup(
        static_block_costs(analysis.compiled.module, cm),
        analysis.train_profile,
        search.selected,
    ).ratio


def test_soft_float_sensitivity(benchmark, suite_by_name):
    fp_app = suite_by_name["whetstone"]
    int_app = suite_by_name["429.mcf"]

    def sweep():
        return {
            "whetstone": [_ratio_for(fp_app, s) for s in SCALES],
            "429.mcf": [_ratio_for(int_app, s) for s in SCALES],
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = Table(
        columns=["app"] + [f"scale {s}" for s in SCALES],
        title="Ablation A3: ASIP ratio vs FP emulation cost",
    )
    for name, ratios in results.items():
        table.add_row([name] + [f"{r:.2f}" for r in ratios])
    print_report("Ablation A3", table.render())

    fp = results["whetstone"]
    intr = results["429.mcf"]
    # FP app: monotonically more attractive as emulation gets slower.
    assert all(b >= a - 1e-6 for a, b in zip(fp, fp[1:]))
    assert fp[-1] > 1.5 * fp[0] or fp[-1] > 6.0
    # Integer app: essentially insensitive.
    assert max(intr) - min(intr) < 0.3
