"""Ablation A4: speedup under a finite UDI slot budget.

The APU decodes a limited number of user-defined instruction opcodes; the
paper implicitly assumes all candidates fit. This ablation shows how the
achievable speedup saturates with slot count — and that candidate-rich
applications (470.lbm: 26 candidates) keep gaining where compact embedded
kernels saturate after a handful of slots.
"""

import pytest

from conftest import print_report
from repro.util.tables import Table
from repro.vm.profiler import static_block_costs
from repro.woolcano import WoolcanoMachine

CAPACITIES = [1, 2, 4, 8, 16, 32]
APPS = ["whetstone", "sor", "470.lbm", "188.ammp"]


def test_slot_budget_saturation(benchmark, suite_by_name):
    machine = WoolcanoMachine()

    def sweep():
        results = {}
        for name in APPS:
            a = suite_by_name[name]
            block_costs = static_block_costs(a.compiled.module, machine.cost_model)
            ratios = [
                machine.speedup_with_slots(
                    block_costs,
                    a.train_profile,
                    a.search_full.selected,
                    capacity=c,
                ).ratio
                for c in CAPACITIES
            ]
            results[name] = ratios
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = Table(
        columns=["app"] + [f"{c} slots" for c in CAPACITIES],
        title="Ablation A4: ASIP ratio vs UDI slot budget",
    )
    for name, ratios in results.items():
        table.add_row([name] + [f"{r:.2f}" for r in ratios])
    print_report("Ablation A4", table.render())

    for name, ratios in results.items():
        # monotone non-decreasing in capacity
        assert all(b >= a - 1e-9 for a, b in zip(ratios, ratios[1:]))
    # Embedded kernels saturate within a few slots.
    whet = results["whetstone"]
    assert whet[3] >= 0.9 * whet[-1]  # 8 slots ~ all slots
    sor = results["sor"]
    assert sor[2] >= 0.99 * sor[-1]  # 4 slots suffice
    # Candidate-rich scientific apps still gain beyond 8 slots — the paper's
    # "implement all candidates" assumption needs a big fabric.
    lbm = results["470.lbm"]
    assert lbm[-1] > lbm[3] + 1e-6
