"""Cache x faster-CAD extrapolation (Section VI-C, Table IV).

For each (cache hit rate, CAD speedup) pair, recompute the average
break-even time of the embedded applications: the cache removes whole
candidate generation times (randomly selected, averaged over trials), the
faster CAD flow scales the remaining overhead linearly, and the break-even
model then maps the reduced overhead to a (non-linear) break-even time via
the block-frequency information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.breakeven import BreakEvenModel
from repro.core.cache import CacheSimulation
from repro.vm.profiler import static_block_costs


@dataclass
class AppBreakEvenInputs:
    """Per-application inputs needed to recompute break-even times."""

    name: str
    module: object  # repro.ir.Module
    profile: object  # ExecutionProfile
    coverage: object  # CoverageAnalysis
    estimates: list  # list[CandidateEstimate]
    report: object  # SpecializationReport
    search_seconds: float
    reconfig_seconds: float


@dataclass
class ExtrapolationGrid:
    """Table IV: rows = cache hit rate, cols = CAD speedup."""

    cache_hit_rates: list[int]
    cad_speedups: list[int]
    # seconds[(hit, speedup)] -> average break-even seconds
    seconds: dict[tuple[int, int], float] = field(default_factory=dict)

    def at(self, hit_pct: int, speedup_pct: int) -> float:
        return self.seconds[(hit_pct, speedup_pct)]


DEFAULT_HIT_RATES = [0, 10, 20, 30, 40, 50, 60, 70, 80, 90]
DEFAULT_CAD_SPEEDUPS = [0, 30, 60, 90]


def extrapolate_break_even(
    apps: list[AppBreakEvenInputs],
    hit_rates: list[int] | None = None,
    cad_speedups: list[int] | None = None,
    model: BreakEvenModel | None = None,
    trials: int = 16,
) -> ExtrapolationGrid:
    """Compute the Table IV grid for a set of applications."""
    hit_rates = hit_rates if hit_rates is not None else DEFAULT_HIT_RATES
    cad_speedups = (
        cad_speedups if cad_speedups is not None else DEFAULT_CAD_SPEEDUPS
    )
    model = model or BreakEvenModel()
    sim = CacheSimulation()

    costs = [static_block_costs(app.module, model.cost_model) for app in apps]
    grid = ExtrapolationGrid(cache_hit_rates=hit_rates, cad_speedups=cad_speedups)
    for hit in hit_rates:
        for speedup in cad_speedups:
            factor = 1.0 - speedup / 100.0
            values = []
            for app, block_costs in zip(apps, costs):
                toolflow = sim.average_effective_seconds(app.report, hit, trials)
                overhead = (
                    app.search_seconds
                    + toolflow * factor
                    + app.reconfig_seconds
                )
                analysis = model.analyze(
                    block_costs,
                    app.profile,
                    app.coverage,
                    app.estimates,
                    overhead,
                )
                values.append(analysis.live_aware_seconds)
            finite = [v for v in values if math.isfinite(v)]
            grid.seconds[(hit, speedup)] = (
                sum(finite) / len(finite) if finite else math.inf
            )
    return grid
