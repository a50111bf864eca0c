"""Table IV: average embedded break-even time under bitstream caching and a
faster CAD flow."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.extrapolate import (
    AppBreakEvenInputs,
    DEFAULT_CAD_SPEEDUPS,
    DEFAULT_HIT_RATES,
    ExtrapolationGrid,
    extrapolate_break_even,
)
from repro.experiments.runner import analyze_suite
from repro.util.tables import Table
from repro.util.timefmt import format_hhmmss


@dataclass
class Table4:
    grid: ExtrapolationGrid

    def render(self) -> str:
        """ASCII rendering of the grid (rows = cache hit rate)."""
        grid = self.grid
        table = Table(
            columns=["Cache hit [%]"]
            + [f"CAD +{s}%" for s in grid.cad_speedups],
            title="Table IV: avg embedded break-even time [h:m:s]",
        )
        for hit in grid.cache_hit_rates:
            cells = [str(hit)]
            for speedup in grid.cad_speedups:
                v = grid.at(hit, speedup)
                cells.append(format_hhmmss(v) if math.isfinite(v) else "never")
            table.add_row(cells)
        return table.render()


def generate_table4(
    hit_rates: list[int] | None = None,
    cad_speedups: list[int] | None = None,
    trials: int = 16,
    jobs: int = 1,
    cache=None,
) -> Table4:
    apps = [
        AppBreakEvenInputs(
            name=analysis.name,
            module=analysis.compiled.module,
            profile=analysis.train_profile,
            coverage=analysis.coverage,
            estimates=analysis.search_pruned.selected,
            report=analysis.specialization,
            search_seconds=analysis.search_pruned.search_seconds,
            reconfig_seconds=analysis.specialization.reconfiguration_seconds,
        )
        for analysis in analyze_suite("embedded", jobs=jobs, cache=cache)
    ]
    grid = extrapolate_break_even(
        apps,
        hit_rates if hit_rates is not None else DEFAULT_HIT_RATES,
        cad_speedups if cad_speedups is not None else DEFAULT_CAD_SPEEDUPS,
        trials=trials,
    )
    return Table4(grid=grid)
