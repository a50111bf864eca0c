"""Table II: ASIP-SP runtime overheads and break-even times.

Columns: candidate-search wall time (ms), pruning efficiency, pruned
blocks/instructions, candidate count, post-pruning ASIP ratio, constant /
map / PAR / total tool-flow overheads (m:s), and the live-aware break-even
time (d:h:m:s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.experiments.runner import AppAnalysis, analyze_suite
from repro.util.tables import Table
from repro.util.timefmt import format_dhms, format_hms, format_ms


@dataclass
class Table2Row:
    app: str
    domain: str
    search_ms: float
    pruning_efficiency: float
    pruned_blocks: int
    pruned_instructions: int
    candidates: int
    asip_ratio: float
    const_s: float
    map_s: float
    par_s: float
    sum_s: float
    break_even_s: float


def row_for(analysis: AppAnalysis) -> Table2Row:
    report = analysis.specialization
    return Table2Row(
        app=analysis.name,
        domain=analysis.domain,
        search_ms=analysis.search_pruned.search_seconds * 1000.0,
        pruning_efficiency=analysis.pruning_efficiency,
        pruned_blocks=len(analysis.search_pruned.pruned_blocks),
        pruned_instructions=analysis.search_pruned.pruned_block_instructions,
        candidates=report.candidate_count,
        asip_ratio=analysis.asip_pruned.ratio,
        const_s=report.const_seconds,
        map_s=report.map_seconds,
        par_s=report.par_seconds,
        sum_s=report.toolflow_seconds,
        break_even_s=analysis.breakeven.live_aware_seconds,
    )


_NUMERIC = [
    "search_ms",
    "pruning_efficiency",
    "pruned_blocks",
    "pruned_instructions",
    "candidates",
    "asip_ratio",
    "const_s",
    "map_s",
    "par_s",
    "sum_s",
    "break_even_s",
]


@dataclass
class Table2:
    rows: list[Table2Row]

    def domain_rows(self, domain: str) -> list[Table2Row]:
        return [r for r in self.rows if r.domain == domain]

    def averages(self, domain: str) -> dict[str, float]:
        rows = self.domain_rows(domain)
        out = {}
        for attr in _NUMERIC:
            values = [getattr(r, attr) for r in rows]
            finite = [v for v in values if math.isfinite(v)]
            out[attr] = sum(finite) / len(finite) if finite else math.inf
        return out

    def render(self) -> str:
        table = Table(
            columns=[
                "App",
                "real[ms]",
                "effic",
                "blk",
                "ins",
                "can",
                "ratio",
                "const",
                "map",
                "par",
                "sum",
                "break even",
            ],
            title="Table II: ASIP-SP runtime overheads",
        )

        def cells(r: Table2Row) -> list[str]:
            be = (
                format_dhms(r.break_even_s)
                if math.isfinite(r.break_even_s)
                else "never"
            )
            return [
                r.app,
                format_ms(r.search_ms / 1000.0),
                f"{r.pruning_efficiency:.2f}",
                str(r.pruned_blocks),
                str(r.pruned_instructions),
                str(r.candidates),
                f"{r.asip_ratio:.2f}",
                format_hms(r.const_s),
                format_hms(r.map_s),
                format_hms(r.par_s),
                format_hms(r.sum_s),
                be,
            ]

        def summary(name: str, avg: dict[str, float]) -> list[str]:
            be = (
                format_dhms(avg["break_even_s"])
                if math.isfinite(avg["break_even_s"])
                else "never"
            )
            return [
                name,
                format_ms(avg["search_ms"] / 1000.0),
                f"{avg['pruning_efficiency']:.2f}",
                f"{avg['pruned_blocks']:.2f}",
                f"{avg['pruned_instructions']:.0f}",
                f"{avg['candidates']:.0f}",
                f"{avg['asip_ratio']:.2f}",
                format_hms(avg["const_s"]),
                format_hms(avg["map_s"]),
                format_hms(avg["par_s"]),
                format_hms(avg["sum_s"]),
                be,
            ]

        for r in self.domain_rows("scientific"):
            table.add_row(cells(r))
        if self.domain_rows("scientific"):
            table.add_footer(summary("AVG-S", self.averages("scientific")))
        for r in self.domain_rows("embedded"):
            table.add_row(cells(r))
        if self.domain_rows("embedded"):
            table.add_footer(summary("AVG-E", self.averages("embedded")))
        return table.render()


def generate_table2(jobs: int = 1, cache=None) -> Table2:
    return Table2(
        rows=[row_for(a) for a in analyze_suite(jobs=jobs, cache=cache)]
    )
