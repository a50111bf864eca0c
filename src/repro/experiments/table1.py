"""Table I: application characterization.

Columns (as in the paper): source files/LOC, bitcode compilation time,
basic blocks, instructions, VM and Native runtimes with their ratio, the
upper-bound ASIP ratio, live/dead/const code coverage, and kernel
size/frequency. AVG-S, AVG-E and RATIO summary rows included.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import AppAnalysis, analyze_suite
from repro.util.tables import Table


@dataclass
class Table1Row:
    app: str
    domain: str
    files: int
    loc: int
    compile_s: float
    blocks: int
    instructions: int
    vm_s: float
    native_s: float
    vm_ratio: float
    asip_ratio: float
    live_pct: float
    dead_pct: float
    const_pct: float
    kernel_size_pct: float
    kernel_freq_pct: float
    kernel_instructions: int


def row_for(analysis: AppAnalysis) -> Table1Row:
    return Table1Row(
        app=analysis.name,
        domain=analysis.domain,
        files=analysis.compiled.compilation.files,
        loc=analysis.compiled.compilation.loc,
        compile_s=analysis.compiled.compilation.compile_seconds,
        blocks=analysis.compiled.compilation.basic_blocks,
        instructions=analysis.compiled.compilation.instructions,
        vm_s=analysis.runtime.vm_seconds,
        native_s=analysis.runtime.native_seconds,
        vm_ratio=analysis.runtime.ratio,
        asip_ratio=analysis.asip_max.ratio,
        live_pct=analysis.coverage.live_pct,
        dead_pct=analysis.coverage.dead_pct,
        const_pct=analysis.coverage.const_pct,
        kernel_size_pct=analysis.kernel.size_pct,
        kernel_freq_pct=analysis.kernel.freq_pct,
        kernel_instructions=analysis.kernel.kernel_instructions,
    )


def _avg(rows: list[Table1Row], attr: str) -> float:
    if not rows:
        return float("nan")
    return sum(getattr(r, attr) for r in rows) / len(rows)


_NUMERIC = [
    "files",
    "loc",
    "compile_s",
    "blocks",
    "instructions",
    "vm_s",
    "native_s",
    "vm_ratio",
    "asip_ratio",
    "live_pct",
    "dead_pct",
    "const_pct",
    "kernel_size_pct",
    "kernel_freq_pct",
]


@dataclass
class Table1:
    rows: list[Table1Row]

    @property
    def scientific(self) -> list[Table1Row]:
        return [r for r in self.rows if r.domain == "scientific"]

    @property
    def embedded(self) -> list[Table1Row]:
        return [r for r in self.rows if r.domain == "embedded"]

    def averages(self, domain: str) -> dict[str, float]:
        rows = [r for r in self.rows if r.domain == domain]
        return {attr: _avg(rows, attr) for attr in _NUMERIC}

    def ratio_row(self) -> dict[str, float]:
        """AVG-S / AVG-E per column (the paper's RATIO row)."""
        avg_s = self.averages("scientific")
        avg_e = self.averages("embedded")
        return {
            attr: (avg_s[attr] / avg_e[attr] if avg_e[attr] else float("inf"))
            for attr in _NUMERIC
        }

    def render(self) -> str:
        table = Table(
            columns=[
                "App",
                "files",
                "LOC",
                "real[s]",
                "blk",
                "ins",
                "VM[s]",
                "Native[s]",
                "Ratio",
                "ASIP",
                "live%",
                "dead%",
                "const%",
                "ksize%",
                "kfreq%",
            ],
            title="Table I: application characterization",
        )

        def cells(r: Table1Row) -> list[str]:
            return [
                r.app,
                str(r.files),
                str(r.loc),
                f"{r.compile_s:.2f}",
                str(r.blocks),
                str(r.instructions),
                f"{r.vm_s:.3f}",
                f"{r.native_s:.3f}",
                f"{r.vm_ratio:.2f}",
                f"{r.asip_ratio:.2f}",
                f"{r.live_pct:.1f}",
                f"{r.dead_pct:.1f}",
                f"{r.const_pct:.1f}",
                f"{r.kernel_size_pct:.1f}",
                f"{r.kernel_freq_pct:.1f}",
            ]

        for r in self.scientific:
            table.add_row(cells(r))

        def summary(name: str, avg: dict[str, float]) -> list[str]:
            return [
                name,
                f"{avg['files']:.0f}",
                f"{avg['loc']:.0f}",
                f"{avg['compile_s']:.2f}",
                f"{avg['blocks']:.0f}",
                f"{avg['instructions']:.0f}",
                f"{avg['vm_s']:.3f}",
                f"{avg['native_s']:.3f}",
                f"{avg['vm_ratio']:.2f}",
                f"{avg['asip_ratio']:.2f}",
                f"{avg['live_pct']:.1f}",
                f"{avg['dead_pct']:.1f}",
                f"{avg['const_pct']:.1f}",
                f"{avg['kernel_size_pct']:.1f}",
                f"{avg['kernel_freq_pct']:.1f}",
            ]

        table.add_footer(summary("AVG-S", self.averages("scientific")))
        for r in self.embedded:
            table.add_row(cells(r))
        table.add_footer(summary("AVG-E", self.averages("embedded")))
        ratio = self.ratio_row()
        table.add_footer(
            ["RATIO"]
            + [
                f"{ratio[a]:.2f}"
                for a in _NUMERIC
            ]
        )
        return table.render()


def generate_table1(jobs: int = 1, cache=None) -> Table1:
    """Run the full suite and build Table I."""
    return Table1(
        rows=[row_for(a) for a in analyze_suite(jobs=jobs, cache=cache)]
    )
