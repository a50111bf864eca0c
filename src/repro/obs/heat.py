"""Per-basic-block heat annotations: profile counts x PPC405 cost model.

Table I's kernel columns (size %, freq %) summarize where virtual execution
time concentrates; this module makes the underlying block-level picture
visible. It merges :class:`repro.vm.profiler.ExecutionProfile` execution
counts with a CPU cost model into per-block heat (cycles, time share), flags
the kernel blocks computed by :func:`repro.profiling.kernel.compute_kernel`,
and renders the result as an annotated IR listing through
:mod:`repro.ir.printer` — each block label carries its time-share percent,
execution count, and a ``[kernel]`` marker; blocks that never executed are
marked cold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.ir.module import Module
from repro.ir.printer import print_function
from repro.profiling.kernel import KernelAnalysis, compute_kernel
from repro.util.tables import Table
from repro.vm.costmodel import CostModel, PPC405_COST_MODEL
from repro.vm.profiler import BlockKey, ExecutionProfile, static_block_costs


@dataclass
class BlockHeat:
    """Heat data of one basic block."""

    function: str
    block: str
    count: int
    static_instructions: int
    cycles: float
    share: float  # fraction of the run's total cycles
    in_kernel: bool

    @property
    def key(self) -> BlockKey:
        return (self.function, self.block)


@dataclass
class HeatMap:
    """Block heat of one profiled run, plus the kernel it implies."""

    module_name: str
    blocks: dict[BlockKey, BlockHeat]
    kernel: KernelAnalysis
    total_cycles: float

    def hottest(self, n: int | None = None) -> list[BlockHeat]:
        ranked = sorted(
            self.blocks.values(), key=lambda b: (-b.cycles, b.key)
        )
        return ranked if n is None else ranked[: max(0, n)]

    def annotation(self, function: str, block: str) -> str | None:
        """Block-label comment for the IR printer (None = unknown block)."""
        heat = self.blocks.get((function, block))
        if heat is None:
            return None
        if heat.count == 0:
            return "cold"
        note = f"{100.0 * heat.share:5.1f}% time, {heat.count} runs"
        if heat.in_kernel:
            note += " [kernel]"
        return note

    def annotator(self) -> Callable[[str, str], str | None]:
        return self.annotation


def compute_heat(
    module: Module,
    profile: ExecutionProfile,
    cost_model: CostModel = PPC405_COST_MODEL,
    kernel_threshold: float = 0.90,
) -> HeatMap:
    """Merge *profile* counts with *cost_model* into per-block heat.

    Every block of the module appears in the result; blocks absent from the
    profile get count 0 (cold — the dead/const code of Table I).
    """
    kernel = compute_kernel(
        module, profile, threshold=kernel_threshold, cost_model=cost_model
    )
    cycles = profile.block_cycles(static_block_costs(module, cost_model))
    total = sum(cycles.values())
    kernel_blocks = kernel.block_set

    blocks: dict[BlockKey, BlockHeat] = {}
    for func in module.defined_functions():
        for block in func.blocks:
            key = (func.name, block.name)
            spent = cycles.get(key, 0.0)
            blocks[key] = BlockHeat(
                function=func.name,
                block=block.name,
                count=profile.count_of(*key),
                static_instructions=len(block.instructions),
                cycles=spent,
                share=spent / total if total > 0 else 0.0,
                in_kernel=key in kernel_blocks,
            )
    return HeatMap(
        module_name=module.name,
        blocks=blocks,
        kernel=kernel,
        total_cycles=total,
    )


def heat_table(heat: HeatMap, top: int = 10) -> Table:
    """Top-N hottest blocks (the per-block view behind Table I's columns)."""
    table = Table(
        columns=["function", "block", "runs", "ins", "cycles", "time %", "kernel"],
        title=f"Hottest blocks of {heat.module_name}",
    )
    for b in heat.hottest(top):
        table.add_row(
            [
                b.function,
                b.block,
                b.count,
                b.static_instructions,
                f"{b.cycles:.0f}",
                f"{100.0 * b.share:.1f}",
                "yes" if b.in_kernel else "",
            ]
        )
    k = heat.kernel
    table.add_footer(
        [
            "kernel",
            f"{len(k.blocks)} blocks",
            "",
            k.kernel_instructions,
            "",
            f"{k.freq_pct:.1f}",
            f"size {k.size_pct:.1f}%",
        ]
    )
    return table


def render_heat(
    module: Module,
    heat: HeatMap,
    function: str | None = None,
    top: int = 10,
) -> str:
    """Hot-block table plus the heat-annotated IR listing.

    With *function* set, only that function's listing is printed; otherwise
    functions are printed hottest-first.
    """
    k = heat.kernel
    parts = [
        f"; {heat.module_name}: kernel {len(k.blocks)} blocks / "
        f"{k.kernel_instructions} of {k.total_instructions} instructions "
        f"(size {k.size_pct:.1f}%, freq {k.freq_pct:.1f}%)",
        heat_table(heat, top=top).render(),
    ]
    annotate = heat.annotator()
    funcs = [f for f in module.defined_functions()]
    if function is not None:
        funcs = [f for f in funcs if f.name == function]
        if not funcs:
            raise KeyError(f"module {heat.module_name} has no function {function!r}")
    else:
        by_func: dict[str, float] = {}
        for b in heat.blocks.values():
            by_func[b.function] = by_func.get(b.function, 0.0) + b.cycles
        funcs.sort(key=lambda f: -by_func.get(f.name, 0.0))
    for func in funcs:
        parts.append(print_function(func, annotate=annotate))
    return "\n\n".join(parts)
