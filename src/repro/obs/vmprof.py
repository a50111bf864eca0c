"""VM execution observatory: where an app's execution time goes, per block.

One profiled app run, three views:

1. **Opcode profile** — dynamic per-opcode and opcode-digram counts plus
   virtual (PPC405) cycles per opcode, all derived post-hoc from the block
   profile (:mod:`repro.vm.profiler`), so the run itself pays nothing.
2. **Blocks, modelled and measured** — every basic block's share of the
   virtual cycles (the paper's Section IV profile), its kernel flag (the
   hottest blocks covering 90 % of that time, Table I's size/freq
   columns, :func:`repro.profiling.kernel.compute_kernel`) and its share
   of the real time the timer-driven block sampler attributes to it.
   Comparing the two shares shows where the Python interpreter disagrees
   with the PPC405 model. The real clock is measured per block on the
   actual machine, not priced by a cost model, per the measured-cost
   selection argument of the microarchitecture-aware ISE literature
   (PAPERS.md).
3. **Heat-annotated IR** — the module listing through
   :mod:`repro.ir.printer`, each block label carrying its virtual time
   share, execution count and ``[kernel]`` flag; blocks that never ran
   are marked cold.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterable

from repro.ir.module import Module
from repro.ir.printer import print_function
from repro.profiling.kernel import KernelAnalysis, compute_kernel
from repro.util.tables import Table
from repro.vm.costmodel import PPC405_COST_MODEL, CostModel
from repro.vm.profiler import (
    BlockKey,
    BlockTimeSampler,
    ExecutionProfile,
    static_block_costs,
)


@dataclass
class BlockRow:
    """One block's count, static size and virtual and real time shares."""

    function: str
    block: str
    executions: int
    static_instructions: int
    virtual_share: float
    real_share: float
    in_kernel: bool

    @property
    def delta(self) -> float:
        """Real-minus-virtual share: positive = Python-bound block."""
        return self.real_share - self.virtual_share


@dataclass
class VmProfile:
    """The observatory's full view of one profiled app run."""

    app: str
    dataset: str
    module: Module
    steps: int
    block_executions: int
    wall_seconds: float
    virtual_cycles: float
    virtual_seconds: float
    opcode_counts: dict[str, int]
    opcode_cycles: dict[str, float]
    digram_counts: dict[tuple[str, str], int]
    block_counts: dict[BlockKey, int]
    virtual_shares: dict[BlockKey, float]
    real_shares: dict[BlockKey, float]
    kernel: KernelAnalysis
    sample_count: int
    sample_interval: float

    @property
    def instructions_per_second(self) -> float:
        return self.steps / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def _static_sizes(self) -> dict[BlockKey, int]:
        """Static instruction count of every module block, in module order."""
        return {
            (func.name, block.name): len(block.instructions)
            for func in self.module.defined_functions()
            for block in func.blocks
        }

    def _rows(self, keys: Iterable[BlockKey]) -> list[BlockRow]:
        sizes = self._static_sizes()
        kernel = self.kernel.block_set
        return [
            BlockRow(
                function=key[0],
                block=key[1],
                executions=self.block_counts.get(key, 0),
                static_instructions=sizes.get(key, 0),
                virtual_share=self.virtual_shares.get(key, 0.0),
                real_share=self.real_shares.get(key, 0.0),
                in_kernel=key in kernel,
            )
            for key in keys
        ]

    def block_rows(self) -> list[BlockRow]:
        """Every block of the module, cold ones included, hottest first
        on the virtual clock (deterministic, unlike the sampled share)."""
        rows = self._rows(self._static_sizes())
        rows.sort(key=lambda r: (-r.virtual_share, r.function, r.block))
        return rows

    def divergence_rows(self) -> list[BlockRow]:
        """Per-block real-vs-virtual share table, worst offenders first."""
        rows = self._rows(set(self.virtual_shares) | set(self.real_shares))
        rows.sort(key=lambda r: (-abs(r.delta), r.function, r.block))
        return rows


# -- profiling ---------------------------------------------------------------
def profile_app(
    app: str,
    dataset: str | None = None,
    cost_model: CostModel = PPC405_COST_MODEL,
) -> VmProfile:
    """Compile *app*, run it under the sampler, and assemble the profile."""
    from repro.apps import compile_app, get_app

    spec = get_app(app)
    compiled = compile_app(spec)
    ds = spec.dataset(dataset) if dataset else spec.train

    start = perf_counter()
    with BlockTimeSampler() as sampler:
        result = compiled.run(ds)
    wall = perf_counter() - start

    return build_profile(
        app=spec.name,
        dataset=ds.name,
        module=compiled.module,
        profile=result.profile,
        steps=result.steps,
        wall_seconds=wall,
        sampler=sampler,
        cost_model=cost_model,
    )


def build_profile(
    app: str,
    dataset: str,
    module: Module,
    profile: ExecutionProfile,
    steps: int,
    wall_seconds: float,
    sampler: BlockTimeSampler,
    cost_model: CostModel = PPC405_COST_MODEL,
) -> VmProfile:
    """Assemble a :class:`VmProfile` from an already-executed run."""
    virtual_cycles = profile.total_cycles(module, cost_model)
    return VmProfile(
        app=app,
        dataset=dataset,
        module=module,
        steps=steps,
        block_executions=profile.total_block_executions,
        wall_seconds=wall_seconds,
        virtual_cycles=virtual_cycles,
        virtual_seconds=cost_model.seconds(virtual_cycles),
        opcode_counts=profile.opcode_counts(module),
        opcode_cycles=profile.opcode_cycles(module, cost_model),
        digram_counts=profile.digram_counts(module),
        block_counts={key: p.count for key, p in profile.blocks.items()},
        virtual_shares=profile.block_time_shares(
            static_block_costs(module, cost_model)
        ),
        real_shares=sampler.shares(),
        kernel=compute_kernel(module, profile, cost_model=cost_model),
        sample_count=sampler.sample_count,
        sample_interval=sampler.interval,
    )


# -- serialization -----------------------------------------------------------
def vmprof_json(prof: VmProfile) -> dict:
    """Full machine-readable report (the ``--json`` payload)."""
    return {
        "schema": "repro-vmprof/1",
        "app": prof.app,
        "dataset": prof.dataset,
        "steps": prof.steps,
        "block_executions": prof.block_executions,
        "wall_seconds": prof.wall_seconds,
        "instructions_per_second": prof.instructions_per_second,
        "virtual_cycles": prof.virtual_cycles,
        "virtual_seconds": prof.virtual_seconds,
        "sample_count": prof.sample_count,
        "sample_interval": prof.sample_interval,
        "opcodes": dict(sorted(prof.opcode_counts.items())),
        "opcode_cycles": dict(sorted(prof.opcode_cycles.items())),
        "digrams": {
            "+".join(pair): count
            for pair, count in top_digrams(prof, len(prof.digram_counts))
        },
        "divergence": [
            {
                "function": row.function,
                "block": row.block,
                "executions": row.executions,
                "virtual_share": row.virtual_share,
                "real_share": row.real_share,
                "delta": row.delta,
            }
            for row in prof.divergence_rows()
        ],
    }


def vm_manifest_block(prof: VmProfile, top_digrams_n: int = 20) -> dict:
    """The ``vm`` run-ledger manifest block.

    Count cells (steps, opcode/digram counts, virtual clocks) are
    deterministic and gated at 1e-9 by the regression sentinel; the
    host-clock cells are declared measured, so the sentinel reports them
    as informational and never gates them.
    """
    digrams = {
        "+".join(pair): count
        for pair, count in top_digrams(prof, top_digrams_n)
    }
    return {
        "app": prof.app,
        "dataset": prof.dataset,
        "steps": prof.steps,
        "block_executions": prof.block_executions,
        "virtual_cycles": prof.virtual_cycles,
        "virtual_seconds": prof.virtual_seconds,
        "wall_seconds": prof.wall_seconds,
        "instructions_per_second": prof.instructions_per_second,
        "opcodes": dict(sorted(prof.opcode_counts.items())),
        "digrams": digrams,
        "sampled": {
            "interval": prof.sample_interval,
            "samples": prof.sample_count,
        },
        "measured": ["wall_seconds", "instructions_per_second", "sampled.*"],
    }


def top_digrams(
    prof: VmProfile, top: int
) -> list[tuple[tuple[str, str], int]]:
    """Digrams by descending dynamic count (deterministic tie-break)."""
    ranked = sorted(prof.digram_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top]


# -- rendering ---------------------------------------------------------------
def block_table(prof: VmProfile, top: int) -> Table:
    """The top *top* blocks by virtual cycles, with the kernel footer."""
    table = Table(
        [
            "function/block", "execs", "static ins", "virt %", "real %",
            "delta pp", "kernel",
        ],
        title=(
            f"Blocks by virtual cycles (top {top}; real shares sampled, "
            f"{prof.sample_count} samples @ every "
            f"{prof.sample_interval * 1e3:g} ms)"
        ),
    )
    for row in prof.block_rows()[:top]:
        table.add_row(
            [
                f"{row.function}/{row.block}",
                f"{row.executions:,}",
                row.static_instructions,
                f"{100 * row.virtual_share:.1f}",
                f"{100 * row.real_share:.1f}",
                f"{100 * row.delta:+.1f}",
                "yes" if row.in_kernel else "",
            ]
        )
    k = prof.kernel
    real_pct = 100 * sum(prof.real_shares.get(key, 0.0) for key in k.blocks)
    table.add_footer(
        [
            f"kernel ({len(k.blocks)} blocks)",
            "",
            k.kernel_instructions,
            f"{k.freq_pct:.1f}",
            f"{real_pct:.1f}",
            f"{real_pct - k.freq_pct:+.1f}",
            f"size {k.size_pct:.1f}%",
        ]
    )
    return table


def render_listing(prof: VmProfile, function: str | None = None) -> str:
    """Heat-annotated IR listing, hottest function first.

    With *function* set, only that function is printed (``KeyError`` if
    the module has none of that name).
    """
    rows = prof.block_rows()
    by_key = {(r.function, r.block): r for r in rows}

    def annotate(func: str, block: str) -> str | None:
        row = by_key.get((func, block))
        if row is None:
            return None
        if row.executions == 0:
            return "cold"
        note = f"{100.0 * row.virtual_share:5.1f}% time, {row.executions} runs"
        return note + " [kernel]" if row.in_kernel else note

    funcs = list(prof.module.defined_functions())
    if function is not None:
        funcs = [f for f in funcs if f.name == function]
        if not funcs:
            raise KeyError(f"module {prof.app} has no function {function!r}")
    else:
        by_func: dict[str, float] = {}
        for r in rows:
            by_func[r.function] = by_func.get(r.function, 0.0) + r.virtual_share
        funcs.sort(key=lambda f: -by_func.get(f.name, 0.0))
    return "\n\n".join(print_function(f, annotate=annotate) for f in funcs)


def render_vmprof(
    prof: VmProfile, top: int = 12, function: str | None = None
) -> str:
    """ASCII report: header and kernel line, opcodes, digrams, the block
    table and the heat-annotated IR listing."""
    k = prof.kernel
    sections = [
        f"vmprof: {prof.app}/{prof.dataset} - {prof.steps:,} instructions in "
        f"{prof.wall_seconds:.3f}s real "
        f"({prof.instructions_per_second / 1e6:.2f} M instr/s), "
        f"{prof.virtual_seconds * 1e3:.2f}ms virtual "
        f"({prof.virtual_cycles:,.0f} PPC405 cycles)\n"
        f"kernel {len(k.blocks)} blocks / {k.kernel_instructions} of "
        f"{k.total_instructions} instructions "
        f"(size {k.size_pct:.1f}%, freq {k.freq_pct:.1f}%)"
    ]

    total = sum(prof.opcode_cycles.values()) or 1.0
    opcodes = Table(
        ["opcode", "dyn count", "virt cycles", "cycles %"],
        title=f"Top opcodes (by virtual cycles, top {top})",
    )
    counts, cycles = prof.opcode_counts, prof.opcode_cycles
    ranked = sorted(counts, key=lambda op: (-cycles.get(op, 0.0), -counts[op], op))
    for op in ranked[:top]:
        op_cycles = cycles.get(op, 0.0)
        opcodes.add_row(
            [
                op,
                f"{counts[op]:,}",
                f"{op_cycles:,.0f}",
                f"{100 * op_cycles / total:.1f}",
            ]
        )
    sections.append(opcodes.render())

    digram_table = Table(
        ["digram", "count"], title=f"Top opcode digrams (top {top})"
    )
    for pair, count in top_digrams(prof, top):
        digram_table.add_row(["+".join(pair), f"{count:,}"])
    sections.append(digram_table.render())
    sections.append(block_table(prof, top).render())
    sections.append(render_listing(prof, function))
    return "\n\n".join(sections)
