"""VM execution observatory: opcode profile and real-vs-virtual divergence.

Two views of one app run:

1. **Opcode profile** — dynamic per-opcode and opcode-digram counts plus
   virtual (PPC405) cycles per opcode, all derived post-hoc from the block
   profile (:mod:`repro.vm.profiler`), so the run itself pays nothing.
2. **Real-vs-virtual divergence** — the opt-in block sampler attributes
   wall time to blocks; comparing each block's real share against its
   virtual-cycle share (the paper's Section IV profile) shows where the
   Python interpreter disagrees with the PPC405 model. The real clock is
   measured per block on the actual machine, not priced by a cost model,
   per the measured-cost selection argument of the microarchitecture-aware
   ISE literature (PAPERS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from repro.ir.module import Module
from repro.util.tables import Table
from repro.vm.costmodel import PPC405_COST_MODEL, CostModel
from repro.vm.profiler import BlockKey, BlockTimeSampler, ExecutionProfile


@dataclass
class DivergenceRow:
    """Real vs virtual time share of one block."""

    function: str
    block: str
    executions: int
    virtual_share: float
    real_share: float

    @property
    def delta(self) -> float:
        """Real-minus-virtual share: positive = Python-bound block."""
        return self.real_share - self.virtual_share


@dataclass
class VmProfile:
    """The observatory's full view of one profiled app run."""

    app: str
    dataset: str
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
    sample_count: int
    sample_interval: int

    @property
    def instructions_per_second(self) -> float:
        return self.steps / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def divergence_rows(self) -> list[DivergenceRow]:
        """Per-block real-vs-virtual share table, worst offenders first."""
        rows = [
            DivergenceRow(
                function=key[0],
                block=key[1],
                executions=self.block_counts.get(key, 0),
                virtual_share=self.virtual_shares.get(key, 0.0),
                real_share=self.real_shares.get(key, 0.0),
            )
            for key in set(self.virtual_shares) | set(self.real_shares)
        ]
        rows.sort(key=lambda r: (-abs(r.delta), r.function, r.block))
        return rows


# -- profiling ---------------------------------------------------------------
def profile_app(
    app: str,
    dataset: str | None = None,
    sample_interval: int = 64,
    cost_model: CostModel = PPC405_COST_MODEL,
) -> VmProfile:
    """Compile *app*, run it under the sampler, and assemble the profile.

    With ``sample_interval=0`` the run is unsampled (real shares empty).
    """
    from repro.apps import compile_app, get_app

    spec = get_app(app)
    compiled = compile_app(spec)
    ds = spec.dataset(dataset) if dataset else spec.train

    sampler = (
        BlockTimeSampler(interval=sample_interval) if sample_interval > 0 else None
    )
    start = perf_counter()
    result = compiled.run(ds, sampler=sampler)
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
    sampler: BlockTimeSampler | None,
    cost_model: CostModel = PPC405_COST_MODEL,
) -> VmProfile:
    """Assemble a :class:`VmProfile` from an already-executed run."""
    virtual_cycles = profile.total_cycles(module, cost_model)
    return VmProfile(
        app=app,
        dataset=dataset,
        steps=steps,
        block_executions=profile.total_block_executions,
        wall_seconds=wall_seconds,
        virtual_cycles=virtual_cycles,
        virtual_seconds=cost_model.seconds(virtual_cycles),
        opcode_counts=profile.opcode_counts(module),
        opcode_cycles=profile.opcode_cycles(module, cost_model),
        digram_counts=profile.digram_counts(module),
        block_counts={key: p.count for key, p in profile.blocks.items()},
        virtual_shares=profile.block_time_shares(module, cost_model),
        real_shares=sampler.shares() if sampler is not None else {},
        sample_count=sampler.sample_count if sampler is not None else 0,
        sample_interval=sampler.interval if sampler is not None else 0,
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
    host-clock cells are declared measured (informational until
    ``--history`` noise bands promote them).
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
def opcode_table(
    counts: dict[str, int], cycles: dict[str, float], top: int, title: str
) -> Table:
    """Dynamic count and virtual cycles per opcode, top *top* by cycles."""
    total = sum(cycles.values()) or 1.0
    table = Table(["opcode", "dyn count", "virt cycles", "cycles %"], title=title)
    ranked = sorted(counts, key=lambda op: (-cycles.get(op, 0.0), -counts[op], op))
    for op in ranked[:top]:
        op_cycles = cycles.get(op, 0.0)
        table.add_row(
            [
                op,
                f"{counts[op]:,}",
                f"{op_cycles:,.0f}",
                f"{100 * op_cycles / total:.1f}",
            ]
        )
    return table


def render_vmprof(prof: VmProfile, top: int = 12) -> str:
    """ASCII report: opcodes, digrams and real-vs-virtual divergence."""
    sections: list[str] = []
    sections.append(
        f"vmprof: {prof.app}/{prof.dataset} - {prof.steps:,} instructions in "
        f"{prof.wall_seconds:.3f}s real "
        f"({prof.instructions_per_second / 1e6:.2f} M instr/s), "
        f"{prof.virtual_seconds * 1e3:.2f}ms virtual "
        f"({prof.virtual_cycles:,.0f} PPC405 cycles)"
    )
    sections.append(
        opcode_table(
            prof.opcode_counts,
            prof.opcode_cycles,
            top,
            title=f"Top opcodes (by virtual cycles, top {top})",
        ).render()
    )

    digram_table = Table(
        ["digram", "count"], title=f"Top opcode digrams (top {top})"
    )
    for pair, count in top_digrams(prof, top):
        digram_table.add_row(["+".join(pair), f"{count:,}"])
    sections.append(digram_table.render())

    if prof.real_shares:
        div_table = Table(
            ["function/block", "execs", "virt %", "real %", "delta pp"],
            title=(
                "Real-vs-virtual divergence (sampled, "
                f"{prof.sample_count} samples @ every "
                f"{prof.sample_interval} blocks)"
            ),
        )
        for row in prof.divergence_rows()[:top]:
            div_table.add_row(
                [
                    f"{row.function}/{row.block}",
                    f"{row.executions:,}",
                    f"{100 * row.virtual_share:.1f}",
                    f"{100 * row.real_share:.1f}",
                    f"{100 * row.delta:+.1f}",
                ]
            )
        sections.append(div_table.render())

    return "\n\n".join(sections)
