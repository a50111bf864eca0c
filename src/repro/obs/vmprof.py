"""VM execution observatory: opcode-level dispatch profiling.

Three views of one app run, feeding the ROADMAP's dispatch-optimization
work:

1. **Opcode profile** — dynamic per-opcode and opcode-digram counts plus
   virtual (PPC405) cycles per opcode, all derived post-hoc from the block
   profile (:mod:`repro.vm.profiler`), so the run itself pays nothing.
2. **Real-vs-virtual divergence** — the opt-in block sampler attributes
   wall time to blocks; comparing each block's real share against its
   virtual-cycle share (the paper's Section IV profile) shows where the
   Python interpreter disagrees with the PPC405 model — exactly the
   blocks dispatch work should attack first, per the measured-cost
   selection argument of the microarchitecture-aware ISE literature
   (PAPERS.md).
3. **Superinstruction candidates** — straight-line opcode sequences from
   hot blocks ranked by estimated dispatch savings (dynamic frequency x
   measured per-dispatch cost from :mod:`repro.vm.dispatchcost`), the VM
   analogue of the paper's Section V ISE candidate ranking. The ranked
   list persists as the ``vm.superinsn`` manifest block. Since the
   interpreter compiles every block into one generated function, these
   candidates are observability only: they show which opcode chains
   dominate dispatch, not sites to splice.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from repro.ir.module import Module
from repro.util.tables import Table
from repro.vm.costmodel import PPC405_COST_MODEL, CostModel
from repro.vm.dispatchcost import DispatchCostTable, measure_dispatch_costs
from repro.vm.profiler import (
    BlockKey,
    BlockTimeSampler,
    ExecutionProfile,
    static_block_opcodes,
)

#: Opcodes that end a straight-line sequence for the miner: calls and
#: CUSTOM hide arbitrary work behind one instruction, phis are resolved at
#: block entry, and terminators end the block.
FUSION_EXCLUDED = frozenset({"call", "custom", "phi", "br", "condbr", "ret"})

#: Candidate sequence lengths (straight-line opcode n-grams).
MIN_SEQ_LEN = 2
MAX_SEQ_LEN = 4


@dataclass
class SuperInsnCandidate:
    """One ranked superinstruction candidate."""

    sequence: tuple[str, ...]
    dynamic_count: int
    static_sites: int
    est_saved_seconds: float

    @property
    def name(self) -> str:
        return "+".join(self.sequence)


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
    candidates: list[SuperInsnCandidate]
    dispatch: DispatchCostTable | None = None

    @property
    def instructions_per_second(self) -> float:
        return self.steps / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def opcode_real_seconds(self) -> dict[str, float]:
        """Estimated real seconds per opcode (counts x calibrated cost)."""
        if self.dispatch is None:
            return {}
        return {
            mnemonic: count * self.dispatch.seconds_for(mnemonic)
            for mnemonic, count in self.opcode_counts.items()
        }

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
    dispatch: DispatchCostTable | None = None,
    calibrate: bool = True,
    max_candidates: int = 10,
) -> VmProfile:
    """Compile *app*, run it under the sampler, and assemble the profile.

    With ``sample_interval=0`` the run is unsampled (real shares empty).
    ``dispatch`` supplies a pre-measured cost table; otherwise one is
    calibrated unless ``calibrate`` is false.
    """
    from repro.apps import compile_app, get_app

    spec = get_app(app)
    compiled = compile_app(spec)
    ds = spec.dataset(dataset) if dataset else spec.train

    if dispatch is None and calibrate:
        dispatch = measure_dispatch_costs()

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
        dispatch=dispatch,
        max_candidates=max_candidates,
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
    dispatch: DispatchCostTable | None = None,
    max_candidates: int = 10,
) -> VmProfile:
    """Assemble a :class:`VmProfile` from an already-executed run."""
    virtual_cycles = profile.total_cycles(module, cost_model)
    overhead = (
        dispatch.dispatch_overhead_seconds if dispatch is not None else 0.0
    )
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
        candidates=mine_superinsns(
            module, profile, overhead, top=max_candidates
        ),
        dispatch=dispatch,
    )


# -- superinstruction mining -------------------------------------------------
def mine_superinsns(
    module: Module,
    profile: ExecutionProfile,
    dispatch_overhead_seconds: float,
    min_len: int = MIN_SEQ_LEN,
    max_len: int = MAX_SEQ_LEN,
    top: int = 10,
) -> list[SuperInsnCandidate]:
    """Rank straight-line opcode sequences by estimated dispatch savings.

    Fusing a length-k sequence into one handler eliminates k-1 dispatches
    per dynamic execution, so ``savings = count x (k-1) x overhead``. The
    ranking is deterministic: the measured overhead is a common factor, so
    order depends only on the integer counts (ties break on the sequence).
    Sub-sequences that occur nowhere outside an already-selected longer
    candidate are dropped — they are the same fusion opportunity counted
    twice.
    """
    composition = static_block_opcodes(module)
    stats: dict[tuple[str, ...], list[int]] = {}
    for key, prof in profile.blocks.items():
        if prof.count == 0:
            continue
        ops = composition.get(key, ())
        if prof.static_instructions != len(ops):
            # The block was structurally modified after this profile was
            # recorded — in practice, the binary patcher spliced a CUSTOM
            # in and removed the covered nodes. The recorded counts
            # describe the *old* composition, so mining the new one would
            # count sequences across the patch seam (adjacencies that
            # never executed together). Skip the block: a post-patch
            # profile of the same app mines it normally.
            continue
        for length in range(min_len, max_len + 1):
            for start in range(len(ops) - length + 1):
                seq = ops[start : start + length]
                if any(op in FUSION_EXCLUDED for op in seq):
                    continue
                entry = stats.setdefault(tuple(seq), [0, 0])
                entry[0] += prof.count
                entry[1] += 1

    ranked = sorted(
        stats.items(),
        key=lambda item: (-item[1][0] * (len(item[0]) - 1), item[0]),
    )
    selected: list[SuperInsnCandidate] = []
    for seq, (count, sites) in ranked:
        if len(selected) >= top:
            break
        if any(
            _contains(c.sequence, seq) and c.dynamic_count >= count
            for c in selected
        ):
            continue
        selected.append(
            SuperInsnCandidate(
                sequence=seq,
                dynamic_count=count,
                static_sites=sites,
                est_saved_seconds=count
                * (len(seq) - 1)
                * dispatch_overhead_seconds,
            )
        )
    return selected


def _contains(haystack: tuple[str, ...], needle: tuple[str, ...]) -> bool:
    """Whether *needle* occurs as a contiguous run inside *haystack*."""
    if len(needle) > len(haystack):
        return False
    return any(
        haystack[i : i + len(needle)] == needle
        for i in range(len(haystack) - len(needle) + 1)
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
        "opcode_real_seconds": dict(sorted(prof.opcode_real_seconds().items())),
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
        "superinsn": [
            {
                "sequence": candidate.name,
                "length": len(candidate.sequence),
                "dynamic_count": candidate.dynamic_count,
                "static_sites": candidate.static_sites,
                "est_saved_seconds": candidate.est_saved_seconds,
            }
            for candidate in prof.candidates
        ],
        "dispatch": prof.dispatch.to_dict() if prof.dispatch else None,
    }


def vm_manifest_block(prof: VmProfile, top_digrams_n: int = 20) -> dict:
    """The ``vm`` run-ledger manifest block.

    Count cells (steps, opcode/digram/superinsn counts, virtual clocks)
    are deterministic and gated at 1e-9 by the regression sentinel; the
    host-clock cells are declared measured (informational until
    ``--history`` noise bands promote them).
    """
    digrams = {
        "+".join(pair): count
        for pair, count in top_digrams(prof, top_digrams_n)
    }
    superinsn = {
        candidate.name: {
            "rank": rank,
            "length": len(candidate.sequence),
            "dynamic_count": candidate.dynamic_count,
            "static_sites": candidate.static_sites,
            "saved_ms": candidate.est_saved_seconds * 1e3,
        }
        for rank, candidate in enumerate(prof.candidates, start=1)
    }
    block: dict = {
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
        "superinsn": superinsn,
        "sampled": {
            "interval": prof.sample_interval,
            "samples": prof.sample_count,
        },
        "measured": [
            "wall_seconds", "instructions_per_second", "dispatch.*",
            "*saved_ms", "sampled.*",
        ],
    }
    if prof.dispatch is not None:
        block["dispatch"] = {
            f"{name}_ns": seconds * 1e9
            for name, seconds in sorted(prof.dispatch.class_seconds.items())
        }
    return block


def top_digrams(
    prof: VmProfile, top: int
) -> list[tuple[tuple[str, str], int]]:
    """Digrams by descending dynamic count (deterministic tie-break)."""
    ranked = sorted(prof.digram_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top]


# -- rendering ---------------------------------------------------------------
def render_vmprof(prof: VmProfile, top: int = 12) -> str:
    """ASCII report: opcodes on both clocks, digrams, divergence, miner."""
    sections: list[str] = []
    sections.append(
        f"vmprof: {prof.app}/{prof.dataset} - {prof.steps:,} instructions in "
        f"{prof.wall_seconds:.3f}s real "
        f"({prof.instructions_per_second / 1e6:.2f} M instr/s), "
        f"{prof.virtual_seconds * 1e3:.2f}ms virtual "
        f"({prof.virtual_cycles:,.0f} PPC405 cycles)"
    )

    real_by_op = prof.opcode_real_seconds()
    total_cycles = sum(prof.opcode_cycles.values()) or 1.0
    total_real = sum(real_by_op.values()) or 1.0
    table = Table(
        ["opcode", "count", "virt cycles", "virt %", "real est ms", "real %"],
        title=f"Top opcodes (by estimated real time, top {top})",
    )
    ranked_ops = sorted(
        prof.opcode_counts,
        key=lambda op: (-real_by_op.get(op, 0.0), -prof.opcode_counts[op], op),
    )
    for op in ranked_ops[:top]:
        cycles = prof.opcode_cycles.get(op, 0.0)
        real = real_by_op.get(op, 0.0)
        table.add_row(
            [
                op,
                f"{prof.opcode_counts[op]:,}",
                f"{cycles:,.0f}",
                f"{100 * cycles / total_cycles:.1f}",
                f"{real * 1e3:.2f}" if real_by_op else "-",
                f"{100 * real / total_real:.1f}" if real_by_op else "-",
            ]
        )
    sections.append(table.render())

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

    if prof.candidates:
        miner = Table(
            ["rank", "sequence", "dyn count", "sites", "est saved ms"],
            title="Superinstruction candidates (dispatch savings)",
        )
        for rank, candidate in enumerate(prof.candidates, start=1):
            miner.add_row(
                [
                    rank,
                    candidate.name,
                    f"{candidate.dynamic_count:,}",
                    candidate.static_sites,
                    f"{candidate.est_saved_seconds * 1e3:.2f}",
                ]
            )
        sections.append(miner.render())

    if prof.dispatch is not None:
        disp = Table(
            ["class", "ns/dispatch"],
            title="Measured dispatch cost (this host)",
        )
        for name, seconds in sorted(
            prof.dispatch.class_seconds.items(), key=lambda kv: -kv[1]
        ):
            disp.add_row([name, f"{seconds * 1e9:.0f}"])
        sections.append(disp.render())

    return "\n\n".join(sections)
