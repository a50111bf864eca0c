"""CPU cycle cost model (PowerPC-405 flavoured).

The Woolcano base CPU is the PowerPC-405 hard core of a Virtex-4 FX: a
simple 5-stage in-order scalar with **no FPU**. Floating-point arithmetic is
performed by a software emulation library, which is why FP operations cost
tens of cycles while integer ALU operations cost one. This asymmetry is the
single most important constant in the reproduction: the paper's large
custom-instruction speedups for compact FP kernels (fft, sor, whetstone)
exist precisely because an FPGA datapath collapses a multi-hundred-cycle
soft-float expression tree into a few fabric cycles.

Costs are approximate PPC-405 figures (integer ALU ops single-cycle; mul
4; div 35; loads 2 assuming on-chip SRAM timing; soft-float library call
costs per operation).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode


# Integer op costs (cycles).
_INT_COSTS = {
    Opcode.ADD: 1,
    Opcode.SUB: 1,
    Opcode.MUL: 4,
    Opcode.SDIV: 35,
    Opcode.UDIV: 35,
    Opcode.SREM: 35,
    Opcode.UREM: 35,
    Opcode.AND: 1,
    Opcode.OR: 1,
    Opcode.XOR: 1,
    Opcode.SHL: 1,
    Opcode.LSHR: 1,
    Opcode.ASHR: 1,
    Opcode.ICMP: 1,
    Opcode.SELECT: 2,
    Opcode.ZEXT: 1,
    Opcode.SEXT: 1,
    Opcode.TRUNC: 1,
    Opcode.BITCAST: 1,
    Opcode.GEP: 1,
}

# FP emulation costs (cycles) for f64; f32 is ~0.6x. These model a tuned
# soft-float library (the numbers a hard FPU-less PPC405 achieves with the
# fastest emulation paths); a fully naive emulation would be 3-4x worse,
# which ablation A3 explores via `soft_float_scale`.
_SOFT_FLOAT_COSTS = {
    Opcode.FADD: 18,
    Opcode.FSUB: 18,
    Opcode.FMUL: 22,
    Opcode.FDIV: 60,
    Opcode.FREM: 85,
    Opcode.FNEG: 3,
    Opcode.FCMP: 9,
    Opcode.FPTOSI: 15,
    Opcode.SITOFP: 15,
    Opcode.FPEXT: 6,
    Opcode.FPTRUNC: 7,
}

_OTHER_COSTS = {
    Opcode.LOAD: 2,
    Opcode.STORE: 2,
    Opcode.ALLOCA: 1,
    Opcode.BR: 2,
    Opcode.CONDBR: 3,
    Opcode.RET: 4,
    Opcode.PHI: 0,  # resolved by register allocation; free at runtime
}

CALL_OVERHEAD_CYCLES = 12  # prologue/epilogue + branch-and-link


@dataclass(frozen=True)
class CostModel:
    """Maps instructions to CPU cycle costs and cycles to virtual seconds."""

    name: str = "ppc405"
    clock_hz: float = 300e6  # PPC405 block in a -10 speed grade V4FX
    int_costs: dict = field(default_factory=lambda: dict(_INT_COSTS))
    float_costs: dict = field(default_factory=lambda: dict(_SOFT_FLOAT_COSTS))
    other_costs: dict = field(default_factory=lambda: dict(_OTHER_COSTS))
    f32_factor: float = 0.6
    call_overhead: int = CALL_OVERHEAD_CYCLES
    # Multiplier applied to FP costs; ablation A3 sweeps this.
    soft_float_scale: float = 1.0

    @cached_property
    def _fixed_costs(self) -> dict[Opcode, float]:
        """Cost of every opcode whose cost does not depend on the operands
        or the callee: the int and other tables, minus what the branches
        of :meth:`cycles_for` price first. Built once per model; nothing
        mutates the cost dicts, and derived models are new instances."""
        table = {op: float(cost) for op, cost in self.other_costs.items()}
        table.update((op, float(cost)) for op, cost in self.int_costs.items())
        for op in (*self.float_costs, Opcode.FPTOSI, Opcode.SITOFP,
                   Opcode.CALL, Opcode.CUSTOM):
            table.pop(op, None)
        return table

    def cycles_for(self, instr: Instruction) -> float:
        """Cycle cost of one dynamic execution of *instr* (call body excluded)."""
        op = instr.opcode
        cost = self._fixed_costs.get(op)
        if cost is not None:
            return cost
        if op is Opcode.CALL:
            callee = instr.callee
            if isinstance(callee, str):
                from repro.vm.intrinsics import INTRINSICS

                base = INTRINSICS[callee].cycles
                # Math intrinsics are soft-float library code: scale with FP.
                if INTRINSICS[callee].return_type.is_float or any(
                    t.is_float for t in INTRINSICS[callee].param_types
                ):
                    return base * self.soft_float_scale
                return base
            return self.call_overhead
        if op is Opcode.CUSTOM:
            # Filled in by the Woolcano machine model; standalone CPU model
            # should never execute CUSTOM.
            raise ValueError("CUSTOM instruction cost requires a Woolcano model")
        if op in self.float_costs or op in (Opcode.FPTOSI, Opcode.SITOFP):
            base = float(self.float_costs.get(op, 0.0))
            is_f32 = (instr.type.is_float and instr.type.bits == 32) or any(
                o.type.is_float and o.type.bits == 32 for o in instr.operands
            )
            if is_f32:
                base *= self.f32_factor
            return base * self.soft_float_scale
        raise KeyError(f"no cost for opcode {op}")  # pragma: no cover

    def seconds(self, cycles: float) -> float:
        return cycles / self.clock_hz

    def with_soft_float_scale(self, scale: float) -> "CostModel":
        """Derived model with scaled FP emulation cost (ablation A3)."""
        return replace(self, soft_float_scale=scale)


PPC405_COST_MODEL = CostModel()
