"""Differential test of the cost model's fixed-cost table.

:meth:`repro.vm.costmodel.CostModel.cycles_for` answers int and other
opcodes from one table built per model and falls back to branches for
float, conversion, call and custom instructions. Every instruction of
every app is priced here against the branch-only reference, under the
PPC405 model, a soft-float-scaled model and a Woolcano model with its
own cost tables and custom-instruction costs.
"""

from __future__ import annotations

from dataclasses import fields
from functools import lru_cache

import pytest

from repro.apps import ALL_APPS
from repro.apps.base import compile_app
from repro.ir import I32, IRBuilder, Module
from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode
from repro.vm.costmodel import PPC405_COST_MODEL, CostModel
from repro.vm.intrinsics import INTRINSICS
from repro.woolcano.machine import WoolcanoCostModel


def reference_cycles(model: CostModel, instr) -> float:
    """Cycle cost by the opcode branches alone, in precedence order."""
    op = instr.opcode
    if op is Opcode.CALL:
        callee = instr.callee
        if isinstance(callee, str):
            spec = INTRINSICS[callee]
            if spec.return_type.is_float or any(
                t.is_float for t in spec.param_types
            ):
                return spec.cycles * model.soft_float_scale
            return spec.cycles
        return model.call_overhead
    if op is Opcode.CUSTOM:
        return float(model.custom_costs[instr.custom_id])
    if op in model.float_costs or op in (Opcode.FPTOSI, Opcode.SITOFP):
        base = float(model.float_costs.get(op, 0.0))
        if (instr.type.is_float and instr.type.bits == 32) or any(
            o.type.is_float and o.type.bits == 32 for o in instr.operands
        ):
            base *= model.f32_factor
        return base * model.soft_float_scale
    if op in model.int_costs:
        return float(model.int_costs[op])
    return float(model.other_costs[op])


def custom_woolcano_model() -> WoolcanoCostModel:
    """Woolcano model whose tables differ from the defaults, including an
    int opcode also priced as float (the float branch wins)."""
    base = PPC405_COST_MODEL
    return WoolcanoCostModel(
        int_costs={**base.int_costs, Opcode.MUL: 7, Opcode.ADD: 2},
        float_costs={**base.float_costs, Opcode.XOR: 5},
        other_costs={**base.other_costs, Opcode.LOAD: 3, Opcode.SHL: 9},
        custom_costs={3: 7.5},
        soft_float_scale=1.5,
    )


MODELS = {
    "ppc405": PPC405_COST_MODEL,
    "soft-float-x3": PPC405_COST_MODEL.with_soft_float_scale(3.0),
    "woolcano-custom": custom_woolcano_model(),
}


@lru_cache(maxsize=1)
def every_instruction() -> list:
    return [
        instr
        for spec in ALL_APPS
        for func in compile_app(spec).module.defined_functions()
        for block in func.blocks
        for instr in block.instructions
    ]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_cycles_for_matches_reference_on_every_app(name):
    model = MODELS[name]
    instructions = every_instruction()
    opcodes = {instr.opcode for instr in instructions}
    assert {Opcode.CALL, Opcode.FADD, Opcode.ADD, Opcode.LOAD} <= opcodes
    for instr in instructions:
        assert model.cycles_for(instr) == reference_cycles(model, instr), (
            instr.opcode
        )


def test_custom_instruction_priced_by_woolcano_model():
    module = Module("t")
    func = module.declare_function("f", I32, [("a", I32)])
    custom = Instruction(Opcode.CUSTOM, I32, [func.args[0]], "c", custom_id=3)
    func.add_block("entry").append(custom)
    IRBuilder(func.entry).ret(custom)
    model = MODELS["woolcano-custom"]
    assert model.cycles_for(custom) == reference_cycles(model, custom) == 7.5
    with pytest.raises(ValueError):
        PPC405_COST_MODEL.cycles_for(custom)


def test_table_is_no_field_and_derived_models_build_their_own():
    names = [f.name for f in fields(CostModel)]
    assert "_fixed_costs" not in names
    base = CostModel()
    assert base._fixed_costs is base._fixed_costs  # built once, then cached
    scaled = base.with_soft_float_scale(3.0)
    assert scaled._fixed_costs is not base._fixed_costs
    assert Opcode.XOR not in MODELS["woolcano-custom"]._fixed_costs
    assert MODELS["woolcano-custom"]._fixed_costs[Opcode.SHL] == 1.0
