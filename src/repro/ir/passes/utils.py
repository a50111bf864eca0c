"""Shared helpers for passes.

Shared by the passes standing in for LLVM's -O pipeline in the
paper's Figure 1 tool flow.
"""

from __future__ import annotations

from repro.ir.function import Function
from repro.ir.values import Value


def replace_all_uses(func: Function, old: Value, new: Value) -> int:
    """Replace every operand reference to *old* with *new* in *func*.

    Returns the number of replaced operand slots. Branch targets and phi
    incoming-block lists are unaffected (those reference blocks, not values).
    """
    count = 0
    for block in func.blocks:
        for instr in block.instructions:
            count += instr.replace_operand(old, new)
    return count


def build_use_counts(func: Function) -> dict[int, int]:
    """Map ``id(value) -> number of operand uses`` across the function."""
    counts: dict[int, int] = {}
    for block in func.blocks:
        for instr in block.instructions:
            for op in instr.operands:
                counts[id(op)] = counts.get(id(op), 0) + 1
    return counts
