"""Instruction classes.

An :class:`Instruction` is an SSA value with an opcode and operand list.
A few opcodes carry extra static attributes (comparison predicate, GEP
element size, call target, branch targets); these live in ``attrs`` fields
rather than subclasses, except PHI which genuinely needs different structure
(per-predecessor incoming values).

Instruction def-use edges form the per-block dataflow graphs in which
the paper's candidate search looks for custom instructions (Figure 2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.ir.opcodes import (
    Opcode,
    ICmpPred,
    FCmpPred,
    is_terminator,
)
from repro.ir.types import Type, VOID
from repro.ir.values import Value

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.basicblock import BasicBlock
    from repro.ir.function import Function


class Instruction(Value):
    """A single IR instruction.

    Attributes:
        opcode: the :class:`Opcode`.
        operands: list of :class:`Value` operands (data inputs only; branch
            targets are stored separately in ``targets``).
        targets: successor blocks for terminators (``BR``: 1, ``CONDBR``: 2
            in (true, false) order).
        pred: comparison predicate for ICMP/FCMP.
        callee: called :class:`Function` or intrinsic name for CALL.
        elem_size: element size in bytes for GEP and ALLOCA.
        alloc_count: element count for ALLOCA.
        custom_id: identifier of the custom instruction for CUSTOM opcodes.
        parent: owning basic block (set on insertion).
    """

    __slots__ = (
        "opcode",
        "operands",
        "targets",
        "pred",
        "callee",
        "elem_size",
        "alloc_count",
        "custom_id",
        "parent",
    )

    def __init__(
        self,
        opcode: Opcode,
        ty: Type,
        operands: list[Value],
        name: str = "",
        *,
        targets: Optional[list["BasicBlock"]] = None,
        pred: ICmpPred | FCmpPred | None = None,
        callee=None,
        elem_size: int = 0,
        alloc_count: int = 1,
        custom_id: int = -1,
    ) -> None:
        super().__init__(ty, name)
        self.opcode = opcode
        self.operands = list(operands)
        self.targets = list(targets) if targets else []
        self.pred = pred
        self.callee = callee
        self.elem_size = elem_size
        self.alloc_count = alloc_count
        self.custom_id = custom_id
        self.parent: "BasicBlock | None" = None

    # -- structural queries ---------------------------------------------------
    @property
    def is_terminator(self) -> bool:
        return is_terminator(self.opcode)

    @property
    def has_result(self) -> bool:
        return not self.type.is_void and self.opcode not in (
            Opcode.STORE,
            Opcode.BR,
            Opcode.CONDBR,
            Opcode.RET,
        )

    def replace_operand(self, old: Value, new: Value) -> int:
        """Replace every occurrence of *old* in the operand list; return count."""
        n = 0
        for i, op in enumerate(self.operands):
            if op is old:
                self.operands[i] = new
                n += 1
        return n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.ir.printer import format_instruction

        return f"<Instruction {format_instruction(self)}>"


class PhiInstruction(Instruction):
    """SSA phi node: selects an incoming value based on the CFG predecessor.

    ``incoming`` is a list of ``(value, block)`` pairs kept in sync with
    ``operands`` (which holds just the values, so generic operand-walking
    code works unchanged).
    """

    __slots__ = ("incoming_blocks",)

    def __init__(self, ty: Type, name: str = "") -> None:
        super().__init__(Opcode.PHI, ty, [], name)
        self.incoming_blocks: list["BasicBlock"] = []

    def add_incoming(self, value: Value, block: "BasicBlock") -> None:
        if value.type != self.type:
            raise TypeError(
                f"phi {self.ref()} of type {self.type} given incoming of type {value.type}"
            )
        self.operands.append(value)
        self.incoming_blocks.append(block)

    @property
    def incoming(self) -> list[tuple[Value, "BasicBlock"]]:
        return list(zip(self.operands, self.incoming_blocks))

    def remove_incoming(self, block: "BasicBlock") -> None:
        for i, blk in enumerate(self.incoming_blocks):
            if blk is block:
                del self.incoming_blocks[i]
                del self.operands[i]
                return
        raise KeyError(f"phi {self.ref()} has no incoming value for {block.name}")
