"""Basic blocks: straight-line instruction sequences with one terminator.

Basic blocks are the unit of profiling in the paper: per-block
execution counts drive the coverage analysis of Section IV-C and the
pruning that precedes candidate search (Figure 2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.ir.instructions import Instruction, PhiInstruction

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir.function import Function


class BasicBlock:
    """A basic block within a function.

    Instructions are stored in execution order; phi nodes must come first
    and exactly one terminator must come last (enforced by the verifier).
    """

    __slots__ = ("name", "instructions", "parent")

    def __init__(self, name: str, parent: "Function | None" = None) -> None:
        self.name = name
        self.instructions: list[Instruction] = []
        self.parent = parent

    # -- mutation --------------------------------------------------------------
    def append(self, instr: Instruction) -> Instruction:
        if self.instructions and self.instructions[-1].is_terminator:
            raise ValueError(
                f"cannot append {instr.opcode} after terminator in block {self.name}"
            )
        instr.parent = self
        self.instructions.append(instr)
        return instr

    def insert(self, index: int, instr: Instruction) -> Instruction:
        instr.parent = self
        self.instructions.insert(index, instr)
        return instr

    def remove(self, instr: Instruction) -> None:
        self.instructions.remove(instr)
        instr.parent = None

    # -- queries ---------------------------------------------------------------
    @property
    def terminator(self) -> Instruction | None:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def successors(self) -> list["BasicBlock"]:
        term = self.terminator
        return list(term.targets) if term is not None else []

    def predecessors(self) -> list["BasicBlock"]:
        """Blocks that branch to this one (computed by scanning the parent)."""
        if self.parent is None:
            return []
        return [b for b in self.parent.blocks if self in b.successors]

    def phis(self) -> list[PhiInstruction]:
        out = []
        for instr in self.instructions:
            if isinstance(instr, PhiInstruction):
                out.append(instr)
            else:
                break
        return out

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<BasicBlock {self.name} ({len(self.instructions)} instrs)>"
