"""Custom-instruction candidates.

A candidate is a convex, hardware-feasible subgraph of one basic block's
dataflow graph, with identified external inputs and outputs. Candidates are
hashable by a *structural signature* (canonical form of the DFG shape,
opcodes and types) — the key used by the partial-bitstream cache in
Section VI-A: structurally identical candidates map to the same hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.ir.dfg import DataFlowGraph
from repro.ir.instructions import Instruction
from repro.ir.values import Constant, Value
from repro.util.rng import stable_hash


@dataclass
class Candidate:
    """One custom-instruction candidate."""

    function: str
    block: str
    nodes: list[Instruction]  # in topological order
    dfg: DataFlowGraph = field(repr=False)
    index: int = 0  # per-app candidate number

    def __post_init__(self) -> None:
        self._node_ids = {id(n) for n in self.nodes}

    # -- structure ---------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of IR instructions covered (paper: ~7 per candidate)."""
        return len(self.nodes)

    @cached_property
    def inputs(self) -> list[Value]:
        return self.dfg.inputs_of(self.nodes)

    @cached_property
    def outputs(self) -> list[Instruction]:
        return self.dfg.outputs_of(self.nodes)

    def contains(self, instr: Instruction) -> bool:
        return id(instr) in self._node_ids

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.function, self.block, self.index)

    # -- canonical signature -------------------------------------------------
    @cached_property
    def signature(self) -> int:
        """Structural 64-bit signature of the candidate datapath.

        Two candidates with the same signature describe the same hardware:
        identical node opcodes/types/predicates, identical internal wiring,
        and identical input arity/types. Instruction names, parent blocks
        and concrete non-constant input values do not influence it.
        Constants participate (they are baked into the datapath).
        """
        order = {id(n): i for i, n in enumerate(self.nodes)}
        input_index: dict[int, int] = {}
        parts: list[object] = []
        for instr in self.nodes:
            operand_keys = []
            for op in instr.operands:
                if isinstance(op, Constant):
                    operand_keys.append(("c", str(op.type), repr(op.value)))
                elif isinstance(op, Instruction) and id(op) in order:
                    operand_keys.append(("n", order[id(op)]))
                else:
                    idx = input_index.setdefault(id(op), len(input_index))
                    operand_keys.append(("i", idx, str(op.type)))
            parts.append(
                (
                    instr.opcode.value,
                    str(instr.type),
                    instr.pred.value if instr.pred is not None else "",
                    instr.elem_size,
                    tuple(operand_keys),
                )
            )
        # Output positions are part of the interface.
        out_positions = tuple(sorted(order[id(o)] for o in self.outputs))
        return stable_hash(tuple(parts), out_positions)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Candidate #{self.index} {self.function}/{self.block} "
            f"size={self.size} in={len(self.inputs)} out={len(self.outputs)}>"
        )
