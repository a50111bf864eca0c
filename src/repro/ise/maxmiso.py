"""MAXMISO identification (linear complexity).

The algorithm the paper uses for candidate search. A MISO (multiple-input,
single-output) subgraph computes one result; a MAXMISO is a MISO not
contained in any larger MISO. MAXMISOs partition the feasible nodes of a
dataflow graph and can be found in linear time (Alippi et al.):

1. a feasible node is a *root* if its result escapes the feasible region —
   it is used by more than one consumer, by an infeasible instruction, by
   another block, or not at all;
2. the MAXMISO of a root is grown backwards from the root through feasible
   operands whose *only* consumer lies inside the subgraph (fan-out-1
   chains); a node with fan-out > 1 stops the growth and seeds its own
   MAXMISO.

The resulting subgraphs are trees rooted at the single output, hence
trivially convex and single-output.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.basicblock import BasicBlock
from repro.ir.dfg import DataFlowGraph
from repro.ir.instructions import Instruction
from repro.ise.candidate import Candidate
from repro.ise.feasibility import is_feasible_instruction


@dataclass(frozen=True)
class MaxMisoIdentifier:
    """Identify MAXMISO candidates in basic blocks.

    ``min_size`` drops trivial one-instruction candidates: offloading a
    single ALU operation can never amortize the FCB transfer overhead, and
    the paper's candidates average ~7 instructions.
    """

    min_size: int = 2

    name = "maxmiso"

    def identify_block(
        self, function_name: str, block: BasicBlock, start_index: int = 0
    ) -> list[Candidate]:
        dfg = DataFlowGraph(block)
        body = dfg.nodes
        feasible = {id(n) for n in body if is_feasible_instruction(n)}
        if not feasible:
            return []

        # A node is a root iff its value is NOT consumed by exactly one
        # feasible in-block instruction (and nothing else).
        roots: list[Instruction] = []
        used_once_inside: set[int] = set()
        for node in body:
            if id(node) not in feasible:
                continue
            uses = dfg.successors(node)
            external_use = id(node) in dfg._external_uses  # noqa: SLF001
            feasible_uses = [u for u in uses if id(u) in feasible]
            infeasible_uses = [u for u in uses if id(u) not in feasible]
            if (
                len(feasible_uses) == 1
                and not infeasible_uses
                and not external_use
            ):
                used_once_inside.add(id(node))
            else:
                roots.append(node)

        candidates: list[Candidate] = []
        claimed: set[int] = set()
        index = start_index
        order = {id(n): i for i, n in enumerate(body)}
        for root in roots:
            members: list[Instruction] = []
            stack = [root]
            while stack:
                node = stack.pop()
                if id(node) in claimed:
                    continue
                claimed.add(id(node))
                members.append(node)
                for operand in node.operands:
                    if (
                        isinstance(operand, Instruction)
                        and id(operand) in feasible
                        and id(operand) in used_once_inside
                        and id(operand) not in claimed
                    ):
                        stack.append(operand)
            if len(members) < self.min_size:
                continue
            members.sort(key=lambda n: order[id(n)])
            candidates.append(
                Candidate(
                    function=function_name,
                    block=block.name,
                    nodes=members,
                    dfg=dfg,
                    index=index,
                )
            )
            index += 1
        return candidates
