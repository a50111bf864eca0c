"""Union-of-MISOs identification (greedy clustering baseline).

Middle ground between MAXMISO (linear, single-output) and single-cut
enumeration (exponential, multi-output): start from the MAXMISO partition
and greedily merge adjacent MAXMISOs (those connected by a def-use edge or
sharing an input) into multi-output candidates while the I/O constraints
hold and the merged subgraph stays convex.

A comparison algorithm alongside the MAXMISO identification the paper
uses in its candidate-search phase (Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import Instruction
from repro.ise.candidate import Candidate
from repro.ise.maxmiso import MaxMisoIdentifier


@dataclass(frozen=True)
class UnionMisoIdentifier:
    """Merge MAXMISOs under I/O constraints."""

    max_inputs: int = 6
    max_outputs: int = 3
    min_size: int = 2

    name = "unioniso"

    def identify_block(
        self, function_name: str, block: BasicBlock, start_index: int = 0
    ) -> list[Candidate]:
        base = MaxMisoIdentifier(min_size=1).identify_block(
            function_name, block, 0
        )
        if not base:
            return []
        dfg = base[0].dfg
        groups: list[set[Instruction]] = [set(c.nodes) for c in base]

        def io_ok(nodes: set[Instruction]) -> bool:
            return (
                len(dfg.inputs_of(nodes)) <= self.max_inputs
                and len(dfg.outputs_of(nodes)) <= self.max_outputs
            )

        def adjacent(a: set[Instruction], b: set[Instruction]) -> bool:
            a_ids = {id(n) for n in a}
            b_inputs = {id(v) for v in dfg.inputs_of(b)}
            a_inputs = {id(v) for v in dfg.inputs_of(a)}
            if a_inputs & b_inputs:
                return True
            for n in a:
                for succ in dfg.successors(n):
                    if succ in b:
                        return True
            for n in b:
                for succ in dfg.successors(n):
                    if id(succ) in a_ids:
                        return True
            return False

        merged = True
        while merged:
            merged = False
            for i in range(len(groups)):
                for j in range(i + 1, len(groups)):
                    union = groups[i] | groups[j]
                    if (
                        adjacent(groups[i], groups[j])
                        and io_ok(union)
                        and dfg.is_convex(union)
                    ):
                        groups[i] = union
                        del groups[j]
                        merged = True
                        break
                if merged:
                    break

        order = {id(n): i for i, n in enumerate(dfg.nodes)}
        candidates: list[Candidate] = []
        index = start_index
        for group in groups:
            if len(group) < self.min_size:
                continue
            members = sorted(group, key=lambda n: order[id(n)])
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
