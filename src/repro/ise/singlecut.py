"""Single-cut enumeration (exponential baseline).

A simplified Atasu/Pozzi-style exact algorithm: enumerate convex,
hardware-feasible subgraphs subject to I/O port constraints (Woolcano's FCB
gives 2 register read ports and 1 write port per instruction issue; we allow
configurable limits since the datapath can sequence transfers), and keep the
best non-overlapping set by estimated merit.

This is the "algorithmically expensive" state of the art the paper refers
to (obstacle 2 in the introduction): worst-case exponential in block size.
It serves as the no-pruning comparison point for the pruning-efficiency
metric of Table II and as ablation A2. A node-count budget aborts hopeless
blocks deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.basicblock import BasicBlock
from repro.ir.dfg import DataFlowGraph
from repro.ir.instructions import Instruction
from repro.ise.candidate import Candidate
from repro.ise.feasibility import is_feasible_instruction


@dataclass(frozen=True)
class SingleCutIdentifier:
    """Enumerate convex subgraphs under I/O constraints; greedy cover.

    Attributes:
        max_inputs / max_outputs: I/O port constraints of the target.
        min_size: smallest candidate worth implementing.
        search_budget: maximum number of subgraphs expanded per block
            (deterministic abort for exponential blow-up).
    """

    max_inputs: int = 4
    max_outputs: int = 2
    min_size: int = 2
    search_budget: int = 50_000

    name = "singlecut"

    def identify_block(
        self, function_name: str, block: BasicBlock, start_index: int = 0
    ) -> list[Candidate]:
        dfg = DataFlowGraph(block)
        body = dfg.topological_order()
        feasible = [n for n in body if is_feasible_instruction(n)]
        if not feasible:
            return []
        feasible_ids = {id(n) for n in feasible}
        order = {id(n): i for i, n in enumerate(body)}

        def rank(n: Instruction) -> int:
            return order[id(n)]

        # Enumerate connected convex subgraphs by growing from each seed in
        # topological order; prune on I/O violations that cannot recover.
        seen: set[frozenset[int]] = set()
        accepted: list[tuple[float, set[Instruction]]] = []
        expansions = 0

        def merit(nodes: set[Instruction]) -> float:
            # Software cycles saved is approximated by node count here;
            # the PivPav estimator refines this during selection.
            return float(len(nodes))

        def io_ok(nodes: set[Instruction]) -> bool:
            return (
                len(dfg.inputs_of(nodes)) <= self.max_inputs
                and len(dfg.outputs_of(nodes)) <= self.max_outputs
            )

        def neighbours(nodes: set[Instruction]) -> list[Instruction]:
            # Program order, not set order: set iteration follows id(), and
            # the expansion order decides what a budgeted search reaches.
            out: dict[int, Instruction] = {}
            for n in sorted(nodes, key=rank):
                for op in n.operands:
                    if (
                        isinstance(op, Instruction)
                        and id(op) in feasible_ids
                        and op not in nodes
                    ):
                        out[id(op)] = op
                for succ in dfg.successors(n):
                    if id(succ) in feasible_ids and succ not in nodes:
                        out[id(succ)] = succ
            return list(out.values())

        for seed in feasible:
            stack: list[set[Instruction]] = [{seed}]
            while stack and expansions < self.search_budget:
                nodes = stack.pop()
                key = frozenset(id(n) for n in nodes)
                if key in seen:
                    continue
                seen.add(key)
                expansions += 1
                if not dfg.is_convex(nodes):
                    continue
                if io_ok(nodes) and len(nodes) >= self.min_size:
                    accepted.append((merit(nodes), set(nodes)))
                # Grow: inputs can only increase so prune when already over
                # twice the budgeted ports (outputs may shrink when a
                # consumer joins, so allow slack).
                if len(dfg.inputs_of(nodes)) > 2 * self.max_inputs:
                    continue
                for nb in neighbours(nodes):
                    grown = set(nodes)
                    grown.add(nb)
                    gkey = frozenset(id(n) for n in grown)
                    if gkey not in seen:
                        stack.append(grown)
            if expansions >= self.search_budget:
                break

        # Greedy maximum-merit non-overlapping cover; equal merits are
        # taken in program order of their members.
        accepted.sort(key=lambda t: (-t[0], sorted(map(rank, t[1]))))
        claimed: set[int] = set()
        candidates: list[Candidate] = []
        index = start_index
        for _, nodes in accepted:
            if any(id(n) in claimed for n in nodes):
                continue
            claimed.update(id(n) for n in nodes)
            members = sorted(nodes, key=rank)
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
