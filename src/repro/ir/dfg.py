"""Per-basic-block dataflow graphs.

The ISE algorithms of the paper operate on the dataflow graph (DFG) of each
basic block: nodes are the block's instructions, edges are SSA def-use
relations within the block. Values flowing in from outside the block
(arguments, phis, instructions in other blocks, constants) are graph inputs;
instruction results used outside the block (or by instructions excluded from
a candidate) are graph outputs.

The graph is plain successor and predecessor lists keyed by ``id()``. SSA
defines every value of a block before any instruction of the block uses
it, so every edge points forward in program order: program order is a
topological order, and the algorithms below walk the body instead of
sorting it.
"""

from __future__ import annotations

from collections.abc import Collection

from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import Instruction, PhiInstruction
from repro.ir.values import Value


class DataFlowGraph:
    """Dataflow graph of one basic block.

    Nodes are :class:`Instruction` objects (phis and the terminator are kept
    out of the graph body: phis act as external inputs, the terminator as an
    external consumer).
    """

    def __init__(self, block: BasicBlock) -> None:
        self.block = block
        self._body: list[Instruction] = []
        self._body_ids: set[int] = set()
        # id(node) -> consumers in first-use order / distinct operands in
        # operand order, both within the body and without repeats.
        self._succs: dict[int, list[Instruction]] = {}
        self._preds: dict[int, list[Instruction]] = {}

        terminator = block.terminator
        for instr in block.instructions:
            if isinstance(instr, PhiInstruction) or instr is terminator:
                continue
            preds: list[Instruction] = []
            for operand in instr.operands:
                if isinstance(operand, Instruction) and id(operand) in self._body_ids:
                    succs = self._succs[id(operand)]
                    # Edges of one consumer are added together, so a
                    # repeated operand finds the consumer last in line.
                    if not succs or succs[-1] is not instr:
                        succs.append(instr)
                        preds.append(operand)
            self._body.append(instr)
            self._body_ids.add(id(instr))
            self._succs[id(instr)] = []
            self._preds[id(instr)] = preds

        self._external_uses = self._compute_external_uses()

    # -- node sets -------------------------------------------------------------
    @property
    def nodes(self) -> list[Instruction]:
        """Body instructions in original program order."""
        return list(self._body)

    def __len__(self) -> int:
        return len(self._body)

    def contains(self, instr: Instruction) -> bool:
        return id(instr) in self._body_ids

    # -- edges -------------------------------------------------------------
    def successors(self, instr: Instruction) -> list[Instruction]:
        """In-body consumers of *instr*, in program order (do not mutate)."""
        return self._succs[id(instr)]

    def predecessors(self, instr: Instruction) -> list[Instruction]:
        """In-body operands of *instr*, in operand order (do not mutate)."""
        return self._preds[id(instr)]

    def edges(self) -> list[tuple[Instruction, Instruction]]:
        """Every def-use edge ``(producer, consumer)``, producers in
        program order."""
        return [(n, succ) for n in self._body for succ in self._succs[id(n)]]

    # -- inputs / outputs ----------------------------------------------------
    def inputs_of(self, nodes: Collection[Instruction]) -> list[Value]:
        """Distinct external data inputs of a node subset.

        Constants are not counted as inputs (they are baked into the
        hardware datapath), matching common ISE I/O-constraint practice.
        Inputs are listed in first-use order over *nodes*: pass a list, not
        a set, where the order reaches generated hardware.
        """
        from repro.ir.values import Constant

        node_ids = {id(n) for n in nodes}
        seen: dict[int, Value] = {}
        for instr in nodes:
            for operand in instr.operands:
                if isinstance(operand, Constant):
                    continue
                if isinstance(operand, Instruction) and id(operand) in node_ids:
                    continue
                seen.setdefault(id(operand), operand)
        return list(seen.values())

    def outputs_of(self, nodes: Collection[Instruction]) -> list[Instruction]:
        """Subset members whose results are consumed outside the subset,
        in the iteration order of *nodes*."""
        node_ids = {id(n) for n in nodes}
        outs = []
        for instr in nodes:
            if not instr.has_result:
                continue
            if id(instr) in self._external_uses or any(
                id(consumer) not in node_ids for consumer in self._succs[id(instr)]
            ):
                outs.append(instr)
        return outs

    def _compute_external_uses(self) -> set[int]:
        """Ids of the body instructions used outside the DFG body.

        "Outside" means: by the block terminator, by phis in this block, or
        by any instruction in another block of the function.
        """
        external: set[int] = set()
        func = self.block.parent
        if func is None:
            return external
        body_ids = self._body_ids
        for block in func.blocks:
            for instr in block.instructions:
                if id(instr) in body_ids:
                    continue
                for operand in instr.operands:
                    if isinstance(operand, Instruction) and id(operand) in body_ids:
                        external.add(id(operand))
        return external

    # -- convexity ---------------------------------------------------------
    def is_convex(self, nodes: Collection[Instruction]) -> bool:
        """A subset is convex if no path between two members leaves the subset.

        Convexity is required for a candidate to be schedulable as a single
        atomic instruction.
        """
        node_ids = {id(n) for n in nodes}
        # Walk forward from the subset's outside successors; re-entering
        # the subset makes it non-convex.
        stack = [
            succ
            for n in nodes
            for succ in self._succs[id(n)]
            if id(succ) not in node_ids
        ]
        seen = {id(n) for n in stack}
        while stack:
            for succ in self._succs[id(stack.pop())]:
                if id(succ) in node_ids:
                    return False
                if id(succ) not in seen:
                    seen.add(id(succ))
                    stack.append(succ)
        return True

    def topological_order(
        self, nodes: Collection[Instruction] | None = None
    ) -> list[Instruction]:
        """Topological order of the whole body or of an induced subgraph:
        the body in program order, filtered to *nodes*."""
        if nodes is None:
            return list(self._body)
        node_ids = {id(n) for n in nodes}
        return [n for n in self._body if id(n) in node_ids]

    def critical_path_length(
        self,
        nodes: Collection[Instruction],
        weight_fn,
    ) -> float:
        """Longest weighted path through the induced subgraph.

        ``weight_fn(instr) -> float`` gives each node's latency; used by the
        PivPav estimator to compute a candidate's hardware latency.
        """
        dist: dict[int, float] = {}
        best = 0.0
        for instr in self.topological_order(nodes):
            w = weight_fn(instr)
            d = w
            for pred in self._preds[id(instr)]:
                if id(pred) in dist:
                    d = max(d, dist[id(pred)] + w)
            dist[id(instr)] = d
            best = max(best, d)
        return best
