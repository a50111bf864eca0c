"""Control-flow analyses: orderings, dominators, natural loops.

Used by the verifier (SSA dominance checking, predecessors), LICM (loop
detection) and the simplify-CFG pass (reachability, predecessors).

The dominator computation is the Cooper–Harvey–Kennedy iterative algorithm
over a reverse-postorder numbering, which is near-linear in practice.

These analyses keep the bitcode — the paper's Figure 1 intermediate
form — well-formed ahead of profiling and candidate search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function


def reverse_postorder(func: Function) -> list[BasicBlock]:
    """Blocks in reverse postorder from the entry (unreachable blocks omitted)."""
    visited: set[int] = set()
    order: list[BasicBlock] = []

    # Iterative DFS to avoid recursion limits on long CFG chains; each
    # stack entry resumes its block's successor iterator.
    stack = [(func.entry, iter(func.entry.successors))]
    visited.add(id(func.entry))
    while stack:
        block, succs = stack[-1]
        for succ in succs:
            if id(succ) not in visited:
                visited.add(id(succ))
                stack.append((succ, iter(succ.successors)))
                break
        else:
            order.append(block)
            stack.pop()
    order.reverse()
    return order


def predecessor_map(func: Function) -> dict[int, list[BasicBlock]]:
    """Every block's predecessors as :meth:`BasicBlock.predecessors` lists
    them: in function block order, each predecessor once."""
    preds: dict[int, list[BasicBlock]] = {id(block): [] for block in func.blocks}
    for block in func.blocks:
        # dict.fromkeys: a condbr with both targets the same block is one edge.
        for succ in dict.fromkeys(block.successors):
            preds.setdefault(id(succ), []).append(block)
    return preds


@dataclass
class NaturalLoop:
    """A natural loop: header plus the set of blocks in its body."""

    header: BasicBlock
    blocks: set[int] = field(default_factory=set)  # ids of member blocks
    members: list[BasicBlock] = field(default_factory=list)

    def contains(self, block: BasicBlock) -> bool:
        return id(block) in self.blocks


class ControlFlowInfo:
    """Per-function CFG analysis bundle (orders, dominators, loops).

    Orders and dominators are computed on construction; natural loops on
    the first read of :attr:`loops`, since the verifier, mem2reg and CSE
    never read them.
    """

    def __init__(self, func: Function) -> None:
        self.function = func
        self.rpo = reverse_postorder(func)
        self._rpo_index = {id(b): i for i, b in enumerate(self.rpo)}
        self._preds: dict[int, list[BasicBlock]] = {id(b): [] for b in self.rpo}
        for block in self.rpo:
            for succ in block.successors:
                if id(succ) in self._preds:
                    self._preds[id(succ)].append(block)
        self._idom = self._compute_dominators()

    # -- reachability / preds ------------------------------------------------
    def is_reachable(self, block: BasicBlock) -> bool:
        return id(block) in self._rpo_index

    def predecessors(self, block: BasicBlock) -> list[BasicBlock]:
        return list(self._preds.get(id(block), []))

    # -- dominators ------------------------------------------------------------
    def _compute_dominators(self) -> dict[int, BasicBlock | None]:
        entry = self.function.entry
        idom: dict[int, BasicBlock | None] = {id(entry): entry}

        def intersect(b1: BasicBlock, b2: BasicBlock) -> BasicBlock:
            f1, f2 = b1, b2
            while f1 is not f2:
                while self._rpo_index[id(f1)] > self._rpo_index[id(f2)]:
                    f1 = idom[id(f1)]  # type: ignore[assignment]
                while self._rpo_index[id(f2)] > self._rpo_index[id(f1)]:
                    f2 = idom[id(f2)]  # type: ignore[assignment]
            return f1

        changed = True
        while changed:
            changed = False
            for block in self.rpo:
                if block is entry:
                    continue
                preds = [p for p in self._preds[id(block)] if id(p) in idom]
                if not preds:
                    continue
                new_idom = preds[0]
                for p in preds[1:]:
                    new_idom = intersect(p, new_idom)
                if idom.get(id(block)) is not new_idom:
                    idom[id(block)] = new_idom
                    changed = True
        idom[id(entry)] = None
        return idom

    def immediate_dominator(self, block: BasicBlock) -> BasicBlock | None:
        return self._idom.get(id(block))

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True if *a* dominates *b* (reflexive)."""
        node: BasicBlock | None = b
        while node is not None:
            if node is a:
                return True
            node = self._idom.get(id(node))
        return False

    # -- loops -------------------------------------------------------------
    @cached_property
    def loops(self) -> list[NaturalLoop]:
        loops: dict[int, NaturalLoop] = {}
        for block in self.rpo:
            for succ in block.successors:
                if self.is_reachable(succ) and self.dominates(succ, block):
                    # back edge block -> succ; succ is a loop header
                    loop = loops.setdefault(id(succ), NaturalLoop(header=succ))
                    self._collect_loop_body(loop, block)
        for loop in loops.values():
            if id(loop.header) not in loop.blocks:
                loop.blocks.add(id(loop.header))
                loop.members.append(loop.header)
        return list(loops.values())

    def _collect_loop_body(self, loop: NaturalLoop, latch: BasicBlock) -> None:
        worklist = [latch]
        if id(loop.header) not in loop.blocks:
            loop.blocks.add(id(loop.header))
            loop.members.append(loop.header)
        while worklist:
            blk = worklist.pop()
            if id(blk) in loop.blocks:
                continue
            loop.blocks.add(id(blk))
            loop.members.append(blk)
            worklist.extend(self._preds.get(id(blk), []))

    def loop_depth(self, block: BasicBlock) -> int:
        return sum(1 for loop in self.loops if loop.contains(block))
