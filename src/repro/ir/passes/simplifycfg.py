"""CFG simplification.

Three transformations iterated to fixpoint:

1. fold ``condbr`` on a constant condition into ``br``;
2. delete unreachable blocks (updating phis in their successors);
3. merge a block into its unique predecessor when that predecessor has a
   single successor and the block has no phis. One sweep reads every
   block's predecessors from one map, updated as blocks merge, so it is
   linear in the function's size.

Keeps the CFGs — and hence the per-block profiles behind the paper's
Section IV-C coverage analysis — free of trivial blocks.
"""

from __future__ import annotations

from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import predecessor_map, reverse_postorder
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.opcodes import Opcode
from repro.ir.passes.manager import FunctionPass
from repro.ir.values import Constant


class SimplifyCfgPass(FunctionPass):
    name = "simplifycfg"

    def run_on_function(self, func: Function) -> bool:
        changed = False
        while True:
            did = (
                self._fold_constant_branches(func)
                | self._remove_unreachable(func)
                | self._merge_blocks(func)
            )
            changed |= did
            if not did:
                return changed

    # -- 1: constant branches ----------------------------------------------
    @staticmethod
    def _fold_constant_branches(func: Function) -> bool:
        changed = False
        for block in func.blocks:
            term = block.terminator
            if term is None or term.opcode is not Opcode.CONDBR:
                continue
            cond = term.operands[0]
            if not isinstance(cond, Constant):
                continue
            taken = term.targets[0] if cond.value else term.targets[1]
            not_taken = term.targets[1] if cond.value else term.targets[0]
            block.remove(term)
            new_br = Instruction(Opcode.BR, term.type, [], targets=[taken])
            block.append(new_br)
            if not_taken is not taken:
                for phi in not_taken.phis():
                    try:
                        phi.remove_incoming(block)
                    except KeyError:
                        pass
            changed = True
        return changed

    # -- 2: unreachable blocks -----------------------------------------------
    @staticmethod
    def _remove_unreachable(func: Function) -> bool:
        reachable = {id(b) for b in reverse_postorder(func)}
        dead = [b for b in func.blocks if id(b) not in reachable]
        if not dead:
            return False
        dead_ids = {id(b) for b in dead}
        for block in func.blocks:
            if id(block) in dead_ids:
                continue
            for phi in block.phis():
                for inc_block in list(phi.incoming_blocks):
                    if id(inc_block) in dead_ids:
                        phi.remove_incoming(inc_block)
        for block in dead:
            func.remove_block(block)
        return True

    # -- 3: block merging ----------------------------------------------------
    @staticmethod
    def _merge_blocks(func: Function) -> bool:
        changed = False
        preds_of = predecessor_map(func)
        for block in list(func.blocks):
            if block is func.entry:
                continue
            preds = preds_of[id(block)]
            if len(preds) != 1:
                continue
            pred = preds[0]
            if pred is block or len(pred.successors) != 1:
                continue
            if block.phis():
                continue
            # Splice block's instructions after pred's (removed) terminator.
            term = pred.terminator
            assert term is not None
            pred.remove(term)
            for instr in list(block.instructions):
                block.remove(instr)
                pred.append(instr)
            # Block's successors (and their phis) now name pred instead.
            for succ in pred.successors:
                preds_of[id(succ)] = [
                    pred if b is block else b for b in preds_of[id(succ)]
                ]
                for phi in succ.phis():
                    for i, inc_block in enumerate(phi.incoming_blocks):
                        if inc_block is block:
                            phi.incoming_blocks[i] = pred
            func.remove_block(block)
            changed = True
        return changed
