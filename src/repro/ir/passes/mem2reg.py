"""Promote stack slots (allocas) to SSA registers.

The frontend lowers every local variable to an ``alloca`` plus loads and
stores. Left that way, almost every instruction in a hot block would touch
memory and thus be hardware-infeasible for custom instructions, which would
trivially destroy the paper's results. This pass performs the classic SSA
construction (Cytron et al.): phi insertion at iterated dominance frontiers
followed by a renaming walk over the dominator tree.

An alloca is promotable iff it is a single scalar slot and its pointer is
used only as the direct address of loads and stores (never stored itself,
passed to a call, or offset via GEP).
"""

from __future__ import annotations

from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import ControlFlowInfo
from repro.ir.function import Function
from repro.ir.instructions import Instruction, PhiInstruction
from repro.ir.opcodes import Opcode
from repro.ir.passes.manager import FunctionPass
from repro.ir.types import Type
from repro.ir.values import UndefValue, Value


def _dominator_tree_children(
    cfg: ControlFlowInfo,
) -> dict[int, list[BasicBlock]]:
    children: dict[int, list[BasicBlock]] = {id(b): [] for b in cfg.rpo}
    for block in cfg.rpo:
        idom = cfg.immediate_dominator(block)
        if idom is not None:
            children[id(idom)].append(block)
    return children


def compute_dominance_frontiers(
    cfg: ControlFlowInfo,
) -> dict[int, list[BasicBlock]]:
    """Dominance frontiers per block (Cooper-Harvey-Kennedy).

    Each frontier lists its blocks in reverse postorder, so whatever
    walks it does so in an order that does not depend on object addresses.
    """
    frontiers: dict[int, dict[int, BasicBlock]] = {id(b): {} for b in cfg.rpo}
    for block in cfg.rpo:
        preds = cfg.predecessors(block)
        if len(preds) < 2:
            continue
        idom = cfg.immediate_dominator(block)
        for pred in preds:
            runner = pred
            while runner is not None and runner is not idom:
                frontiers[id(runner)][id(block)] = block
                runner = cfg.immediate_dominator(runner)
    return {k: list(v.values()) for k, v in frontiers.items()}


class Mem2RegPass(FunctionPass):
    name = "mem2reg"

    def run_on_function(self, func: Function) -> bool:
        allocas = self._promotable_allocas(func)
        if not allocas:
            return False
        cfg = ControlFlowInfo(func)
        frontiers = compute_dominance_frontiers(cfg)
        children = _dominator_tree_children(cfg)

        # Phase 1: insert (empty) phi nodes at iterated dominance frontiers
        # of every block containing a store to the alloca. Blocks are
        # walked in reverse postorder, never as sets of ids, so the phis'
        # names and their order in a block are the same in every process.
        phi_owner: dict[int, tuple[Instruction, PhiInstruction]] = {}
        slot_types = {id(a): self._slot_type(func, a) for a in allocas}
        for alloca in allocas:
            ty = slot_types[id(alloca)]
            if ty is None:
                continue
            def_blocks = {
                id(instr.parent)
                for instr in self._users(func, alloca)
                if instr.opcode is Opcode.STORE
            }
            placed: set[int] = set()
            worklist = [b for b in reversed(cfg.rpo) if id(b) in def_blocks]
            while worklist:
                for block in frontiers[id(worklist.pop())]:
                    if id(block) in placed:
                        continue
                    placed.add(id(block))
                    phi = PhiInstruction(ty, func.fresh_name("phi"))
                    block.insert(0, phi)
                    phi_owner[id(phi)] = (alloca, phi)
                    if id(block) not in def_blocks:
                        worklist.append(block)

        # Phase 2: renaming walk over the dominator tree.
        alloca_ids = {id(a) for a in allocas if slot_types[id(a)] is not None}
        undef_cache: dict[int, UndefValue] = {}

        def current_undef(alloca: Instruction) -> UndefValue:
            if id(alloca) not in undef_cache:
                undef_cache[id(alloca)] = UndefValue(slot_types[id(alloca)])
            return undef_cache[id(alloca)]

        # Stack of live definitions per alloca.
        stacks: dict[int, list[Value]] = {aid: [] for aid in alloca_ids}

        def top(alloca_id: int, alloca: Instruction) -> Value:
            stack = stacks[alloca_id]
            return stack[-1] if stack else current_undef(alloca)

        allocas_by_id = {id(a): a for a in allocas}
        to_erase: list[Instruction] = []

        def rename(block: BasicBlock) -> None:
            pushed: list[int] = []
            for instr in list(block.instructions):
                if isinstance(instr, PhiInstruction) and id(instr) in phi_owner:
                    alloca, _ = phi_owner[id(instr)]
                    stacks[id(alloca)].append(instr)
                    pushed.append(id(alloca))
                    continue
                if instr.opcode is Opcode.LOAD:
                    ptr = instr.operands[0]
                    if id(ptr) in alloca_ids:
                        value = top(id(ptr), allocas_by_id[id(ptr)])
                        _replace_uses_in_function(func, instr, value)
                        to_erase.append(instr)
                        continue
                if instr.opcode is Opcode.STORE:
                    ptr = instr.operands[1]
                    if id(ptr) in alloca_ids:
                        stacks[id(ptr)].append(instr.operands[0])
                        pushed.append(id(ptr))
                        to_erase.append(instr)
                        continue
            # Fill phi operands of CFG successors.
            for succ in block.successors:
                for phi in succ.phis():
                    if id(phi) in phi_owner:
                        alloca, _ = phi_owner[id(phi)]
                        phi.add_incoming(top(id(alloca), alloca), block)
            for child in children.get(id(block), []):
                rename(child)
            for aid in pushed:
                stacks[aid].pop()

        import sys

        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 10000))
        try:
            rename(func.entry)
        finally:
            sys.setrecursionlimit(old_limit)

        for instr in to_erase:
            if instr.parent is not None:
                instr.parent.remove(instr)
        for alloca in allocas:
            if slot_types[id(alloca)] is not None and alloca.parent is not None:
                alloca.parent.remove(alloca)

        # Drop inserted phis that ended up trivially dead or undefined-only.
        self._cleanup_trivial_phis(func, phi_owner)
        return True

    # -- helpers -----------------------------------------------------------
    @staticmethod
    def _users(func: Function, value: Value) -> list[Instruction]:
        out = []
        for block in func.blocks:
            for instr in block.instructions:
                if any(op is value for op in instr.operands):
                    out.append(instr)
        return out

    def _promotable_allocas(self, func: Function) -> list[Instruction]:
        out = []
        for block in func.blocks:
            for instr in block.instructions:
                if instr.opcode is not Opcode.ALLOCA or instr.alloc_count != 1:
                    continue
                if self._is_promotable(func, instr):
                    out.append(instr)
        return out

    @staticmethod
    def _is_promotable(func: Function, alloca: Instruction) -> bool:
        for block in func.blocks:
            for instr in block.instructions:
                for i, op in enumerate(instr.operands):
                    if op is not alloca:
                        continue
                    if instr.opcode is Opcode.LOAD:
                        continue
                    if instr.opcode is Opcode.STORE and i == 1:
                        continue  # used as the address
                    return False  # escapes: GEP, call argument, stored value...
        return True

    @staticmethod
    def _slot_type(func: Function, alloca: Instruction) -> Type | None:
        """Infer the scalar type stored in the slot (None if never accessed)."""
        ty: Type | None = None
        for block in func.blocks:
            for instr in block.instructions:
                if instr.opcode is Opcode.LOAD and instr.operands[0] is alloca:
                    candidate = instr.type
                elif instr.opcode is Opcode.STORE and instr.operands[1] is alloca:
                    candidate = instr.operands[0].type
                else:
                    continue
                if ty is None:
                    ty = candidate
                elif ty != candidate:
                    return None  # mixed-type slot: not promotable
        return ty

    @staticmethod
    def _cleanup_trivial_phis(
        func: Function, phi_owner: dict[int, tuple[Instruction, PhiInstruction]]
    ) -> None:
        """Iteratively remove phis that are unused or have a single value."""
        changed = True
        while changed:
            changed = False
            use_counts: dict[int, int] = {}
            for block in func.blocks:
                for instr in block.instructions:
                    for op in instr.operands:
                        use_counts[id(op)] = use_counts.get(id(op), 0) + 1
            for block in func.blocks:
                for phi in list(block.phis()):
                    if id(phi) not in phi_owner:
                        continue
                    if use_counts.get(id(phi), 0) == 0:
                        block.remove(phi)
                        changed = True
                        continue
                    distinct = {
                        id(v) for v in phi.operands if v is not phi
                    }
                    values = [v for v in phi.operands if v is not phi]
                    if len(distinct) == 1:
                        _replace_uses_in_function(func, phi, values[0])
                        block.remove(phi)
                        changed = True


def _replace_uses_in_function(func: Function, old: Value, new: Value) -> None:
    for block in func.blocks:
        for instr in block.instructions:
            instr.replace_operand(old, new)
