"""IR verifier.

Checks the structural invariants the rest of the system relies on:

- every block has exactly one terminator, at the end;
- phi nodes appear only at block starts and list each CFG predecessor
  exactly once;
- every instruction operand is defined (constant, argument, global, or an
  instruction whose definition dominates the use — the SSA property);
- operand and result types are consistent per opcode;
- branch targets belong to the same function.

The frontend runs the verifier after codegen and after every optimization
pass, so a verifier failure in the wild always points at a compiler bug
rather than silently corrupting downstream analyses.

One ``verify_function`` is linear in the function's size apart from the
dominance queries: the structural predecessors of every block come from
one scan of the terminators (:func:`~repro.ir.cfg.predecessor_map`), and
each distinct (definition block, use block) dominance query is answered
once.

Run between passes so the bitcode handed to the paper's profiling and
candidate-search phases (Figures 1 and 2) is always well-formed.
"""

from __future__ import annotations

from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import ControlFlowInfo, predecessor_map
from repro.ir.function import Function
from repro.ir.instructions import Instruction, PhiInstruction
from repro.ir.module import Module
from repro.ir.opcodes import (
    BINARY_OPS,
    FLOAT_BINARY_OPS,
    INT_BINARY_OPS,
    Opcode,
)
from repro.ir.types import I1, VOID
from repro.ir.values import Argument, Constant, GlobalVariable, UndefValue, Value


class VerificationError(Exception):
    """Raised when IR violates a structural invariant."""


def _fail(func: Function, block: BasicBlock | None, msg: str) -> None:
    where = f"{func.name}"
    if block is not None:
        where += f"/{block.name}"
    raise VerificationError(f"[{where}] {msg}")


def verify_module(module: Module) -> None:
    for func in module.defined_functions():
        verify_function(func)


def verify_function(func: Function) -> None:
    if not func.blocks:
        return  # declaration
    _verify_block_structure(func)
    cfg = ControlFlowInfo(func)
    _verify_phis(func, cfg)
    _verify_ssa_dominance(func, cfg)
    _verify_types(func)


def _verify_block_structure(func: Function) -> None:
    names = set()
    for block in func.blocks:
        if block.name in names:
            _fail(func, block, "duplicate block name")
        names.add(block.name)
        if not block.instructions:
            _fail(func, block, "empty basic block")
        for instr in block.instructions[:-1]:
            if instr.is_terminator:
                _fail(func, block, f"terminator {instr.opcode} not at block end")
        last = block.instructions[-1]
        if not last.is_terminator:
            _fail(func, block, f"block does not end in a terminator (ends in {last.opcode})")
        seen_non_phi = False
        for instr in block.instructions:
            if instr.parent is not block:
                _fail(func, block, f"instruction {instr.opcode} has wrong parent link")
            if isinstance(instr, PhiInstruction):
                if seen_non_phi:
                    _fail(func, block, "phi after non-phi instruction")
            else:
                seen_non_phi = True
            for target in instr.targets:
                if target.parent is not func:
                    _fail(
                        func,
                        block,
                        f"branch target {target.name} not in function",
                    )
        if last.opcode is Opcode.RET:
            if func.return_type.is_void:
                if last.operands:
                    _fail(func, block, "ret with value in void function")
            else:
                if not last.operands:
                    _fail(func, block, "ret without value in non-void function")
                if last.operands[0].type != func.return_type:
                    _fail(
                        func,
                        block,
                        f"ret type {last.operands[0].type} != {func.return_type}",
                    )


def _verify_phis(func: Function, cfg: ControlFlowInfo) -> None:
    preds_of = predecessor_map(func)
    for block in func.blocks:
        if not cfg.is_reachable(block):
            continue
        # Structural predecessors: unreachable blocks that branch here still
        # count (LLVM semantics) even though dominance analysis skips them.
        # A block linked to another parent is scanned there, as before.
        preds = preds_of[id(block)] if block.parent is func else block.predecessors()
        pred_ids = {id(p) for p in preds}
        for phi in block.phis():
            seen: set[int] = set()
            for _, incoming_block in phi.incoming:
                if id(incoming_block) in seen:
                    _fail(
                        func,
                        block,
                        f"phi %{phi.name} lists predecessor {incoming_block.name} twice",
                    )
                seen.add(id(incoming_block))
            missing = pred_ids - seen
            if missing:
                names = [p.name for p in preds if id(p) in missing]
                _fail(func, block, f"phi %{phi.name} missing incoming for {names}")
            extra = seen - pred_ids
            if extra:
                _fail(func, block, f"phi %{phi.name} lists non-predecessor block")


def _verify_ssa_dominance(func: Function, cfg: ControlFlowInfo) -> None:
    defined_here = {id(a) for a in func.args}
    # Every instruction of the function -> its index in its block (the
    # structure check has already tied each one to the block holding it).
    position: dict[int, int] = {}
    for block in func.blocks:
        for i, instr in enumerate(block.instructions):
            position[id(instr)] = i
    answers: dict[tuple[int, int], bool] = {}

    def dominates(a: BasicBlock, b: BasicBlock) -> bool:
        key = (id(a), id(b))
        answer = answers.get(key)
        if answer is None:
            answer = answers[key] = cfg.dominates(a, b)
        return answer

    for block in func.blocks:
        if not cfg.is_reachable(block):
            continue
        for i, instr in enumerate(block.instructions):
            if isinstance(instr, PhiInstruction):
                # Each incoming value must dominate the *end* of its edge block.
                for value, inc_block in instr.incoming:
                    dblock = _def_block(func, block, instr, value, position)
                    if dblock is not None and cfg.is_reachable(inc_block):
                        if not dominates(dblock, inc_block):
                            _fail(
                                func,
                                block,
                                f"phi %{instr.name}: incoming %{value.name} does not "
                                f"dominate edge from {inc_block.name}",
                            )
                continue
            for value in instr.operands:
                dblock = _def_block(func, block, instr, value, position)
                if dblock is None:
                    if isinstance(value, Argument) and id(value) not in defined_here:
                        _fail(
                            func,
                            block,
                            f"operand argument %{value.name} from another function",
                        )
                    continue
                if dblock is block:
                    if position[id(value)] >= i:
                        _fail(
                            func,
                            block,
                            f"use of %{value.name} before its definition",
                        )
                elif cfg.is_reachable(dblock):
                    if not dominates(dblock, block):
                        _fail(
                            func,
                            block,
                            f"definition of %{value.name} in {dblock.name} does not "
                            f"dominate use in {block.name}",
                        )


def _def_block(
    func: Function,
    block: BasicBlock,
    instr: Instruction,
    value: Value,
    position: dict[int, int],
) -> BasicBlock | None:
    """The block defining *value*, an operand of *instr*; None for a
    constant, global, undef or argument. Fails on anything else."""
    if isinstance(value, Instruction):
        if id(value) not in position:
            _fail(
                func,
                block,
                f"{instr.opcode} uses instruction %{value.name} not in function",
            )
        return value.parent
    if isinstance(value, (Constant, GlobalVariable, UndefValue, Argument)):
        return None
    _fail(func, block, f"{instr.opcode} has invalid operand {value!r}")


def _verify_types(func: Function) -> None:
    for block in func.blocks:
        for instr in block.instructions:
            op = instr.opcode
            ops = instr.operands
            if op in BINARY_OPS:
                if len(ops) != 2:
                    _fail(func, block, f"{op} expects 2 operands")
                if ops[0].type != ops[1].type or ops[0].type != instr.type:
                    _fail(func, block, f"{op} type mismatch")
                if op in INT_BINARY_OPS and not instr.type.is_int:
                    _fail(func, block, f"{op} on non-integer type {instr.type}")
                if op in FLOAT_BINARY_OPS and not instr.type.is_float:
                    _fail(func, block, f"{op} on non-float type {instr.type}")
            elif op in (Opcode.ICMP, Opcode.FCMP):
                if len(ops) != 2 or instr.type != I1 or instr.pred is None:
                    _fail(func, block, f"malformed {op}")
            elif op is Opcode.SELECT:
                if len(ops) != 3 or ops[0].type != I1 or ops[1].type != ops[2].type:
                    _fail(func, block, "malformed select")
                if instr.type != ops[1].type:
                    _fail(func, block, "select result type mismatch")
            elif op is Opcode.LOAD:
                if len(ops) != 1 or not ops[0].type.is_ptr or instr.type.is_void:
                    _fail(func, block, "malformed load")
            elif op is Opcode.STORE:
                if len(ops) != 2 or not ops[1].type.is_ptr or instr.type != VOID:
                    _fail(func, block, "malformed store")
            elif op is Opcode.GEP:
                if (
                    len(ops) != 2
                    or not ops[0].type.is_ptr
                    or not ops[1].type.is_int
                    or instr.elem_size <= 0
                ):
                    _fail(func, block, "malformed gep")
            elif op is Opcode.CONDBR:
                if len(ops) != 1 or ops[0].type != I1 or len(instr.targets) != 2:
                    _fail(func, block, "malformed condbr")
            elif op is Opcode.BR:
                if ops or len(instr.targets) != 1:
                    _fail(func, block, "malformed br")
            elif op is Opcode.CALL:
                if instr.callee is None:
                    _fail(func, block, "call without callee")
