"""Tests for the IR verifier: each structural invariant has a violation test.

The second half is a differential test against the previous verifier,
which found each block's predecessors by scanning the whole function
(``BasicBlock.predecessors``) and answered every dominance query afresh.
It is copied verbatim below as the oracle. Both must accept every app's
module at every stage of the standard pipeline, and must reject every
broken function in the corpus with the same ``VerificationError``
message: the same checks, in the same order.
"""

import pytest

from repro.ir import (
    I32,
    IRBuilder,
    Module,
    VerificationError,
    verify_function,
    verify_module,
)
from repro.apps import ALL_APPS
from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import ControlFlowInfo
from repro.ir.function import Function
from repro.ir.instructions import Instruction, PhiInstruction
from repro.ir.opcodes import (
    BINARY_OPS,
    FLOAT_BINARY_OPS,
    INT_BINARY_OPS,
    ICmpPred,
    Opcode,
)
from repro.ir.types import F64, I1, I64, PTR, VOID
from repro.ir.values import Argument, Constant, GlobalVariable, UndefValue, Value

from conftest import build_sumsq_module


def _simple_func():
    m = Module("t")
    f = m.declare_function("f", I32, [("a", I32)])
    entry = f.add_block("entry")
    b = IRBuilder(entry)
    v = b.add(f.args[0], b.i32(1))
    b.ret(v)
    return m, f


class TestStructure:
    def test_valid_function_passes(self):
        m, f = _simple_func()
        verify_module(m)

    def test_sumsq_module_passes(self):
        verify_module(build_sumsq_module())

    def test_missing_terminator(self):
        m = Module("t")
        f = m.declare_function("f", I32, [("a", I32)])
        entry = f.add_block("entry")
        IRBuilder(entry).add(f.args[0], Constant(I32, 1))
        with pytest.raises(VerificationError, match="terminator"):
            verify_function(f)

    def test_empty_block(self):
        m, f = _simple_func()
        f.add_block("empty")
        with pytest.raises(VerificationError, match="empty"):
            verify_function(f)

    def test_ret_type_mismatch(self):
        m = Module("t")
        f = m.declare_function("f", I32, [])
        entry = f.add_block("entry")
        instr = Instruction(Opcode.RET, VOID, [Constant(I32, 1)])
        # sneak in a wrong-typed ret by hand
        entry.append(
            Instruction(Opcode.RET, VOID, [Constant(I32, 0)])
        )
        verify_function(f)  # fine: i32 matches
        f2 = m.declare_function("g", I32, [])
        e2 = f2.add_block("entry")
        e2.append(Instruction(Opcode.RET, VOID, []))
        with pytest.raises(VerificationError, match="ret"):
            verify_function(f2)

    def test_phi_after_non_phi(self):
        m, f = _simple_func()
        entry = f.entry
        phi = PhiInstruction(I32, "p")
        entry.insert(1, phi)  # after the add
        phi.add_incoming(Constant(I32, 0), entry)
        with pytest.raises(VerificationError):
            verify_function(f)


class TestPhiConsistency:
    def _diamond(self):
        m = Module("t")
        f = m.declare_function("f", I32, [("a", I32)])
        entry = f.add_block("entry")
        left = f.add_block("left")
        right = f.add_block("right")
        join = f.add_block("join")
        b = IRBuilder(entry)
        cond = b.icmp(ICmpPred.SGT, f.args[0], b.i32(0))
        b.condbr(cond, left, right)
        b.set_block(left)
        lval = b.add(f.args[0], b.i32(1))
        b.br(join)
        b.set_block(right)
        rval = b.add(f.args[0], b.i32(2))
        b.br(join)
        b.set_block(join)
        phi = b.phi(I32)
        return m, f, phi, (left, lval), (right, rval), b

    def test_complete_phi_ok(self):
        m, f, phi, (l, lv), (r, rv), b = self._diamond()
        phi.add_incoming(lv, l)
        phi.add_incoming(rv, r)
        b.ret(phi)
        verify_function(f)

    def test_phi_missing_predecessor(self):
        m, f, phi, (l, lv), (r, rv), b = self._diamond()
        phi.add_incoming(lv, l)
        b.ret(phi)
        with pytest.raises(VerificationError, match="missing incoming"):
            verify_function(f)

    def test_phi_duplicate_predecessor(self):
        m, f, phi, (l, lv), (r, rv), b = self._diamond()
        phi.add_incoming(lv, l)
        phi.add_incoming(lv, l)
        phi.add_incoming(rv, r)
        b.ret(phi)
        with pytest.raises(VerificationError, match="twice"):
            verify_function(f)

    def test_phi_non_predecessor(self):
        m, f, phi, (l, lv), (r, rv), b = self._diamond()
        phi.add_incoming(lv, l)
        phi.add_incoming(rv, r)
        stray = f.add_block("stray")
        IRBuilder(stray).br(stray)
        phi.add_incoming(Constant(I32, 9), stray)
        b.ret(phi)
        with pytest.raises(VerificationError, match="non-predecessor"):
            verify_function(f)


class TestSsaDominance:
    def test_use_before_def_in_block(self):
        m, f = _simple_func()
        entry = f.entry
        add = entry.instructions[0]
        # insert a user before the definition
        user = Instruction(Opcode.ADD, I32, [add, Constant(I32, 1)], "early")
        entry.insert(0, user)
        with pytest.raises(VerificationError, match="before its definition"):
            verify_function(f)

    def test_use_not_dominated(self):
        m = Module("t")
        f = m.declare_function("f", I32, [("a", I32)])
        entry = f.add_block("entry")
        left = f.add_block("left")
        join = f.add_block("join")
        b = IRBuilder(entry)
        cond = b.icmp(ICmpPred.SGT, f.args[0], b.i32(0))
        b.condbr(cond, left, join)
        b.set_block(left)
        lval = b.add(f.args[0], b.i32(1))
        b.br(join)
        b.set_block(join)
        b.ret(lval)  # lval does not dominate join
        with pytest.raises(VerificationError, match="dominate"):
            verify_function(f)

    def test_operand_from_other_function(self):
        m, f = _simple_func()
        g = m.declare_function("g", I32, [("x", I32)])
        ge = g.add_block("entry")
        b = IRBuilder(ge)
        b.ret(b.add(g.args[0], Constant(I32, 1)))
        # f uses g's instruction
        stolen = ge.instructions[0]
        f.entry.instructions[0].operands[1] = stolen
        with pytest.raises(VerificationError, match="not in function"):
            verify_function(f)


class TestTypeChecks:
    def test_binop_type_mismatch_detected(self):
        m, f = _simple_func()
        add = f.entry.instructions[0]
        add.operands[1] = Constant(I32, 1)
        add.type = I32
        verify_function(f)
        # now corrupt the type
        from repro.ir.types import I64

        add.type = I64
        # The corrupted add now breaks both the binop typing rule and the
        # ret-type rule; either diagnosis is a correct rejection.
        with pytest.raises(VerificationError):
            verify_function(f)



class TestPipelineVerification:
    SOURCE = """
int main() {
    int s = 0;
    for (int i = 0; i < 10; i = i + 1) { s = s + i * i; }
    return s;
}
"""

    @pytest.mark.parametrize("opt_level", [0, 1, 2])
    def test_compile_verifies_after_codegen_and_each_pass(self, monkeypatch, opt_level):
        import repro.frontend.compiler as compiler
        import repro.ir.passes.manager as manager
        from repro.ir.passes import standard_pipeline

        calls = []

        def counting(module):
            calls.append(module.name)
            verify_module(module)

        monkeypatch.setattr(compiler, "verify_module", counting)
        monkeypatch.setattr(manager, "verify_module", counting)
        compiler.compile_source(self.SOURCE, "m", opt_level)
        assert len(calls) == 1 + len(standard_pipeline(opt_level).passes)

    def test_corrupting_pass_is_named(self):
        from repro.frontend import compile_source
        from repro.ir.passes import ModulePass, PassManager

        class Corrupt(ModulePass):
            name = "corrupt"

            def run(self, module):
                next(module.defined_functions()).add_block("empty")
                return True

        module = compile_source(self.SOURCE, "m").module
        with pytest.raises(
            RuntimeError, match="IR verification failed after pass 'corrupt'"
        ) as info:
            PassManager().add(Corrupt()).run(module)
        assert isinstance(info.value.__cause__, VerificationError)


# -- the oracle: the previous verifier, verbatim -------------------------------
def _fail(func: Function, block: BasicBlock | None, msg: str) -> None:
    where = f"{func.name}"
    if block is not None:
        where += f"/{block.name}"
    raise VerificationError(f"[{where}] {msg}")


def oracle_verify_module(module: Module) -> None:
    for func in module.defined_functions():
        oracle_verify_function(func)


def oracle_verify_function(func: Function) -> None:
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
    for block in func.blocks:
        if not cfg.is_reachable(block):
            continue
        # Structural predecessors: unreachable blocks that branch here still
        # count (LLVM semantics) even though dominance analysis skips them.
        preds = block.predecessors()
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


def _def_block(value: Value) -> BasicBlock | None:
    if isinstance(value, Instruction):
        return value.parent
    return None


def _verify_ssa_dominance(func: Function, cfg: ControlFlowInfo) -> None:
    defined_here = {id(a) for a in func.args}
    instr_blocks: dict[int, BasicBlock] = {}
    for block in func.blocks:
        for instr in block.instructions:
            instr_blocks[id(instr)] = block

    for block in func.blocks:
        if not cfg.is_reachable(block):
            continue
        position: dict[int, int] = {
            id(instr): i for i, instr in enumerate(block.instructions)
        }
        for i, instr in enumerate(block.instructions):
            if isinstance(instr, PhiInstruction):
                # Each incoming value must dominate the *end* of its edge block.
                for value, inc_block in instr.incoming:
                    _check_operand_defined(func, block, instr, value, instr_blocks)
                    dblock = _def_block(value)
                    if dblock is not None and cfg.is_reachable(inc_block):
                        if not cfg.dominates(dblock, inc_block):
                            _fail(
                                func,
                                block,
                                f"phi %{instr.name}: incoming %{value.name} does not "
                                f"dominate edge from {inc_block.name}",
                            )
                continue
            for value in instr.operands:
                _check_operand_defined(func, block, instr, value, instr_blocks)
                dblock = _def_block(value)
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
                    if not cfg.dominates(dblock, block):
                        _fail(
                            func,
                            block,
                            f"definition of %{value.name} in {dblock.name} does not "
                            f"dominate use in {block.name}",
                        )


def _check_operand_defined(
    func: Function,
    block: BasicBlock,
    instr: Instruction,
    value: Value,
    instr_blocks: dict[int, BasicBlock],
) -> None:
    if isinstance(value, (Constant, GlobalVariable, UndefValue, Argument)):
        return
    if isinstance(value, Instruction):
        if id(value) not in instr_blocks:
            _fail(
                func,
                block,
                f"{instr.opcode} uses instruction %{value.name} not in function",
            )
        return
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


# -- the differential test --------------------------------------------------------
def verdict(verify, target) -> str | None:
    """None if *verify* accepts *target*, else its error message."""
    try:
        verify(target)
    except VerificationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("app", [spec.name for spec in ALL_APPS])
def test_every_pipeline_stage_accepted_by_both(app):
    from repro.apps import get_app
    from repro.frontend.codegen import generate_module
    from repro.frontend.parser import parse_program
    from repro.ir.passes import standard_pipeline

    spec = get_app(app)
    programs = [(parse_program(src, fname), fname) for fname, src in spec.sources]
    module = generate_module(programs, spec.name)
    stages = ["codegen"]
    assert verdict(verify_module, module) is None
    assert verdict(oracle_verify_module, module) is None
    for pass_ in standard_pipeline(2).passes:
        pass_.run(module)
        stages.append(pass_.name)
        assert verdict(verify_module, module) is None, stages
        assert verdict(oracle_verify_module, module) is None, stages
    assert len(stages) == 15


def _func(ret=I32, args=(("a", I32),)) -> Function:
    return Module("t").declare_function("f", ret, list(args))


def _ok() -> Function:
    """``f(a) = a + 1`` in one block."""
    f = _func()
    b = IRBuilder(f.add_block("entry"))
    b.ret(b.add(f.args[0], b.i32(1)))
    return f


def _body(build) -> Function:
    """``f(a, p)`` whose entry holds what ``build(a, p)`` returns, then ``ret 0``."""
    f = _func(args=(("a", I32), ("p", PTR)))
    entry = f.add_block("entry")
    for instr in build(*f.args):
        entry.append(instr)
    entry.append(Instruction(Opcode.RET, VOID, [Constant(I32, 0)]))
    return f


def _ret(ret_type, *operands) -> Function:
    f = _func(ret=ret_type)
    f.add_block("entry").append(Instruction(Opcode.RET, VOID, list(operands)))
    return f


def _diamond(incoming) -> Function:
    """entry -> left | right -> join; *incoming(l, lv, r, rv)* lists the
    join phi's (value, block) pairs."""
    f = _func()
    entry, left, right, join = (
        f.add_block(n) for n in ("entry", "left", "right", "join")
    )
    b = IRBuilder(entry)
    b.condbr(b.icmp(ICmpPred.SGT, f.args[0], b.i32(0)), left, right)
    b.set_block(left)
    lv = b.add(f.args[0], b.i32(1))
    b.br(join)
    b.set_block(right)
    rv = b.add(f.args[0], b.i32(2))
    b.br(join)
    b.set_block(join)
    phi = b.phi(I32)
    for value, block in incoming(left, lv, right, rv):
        phi.add_incoming(value, block)
    b.ret(phi)
    return f


def _same_targets(from_entry: bool) -> Function:
    """A condbr whose two targets are one block, plus an unreachable
    second predecessor of it."""
    f = _func()
    entry, other, join = (f.add_block(n) for n in ("entry", "other", "join"))
    b = IRBuilder(entry)
    b.condbr(b.icmp(ICmpPred.SGT, f.args[0], b.i32(0)), join, join)
    b.set_block(other)
    b.br(join)
    b.set_block(join)
    phi = b.phi(I32)
    if from_entry:
        phi.add_incoming(b.i32(1), entry)
    phi.add_incoming(b.i32(2), other)
    b.ret(phi)
    return f


def _block_order_not_rpo() -> Function:
    """The join's phi misses both predecessors, listed in block order."""
    f = _func()
    entry, y, x, join = (f.add_block(n) for n in ("entry", "y", "x", "join"))
    b = IRBuilder(entry)
    b.condbr(b.icmp(ICmpPred.SGT, f.args[0], b.i32(0)), x, y)
    for block in (x, y):
        b.set_block(block)
        b.br(join)
    b.set_block(join)
    b.ret(b.phi(I32))
    return f


def _foreign_entry() -> Function:
    """f's only block belongs to g, where g's entry branches to it: its
    predecessors are found in its own parent, as BasicBlock.predecessors
    finds them."""
    module = Module("t")
    g = module.declare_function("g", I32, [])
    g_entry, shared = g.add_block("entry"), g.add_block("shared")
    IRBuilder(g_entry).br(shared)
    b = IRBuilder(shared)
    phi = b.phi(I32)
    phi.add_incoming(b.i32(1), g_entry)
    b.ret(phi)
    f = module.declare_function("f", I32, [])
    f.blocks.append(shared)
    return f


def _with(f: Function, edit) -> Function:
    edit(f)
    return f


def _other_function_target(f: Function) -> None:
    g = f.parent.declare_function("g", VOID, [])
    target = g.add_block("elsewhere")
    IRBuilder(target).ret()
    f.entry.instructions[-1:] = []
    IRBuilder(f.entry).br(target)


def _foreign_argument(f: Function) -> None:
    g = f.parent.declare_function("g", I32, [("x", I32)])
    f.entry.instructions[0].operands[0] = g.args[0]


def _foreign_instruction(f: Function) -> None:
    g = f.parent.declare_function("g", I32, [("x", I32)])
    b = IRBuilder(g.add_block("entry"))
    b.ret(b.add(g.args[0], b.i32(1)))
    f.entry.instructions[0].operands[1] = g.entry.instructions[0]


def _use_before_def(f: Function) -> None:
    add = f.entry.instructions[0]
    f.entry.insert(0, Instruction(Opcode.ADD, I32, [add, Constant(I32, 1)], "early"))


def _not_dominating() -> Function:
    f = _func()
    entry, left, join = (f.add_block(n) for n in ("entry", "left", "join"))
    b = IRBuilder(entry)
    b.condbr(b.icmp(ICmpPred.SGT, f.args[0], b.i32(0)), left, join)
    b.set_block(left)
    lv = b.add(f.args[0], b.i32(1))
    b.br(join)
    b.set_block(join)
    b.ret(lv)
    return f


def _duplicate_name(f: Function) -> None:
    twin = BasicBlock("entry", f)
    f.blocks.append(twin)
    IRBuilder(twin).ret(Constant(I32, 0))


def _phi_after_add(f: Function) -> None:
    phi = PhiInstruction(I32, "p")
    f.entry.insert(1, phi)
    phi.add_incoming(Constant(I32, 0), f.entry)


def _bad_condbr(f: Function) -> None:
    f.entry.instructions[-1:] = []
    a, b = f.add_block("a"), f.add_block("b")
    for block in (a, b):
        IRBuilder(block).ret(Constant(I32, 0))
    f.entry.append(Instruction(Opcode.CONDBR, VOID, [f.args[0]], targets=[a, b]))


def _bad_br(f: Function) -> None:
    f.entry.instructions[-1:] = []
    done = f.add_block("done")
    IRBuilder(done).ret(Constant(I32, 0))
    f.entry.append(Instruction(Opcode.BR, VOID, [f.args[0]], targets=[done]))


TRUE = Constant(I1, 1)

# (id, builder, a fragment of the message; None when both must accept)
CORPUS = [
    ("valid", _ok, None),
    ("diamond", lambda: _diamond(lambda l, lv, r, rv: [(lv, l), (rv, r)]), None),
    ("same-targets", lambda: _same_targets(True), None),
    ("foreign-entry", _foreign_entry, None),
    ("duplicate-name", lambda: _with(_ok(), _duplicate_name), "duplicate block name"),
    ("empty-block", lambda: _with(_ok(), lambda f: f.add_block("empty")), "empty basic block"),
    (
        "early-terminator",
        lambda: _with(
            _ok(),
            lambda f: f.entry.insert(
                0, Instruction(Opcode.RET, VOID, [Constant(I32, 0)])
            ),
        ),
        "not at block end",
    ),
    (
        "no-terminator",
        lambda: _with(_ok(), lambda f: f.entry.instructions.pop()),
        "does not end in a terminator",
    ),
    (
        "wrong-parent",
        lambda: _with(_ok(), lambda f: setattr(f.entry.instructions[0], "parent", None)),
        "wrong parent link",
    ),
    ("phi-after-non-phi", lambda: _with(_ok(), _phi_after_add), "phi after non-phi"),
    (
        "target-elsewhere",
        lambda: _with(_ok(), _other_function_target),
        "branch target elsewhere not in function",
    ),
    ("void-ret-value", lambda: _ret(VOID, Constant(I32, 0)), "ret with value in void"),
    ("ret-no-value", lambda: _ret(I32), "ret without value"),
    ("ret-type", lambda: _ret(I32, Constant(I64, 0)), "ret type"),
    (
        "phi-twice",
        lambda: _diamond(lambda l, lv, r, rv: [(lv, l), (lv, l), (rv, r)]),
        "lists predecessor left twice",
    ),
    (
        "phi-missing",
        lambda: _diamond(lambda l, lv, r, rv: [(lv, l)]),
        "missing incoming for ['right']",
    ),
    (
        "phi-missing-block-order",
        _block_order_not_rpo,
        "missing incoming for ['y', 'x']",
    ),
    (
        "phi-missing-same-targets",
        lambda: _same_targets(False),
        "missing incoming for ['entry']",
    ),
    (
        "phi-non-predecessor",
        lambda: _diamond(
            lambda l, lv, r, rv: [(lv, l), (rv, r), (Constant(I32, 9), l.parent.entry)]
        ),
        "non-predecessor",
    ),
    (
        "phi-not-dominating",
        lambda: _diamond(lambda l, lv, r, rv: [(rv, l), (rv, r)]),
        "does not dominate edge from left",
    ),
    (
        "foreign-argument",
        lambda: _with(_ok(), _foreign_argument),
        "operand argument %x from another function",
    ),
    ("use-before-def", lambda: _with(_ok(), _use_before_def), "before its definition"),
    ("def-not-dominating", _not_dominating, "does not dominate use in join"),
    (
        "foreign-instruction",
        lambda: _with(_ok(), _foreign_instruction),
        "not in function",
    ),
    (
        "invalid-operand",
        lambda: _with(
            _ok(),
            lambda f: f.entry.instructions[0].operands.__setitem__(1, Value(I32, "v")),
        ),
        "invalid operand",
    ),
    (
        "binary-arity",
        lambda: _body(lambda a, p: [Instruction(Opcode.ADD, I32, [a])]),
        "expects 2 operands",
    ),
    (
        "binary-types",
        lambda: _body(lambda a, p: [Instruction(Opcode.ADD, I32, [a, Constant(I64, 1)])]),
        "type mismatch",
    ),
    (
        "int-op-on-float",
        lambda: _body(
            lambda a, p: [
                Instruction(Opcode.ADD, F64, [Constant(F64, 1.0), Constant(F64, 2.0)])
            ]
        ),
        "on non-integer type",
    ),
    (
        "float-op-on-int",
        lambda: _body(lambda a, p: [Instruction(Opcode.FADD, I32, [a, a])]),
        "on non-float type",
    ),
    (
        "icmp-without-pred",
        lambda: _body(lambda a, p: [Instruction(Opcode.ICMP, I1, [a, a])]),
        "malformed icmp",
    ),
    (
        "select-condition",
        lambda: _body(lambda a, p: [Instruction(Opcode.SELECT, I32, [a, a, a])]),
        "malformed select",
    ),
    (
        "select-result",
        lambda: _body(lambda a, p: [Instruction(Opcode.SELECT, I64, [TRUE, a, a])]),
        "select result type mismatch",
    ),
    (
        "load-from-int",
        lambda: _body(lambda a, p: [Instruction(Opcode.LOAD, I32, [a])]),
        "malformed load",
    ),
    (
        "store-to-int",
        lambda: _body(lambda a, p: [Instruction(Opcode.STORE, VOID, [a, a])]),
        "malformed store",
    ),
    (
        "gep-size",
        lambda: _body(lambda a, p: [Instruction(Opcode.GEP, PTR, [p, a])]),
        "malformed gep",
    ),
    ("condbr-on-int", lambda: _with(_ok(), _bad_condbr), "malformed condbr"),
    ("br-with-operand", lambda: _with(_ok(), _bad_br), "malformed br"),
    (
        "call-without-callee",
        lambda: _body(lambda a, p: [Instruction(Opcode.CALL, I32, [])]),
        "call without callee",
    ),
]


@pytest.mark.parametrize(
    "build, fragment", [case[1:] for case in CORPUS], ids=[case[0] for case in CORPUS]
)
def test_same_verdict_as_oracle(build, fragment):
    func = build()
    new = verdict(verify_function, func)
    assert new == verdict(oracle_verify_function, func)
    if fragment is None:
        assert new is None
    else:
        assert new is not None and fragment in new, new

