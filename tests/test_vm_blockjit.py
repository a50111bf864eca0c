"""Function units: differential tests against the closure oracle.

The interpreter compiles every IR function into one generated Python
function with structured control flow. The reference here is the
interpreter that design replaced — the per-instruction closure compiler
with its dispatch loop and the format-table memory access — copied
verbatim into this file, where it lives only as an oracle. For every
program below both run on the same inputs and must agree exactly on the
return value, the output channel, the step count, the block profile *in
insertion order*, and the virtual PPC405 clock (compared with ``==``:
``total_cycles`` sums floats in dict order, so a reordered profile would
show here). Traps must raise the
same exception type with the same message.

The unit code cache, shared by every interpreter of a module, is held
the same way to freshly compiled modules.
"""

from __future__ import annotations

import builtins
import math
import pickle
import random
import struct
from dataclasses import fields

import pytest

from repro.ir.basicblock import BasicBlock
from repro.ir.builder import IRBuilder
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.module import Module
from repro.ir.opcodes import BINARY_OPS, CAST_OPS, FCmpPred, ICmpPred, Opcode
from repro.ir.passes.constfold import (
    ConstantFoldError,
    fold_binary,
    fold_cast,
    fold_fcmp,
    fold_icmp,
)
from repro.ir.types import F32, F64, I1, I8, I16, I32, I64, Type, wrap_int
from repro.ir.values import Constant, GlobalVariable, UndefValue, Value
from repro.vm.costmodel import PPC405_COST_MODEL, CostModel
from repro.vm.interpreter import ExecutionResult, Interpreter, VMError, _FunctionPlan
from repro.vm.intrinsics import INTRINSICS
from repro.vm.memory import Memory, MemoryError_
from repro.vm.profiler import BlockTimeSampler, ExecutionProfile


# -- the oracle: the closure interpreter and its memory access ---------------
_STRUCT_FMT = {
    ("int", 1): "b",
    ("int", 8): "b",
    ("int", 16): "h",
    ("int", 32): "i",
    ("int", 64): "q",
    ("float", 32): "f",
    ("float", 64): "d",
    ("ptr", 64): "q",
}


class ClosureMemory(Memory):
    """Memory with the format-table scalar access the accessors replaced."""

    def load(self, addr: int, ty: Type):
        fmt = _STRUCT_FMT[(ty.kind, ty.bits)]
        nbytes = struct.calcsize(fmt)
        self._check(addr, nbytes)
        (value,) = struct.unpack_from("<" + fmt, self.data, addr)
        if ty.is_int:
            return wrap_int(value, ty)
        if ty.is_float:
            return float(value)
        return int(value)

    def store(self, addr: int, ty: Type, value) -> None:
        fmt = _STRUCT_FMT[(ty.kind, ty.bits)]
        nbytes = struct.calcsize(fmt)
        self._check(addr, nbytes)
        if ty.is_int:
            value = wrap_int(int(value), ty)
        elif ty.is_float:
            value = float(value)
            if ty.bits == 32:
                # round-trip through f32 to keep stored precision honest
                value = struct.unpack("f", struct.pack("f", value))[0]
        else:
            value = int(value)
        struct.pack_into("<" + fmt, self.data, addr, value)


_JUMP = 0
_RETURN = 1


class ClosureInterpreter:
    """The previous closure-compiled interpreter."""

    def __init__(
        self,
        module: Module,
        memory_size: int = 1 << 22,
        max_steps: int = 200_000_000,
        dataset_size: int = 0,
        dataset_seed: int = 1,
    ) -> None:
        self.module = module
        self.memory = ClosureMemory(memory_size)
        self.memory.place_globals(list(module.globals.values()))
        self.max_steps = max_steps
        self.dataset_size = dataset_size
        self.dataset_seed = dataset_seed
        self.output: list = []
        self.rand_state = 1
        self.cycles_executed = 0  # coarse counter exposed to clock()
        self._steps = 0
        self._profile = ExecutionProfile(module.name)
        # Custom-instruction evaluators installed by the binary patcher:
        # custom_id -> callable(list_of_operand_values) -> value
        self.custom_evaluators: dict[int, object] = {}
        # Compiled-block cache: id(block) -> (phi_plan, body_handlers)
        self._compiled: dict[int, tuple] = {}

    # -- public API ----------------------------------------------------------
    def run(self, function_name="main", args=None) -> ExecutionResult:
        """Execute *function_name* to completion and return its result."""
        func = self.module.function(function_name)
        self._steps = 0
        self._profile = ExecutionProfile(self.module.name)
        value = self._call(func, list(args or []))
        return ExecutionResult(
            return_value=value,
            profile=self._profile,
            output=list(self.output),
            steps=self._steps,
        )

    # -- execution core ------------------------------------------------------
    def _call(self, func: Function, args: list):
        if func.is_declaration:
            raise VMError(f"call to undefined function {func.name}")
        if len(args) != len(func.args):
            raise VMError(
                f"{func.name}: expected {len(func.args)} args, got {len(args)}"
            )
        frame_token = self.memory.push_frame()
        env: dict[int, object] = {}
        for formal, actual in zip(func.args, args):
            env[id(formal)] = actual

        block = func.entry
        prev_block_id = 0
        fname = func.name
        compiled = self._compiled
        max_steps = self.max_steps

        try:
            while True:
                plan = compiled.get(id(block))
                if plan is None:
                    plan = self._compile_block(fname, block)
                    compiled[id(block)] = plan
                record, size, phi_plan, handlers = plan

                record(fname)
                self._steps += size
                self.cycles_executed += size
                if self._steps > max_steps:
                    raise VMError(
                        f"step limit exceeded ({self.max_steps}) in {fname}"
                    )

                if phi_plan is not None:
                    keys, tables = phi_plan
                    values = [t[prev_block_id](env) for t in tables]
                    for key, value in zip(keys, values):
                        env[key] = value

                # Straight-line body: only the last handler (the terminator)
                # returns a control tuple.
                for handler in handlers:
                    ctl = handler(env)
                    if ctl is not None:
                        break
                else:  # pragma: no cover - verifier guarantees a terminator
                    raise VMError(f"{fname}/{block.name}: fell off block end")

                kind, payload = ctl
                if kind == _RETURN:
                    return payload
                prev_block_id = id(block)
                block = payload
        except MemoryError_ as exc:
            raise VMError(f"{fname}: {exc}") from None
        finally:
            self.memory.pop_frame(frame_token)

    # -- block compilation -----------------------------------------------------
    def _compile_block(self, fname: str, block: BasicBlock):
        phis = block.phis()
        phi_plan = None
        if phis:
            keys = [id(p) for p in phis]
            tables = []
            for phi in phis:
                table: dict[int, object] = {}
                for value, inc_block in phi.incoming:
                    table[id(inc_block)] = self._getter(value)
                tables.append(table)
            phi_plan = (keys, tables)

        handlers = [
            self._compile_instr(fname, instr)
            for instr in block.instructions[len(phis) :]
        ]

        size = len(block.instructions)
        block_name = block.name

        def record(function_name: str, _size=size, _name=block_name) -> None:
            # self._profile is replaced per run(); resolve dynamically.
            self._profile.record(function_name, _name, _size)

        return (record, size, phi_plan, handlers)
    def _getter(self, value: Value):
        """Compile an operand into a zero-branch accessor."""
        if isinstance(value, Constant):
            v = value.value
            return lambda env, _v=v: _v
        if isinstance(value, GlobalVariable):
            if value.address is None:
                raise VMError(f"global @{value.name} has no address")
            addr = value.address
            return lambda env, _a=addr: _a
        if isinstance(value, UndefValue):
            v = 0.0 if value.type.is_float else 0
            return lambda env, _v=v: _v
        key = id(value)

        def get(env, _k=key):
            try:
                return env[_k]
            except KeyError:
                name = getattr(value, "name", "?")
                raise VMError(f"use of undefined value %{name}") from None

        return get

    # -- instruction compilation ---------------------------------------------
    def _compile_instr(self, fname: str, instr: Instruction):
        op = instr.opcode
        key = id(instr)
        operands = instr.operands
        getters = [self._getter(o) for o in operands]

        # ---- integer binary ops with inlined wrapping --------------------
        if op in _INT_FAST_OPS and instr.type.is_int:
            g0, g1 = getters
            bits = instr.type.bits
            mask = (1 << bits) - 1
            half = 1 << (bits - 1) if bits > 1 else 1
            size = 1 << bits
            kind = op

            if kind is Opcode.ADD:

                def h(env):
                    v = (g0(env) + g1(env)) & mask
                    env[key] = v - size if v >= half else v

            elif kind is Opcode.SUB:

                def h(env):
                    v = (g0(env) - g1(env)) & mask
                    env[key] = v - size if v >= half else v

            elif kind is Opcode.MUL:

                def h(env):
                    v = (g0(env) * g1(env)) & mask
                    env[key] = v - size if v >= half else v

            elif kind is Opcode.AND:

                def h(env):
                    env[key] = g0(env) & g1(env)

            elif kind is Opcode.OR:

                def h(env):
                    env[key] = g0(env) | g1(env)

            else:  # XOR

                def h(env):
                    env[key] = g0(env) ^ g1(env)

            return h

        # ---- float binary ops --------------------------------------------
        if op in _FLOAT_FAST_OPS:
            g0, g1 = getters
            if op is Opcode.FADD:

                def h(env):
                    env[key] = g0(env) + g1(env)

            elif op is Opcode.FSUB:

                def h(env):
                    env[key] = g0(env) - g1(env)

            elif op is Opcode.FMUL:

                def h(env):
                    env[key] = g0(env) * g1(env)

            else:  # FDIV

                def h(env):
                    b = g1(env)
                    a = g0(env)
                    if b == 0.0:
                        env[key] = (
                            math.inf if a > 0 else (-math.inf if a < 0 else math.nan)
                        )
                    else:
                        env[key] = a / b

            return h

        # ---- remaining binary ops via the shared fold evaluators ---------
        if op in BINARY_OPS:
            g0, g1 = getters
            ty = instr.type

            def h(env):
                try:
                    env[key] = fold_binary(op, ty, g0(env), g1(env))
                except ConstantFoldError as exc:
                    raise VMError(f"{fname}: {exc}") from None

            return h

        if op is Opcode.ICMP:
            g0, g1 = getters
            pred = instr.pred
            oty = operands[0].type
            if pred is ICmpPred.SLT:
                return lambda env: env.__setitem__(key, 1 if g0(env) < g1(env) else 0)
            if pred is ICmpPred.SGT:
                return lambda env: env.__setitem__(key, 1 if g0(env) > g1(env) else 0)
            if pred is ICmpPred.SLE:
                return lambda env: env.__setitem__(key, 1 if g0(env) <= g1(env) else 0)
            if pred is ICmpPred.SGE:
                return lambda env: env.__setitem__(key, 1 if g0(env) >= g1(env) else 0)
            if pred is ICmpPred.EQ:
                return lambda env: env.__setitem__(key, 1 if g0(env) == g1(env) else 0)
            if pred is ICmpPred.NE:
                return lambda env: env.__setitem__(key, 1 if g0(env) != g1(env) else 0)

            def h(env):
                env[key] = fold_icmp(pred, oty, g0(env), g1(env))

            return h

        if op is Opcode.FCMP:
            g0, g1 = getters
            pred = instr.pred

            def h(env):
                env[key] = fold_fcmp(pred, g0(env), g1(env))

            return h

        if op in CAST_OPS:
            g0 = getters[0]
            src_ty = operands[0].type
            dst_ty = instr.type

            def h(env):
                env[key] = fold_cast(op, src_ty, dst_ty, g0(env))

            return h

        if op is Opcode.SELECT:
            gc, gt, gf = getters

            def h(env):
                env[key] = gt(env) if gc(env) else gf(env)

            return h

        if op is Opcode.FNEG:
            g0 = getters[0]

            def h(env):
                env[key] = -g0(env)

            return h

        # ---- memory ----------------------------------------------------------
        if op is Opcode.LOAD:
            g0 = getters[0]
            load = self.memory.load
            ty = instr.type

            def h(env):
                env[key] = load(g0(env), ty)

            return h

        if op is Opcode.STORE:
            gv, gp = getters
            store = self.memory.store
            ty = operands[0].type

            def h(env):
                store(gp(env), ty, gv(env))

            return h

        if op is Opcode.GEP:
            gp, gi = getters
            scale = instr.elem_size

            def h(env):
                env[key] = gp(env) + gi(env) * scale

            return h

        if op is Opcode.ALLOCA:
            nbytes = instr.elem_size * instr.alloc_count
            alloca = self.memory.alloca

            def h(env):
                env[key] = alloca(nbytes)

            return h

        # ---- calls -----------------------------------------------------------
        if op is Opcode.CALL:
            callee = instr.callee
            has_result = instr.has_result
            if isinstance(callee, str):
                intr = INTRINSICS.get(callee)
                if intr is None:
                    raise VMError(f"unknown intrinsic {callee!r}")
                fn = intr.fn

                if has_result:

                    def h(env):
                        env[key] = fn(self, *[g(env) for g in getters])

                else:

                    def h(env):
                        fn(self, *[g(env) for g in getters])

                return h

            call = self._call

            if has_result:

                def h(env):
                    env[key] = call(callee, [g(env) for g in getters])

            else:

                def h(env):
                    call(callee, [g(env) for g in getters])

            return h

        if op is Opcode.CUSTOM:
            custom_id = instr.custom_id
            evaluators = self.custom_evaluators

            def h(env):
                evaluator = evaluators.get(custom_id)
                if evaluator is None:
                    raise VMError(
                        f"no evaluator for custom instruction #{custom_id}"
                    )
                env[key] = evaluator([g(env) for g in getters])

            return h

        # ---- terminators -----------------------------------------------------
        if op is Opcode.BR:
            target = instr.targets[0]
            ctl = (_JUMP, target)
            return lambda env, _c=ctl: _c

        if op is Opcode.CONDBR:
            g0 = getters[0]
            ctl_true = (_JUMP, instr.targets[0])
            ctl_false = (_JUMP, instr.targets[1])
            return lambda env: ctl_true if g0(env) else ctl_false

        if op is Opcode.RET:
            if getters:
                g0 = getters[0]
                return lambda env: (_RETURN, g0(env))
            none_ctl = (_RETURN, None)
            return lambda env, _c=none_ctl: _c

        raise VMError(f"cannot interpret opcode {op}")  # pragma: no cover


_INT_FAST_OPS = frozenset(
    {Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR}
)
_FLOAT_FAST_OPS = frozenset(
    {Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV}
)

# -- the differential harness -------------------------------------------------
def profile_items(result: ExecutionResult) -> list:
    return [
        (key, prof.count, prof.static_instructions)
        for key, prof in result.profile.blocks.items()
    ]


def assert_same(
    module, new: ExecutionResult, old: ExecutionResult, cost_model=PPC405_COST_MODEL
) -> None:
    assert new.return_value == old.return_value or (
        isinstance(old.return_value, float)
        and math.isnan(old.return_value)
        and math.isnan(new.return_value)
    )
    assert new.output == old.output
    assert new.steps == old.steps
    assert profile_items(new) == profile_items(old)
    assert new.profile.total_cycles(
        module, cost_model
    ) == old.profile.total_cycles(module, cost_model)


def run_both(
    module, entry="main", args=None, setup=None, cost_model=PPC405_COST_MODEL,
    **kwargs,
):
    """Run *module* on the block compiler and on the oracle."""
    results = []
    for cls in (Interpreter, ClosureInterpreter):
        interp = cls(module, **kwargs)
        if setup is not None:
            setup(interp)
        results.append(interp.run(entry, args))
    new, old = results
    assert_same(module, new, old, cost_model)
    return new, old


def trap_of(cls, module, entry="main", args=None, **kwargs) -> Exception:
    with pytest.raises(Exception) as info:
        cls(module, **kwargs).run(entry, args)
    return info.value


def assert_same_trap(module, entry="main", args=None, match=None, **kwargs):
    new = trap_of(Interpreter, module, entry, args, **kwargs)
    old = trap_of(ClosureInterpreter, module, entry, args, **kwargs)
    assert type(new) is type(old)
    assert str(new) == str(old)
    if match is not None:
        assert match in str(new)


# -- randomized programs -------------------------------------------------------
def build_random_module(seed: int, body_ops: int = 28) -> Module:
    """A random counted loop of straight-line int/float/memory operations.

    The loop header carries two phis that swap through each other every
    iteration, so a phi resolution that is not a parallel move changes the
    result; the body stores wide bytes and reloads them as i1, so a load
    that keeps more than the low bit does too. Divisors are forced
    non-zero (``x | 1`` / ``x*x + 1.0``) so every generated program is
    trap-free and the comparison checks values (traps have their own tests).
    Every int result is folded into the accumulator, so none is dead.
    """
    rng = random.Random(seed)
    module = Module(f"rand{seed}")
    func = module.declare_function("main", I32, [])
    entry = func.add_block("entry")
    loop = func.add_block("loop")
    body = func.add_block("body")
    done = func.add_block("done")

    b = IRBuilder(entry)
    buf = b.alloca(I32, 16)
    fbuf = b.alloca(F64, 8)
    acc_slot = b.alloca(I32)
    i_slot = b.alloca(I32)
    byte_slot = b.alloca(I8, 8)
    for k in range(16):
        b.store(b.i32(rng.randrange(-50, 50)), b.gep(buf, b.i32(k), 4))
    for k in range(8):
        b.store(
            b.f64(rng.uniform(-4.0, 4.0)), b.gep(fbuf, b.i32(k), 8)
        )
    b.store(b.i32(rng.randrange(100)), acc_slot)
    b.store(b.i32(0), i_slot)
    b.br(loop)

    b.set_block(loop)
    x = b.phi(I32, "x")
    y = b.phi(I32, "y")
    i = b.load(I32, i_slot)
    cond = b.icmp(ICmpPred.SLT, i, b.i32(200))
    b.condbr(cond, body, done)

    b.set_block(body)
    i = b.load(I32, i_slot)
    ints = [i, b.load(I32, acc_slot), x, y]
    floats = []
    bools = []
    for _ in range(body_ops):
        kind = rng.randrange(13)
        if kind < 3:
            op = rng.choice([b.add, b.sub, b.mul, b.and_, b.or_, b.xor])
            ints.append(op(rng.choice(ints), rng.choice(ints)))
        elif kind == 3:
            op = rng.choice([b.sdiv, b.srem])
            ints.append(
                op(rng.choice(ints), b.or_(rng.choice(ints), b.i32(1)))
            )
        elif kind == 4:
            pred = rng.choice(list(ICmpPred))
            bools.append(b.icmp(pred, rng.choice(ints), rng.choice(ints)))
            ints.append(b.zext(bools[-1], I32))
        elif kind == 5 and bools:
            ints.append(
                b.select(
                    rng.choice(bools), rng.choice(ints), rng.choice(ints)
                )
            )
        elif kind == 6:
            idx = b.and_(rng.choice(ints), b.i32(15))
            slot = b.gep(buf, idx, 4)
            if rng.random() < 0.5:
                b.store(rng.choice(ints), slot)
            ints.append(b.load(I32, slot))
        elif kind == 7:
            floats.append(b.sitofp(rng.choice(ints), F64))
        elif kind == 8 and floats:
            op = rng.choice([b.fadd, b.fsub, b.fmul])
            floats.append(op(rng.choice(floats), rng.choice(floats)))
            if rng.random() < 0.3:
                floats.append(b.fneg(rng.choice(floats)))
        elif kind == 9 and floats:
            f = rng.choice(floats)
            den = b.fadd(b.fmul(f, f), b.f64(1.0))
            floats.append(b.fdiv(rng.choice(floats), den))
            pred = rng.choice(list(FCmpPred))
            bools.append(
                b.fcmp(pred, floats[-1], rng.choice(floats + [b.f64(1e6)]))
            )
            ints.append(b.zext(bools[-1], I32))
        elif kind == 10:
            slot = b.gep(byte_slot, b.and_(rng.choice(ints), b.i32(7)), 1)
            b.store(b.trunc(rng.choice(ints), I8), slot)
            bit = b.load(I1, slot)
            bools.append(bit)
            ints.append(b.sext(bit, I32))
        elif kind == 12:
            op = rng.choice([b.shl, b.lshr, b.ashr])
            ints.append(op(rng.choice(ints), rng.choice(ints)))
        elif kind == 11:
            narrow = rng.choice([I8, I16])
            ints.append(b.sext(b.trunc(rng.choice(ints), narrow), I32))
        else:
            ints.append(b.add(rng.choice(ints), b.i32(rng.randrange(7))))
    if floats:
        idx = b.and_(rng.choice(ints), b.i32(7))
        b.store(rng.choice(floats), b.gep(fbuf, idx, 8))
    # Fold every int into the accumulator so no generated value is dead.
    digest = b.add(b.mul(x, b.i32(31)), y)
    for value in ints:
        digest = b.xor(b.mul(digest, b.i32(3)), value)
    b.store(digest, acc_slot)
    b.store(b.add(i, b.i32(1)), i_slot)
    b.br(loop)

    # Each iteration x takes a fresh value and y takes the *old* x.
    x.add_incoming(b.i32(rng.randrange(-9, 9)), entry)
    x.add_incoming(rng.choice(ints[4:] or [i]), body)
    y.add_incoming(b.i32(rng.randrange(-9, 9)), entry)
    y.add_incoming(x, body)

    b.set_block(done)
    b.ret(b.add(b.load(I32, acc_slot), b.mul(x, y)))
    return module


@pytest.mark.parametrize("seed", range(8))
def test_random_programs_identical(seed):
    module = build_random_module(seed)
    new, _ = run_both(module)
    assert new.steps > 1000


def assert_sampled_equals_plain(module, interval):
    """Runs of *module* under a sampler with *interval* (seconds), repeated
    until it has taken a sample, each equal a plain run.

    The units carry no sampling code, so nothing a sample does may show
    in the results; every sample names a block the run executed.
    """
    plain, _ = run_both(module)
    with BlockTimeSampler(interval=interval) as sampler:
        for _ in range(200):
            assert_same(module, Interpreter(module).run("main"), plain)
            if sampler.sample_count:
                break
    assert sampler.sample_count > 0
    assert set(sampler.samples) <= set(plain.profile.blocks)


@pytest.mark.parametrize("interval", [1, 3, 64])
def test_sampler_intervals_identical(interval):
    """Sampled runs every 0.1, 0.3 and 6.4 ms equal the plain run."""
    assert_sampled_equals_plain(build_random_module(3), interval * 1e-4)


# -- straight-line coverage ------------------------------------------------------
def _straightline_module(build) -> Module:
    module = Module("straight")
    func = module.declare_function("main", I32, [])
    b = IRBuilder(func.add_block("entry"))
    build(b)
    return module


def test_every_opcode_class_identical():
    """One block exercising every inlined and every folded opcode kind."""

    def build(b):
        slot = b.alloca(I64)
        fslot = b.alloca(F32)
        a = b.add(b.i32(7), b.i32(35))
        s = b.sub(a, b.i32(3))
        m = b.mul(s, s)
        d = b.sdiv(m, b.i32(5))
        r = b.srem(d, b.i32(97))
        sh = b.shl(r, b.i32(2))
        lr = b.lshr(sh, b.i32(1))
        ar = b.ashr(lr, b.i32(1))
        w = b.xor(b.or_(b.and_(ar, b.i32(255)), b.i32(8)), b.i32(3))
        c = b.icmp(ICmpPred.ULT, w, b.i32(100))
        sel = b.select(c, w, b.i32(41))
        wide = b.sext(sel, I64)
        b.store(wide, slot)
        back = b.load(I64, slot)
        nar = b.trunc(back, I32)
        f = b.sitofp(nar, F64)
        g = b.fneg(b.fmul(b.fadd(f, b.f64(1.5)), b.f64(2.0)))
        h = b.fdiv(b.fsub(g, b.f64(1.0)), b.f64(0.0))  # signed-inf path
        q = b.frem(g, b.f64(3.0))
        narrow = b.fptrunc(q)
        b.store(narrow, fslot)
        wider = b.fpext(b.load(F32, fslot))
        t = b.fptosi(wider, I32)
        bad = b.fcmp(FCmpPred.OLT, h, b.f64(0.0))
        z = b.zext(bad, I32)
        b.ret(b.add(b.add(z, nar), t))

    run_both(_straightline_module(build))


def test_global_operands_bind_addresses():
    module = Module("g")
    gv = module.add_global("table", I32, 4, initializer=[11, 22, 33, 44])
    func = module.declare_function("main", I32, [])
    b = IRBuilder(func.add_block("entry"))
    p = b.gep(gv, b.i32(2), 4)
    v = b.load(I32, p)
    b.ret(b.add(v, b.i32(9)))
    new, _ = run_both(module)
    assert new.return_value == 42


# -- trap parity -------------------------------------------------------------------
def test_trap_parity_division_by_zero():
    def build(b):
        x = b.add(b.i32(5), b.i32(1))
        b.ret(b.sdiv(x, b.sub(b.i32(3), b.i32(3))))

    assert_same_trap(_straightline_module(build), match="main: ")


def _faulting_module(elem_size: int, index: int) -> Module:
    module = Module("fault")
    module.add_global("buf", I8, 16, [0] * 16)
    func = module.declare_function("main", I32, [])
    b = IRBuilder(func.add_block("entry"))
    p = b.gep(module.globals["buf"], b.i32(index), elem_size)
    b.ret(b.load(I32, p))
    return module


def test_trap_parity_out_of_range():
    assert_same_trap(_faulting_module(8, 1 << 24), match="out of range")


def test_trap_parity_misaligned():
    assert_same_trap(_faulting_module(1, 1), match="misaligned 4-byte")


def test_trap_parity_misaligned_store():
    module = Module("fault")
    module.add_global("buf", I8, 16, [0] * 16)
    func = module.declare_function("main", I32, [])
    b = IRBuilder(func.add_block("entry"))
    b.store(b.i64(5), b.gep(module.globals["buf"], b.i32(4), 1))
    b.ret(b.i32(0))
    assert_same_trap(module, match="misaligned 8-byte")


def test_trap_parity_undefined_value():
    """A value defined on the path not taken is missing from env."""
    module = Module("undef")
    func = module.declare_function("main", I32, [("flag", I32)])
    entry = func.add_block("entry")
    then = func.add_block("then")
    join = func.add_block("join")
    b = IRBuilder(entry)
    b.condbr(b.icmp(ICmpPred.NE, func.args[0], b.i32(0)), then, join)
    b.set_block(then)
    defined = b.add(func.args[0], b.i32(1), "late")
    b.br(join)
    b.set_block(join)
    b.ret(b.mul(defined, b.i32(2)))
    run_both(module, args=[3])
    assert_same_trap(module, args=[0], match="use of undefined value %late")


def test_trap_parity_missing_custom_evaluator():
    def build(b):
        x = b.add(b.i32(1), b.i32(2))
        b.ret(b.add(x, b.i32(3)))

    module = _straightline_module(build)
    entry = module.function("main").entry
    custom = Instruction(
        Opcode.CUSTOM, I32, [entry.instructions[0]], "c", custom_id=7
    )
    entry.insert(1, custom)
    assert_same_trap(module, match="no evaluator for custom instruction #7")


def test_trap_parity_step_limit():
    module = Module("spin")
    func = module.declare_function("main", I32, [])
    entry = func.add_block("entry")
    loop = func.add_block("loop")
    b = IRBuilder(entry)
    b.br(loop)
    b.set_block(loop)
    b.br(loop)
    assert_same_trap(module, max_steps=1000, match="step limit exceeded")


def test_trap_parity_call_to_declaration():
    module = Module("decl")
    ext = module.declare_function("ext", I32, [("x", I32)])
    func = module.declare_function("main", I32, [])
    b = IRBuilder(func.add_block("entry"))
    b.ret(b.call(ext, [b.i32(1)]))
    assert ext.is_declaration
    assert_same_trap(module, match="call to undefined function ext")


# -- patched modules and applications ----------------------------------------------
def test_patched_custom_module_identical(fp_kernel_profile):
    from repro.ise import CandidateSearch
    from repro.vm.patcher import BinaryPatcher
    from repro.woolcano import WoolcanoCostModel

    module, profile, _ = fp_kernel_profile
    search = CandidateSearch().run(module, profile)
    assert search.candidate_count >= 1
    patcher = BinaryPatcher()
    patcher.patch_module(module, search.candidates())
    assert any(
        instr.opcode is Opcode.CUSTOM
        for func in module.defined_functions()
        for block in func.blocks
        for instr in block.instructions
    )
    cost_model = WoolcanoCostModel(
        **{f.name: getattr(PPC405_COST_MODEL, f.name) for f in fields(CostModel)},
        custom_costs={p.custom_id: 3 + p.custom_id for p in patcher.patches},
    )
    run_both(
        module,
        setup=patcher.install,
        cost_model=cost_model,
        dataset_size=48,
        dataset_seed=3,
    )


@pytest.mark.parametrize(
    "app", ["fft", "adpcm", "179.art", "473.astar", "164.gzip", "458.sjeng"]
)
def test_app_train_runs_identical(app):
    from repro.apps import compile_app, get_app

    spec = get_app(app)
    compiled = compile_app(spec)
    run_both(
        compiled.module,
        entry=spec.entry,
        dataset_size=spec.train.size,
        dataset_seed=spec.train.seed,
    )


# -- the unit code cache -------------------------------------------------------------
# Every interpreter of a module shares one code object per distinct unit
# source (Module.code_cache). These pin that the dataset runs of one
# compiled app equal runs on freshly compiled modules, that a patched
# function gets code of its own, and that a sampled run reuses the plain
# run's code.
def _counting_compile(monkeypatch) -> list:
    calls = []
    real = builtins.compile

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting)
    return calls


@pytest.mark.parametrize("app", ["fft", "sor", "429.mcf"])
def test_dataset_runs_share_units(app, monkeypatch):
    from repro.apps import compile_app, get_app

    spec = get_app(app)
    shared = compile_app(spec)
    compiles = _counting_compile(monkeypatch)
    results = []
    for ds in spec.datasets:
        compiles.clear()
        results.append(shared.run(ds))
        # Only the module's first interpreter (the train run) compiles.
        assert (len(compiles) > 0) == (ds is spec.train), (ds.name, compiles)
    monkeypatch.undo()
    for ds, result in zip(spec.datasets, results):
        assert_same(shared.module, result, compile_app(spec).run(ds))


def _patched_run(compiled, profile):
    """Patch *compiled* with the candidates *profile* selects; run train."""
    from repro.ise import CandidateSearch
    from repro.vm.patcher import BinaryPatcher

    spec = compiled.spec
    patcher = BinaryPatcher()
    patcher.patch_module(
        compiled.module, CandidateSearch().run(compiled.module, profile).candidates()
    )
    interp = Interpreter(
        compiled.module, dataset_size=spec.train.size, dataset_seed=spec.train.seed
    )
    patcher.install(interp)
    return interp.run(spec.entry), patcher


def test_patched_module_misses_the_cache():
    """The patcher edits blocks in place: their source, and so their cache
    key, changes, so a run after patching equals a fresh patched module."""
    from repro.apps import compile_app, get_app
    from repro.woolcano import WoolcanoCostModel

    spec = get_app("sor")
    reused = compile_app(spec)
    plain = reused.run()
    patched, patcher = _patched_run(reused, plain.profile)
    fresh = compile_app(spec)
    assert fresh.module.code_cache == {}
    expected, fresh_patcher = _patched_run(fresh, plain.profile)
    assert [p.custom_id for p in patcher.patches] == [
        p.custom_id for p in fresh_patcher.patches
    ]
    assert len(patcher.patches) >= 1 and patched.steps < plain.steps
    cost_model = WoolcanoCostModel(
        **{f.name: getattr(PPC405_COST_MODEL, f.name) for f in fields(CostModel)},
        custom_costs={p.custom_id: 3 + p.custom_id for p in patcher.patches},
    )
    assert_same(reused.module, patched, expected, cost_model)


def test_sampled_run_after_a_plain_run(monkeypatch):
    """A sampled run after a plain one runs its code objects (no compile,
    no new cache entry) and equals it."""
    from repro.apps import compile_app, get_app

    spec = get_app("fft")
    reused = compile_app(spec)
    plain = reused.run()
    cached = dict(reused.module.code_cache)
    compiles = _counting_compile(monkeypatch)
    with BlockTimeSampler() as sampler:
        sampled = reused.run()
    assert compiles == []
    assert reused.module.code_cache == cached
    assert sampler.sample_count > 0
    assert set(sampler.samples) <= set(sampled.profile.blocks)
    assert_same(reused.module, sampled, plain)


def test_step_limit_trap_leaves_the_next_run_alone():
    from repro.apps import compile_app, get_app

    spec = get_app("sor")
    shared = compile_app(spec)
    with pytest.raises(VMError, match="step limit exceeded"):
        shared.run(max_steps=5_000)
    for ds in spec.datasets:
        assert_same(shared.module, shared.run(ds), compile_app(spec).run(ds))


def test_pickled_module_drops_its_code_cache():
    from repro.apps import compile_app, get_app

    spec = get_app("fft")
    compiled = compile_app(spec)
    first = compiled.run()
    copy = pickle.loads(pickle.dumps(compiled.module))
    assert compiled.module.code_cache and copy.code_cache == {}
    again = Interpreter(
        copy, dataset_size=spec.train.size, dataset_seed=spec.train.seed
    ).run(spec.entry)
    assert_same(copy, again, first)


# -- loops that call --------------------------------------------------------------------
def _looping_caller_module() -> Module:
    """A four-block loop in ``main`` that calls ``bump``, itself a loop.

    ``acc`` is carried by the header phi; ``r`` reaches the latch phi from
    the body and ``t`` from the side block, so both edge kinds move phis.
    """
    module = Module("caller")
    bump = module.declare_function("bump", I32, [("x", I32)])
    b = IRBuilder(bump.add_block("entry"))
    head = bump.add_block("head")
    step = bump.add_block("step")
    out = bump.add_block("out")
    b.br(head)
    b.set_block(head)
    j = b.phi(I32, "j")
    s = b.phi(I32, "s")
    b.condbr(b.icmp(ICmpPred.SLT, j, b.i32(3)), step, out)
    b.set_block(step)
    s2 = b.add(s, j)
    j2 = b.add(j, b.i32(1))
    b.br(head)
    b.set_block(out)
    b.ret(s)
    j.add_incoming(b.i32(0), bump.entry)
    j.add_incoming(j2, step)
    s.add_incoming(bump.args[0], bump.entry)
    s.add_incoming(s2, step)

    func = module.declare_function("main", I32, [])
    entry = func.add_block("entry")
    header = func.add_block("header")
    body = func.add_block("body")
    side = func.add_block("side")
    latch = func.add_block("latch")
    done = func.add_block("done")
    b = IRBuilder(entry)
    b.br(header)
    b.set_block(header)
    i = b.phi(I32, "i")
    acc = b.phi(I32, "acc")
    b.condbr(b.icmp(ICmpPred.SLT, i, b.i32(40)), body, done)
    b.set_block(body)
    r = b.call(bump, [acc], "r")
    b.condbr(b.icmp(ICmpPred.NE, b.and_(i, b.i32(1)), b.i32(0)), side, latch)
    b.set_block(side)
    t = b.mul(r, b.i32(3), "t")
    b.br(latch)
    b.set_block(latch)
    merged = b.phi(I32, "merged")
    i2 = b.add(i, b.i32(1))
    b.br(header)
    b.set_block(done)
    b.ret(acc)
    i.add_incoming(b.i32(0), entry)
    i.add_incoming(i2, latch)
    acc.add_incoming(b.i32(1), entry)
    acc.add_incoming(merged, latch)
    merged.add_incoming(r, body)
    merged.add_incoming(t, side)
    return module


def test_loop_with_call_identical():
    module = _looping_caller_module()
    plan = _FunctionPlan(module.function("main"))
    assert [h.name for h in plan.loops] == ["header"]
    assert len(plan.loops[module.function("main").blocks[1]]) == 4
    new, _ = run_both(module)
    assert new.steps > 1000


@pytest.mark.parametrize("interval", [1, 3, 64])
def test_sampler_across_loop_calls_identical(interval):
    """Samples that interrupt a loop, or a callee it is waiting on, leave
    its step count and block counts alone."""
    assert_sampled_equals_plain(_looping_caller_module(), interval * 1e-4)


@pytest.mark.parametrize("max_steps", range(30, 700, 23))
def test_step_limit_in_calling_loop_leaves_identical_state(max_steps):
    """The trap fires on the same block, in the loop or in the callee, and
    leaves the same step count, clock and ordered profile behind."""
    module = _looping_caller_module()
    states = []
    for cls in (Interpreter, ClosureInterpreter):
        interp = cls(module, max_steps=max_steps)
        with pytest.raises(VMError) as info:
            interp.run("main")
        states.append(
            (
                str(info.value),
                interp._steps,
                interp.cycles_executed,
                [
                    (key, prof.count, prof.static_instructions)
                    for key, prof in interp._profile.blocks.items()
                ],
            )
        )
    assert states[0] == states[1]
    assert "step limit exceeded" in states[0][0]


def _latch_reads_skipped_value_module() -> Module:
    """``late`` is defined on one path through the loop and read at the
    latch, which the defining block does not dominate."""
    module = Module("latch")
    func = module.declare_function("main", I32, [("flag", I32)])
    entry = func.add_block("entry")
    header = func.add_block("header")
    body = func.add_block("body")
    then = func.add_block("then")
    latch = func.add_block("latch")
    done = func.add_block("done")
    b = IRBuilder(entry)
    slot = b.alloca(I32)
    b.store(b.i32(0), slot)
    b.br(header)
    b.set_block(header)
    i = b.phi(I32, "i")
    b.condbr(b.icmp(ICmpPred.SLT, i, b.i32(4)), body, done)
    b.set_block(body)
    b.condbr(b.icmp(ICmpPred.SLT, i, func.args[0]), then, latch)
    b.set_block(then)
    late = b.add(i, b.i32(10), "late")
    b.br(latch)
    b.set_block(latch)
    b.store(b.add(b.load(I32, slot), late), slot)
    i2 = b.add(i, b.i32(1))
    b.br(header)
    b.set_block(done)
    b.ret(b.load(I32, slot))
    i.add_incoming(b.i32(0), entry)
    i.add_incoming(i2, latch)
    return module


def test_undefined_value_at_loop_latch():
    module = _latch_reads_skipped_value_module()
    assert_same_trap(module, args=[0], match="use of undefined value %late")
    for flag in (2, 9):  # defined early, then read stale; always defined
        run_both(module, args=[flag])


def _clock_module() -> Module:
    """Reads ``clock()`` in a loop whose path depends on a global that the
    first run changes, so the second run enters its blocks in another order."""
    module = Module("clock")
    gv = module.add_global("seen", I32, 1, initializer=[0])
    func = module.declare_function("main", I64, [])
    entry = func.add_block("entry")
    header = func.add_block("header")
    body = func.add_block("body")
    fresh = func.add_block("fresh")
    again = func.add_block("again")
    latch = func.add_block("latch")
    done = func.add_block("done")
    b = IRBuilder(entry)
    b.call("print_i64", [b.call("clock", [])])
    b.br(header)
    b.set_block(header)
    i = b.phi(I32, "i")
    total = b.phi(I64, "total")
    b.condbr(b.icmp(ICmpPred.SLT, i, b.i32(6)), body, done)
    b.set_block(body)
    b.condbr(b.icmp(ICmpPred.SLT, i, b.load(I32, gv)), again, fresh)
    b.set_block(fresh)
    b.br(latch)
    b.set_block(again)
    b.call("print_i64", [b.call("clock", [])])
    b.br(latch)
    b.set_block(latch)
    total2 = b.add(total, b.call("clock", []))
    i2 = b.add(i, b.i32(1))
    b.br(header)
    b.set_block(done)
    b.store(b.i32(3), gv)
    b.ret(total)
    i.add_incoming(b.i32(0), entry)
    i.add_incoming(i2, latch)
    total.add_incoming(b.i64(0), entry)
    total.add_incoming(total2, latch)
    return module


def test_clock_and_key_order_across_runs():
    module = _clock_module()
    interps = [Interpreter(module), ClosureInterpreter(module)]
    for _ in range(2):
        new, old = (interp.run("main") for interp in interps)
        assert_same(module, new, old)
        assert interps[0].cycles_executed == interps[1].cycles_executed
    keys = [key[1] for key in new.profile.blocks]
    assert keys.index("again") < keys.index("fresh")
    assert new.output == old.output and len(set(new.output)) == len(new.output)



# -- function units ----------------------------------------------------------------
# Every function is one generated unit: structured control flow from the
# dominator tree, the `_go` state int for a jump out of two loops, and the
# `state` int form for an irreducible or too deeply nested CFG.
def unit_source(module: Module, fname: str) -> str:
    """The one cached unit source of *fname*."""
    sources = [src for src, label in module.code_cache if label == f"<unit {fname}>"]
    assert len(sources) == 1, sources
    return sources[0]


def assert_each_block_emitted_once(module: Module, interp: Interpreter) -> None:
    """Every computed value of every block is assigned on source lines of
    one unbroken run that ``_LINES`` charges to its block."""
    for func, unit in interp._units.items():
        namespace = unit.__globals__
        lines = unit_source(module, func.name).split("\n")
        local_of = {name: local for local, name in namespace["_NAMES"].items()}
        for block in func.blocks:
            key = (func.name, block.name)
            for instr in block.instructions[len(block.phis()) :]:
                if not instr.has_result or instr.name not in local_of:
                    continue
                prefix = f"{local_of[instr.name]} = "
                rows = [
                    number
                    for number, line in enumerate(lines, 1)
                    if line.lstrip().startswith(prefix)
                ]
                assert rows, (key, instr.name)
                span = namespace["_LINES"][rows[0] : rows[-1] + 1]
                assert set(span) == {key}, (key, instr.name)


def _diamond_chain_module(length: int = 6) -> Module:
    """``main(x)``: diamond *k* tests bit *k* of ``x``. Its left arm enters
    diamond *k+1*; its right arm enters diamond *k+1* or, on bit *k+8*,
    skips to *k+2*, so merges are shared and a jump skips a merge."""
    module = Module("diamonds")
    func = module.declare_function("main", I32, [("x", I32)])
    x = func.args[0]
    entry = func.add_block("entry")
    heads = [func.add_block(f"d{k}") for k in range(length + 2)]
    b = IRBuilder(entry)
    b.br(heads[0])
    accs = []
    for head in heads:
        b.set_block(head)
        accs.append(b.phi(I32, "acc"))
    accs[0].add_incoming(b.i32(1), entry)
    for k in range(length):
        b.set_block(heads[k])
        bit = b.and_(b.lshr(x, b.i32(k)), b.i32(1))
        left = func.add_block(f"l{k}")
        right = func.add_block(f"r{k}")
        b.condbr(b.icmp(ICmpPred.NE, bit, b.i32(0)), left, right)
        b.set_block(left)
        grown = b.mul(accs[k], b.i32(3 + k))
        b.br(heads[k + 1])
        b.set_block(right)
        shrunk = b.sub(accs[k], b.i32(7 * k + 1))
        skip = b.icmp(ICmpPred.NE, b.and_(x, b.i32(1 << (k + 8))), b.i32(0))
        b.condbr(skip, heads[k + 2], heads[k + 1])
        accs[k + 1].add_incoming(grown, left)
        accs[k + 1].add_incoming(shrunk, right)
        accs[k + 2].add_incoming(shrunk, right)
    for k in (length, length + 1):
        b.set_block(heads[k])
        b.ret(b.add(accs[k], b.i32(k)))
    return module


@pytest.mark.parametrize("x", [0, 5, 0b101101, 0x3F00, 0x2A15, 0x7FFF])
def test_diamond_chain_identical(x):
    module = _diamond_chain_module()
    run_both(module, args=[x])


def _hot_outer_loop_module() -> Module:
    """An outer loop of 3 000 iterations whose inner loop runs on every
    500th only: the hot path is the outer loop's own blocks."""
    module = Module("outer")
    func = module.declare_function("main", I32, [])
    entry, oh, ob, ih, ib, olatch, done = (
        func.add_block(name)
        for name in ("entry", "oh", "ob", "ih", "ib", "olatch", "done")
    )
    b = IRBuilder(entry)
    b.br(oh)
    b.set_block(oh)
    i = b.phi(I32, "i")
    acc = b.phi(I32, "acc")
    b.condbr(b.icmp(ICmpPred.SLT, i, b.i32(3000)), ob, done)
    b.set_block(ob)
    t = b.add(b.mul(acc, b.i32(5)), i)
    rare = b.icmp(ICmpPred.EQ, b.srem(i, b.i32(500)), b.i32(0))
    b.condbr(rare, ih, olatch)
    b.set_block(ih)
    j = b.phi(I32, "j")
    s = b.phi(I32, "s")
    b.condbr(b.icmp(ICmpPred.SLT, j, b.i32(3)), ib, olatch)
    b.set_block(ib)
    s2 = b.add(s, j)
    j2 = b.add(j, b.i32(1))
    b.br(ih)
    b.set_block(olatch)
    merged = b.phi(I32, "merged")
    i2 = b.add(i, b.i32(1))
    b.br(oh)
    b.set_block(done)
    b.ret(acc)
    i.add_incoming(b.i32(0), entry)
    i.add_incoming(i2, olatch)
    acc.add_incoming(b.i32(0), entry)
    acc.add_incoming(merged, olatch)
    j.add_incoming(b.i32(0), ob)
    j.add_incoming(j2, ib)
    s.add_incoming(t, ob)
    s.add_incoming(s2, ib)
    merged.add_incoming(t, ob)
    merged.add_incoming(s, ih)
    return module


def test_hot_outer_loop_identical():
    module = _hot_outer_loop_module()
    new, _ = run_both(module)
    assert new.profile.count_of("main", "olatch") == 3000
    assert new.profile.count_of("main", "ib") == 18


def _two_deep_exits_module() -> Module:
    """``main(n, brk)``: a loop nest whose inner body returns early when
    ``i * j == 42`` and breaks out of both loops when ``i + j == brk``."""
    module = Module("exits")
    func = module.declare_function("main", I32, [("n", I32), ("brk", I32)])
    n, brk = func.args
    entry, oh, ih, ib, early, check, il, olatch, done = (
        func.add_block(name)
        for name in ("entry", "oh", "ih", "ib", "early", "check", "il", "olatch", "done")
    )
    b = IRBuilder(entry)
    b.br(oh)
    b.set_block(oh)
    i = b.phi(I32, "i")
    acc = b.phi(I32, "acc")
    b.condbr(b.icmp(ICmpPred.SLT, i, n), ih, done)
    b.set_block(ih)
    j = b.phi(I32, "j")
    s = b.phi(I32, "s")
    b.condbr(b.icmp(ICmpPred.SLT, j, b.i32(4)), ib, olatch)
    b.set_block(ib)
    p = b.mul(i, j)
    b.condbr(b.icmp(ICmpPred.EQ, p, b.i32(42)), early, check)
    b.set_block(early)
    b.ret(b.add(p, b.add(s, b.i32(1000))))
    b.set_block(check)
    b.condbr(b.icmp(ICmpPred.EQ, b.add(i, j), brk), done, il)
    b.set_block(il)
    s2 = b.add(s, p)
    j2 = b.add(j, b.i32(1))
    b.br(ih)
    b.set_block(olatch)
    i2 = b.add(i, b.i32(1))
    b.br(oh)
    b.set_block(done)
    result = b.phi(I32, "result")
    b.ret(result)
    i.add_incoming(b.i32(0), entry)
    i.add_incoming(i2, olatch)
    acc.add_incoming(b.i32(0), entry)
    acc.add_incoming(s, olatch)
    j.add_incoming(b.i32(0), oh)
    j.add_incoming(j2, il)
    s.add_incoming(acc, oh)
    s.add_incoming(s2, il)
    result.add_incoming(acc, oh)
    result.add_incoming(s, check)
    return module


@pytest.mark.parametrize("n, brk", [(5, 99), (20, 99), (20, 9), (3, 4)])
def test_early_return_and_break_out_of_a_loop_nest_identical(n, brk):
    module = _two_deep_exits_module()
    run_both(module, args=[n, brk])
    # Leaving both loops takes the `_go` state int.
    assert "_go = 1" in unit_source(module, "main")


def _repeated_predecessor_module() -> Module:
    """A phi naming one predecessor twice, on a conditional branch whose
    targets are the same block and on a loop's back edge: the last entry
    wins."""
    module = Module("twice")
    func = module.declare_function("main", I32, [("x", I32)])
    entry, head, latch, done = (
        func.add_block(name) for name in ("entry", "head", "latch", "done")
    )
    b = IRBuilder(entry)
    a = b.add(func.args[0], b.i32(1))
    c = b.mul(func.args[0], b.i32(2))
    b.condbr(b.icmp(ICmpPred.SGT, func.args[0], b.i32(0)), head, head)
    b.set_block(head)
    i = b.phi(I32, "i")
    b.condbr(b.icmp(ICmpPred.SLT, i, b.i32(50)), latch, done)
    b.set_block(latch)
    one = b.add(i, b.i32(1))
    two = b.add(i, b.i32(2))
    b.br(head)
    b.set_block(done)
    b.ret(i)
    i.add_incoming(a, entry)
    i.add_incoming(c, entry)
    i.add_incoming(one, latch)
    i.add_incoming(two, latch)
    return module


@pytest.mark.parametrize("x", [-3, 0, 7])
def test_phi_naming_a_predecessor_twice_identical(x):
    run_both(_repeated_predecessor_module(), args=[x])


def _two_entry_loop_module() -> Module:
    """An irreducible loop: ``a`` and ``b`` branch to each other and are
    both entered from ``entry``."""
    module = Module("irreducible")
    func = module.declare_function("main", I32, [("x", I32)])
    entry, a, b_, out = (func.add_block(name) for name in ("entry", "a", "b", "out"))
    b = IRBuilder(entry)
    odd = b.icmp(ICmpPred.NE, b.and_(func.args[0], b.i32(1)), b.i32(0))
    b.condbr(odd, a, b_)
    b.set_block(a)
    va = b.phi(I32, "va")
    a2 = b.add(va, b.i32(3))
    b.condbr(b.icmp(ICmpPred.SLT, a2, b.i32(50)), b_, out)
    b.set_block(b_)
    vb = b.phi(I32, "vb")
    b2 = b.add(vb, b.i32(5))
    b.condbr(b.icmp(ICmpPred.SLT, b2, b.i32(60)), a, out)
    b.set_block(out)
    r = b.phi(I32, "r")
    b.ret(r)
    va.add_incoming(b.i32(0), entry)
    va.add_incoming(b2, b_)
    vb.add_incoming(func.args[0], entry)
    vb.add_incoming(a2, a)
    r.add_incoming(a2, a)
    r.add_incoming(b2, b_)
    return module


@pytest.mark.parametrize("x", [0, 1, 12, 33])
def test_irreducible_loop_takes_the_state_int(x):
    module = _two_entry_loop_module()
    assert not _FunctionPlan(module.function("main")).reducible
    run_both(module, args=[x])
    assert "state == 1" in unit_source(module, "main")


def _nested_loops_module(depth: int) -> Module:
    """*depth* nested loops of one iteration each."""
    module = Module(f"nest{depth}")
    func = module.declare_function("main", I32, [])
    entry = func.add_block("entry")
    heads = [func.add_block(f"h{k}") for k in range(depth)]
    latches = [func.add_block(f"l{k}") for k in range(depth)]
    done = func.add_block("done")
    b = IRBuilder(entry)
    b.br(heads[0])
    for k, head in enumerate(heads):
        b.set_block(head)
        i = b.phi(I32, f"i{k}")
        inner = heads[k + 1] if k + 1 < depth else latches[k]
        outer = latches[k - 1] if k else done
        b.condbr(b.icmp(ICmpPred.EQ, i, b.i32(0)), inner, outer)
        i.add_incoming(b.i32(0), heads[k - 1] if k else entry)
        i.add_incoming(b.i32(1), latches[k])
        b.set_block(latches[k])
        b.br(head)
    b.set_block(done)
    b.ret(b.i32(depth))
    return module


def _guard_chain_module(depth: int) -> Module:
    """``main(x)``: *depth* nested tests, each else-arm a return."""
    module = Module(f"guards{depth}")
    func = module.declare_function("main", I32, [("x", I32)])
    tests = [func.add_block(f"t{k}") for k in range(depth)]
    b = IRBuilder(tests[0])
    for k, test in enumerate(tests):
        b.set_block(test)
        out = func.add_block(f"r{k}")
        onward = tests[k + 1] if k + 1 < depth else out
        b.condbr(b.icmp(ICmpPred.SGT, func.args[0], b.i32(k)), onward, out)
        b.set_block(out)
        b.ret(b.i32(k))
    return module


@pytest.mark.parametrize(
    "module, flat",
    [
        (_nested_loops_module(17), False),
        (_nested_loops_module(18), True),
        (_guard_chain_module(90), False),
        (_guard_chain_module(100), True),
    ],
    ids=["loops17", "loops18", "guards90", "guards100"],
)
def test_nesting_past_the_limit_takes_the_state_int(module, flat):
    """Past 17 nested loops (CPython allows 20 static blocks) or 95
    indentation levels the unit falls back to the state int."""
    for args in ([], [50], [1000]):
        if len(args) == len(module.function("main").args):
            run_both(module, args=args)
    assert ("state == 1" in unit_source(module, "main")) == flat


def test_each_block_is_emitted_once():
    modules = [
        (_diamond_chain_module(), [0x2A15]),
        (_hot_outer_loop_module(), []),
        (_two_deep_exits_module(), [20, 9]),
        (_looping_caller_module(), []),
    ]
    for module, args in modules:
        interp = Interpreter(module)
        interp.run("main", args)
        assert_each_block_emitted_once(module, interp)


# -- trap parity from an outer-loop block and from a loop-free block ---------------
def trap_state(cls, module, args, **kwargs) -> tuple:
    """The trap and what it leaves behind: steps, clock and profile."""
    interp = cls(module, **kwargs)
    with pytest.raises(Exception) as info:
        interp.run("main", args)
    return (
        type(info.value),
        str(info.value),
        interp._steps,
        interp.cycles_executed,
        [
            (key, prof.count, prof.static_instructions)
            for key, prof in interp._profile.blocks.items()
        ],
    )


def _trap_site_module(shape: str, kind: str) -> Module:
    """``main(x)`` reaching a *site* block that traps by *kind*.

    With *shape* ``"outer"`` the site is a block of an outer loop, entered
    on its iteration 5; ``late`` is defined on iteration 8 only. With
    ``"free"`` the site is the merge of a loop-free diamond, and ``late``
    is defined on its left arm, taken when ``x`` is non-zero.
    """
    module = Module(f"{shape}-{kind}")
    module.add_global("buf", I32, 4, [0] * 4)
    func = module.declare_function("main", I32, [("x", I32)])
    names = ("entry", "oh", "ob", "ob2", "defn", "site", "ih", "ib", "olatch", "done")
    if shape == "free":
        names = ("entry", "left", "right", "site", "tail")
    blocks = {name: func.add_block(name) for name in names}
    slot = module.globals["buf"]
    b = IRBuilder(blocks["entry"])
    if shape == "outer":
        b.br(blocks["oh"])
        b.set_block(blocks["oh"])
        i = b.phi(I32, "i")
        b.condbr(b.icmp(ICmpPred.SLT, i, b.i32(9)), blocks["ob"], blocks["done"])
        b.set_block(blocks["ob"])
        b.condbr(b.icmp(ICmpPred.EQ, i, b.i32(5)), blocks["site"], blocks["ob2"])
        b.set_block(blocks["ob2"])
        b.condbr(b.icmp(ICmpPred.EQ, i, b.i32(8)), blocks["defn"], blocks["ih"])
        b.set_block(blocks["defn"])
        late = b.mul(i, b.i32(3), "late")
        b.br(blocks["ih"])
    else:
        i = func.args[0]
        b.condbr(b.icmp(ICmpPred.NE, i, b.i32(0)), blocks["left"], blocks["right"])
        b.set_block(blocks["left"])
        late = b.mul(i, b.i32(3), "late")
        b.br(blocks["site"])
        b.set_block(blocks["right"])
        b.br(blocks["site"])
    b.set_block(blocks["site"])
    if kind == "memory":
        value = b.load(I32, b.gep(slot, b.i32(1 << 22), 4))
    elif kind == "undefined":
        value = b.add(late, b.i32(1))
    elif kind == "custom":
        value = Instruction(Opcode.CUSTOM, I32, [i], "c", custom_id=7)
        b.block.append(value)
    else:  # step: a long site, so many limits fall in it
        value = i
        for k in range(20):
            value = b.add(value, b.i32(k))
    b.store(value, slot)
    if shape == "free":
        b.br(blocks["tail"])
        b.set_block(blocks["tail"])
        b.ret(b.load(I32, slot))
        return module
    b.br(blocks["ih"])
    b.set_block(blocks["ih"])
    j = b.phi(I32, "j")
    b.condbr(b.icmp(ICmpPred.SLT, j, b.i32(2)), blocks["ib"], blocks["olatch"])
    b.set_block(blocks["ib"])
    j2 = b.add(j, b.i32(1))
    b.br(blocks["ih"])
    b.set_block(blocks["olatch"])
    i2 = b.add(i, b.i32(1))
    b.br(blocks["oh"])
    b.set_block(blocks["done"])
    b.ret(b.load(I32, slot))
    i.add_incoming(b.i32(0), blocks["entry"])
    i.add_incoming(i2, blocks["olatch"])
    for pred in ("ob2", "defn", "site"):
        j.add_incoming(b.i32(0), blocks[pred])
    j.add_incoming(j2, blocks["ib"])
    return module


@pytest.mark.parametrize("shape", ["outer", "free"])
@pytest.mark.parametrize(
    "kind, match",
    [
        ("memory", "out of range"),
        ("undefined", "use of undefined value %late"),
        ("custom", "no evaluator for custom instruction #7"),
    ],
)
def test_trap_from_a_site_leaves_identical_state(shape, kind, match):
    module = _trap_site_module(shape, kind)
    new = trap_state(Interpreter, module, [0])
    old = trap_state(ClosureInterpreter, module, [0])
    assert new == old
    assert match in new[1]
    assert ("main", "site") in [key for key, _, _ in new[4]]


@pytest.mark.parametrize("shape", ["outer", "free"])
def test_step_limit_at_every_block_leaves_identical_state(shape):
    module = _trap_site_module(shape, "step")
    total = run_both(module, args=[1])[0].steps
    for max_steps in range(1, total):
        new = trap_state(Interpreter, module, [1], max_steps=max_steps)
        old = trap_state(ClosureInterpreter, module, [1], max_steps=max_steps)
        assert new == old
        assert "step limit exceeded" in new[1]


# -- one unit per function, one unit frame per call ----------------------------------
@pytest.mark.parametrize("app", ["fft", "458.sjeng"])
def test_one_cache_entry_per_executed_function(app):
    from repro.apps import compile_app, get_app

    spec = get_app(app)
    compiled = compile_app(spec)
    executed = set()
    for ds in spec.datasets:
        executed |= {fname for fname, _ in compiled.run(ds).profile.blocks}
    labels = [label for _, label in compiled.module.code_cache]
    assert sorted(labels) == sorted(f"<unit {fname}>" for fname in executed)


def test_one_unit_frame_per_ir_call(monkeypatch):
    """Every IR call, and the run itself, is one frame of its unit; each
    executed function is compiled once."""
    import sys

    module = _looping_caller_module()
    compiles = _counting_compile(monkeypatch)
    frames = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "unit":
            frames.append(frame.f_code.co_filename)

    sys.setprofile(profile)
    try:
        result = Interpreter(module).run("main")
    finally:
        sys.setprofile(None)
    assert sorted(compiles) == ["<unit bump>", "<unit main>"]
    calls = 1 + result.profile.count_of("main", "body")
    assert len(frames) == calls
    assert frames.count("<unit main>") == 1


def test_a_dropped_interpreter_is_freed_without_the_cycle_collector():
    """A unit takes its interpreter as an argument and holds no reference
    to it, so an interpreter and its memory image go as soon as the caller
    drops them, not at the next cycle collection."""
    import gc
    import weakref

    module = _looping_caller_module()
    gc.disable()
    try:
        interp = Interpreter(module)
        interp.run("main")
        refs = [weakref.ref(interp), weakref.ref(interp.memory)]
        del interp
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
