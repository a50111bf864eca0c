"""The IR interpreter.

Executes a module function-by-function with a flat memory, recording a
basic-block execution profile. Arithmetic reuses the constant-folding
evaluators (or inlined equivalents verified against them by property
tests), so interpreter and optimizer semantics cannot drift apart.

Execution time is *not* wall-clock: the profile is converted into PPC-405
cycles (and hence virtual seconds) after the run by
:class:`repro.vm.jitruntime.JitRuntimeModel`. This keeps app runs fast in
Python while making the reported runtimes deterministic.

Implementation: each basic block is compiled once, lazily, into one
``exec``-generated Python function ``blk(env, prev) -> (kind, payload)``
(see :class:`_BlockCodegen`). The function resolves the block's phis for
the actual predecessor ``prev`` (all incoming values are read before any
is written), evaluates the body with operands inlined — constants as
literals, global addresses bound at compile time, values computed earlier
in the block as Python locals — and returns a prebuilt control tuple. One
dispatch loop (:meth:`Interpreter._call`) records the block, charges its
static size to the step and cycle counters, checks the step limit and
calls ``blk``. Passing a :class:`repro.vm.profiler.BlockTimeSampler` as
``sampler=`` compiles a real-clock tick into each block's ``record``
closure; without it the closure has no sampling code at all.

Invariants (pinned against the previous closure interpreter by
``tests/test_vm_blockjit.py``):

- return values, ``output`` and ``steps`` are bit-identical;
- every SSA result is still published to ``env``, and every block count
  is identical;
- ``ExecutionProfile.blocks`` keeps first-execution *key order*, because
  ``total_cycles`` sums floats in dict order — hence the virtual clock is
  bit-identical too;
- error behaviour is unchanged: an undefined value raises
  ``VMError("use of undefined value %name")`` (the missing ``env`` key is
  mapped to its name through a table bound at compile time); a CUSTOM
  instruction looks its evaluator up at run time, because the patcher
  installs evaluators after construction; a ``fold_binary`` trap becomes
  ``VMError("fn: ...")``; memory faults go through :class:`Memory`'s own
  check, so every ``MemoryError_`` message is the same;
- intrinsic-call counting for metrics is decided when the block is
  compiled, so the disabled path pays nothing.

This is the execution half of the paper's LLVM JIT VM (Figure 1); the
profiles it records feed the coverage analysis of Section IV-C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.module import Module
from repro.ir.opcodes import BINARY_OPS, CAST_OPS, FCmpPred, ICmpPred, Opcode
from repro.ir.values import Constant, GlobalVariable, UndefValue, Value
from repro.ir.passes.constfold import (
    ConstantFoldError,
    fold_binary,
    fold_cast,
    fold_fcmp,
    fold_icmp,
)
from repro.obs import get_metrics, metrics_enabled
from repro.vm.intrinsics import INTRINSICS
from repro.vm.memory import Memory, MemoryError_, accessor
from repro.vm.profiler import BlockTimeSampler, ExecutionProfile


class VMError(Exception):
    """Runtime fault during interpretation (trap, OOM, step limit)."""


@dataclass
class ExecutionResult:
    """Outcome of one program execution."""

    return_value: object
    profile: ExecutionProfile
    output: list = field(default_factory=list)
    steps: int = 0


# Control-flow sentinels returned by compiled blocks.
_JUMP = 0
_RETURN = 1


class Interpreter:
    """Interprets IR modules.

    One interpreter instance holds one memory image (globals are placed at
    construction), so successive ``run`` calls share global state — matching
    how a VM process would behave. Tests typically build a fresh interpreter
    per run.
    """

    def __init__(
        self,
        module: Module,
        memory_size: int = 1 << 22,
        max_steps: int = 200_000_000,
        dataset_size: int = 0,
        dataset_seed: int = 1,
        sampler: BlockTimeSampler | None = None,
    ) -> None:
        self.module = module
        self.memory = Memory(memory_size)
        self.memory.place_globals(list(module.globals.values()))
        self.max_steps = max_steps
        self.dataset_size = dataset_size
        self.dataset_seed = dataset_seed
        self.output: list = []
        self.rand_state = 1
        self.cycles_executed = 0  # coarse counter exposed to clock()
        # Real-clock sampler: None by default, in which case the compiled
        # record closures carry no sampling code.
        self.sampler = sampler
        self._steps = 0
        self._profile = ExecutionProfile(module.name)
        # Custom-instruction evaluators installed by the binary patcher:
        # custom_id -> callable(list_of_operand_values) -> value
        self.custom_evaluators: dict[int, object] = {}
        # Compiled-block cache: block -> (record, size, blk)
        self._compiled: dict[BasicBlock, tuple] = {}
        # Observability: intrinsic-call counts, flushed to the metrics
        # registry once per run (never touched on the hot path unless
        # metrics were enabled when the block was compiled).
        self._intrinsic_counts: dict[str, int] = {}

    # -- public API ----------------------------------------------------------
    def run(self, function_name: str = "main", args: list | None = None) -> ExecutionResult:
        """Execute *function_name* to completion and return its result."""
        func = self.module.function(function_name)
        self._steps = 0
        self._profile = ExecutionProfile(self.module.name)
        if self.sampler is not None:
            self.sampler.begin()
        value = self._call(func, list(args or []))
        registry = get_metrics()
        if registry.enabled:
            # Counters are flushed once per run (sampled, not per step) so
            # metrics collection never slows the interpretation loop.
            registry.counter("vm.runs").inc()
            registry.counter("vm.instructions").inc(self._steps)
            registry.counter("vm.block_executions").inc(
                self._profile.total_block_executions
            )
            for name, count in self._intrinsic_counts.items():
                registry.counter(f"vm.intrinsic.{name}").inc(count)
            self._intrinsic_counts.clear()
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
        prev = None
        fname = func.name
        compiled = self._compiled
        max_steps = self.max_steps

        try:
            while True:
                plan = compiled.get(block)
                if plan is None:
                    plan = compiled[block] = self._compile_block(fname, block)
                record, size, blk = plan

                record()
                self._steps += size
                self.cycles_executed += size
                if self._steps > max_steps:
                    raise VMError(
                        f"step limit exceeded ({self.max_steps}) in {fname}"
                    )

                kind, payload = blk(env, prev)
                if kind == _RETURN:
                    return payload
                prev = block
                block = payload
        except MemoryError_ as exc:
            raise VMError(f"{fname}: {exc}") from None
        finally:
            self.memory.pop_frame(frame_token)

    # -- block compilation -----------------------------------------------------
    def _compile_block(self, fname: str, block: BasicBlock):
        """Compile *block* into ``(record, size, blk)``.

        ``size`` is the block's static instruction count (phis and the
        terminator included): the unit of step and cycle accounting.
        """
        blk = _BlockCodegen(self, fname).compile(block)
        size = len(block.instructions)
        block_name = block.name
        key = (fname, block_name)
        sampler = self.sampler

        # self._profile is replaced per run(), so record() resolves it at
        # each call. A block's first execution inserts its key, which fixes
        # the profile's key order.
        if sampler is None:

            def record() -> None:
                profile = self._profile
                prof = profile.blocks.get(key)
                if prof is None:
                    profile.record(fname, block_name, size)
                else:
                    prof.count += 1

            return (record, size, blk)

        interval = sampler.interval
        samples = sampler.samples

        def record() -> None:
            profile = self._profile
            prof = profile.blocks.get(key)
            if prof is None:
                profile.record(fname, block_name, size)
            else:
                prof.count += 1
            # Sampling tick: every `interval` block executions, charge the
            # elapsed wall time to the block entered right now.
            sampler.tick += 1
            if sampler.tick >= interval:
                now = perf_counter()
                samples[key] = samples.get(key, 0.0) + now - sampler.last
                sampler.last = now
                sampler.tick = 0
                sampler.sample_count += 1

        return (record, size, blk)


# -- block code generation -------------------------------------------------------
_INT_FAST = {Opcode.ADD: "+", Opcode.SUB: "-", Opcode.MUL: "*"}
_INT_BITWISE = {Opcode.AND: "&", Opcode.OR: "|", Opcode.XOR: "^"}
_FLOAT_FAST = {Opcode.FADD: "+", Opcode.FSUB: "-", Opcode.FMUL: "*"}
_INT_SHIFTS = frozenset({Opcode.SHL, Opcode.LSHR, Opcode.ASHR})
_INT_DIVISIONS = frozenset({Opcode.SDIV, Opcode.SREM})
_FCMP_FAST = {
    FCmpPred.OEQ: "==",
    FCmpPred.OLT: "<",
    FCmpPred.OLE: "<=",
    FCmpPred.OGT: ">",
    FCmpPred.OGE: ">=",
}
_ICMP_FAST = {
    ICmpPred.SLT: "<",
    ICmpPred.SGT: ">",
    ICmpPred.SLE: "<=",
    ICmpPred.SGE: ">=",
    ICmpPred.EQ: "==",
    ICmpPred.NE: "!=",
}


def _wrap_lines(res: str, bits: int) -> list[str]:
    """Source wrapping *res* to the signed range of an int of *bits*."""
    mask = (1 << bits) - 1
    if bits == 1:
        return [f"{res} &= 1"]
    half = 1 << (bits - 1)
    return [f"{res} &= {mask}", f"if {res} >= {half}: {res} -= {1 << bits}"]


class _BlockCodegen:
    """Generates the source of one block function and compiles it.

    Objects the code needs (evaluators, types, global addresses, memory
    functions, successor blocks) are bound by name in the ``exec``
    namespace; integer constants and ``env`` keys are literals.
    """

    def __init__(self, interp: Interpreter, fname: str) -> None:
        self.interp = interp
        self.fname = fname
        self.lines: list[str] = []
        # id(value) -> name, for values read from env: a missing key
        # becomes "use of undefined value %name".
        self._names: dict[int, str] = {}
        self.namespace: dict[str, object] = {"_VME": VMError, "_NAMES": self._names}
        self._bound: dict[int, str] = {}
        self._locals: dict[int, str] = {}

    # -- bindings ----------------------------------------------------------
    def bind(self, obj: object) -> str:
        name = self._bound.get(id(obj))
        if name is None:
            name = f"_b{len(self._bound)}"
            self._bound[id(obj)] = name
            self.namespace[name] = obj
        return name

    def operand(self, value: Value) -> str:
        """Expression for one operand."""
        local = self._locals.get(id(value))
        if local is not None:
            return local
        if isinstance(value, Constant):
            v = value.value
            return repr(v) if type(v) is int else self.bind(v)
        if isinstance(value, GlobalVariable):
            if value.address is None:
                raise VMError(f"global @{value.name} has no address")
            return repr(value.address)
        if isinstance(value, UndefValue):
            return "0.0" if value.type.is_float else "0"
        self._names[id(value)] = getattr(value, "name", "?")
        return f"env[{id(value)}]"

    # -- whole block -------------------------------------------------------
    def compile(self, block: BasicBlock):
        instrs = block.instructions
        phis = block.phis()
        if phis:
            self.emit_phis(phis)
        for index in range(len(phis), len(instrs)):
            self.emit(index, instrs[index])
        if not instrs or not instrs[-1].is_terminator:
            message = f"{self.fname}/{block.name}: fell off block end"
            self.lines.append(f"raise _VME({message!r})")
        body = "\n".join(f"        {line}" for line in self.lines)
        source = (
            "def blk(env, prev):\n"
            "    try:\n"
            f"{body}\n"
            "    except KeyError as exc:\n"
            "        key = exc.args[0] if exc.args else None\n"
            "        if type(key) is int and key in _NAMES:\n"
            '            raise _VME("use of undefined value %" + _NAMES[key]) '
            "from None\n"
            "        raise\n"
        )
        code = compile(source, f"<block {self.fname}/{block.name}>", "exec")
        exec(code, self.namespace)
        return self.namespace["blk"]

    def emit_phis(self, phis) -> None:
        # Parallel-move semantics: every incoming value for the actual
        # predecessor is read into a temporary before any phi is written.
        # A predecessor listed twice in one phi keeps its last value.
        preds: list[BasicBlock] = []
        tables = []
        for phi in phis:
            table = {}
            for value, inc in phi.incoming:
                if not any(inc is p for p in preds):
                    preds.append(inc)
                table[id(inc)] = value
            tables.append(table)
        L = self.lines.append
        keyword = "if"
        for pred in preds:
            L(f"{keyword} prev is {self.bind(pred)}:")
            keyword = "elif"
            for index, table in enumerate(tables):
                value = table.get(id(pred))
                if value is None:
                    L("    raise KeyError(prev)")
                    break
                L(f"    p{index} = {self.operand(value)}")
        L("else:")
        L("    raise KeyError(prev)")
        for index, phi in enumerate(phis):
            L(f"env[{id(phi)}] = p{index}")
            self._locals[id(phi)] = f"p{index}"

    def emit(self, index: int, instr: Instruction) -> None:
        op = instr.opcode
        res = f"v{index}"
        operands = instr.operands
        L = self.lines.append

        if op in _INT_FAST and instr.type.is_int:
            # The closure interpreter's wrap, kept exactly: unlike wrap_int
            # it maps an i1 result of 1 to -1.
            a, b = (self.operand(o) for o in operands)
            bits = instr.type.bits
            mask = (1 << bits) - 1
            half = 1 << (bits - 1) if bits > 1 else 1
            L(f"{res} = ({a} {_INT_FAST[op]} {b}) & {mask}")
            L(f"if {res} >= {half}: {res} -= {1 << bits}")
        elif op in _INT_BITWISE and instr.type.is_int:
            a, b = (self.operand(o) for o in operands)
            L(f"{res} = {a} {_INT_BITWISE[op]} {b}")
        elif op in _INT_SHIFTS and instr.type.is_int:
            self.emit_shift(res, instr)
        elif op in _INT_DIVISIONS and instr.type.is_int:
            self.emit_division(res, instr)
        elif op in _FLOAT_FAST:
            a, b = (self.operand(o) for o in operands)
            L(f"{res} = {a} {_FLOAT_FAST[op]} {b}")
        elif op is Opcode.FDIV:
            a, b = (self.operand(o) for o in operands)
            inf = self.bind(math.inf)
            L(f"den = {b}")
            L(f"num = {a}")
            L("if den == 0.0:")
            L(
                f"    {res} = {inf} if num > 0 else"
                f" (-{inf} if num < 0 else {self.bind(math.nan)})"
            )
            L("else:")
            L(f"    {res} = num / den")
        elif op in BINARY_OPS:
            a, b = (self.operand(o) for o in operands)
            self.lines.extend(self.folded_binary(res, instr, a, b))
        elif op is Opcode.ICMP:
            a, b = (self.operand(o) for o in operands)
            sym = _ICMP_FAST.get(instr.pred)
            if sym is not None:
                L(f"{res} = 1 if {a} {sym} {b} else 0")
            else:
                L(
                    f"{res} = {self.bind(fold_icmp)}({self.bind(instr.pred)}, "
                    f"{self.bind(operands[0].type)}, {a}, {b})"
                )
        elif op is Opcode.FCMP:
            a, b = (self.operand(o) for o in operands)
            sym = _FCMP_FAST.get(instr.pred)
            if sym is not None:
                # Python comparisons with NaN are false, as fold_fcmp's are.
                L(f"{res} = 1 if {a} {sym} {b} else 0")
            else:
                L(
                    f"{res} = {self.bind(fold_fcmp)}({self.bind(instr.pred)}, "
                    f"{a}, {b})"
                )
        elif op in CAST_OPS:
            self.emit_cast(res, instr)
        elif op is Opcode.SELECT:
            c, t, f = (self.operand(o) for o in operands)
            L(f"{res} = {t} if {c} else {f}")
        elif op is Opcode.FNEG:
            L(f"{res} = -{self.operand(operands[0])}")
        elif op is Opcode.LOAD:
            self.emit_load(res, instr)
        elif op is Opcode.STORE:
            self.emit_store(instr)
            return
        elif op is Opcode.GEP:
            p, i = (self.operand(o) for o in operands)
            L(f"{res} = {p} + {i} * {instr.elem_size}")
        elif op is Opcode.ALLOCA:
            alloca = self.bind(self.interp.memory.alloca)
            L(f"{res} = {alloca}({instr.elem_size * instr.alloc_count})")
        elif op is Opcode.CALL:
            if not self.emit_call(res, instr):
                return
        elif op is Opcode.CUSTOM:
            evaluators = self.bind(self.interp.custom_evaluators)
            cid = instr.custom_id
            args = ", ".join(self.operand(o) for o in operands)
            L(f"ev = {evaluators}.get({cid})")
            L("if ev is None:")
            L(f'    raise _VME("no evaluator for custom instruction #{cid}")')
            L(f"{res} = ev([{args}])")
        elif op is Opcode.BR:
            L(f"return {self.bind((_JUMP, instr.targets[0]))}")
            return
        elif op is Opcode.CONDBR:
            c = self.operand(operands[0])
            taken = self.bind((_JUMP, instr.targets[0]))
            other = self.bind((_JUMP, instr.targets[1]))
            L(f"return {taken} if {c} else {other}")
            return
        elif op is Opcode.RET:
            if operands:
                L(f"return ({_RETURN}, {self.operand(operands[0])})")
            else:
                L(f"return {self.bind((_RETURN, None))}")
            return
        else:
            raise VMError(f"cannot interpret opcode {op}")  # pragma: no cover

        # Every result is published to env: later blocks and phis read SSA
        # values there.
        L(f"env[{id(instr)}] = {res}")
        self._locals[id(instr)] = res

    def folded_binary(self, res: str, instr: Instruction, a: str, b: str):
        """Source calling fold_binary, its trap raised as a VMError."""
        return [
            "try:",
            f"    {res} = {self.bind(fold_binary)}({self.bind(instr.opcode)}, "
            f"{self.bind(instr.type)}, {a}, {b})",
            f"except {self.bind(ConstantFoldError)} as exc:",
            f"    raise _VME({self.fname!r} + ': ' + str(exc)) from None",
        ]

    def emit_shift(self, res: str, instr: Instruction) -> None:
        # fold_binary's shifts: the amount is taken modulo the width, then
        # the result is wrapped.
        op = instr.opcode
        bits = instr.type.bits
        value, shift = instr.operands
        a = self.operand(value)
        if isinstance(shift, Constant) and type(shift.value) is int:
            amount = str(shift.value % bits)
        else:
            amount = f"({self.operand(shift)} % {bits})"
        if op is Opcode.SHL:
            self.lines.append(f"{res} = {a} << {amount}")
        elif op is Opcode.LSHR:
            self.lines.append(f"{res} = ({a} & {(1 << bits) - 1}) >> {amount}")
        else:  # ASHR
            self.lines.append(f"{res} = {a} >> {amount}")
        self.lines.extend(_wrap_lines(res, bits))

    def emit_division(self, res: str, instr: Instruction) -> None:
        # fold_binary's signed division and remainder; a zero divisor goes
        # through fold_binary itself so the trap message stays its own.
        L = self.lines.append
        a, b = (self.operand(o) for o in instr.operands)
        L(f"num = {a}")
        L(f"den = {b}")
        L("if den:")
        if instr.opcode is Opcode.SDIV:
            L(f"    {res} = int(num / den)")
        else:  # SREM
            L(f"    {res} = int({self.bind(math.fmod)}(num, den))")
        self.lines.extend(f"    {line}" for line in _wrap_lines(res, instr.type.bits))
        L("else:")
        self.lines.extend(
            f"    {line}" for line in self.folded_binary(res, instr, "num", "den")
        )

    def emit_cast(self, res: str, instr: Instruction) -> None:
        op = instr.opcode
        src_ty = instr.operands[0].type
        dst_ty = instr.type
        a = self.operand(instr.operands[0])
        L = self.lines.append
        if op is Opcode.ZEXT and dst_ty.bits > src_ty.bits:
            # The masked source fits below the wider type's sign bit.
            L(f"{res} = {a} & {(1 << src_ty.bits) - 1}")
        elif op in (Opcode.SEXT, Opcode.TRUNC):
            L(f"{res} = {a}")
            self.lines.extend(_wrap_lines(res, dst_ty.bits))
        elif op in (Opcode.SITOFP, Opcode.FPEXT):
            L(f"{res} = float({a})")
        else:
            L(
                f"{res} = {self.bind(fold_cast)}({self.bind(op)}, "
                f"{self.bind(src_ty)}, {self.bind(dst_ty)}, {a})"
            )

    def _access_guard(self, nbytes: int) -> str:
        """Condition under which Memory's check would pass."""
        limit = self.interp.memory.size - nbytes
        guard = f"8 <= addr <= {limit}"
        if nbytes > 1:
            guard += f" and not addr & {nbytes - 1}"
        return guard

    def emit_load(self, res: str, instr: Instruction) -> None:
        memory = self.interp.memory
        acc = accessor(instr.type)
        L = self.lines.append
        L(f"addr = {self.operand(instr.operands[0])}")
        L(f"if {self._access_guard(acc.nbytes)}:")
        unpack = self.bind(acc.load.unpack_from)
        mask = f" & {acc.load_mask}" if acc.load_mask is not None else ""
        L(f"    {res} = {unpack}({self.bind(memory.data)}, addr)[0]{mask}")
        L("else:")
        # Out of range or misaligned: Memory.load raises the fault.
        L(f"    {res} = {self.bind(memory.load)}(addr, {self.bind(instr.type)})")

    def emit_store(self, instr: Instruction) -> None:
        memory = self.interp.memory
        value, pointer = instr.operands
        acc = accessor(value.type)
        L = self.lines.append
        L(f"addr = {self.operand(pointer)}")
        v = self.operand(value)
        L(f"if {self._access_guard(acc.nbytes)}:")
        stored = v if acc.store_mask is None else f"{v} & {acc.store_mask}"
        pack = self.bind(acc.store.pack_into)
        L(f"    {pack}({self.bind(memory.data)}, addr, {stored})")
        L("else:")
        L(f"    {self.bind(memory.store)}(addr, {self.bind(value.type)}, {v})")

    def emit_call(self, res: str, instr: Instruction) -> bool:
        """Emit a call; returns whether it produces a result."""
        callee = instr.callee
        args = [self.operand(o) for o in instr.operands]
        L = self.lines.append
        if isinstance(callee, str):
            intr = INTRINSICS.get(callee)
            if intr is None:
                raise VMError(f"unknown intrinsic {callee!r}")
            if metrics_enabled():
                counts = self.bind(self.interp._intrinsic_counts)
                L(f"{counts}[{callee!r}] = {counts}.get({callee!r}, 0) + 1")
            call = f"{self.bind(intr.fn)}({', '.join([self.bind(self.interp), *args])})"
        else:
            call_fn = self.bind(self.interp._call)
            call = f"{call_fn}({self.bind(callee)}, [{', '.join(args)}])"
        if instr.has_result:
            L(f"{res} = {call}")
            return True
        L(call)
        return False
