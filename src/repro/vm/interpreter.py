"""The IR interpreter.

Executes a module function-by-function with a flat memory, recording a
basic-block execution profile. Arithmetic reuses the constant-folding
evaluators (or inlined equivalents verified against them by property
tests), so interpreter and optimizer semantics cannot drift apart.

Execution time is *not* wall-clock: the profile is converted into PPC-405
cycles (and hence virtual seconds) after the run by
:class:`repro.vm.jitruntime.JitRuntimeModel`. This keeps app runs fast in
Python while making the reported runtimes deterministic.

Implementation: code is compiled once, lazily, into ``exec``-generated
Python functions called *units*, one per entry point of the dispatch
loop (:meth:`Interpreter._call`). Which unit a block gets follows from the
CFG alone (:class:`_FunctionPlan`):

- the header of an innermost natural loop gets a **loop unit**: the whole
  loop runs inside one function, its member blocks selected by a small
  int, with loop-carried phis and values whose defining block dominates
  the use held in Python locals, block counts in local ints and the step
  count in a local;
- every other block gets a **block unit**: its phis resolved for the
  actual predecessor, its body with block-local values in Python locals.

A unit ``unit(env, prev)`` returns ``(exiting_block, next_block)`` or
``(_RETURN, value)``. The dispatch loop counts the block it enters, adds
its static size to the step count, checks the step limit and calls the
unit; a loop unit does the same accounting itself for every block it
enters internally. Both unit kinds share :class:`_BlockCodegen`'s
per-instruction emitter; only phi moves, terminators and accounting
differ. Each unit's ``exec`` namespace binds ``_KEYS``, the profile
keys of the blocks it runs (the members in ``state`` order for a loop
unit), which is how :class:`repro.vm.profiler.BlockTimeSampler` names
the block an interrupted unit frame is in: the units carry no sampling
code, so a sampled and a plain run execute the same code objects.

Each interpreter generates its units' source, but compiles it only if
no interpreter of the same module has compiled that exact source
before: ``Module.code_cache`` maps (source, filename) to the code
object. The code object is ``exec``'d into a fresh namespace per unit,
so everything the unit binds (memory, evaluators, the interpreter
itself) stays this interpreter's own. A block the patcher rewrote or
another memory size changes the source, so the cache needs no
invalidation.

Invariants (pinned against the previous closure interpreter by
``tests/test_vm_blockjit.py``):

- return values, ``output`` and ``steps`` are bit-identical;
- every block count is identical and ``ExecutionProfile.blocks`` keeps
  first-execution *key order* — a loop unit inserts a block's entry at
  its first execution and flushes its local counts on every exit, traps
  included — because ``total_cycles`` sums floats in dict order, so the
  virtual clock is bit-identical too;
- the step-limit trap fires on the same block, after counting it; a loop
  unit publishes its step count to ``_steps`` before every call, so
  ``clock()`` and callees see the same count as before;
- ``cycles_executed`` (what ``clock()`` reads) is the steps of every run
  so far;
- only the SSA results some unit reads from ``env`` are stored there
  (:attr:`_FunctionPlan.published`); every read that is not a local still
  goes through ``env``, so error behaviour is unchanged: an undefined
  value raises ``VMError("use of undefined value %name")`` (the missing
  ``env`` key is mapped to its name through a table bound at compile
  time); a CUSTOM instruction looks its evaluator up at run time, because
  the patcher installs evaluators after construction; a ``fold_binary``
  trap becomes ``VMError("fn: ...")``; memory faults go through
  :class:`Memory`'s own check, so every ``MemoryError_`` message is the
  same.

This is the execution half of the paper's LLVM JIT VM (Figure 1); the
profiles it records feed the coverage analysis of Section IV-C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import ControlFlowInfo
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.module import Module
from repro.ir.opcodes import BINARY_OPS, CAST_OPS, FCmpPred, ICmpPred, Opcode
from repro.ir.values import Argument, Constant, GlobalVariable, UndefValue, Value
from repro.ir.passes.constfold import (
    ConstantFoldError,
    fold_binary,
    fold_cast,
    fold_fcmp,
    fold_icmp,
)
from repro.vm.intrinsics import INTRINSICS
from repro.vm.memory import Memory, MemoryError_, accessor
from repro.vm.profiler import BlockProfile, ExecutionProfile


class VMError(Exception):
    """Runtime fault during interpretation (trap, OOM, step limit)."""


@dataclass
class ExecutionResult:
    """Outcome of one program execution."""

    return_value: object
    profile: ExecutionProfile
    output: list = field(default_factory=list)
    steps: int = 0


# First element of the control tuple a unit returns for a function return.
_RETURN = object()


def _step_limit_error(max_steps: int, fname: str) -> VMError:
    return VMError(f"step limit exceeded ({max_steps}) in {fname}")


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
    ) -> None:
        self.module = module
        self.memory = Memory(memory_size)
        self.memory.place_globals(list(module.globals.values()))
        self.max_steps = max_steps
        self.dataset_size = dataset_size
        self.dataset_seed = dataset_seed
        self.output: list = []
        self.rand_state = 1
        self._steps = 0
        self._steps_before = 0  # steps of the earlier runs, for clock()
        self._profile = ExecutionProfile(module.name)
        # Custom-instruction evaluators installed by the binary patcher:
        # custom_id -> callable(list_of_operand_values) -> value
        self.custom_evaluators: dict[int, object] = {}
        # Compiled-unit cache: entry block -> (profile key, size, unit)
        self._compiled: dict[BasicBlock, tuple] = {}
        self._plans: dict[Function, _FunctionPlan] = {}

    @property
    def cycles_executed(self) -> int:
        """Coarse counter exposed to ``clock()``: steps of every run so far."""
        return self._steps_before + self._steps

    # -- public API ----------------------------------------------------------
    def run(self, function_name: str = "main", args: list | None = None) -> ExecutionResult:
        """Execute *function_name* to completion and return its result."""
        func = self.module.function(function_name)
        self._steps_before += self._steps
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
        prev = None
        fname = func.name
        compiled = self._compiled
        max_steps = self.max_steps
        blocks = self._profile.blocks

        try:
            while True:
                plan = compiled.get(block)
                if plan is None:
                    plan = compiled[block] = self._compile(func, block)
                key, size, unit = plan

                # A block's first execution inserts its key, which fixes the
                # profile's key order.
                prof = blocks.get(key)
                if prof is None:
                    blocks[key] = BlockProfile(fname, block.name, 1, size)
                else:
                    prof.count += 1
                steps = self._steps + size
                self._steps = steps
                if steps > max_steps:
                    raise _step_limit_error(self.max_steps, fname)

                prev, block = unit(env, prev)
                if prev is _RETURN:
                    return block
        except MemoryError_ as exc:
            raise VMError(f"{fname}: {exc}") from None
        finally:
            self.memory.pop_frame(frame_token)

    def _compile(self, func: Function, block: BasicBlock):
        """Compile the unit entered at *block* into ``(key, size, unit)``.

        ``size`` is the block's static instruction count (phis and the
        terminator included): the unit of step and cycle accounting.
        """
        plan = self._plans.get(func)
        if plan is None:
            plan = self._plans[func] = _FunctionPlan(func)
        codegen = _BlockCodegen(self, func.name, plan)
        loop = plan.loops.get(block)
        unit = codegen.compile_block(block) if loop is None else codegen.compile_loop(loop)
        return ((func.name, block.name), len(block.instructions), unit)


# -- which values live where --------------------------------------------------------
def _is_ssa(value: Value) -> bool:
    """Whether *value* is computed at run time (else it is inlined)."""
    return not isinstance(value, (Constant, GlobalVariable, UndefValue))


def _body_env_reads(block: BasicBlock, available: set[int]) -> set[int]:
    """Operands of *block*'s non-phi instructions that are neither in
    *available* nor defined earlier in the block."""
    available = available | {id(phi) for phi in block.phis()}
    reads: set[int] = set()
    for instr in block.instructions[len(block.phis()) :]:
        for value in instr.operands:
            if _is_ssa(value) and id(value) not in available:
                reads.add(id(value))
        if instr.has_result:
            available.add(id(instr))
    return reads


def _incoming(phi, pred: BasicBlock) -> Value | None:
    """The value *phi* takes coming from *pred* (the last entry wins)."""
    value = None
    for candidate, block in phi.incoming:
        if block is pred:
            value = candidate
    return value


class _LoopPlan:
    """One innermost natural loop compiled as a unit.

    ``members`` are in reverse postorder, so the header comes first and
    every block follows the members that dominate it. ``prefetch`` lists
    the values defined outside the loop, by a block dominating the header
    (or as arguments), that the loop reads: they are read from ``env``
    once per entry. ``available[id(block)]`` holds the values that are
    Python locals when *block* starts: the prefetched ones and the results
    of the members strictly dominating it, which ran earlier in the same
    iteration.
    """

    def __init__(self, cfg: ControlFlowInfo, members: list[BasicBlock]) -> None:
        self.members = members
        self.header = header = members[0]
        self.ids = ids = {id(block) for block in members}

        def defined_outside(value: Value) -> bool:
            return isinstance(value, Argument) or (
                isinstance(value, Instruction)
                and id(value.parent) not in ids
                and cfg.dominates(value.parent, header)
            )

        self.prefetch: list[Value] = []
        seen: set[int] = set()
        for block in members:
            for instr in block.instructions:
                if instr.opcode is Opcode.PHI:
                    used = [v for v, inc in instr.incoming if id(inc) in ids]
                else:
                    used = instr.operands
                for value in used:
                    if id(value) not in seen and defined_outside(value):
                        seen.add(id(value))
                        self.prefetch.append(value)

        results = {
            id(block): {id(instr) for instr in block.instructions if instr.has_result}
            for block in members
        }
        # The members strictly dominating a member are its dominator-tree
        # ancestors below the header, and the header itself.
        self.available: dict[int, set[int]] = {}
        for block in members:
            available = set(seen)
            node = block
            while node is not header:
                node = cfg.immediate_dominator(node)
                available |= results[id(node)]
            self.available[id(block)] = available

        # Values this unit reads from env.
        self.env_reads = set(seen)
        for phi in header.phis():
            for value, inc in phi.incoming:
                if id(inc) not in ids and _is_ssa(value):
                    self.env_reads.add(id(value))
        for block in members:
            self.env_reads |= _body_env_reads(block, self.available[id(block)])
            at_end = self.available[id(block)] | results[id(block)]
            for succ in block.successors:
                if id(succ) not in ids:
                    continue
                for phi in succ.phis():
                    value = _incoming(phi, block)
                    if value is not None and _is_ssa(value) and id(value) not in at_end:
                        self.env_reads.add(id(value))


class _FunctionPlan:
    """The unit layout of one function, derived from its CFG alone.

    ``loops`` maps the header of every innermost natural loop (one that
    contains no other loop's header) to its :class:`_LoopPlan`; every other
    reachable block is a block unit. ``published`` holds the ids of the
    values some unit reads from ``env``: a block unit reads every phi
    incoming and every operand not defined earlier in its own block, a
    loop unit what :class:`_LoopPlan` says. Only those are stored.
    """

    def __init__(self, func: Function) -> None:
        cfg = ControlFlowInfo(func)
        headers = {id(loop.header) for loop in cfg.loops}
        self.loops: dict[BasicBlock, _LoopPlan] = {}
        in_loops: set[int] = set()
        for loop in cfg.loops:
            if any(h in loop.blocks for h in headers if h != id(loop.header)):
                continue  # not innermost
            members = [block for block in cfg.rpo if id(block) in loop.blocks]
            self.loops[loop.header] = _LoopPlan(cfg, members)
            in_loops |= loop.blocks

        self.published: set[int] = set()
        for block in cfg.rpo:
            if id(block) not in in_loops:
                for phi in block.phis():
                    self.published.update(id(v) for v in phi.operands if _is_ssa(v))
                self.published |= _body_env_reads(block, set())
        for loop in self.loops.values():
            self.published |= loop.env_reads


# -- unit code generation -------------------------------------------------------
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


def _phi_preds(phis) -> list[BasicBlock]:
    """The predecessors *phis* name, in order of first appearance."""
    preds: list[BasicBlock] = []
    for phi in phis:
        for _, inc in phi.incoming:
            if not any(inc is p for p in preds):
                preds.append(inc)
    return preds


class _BlockCodegen:
    """Generates the source of one unit and compiles it.

    Objects the code needs (evaluators, types, global addresses, memory
    functions, successor blocks) are bound by name in the ``exec``
    namespace; integer constants and ``env`` keys are literals. A value
    in ``_available`` is read from its Python local, any other computed
    value from ``env``.
    """

    def __init__(self, interp: Interpreter, fname: str, plan: _FunctionPlan) -> None:
        self.interp = interp
        self.fname = fname
        self.published = plan.published
        self.lines: list[str] = []
        # id(value) -> name, for values read from env: a missing key
        # becomes "use of undefined value %name".
        self._names: dict[int, str] = {}
        self.namespace: dict[str, object] = {
            "_VME": VMError,
            "_NAMES": self._names,
            "_RETURN": _RETURN,
        }
        self._bound: dict[int, str] = {}
        self._local_names: dict[int, str] = {}
        self._available: set[int] = set()
        # Loop units keep the step count in a local; calls must see it.
        self._in_loop = False

    # -- bindings ----------------------------------------------------------
    def bind(self, obj: object) -> str:
        name = self._bound.get(id(obj))
        if name is None:
            name = f"_b{len(self._bound)}"
            self._bound[id(obj)] = name
            self.namespace[name] = obj
        return name

    def local(self, value: Value) -> str:
        """The Python local holding *value* in this unit."""
        name = self._local_names.get(id(value))
        if name is None:
            name = self._local_names[id(value)] = f"v{len(self._local_names)}"
        return name

    def operand(self, value: Value) -> str:
        """Expression for one operand."""
        if id(value) in self._available:
            return self.local(value)
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

    def define(self, value: Value) -> None:
        """*value* was just assigned to its local: publish it if read from env."""
        self._available.add(id(value))
        if id(value) in self.published:
            self.lines.append(f"env[{id(value)}] = {self.local(value)}")

    def finish(self, kind: str, lines: list[str]) -> object:
        """Wrap *lines* in ``unit(env, prev)`` with the undefined-value trap."""
        body = "\n".join(f"        {line}" for line in lines)
        source = (
            "def unit(env, prev):\n"
            "    try:\n"
            f"{body}\n"
            "    except KeyError as exc:\n"
            "        key = exc.args[0] if exc.args else None\n"
            "        if type(key) is int and key in _NAMES:\n"
            '            raise _VME("use of undefined value %" + _NAMES[key]) '
            "from None\n"
            "        raise\n"
        )
        # The code object is a pure function of the source and its label,
        # so every interpreter of the module shares it; the namespace, and
        # with it every per-interpreter object, is this unit's own.
        key = (source, f"<{kind} {self.fname}>")
        cache = self.interp.module.code_cache
        code = cache.get(key)
        if code is None:
            code = cache[key] = compile(source, key[1], "exec")
        exec(code, self.namespace)
        return self.namespace["unit"]

    def sync(self, load: bool) -> list[str]:
        """A loop unit's step count stored to the interpreter, or with
        *load* read back from it."""
        owner = f"{self.bind(self.interp)}._steps"
        return [f"steps = {owner}" if load else f"{owner} = steps"]

    def emit_body(self, block: BasicBlock, terminator) -> None:
        """Every non-phi instruction; *terminator* emits the last one."""
        instrs = block.instructions
        for instr in instrs[len(block.phis()) :]:
            if instr.is_terminator:
                terminator(instr)
            else:
                self.emit(instr)
        if not instrs or not instrs[-1].is_terminator:
            message = f"{self.fname}/{block.name}: fell off block end"
            self.lines.append(f"raise _VME({message!r})")

    def emit_ret(self, instr: Instruction) -> None:
        if instr.operands:
            self.lines.append(f"return (_RETURN, {self.operand(instr.operands[0])})")
        else:
            self.lines.append(f"return {self.bind((_RETURN, None))}")

    # -- block unit ----------------------------------------------------------
    def compile_block(self, block: BasicBlock):
        self.namespace["_KEYS"] = ((self.fname, block.name),)
        phis = block.phis()
        if phis:
            self.emit_phis(phis, _phi_preds(phis))

        def terminator(instr: Instruction) -> None:
            op = instr.opcode
            if op is Opcode.BR:
                self.lines.append(f"return {self.bind((block, instr.targets[0]))}")
            elif op is Opcode.CONDBR:
                c = self.operand(instr.operands[0])
                taken = self.bind((block, instr.targets[0]))
                other = self.bind((block, instr.targets[1]))
                self.lines.append(f"return {taken} if {c} else {other}")
            else:
                self.emit_ret(instr)

        self.emit_body(block, terminator)
        return self.finish(f"block {block.name} of", self.lines)

    def emit_phis(self, phis, preds: list[BasicBlock]) -> None:
        # Resolve *phis* for the actual predecessor among *preds*. Every
        # incoming value is read before any phi is assigned, because none
        # of them is available as a local yet. A predecessor listed twice
        # in one phi keeps its last value.
        L = self.lines.append
        keyword = "if"
        for pred in preds:
            L(f"{keyword} prev is {self.bind(pred)}:")
            keyword = "elif"
            for phi in phis:
                value = _incoming(phi, pred)
                if value is None:
                    L("    raise KeyError(prev)")
                    break
                L(f"    {self.local(phi)} = {self.operand(value)}")
        L("else:")
        L("    raise KeyError(prev)")
        for phi in phis:
            self.define(phi)

    # -- loop unit ---------------------------------------------------------------
    def compile_loop(self, loop: _LoopPlan):
        """One function running the whole loop until it leaves or returns.

        The dispatch loop has counted the header's first execution; every
        later block entry inside the loop is counted here in a local int
        (inserting the block's profile entry at its first execution) and
        the counts and the step count are flushed by ``finally``.
        """
        self._in_loop = True
        header = loop.header
        members = loop.members
        state = {id(block): index for index, block in enumerate(members)}
        I = self.bind(self.interp)
        L = self.lines.append

        self.namespace["_KEYS"] = tuple((self.fname, b.name) for b in members)
        self.lines.extend(self.sync(load=True))
        phis = header.phis()
        if phis:
            outside = [p for p in _phi_preds(phis) if id(p) not in loop.ids]
            self.emit_phis(phis, outside)
        for value in loop.prefetch:
            L(f"{self.local(value)} = {self.operand(value)}")
        L(f"blocks = {I}._profile.blocks")
        L(f"limit = {I}.max_steps")
        L(" = ".join(f"n{index}" for index in range(len(members))) + " = 0")
        if len(members) > 1:
            L("state = 0")
        prologue = self.lines

        def enter(source: BasicBlock, target: BasicBlock) -> list[str]:
            """Lines taking the edge *source* -> *target*."""
            if id(target) not in loop.ids:
                return [f"return {self.bind((source, target))}"]
            index = state[id(target)]
            size = len(target.instructions)
            key = self.bind((self.fname, target.name))
            lines = [f"n{index} += 1"]
            if target is not header:
                lines += [
                    f"if n{index} == 1 and {key} not in blocks:",
                    f"    blocks[{key}] = {self.bind(BlockProfile)}"
                    f"({self.fname!r}, {target.name!r}, 0, {size})",
                ]
            lines += [
                f"steps += {size}",
                "if steps > limit:",
                f"    raise {self.bind(_step_limit_error)}(limit, {self.fname!r})",
            ]
            # The phi moves, as one parallel assignment.
            targets, values = [], []
            for phi in target.phis():
                value = _incoming(phi, source)
                if value is None:
                    return lines + [f"raise KeyError({self.bind(source)})"]
                targets.append(self.local(phi))
                values.append(self.operand(value))
            if targets:
                lines.append(f"{', '.join(targets)} = {', '.join(values)}")
            lines += [
                f"env[{id(phi)}] = {self.local(phi)}"
                for phi in target.phis()
                if id(phi) in self.published
            ]
            if len(members) > 1:
                lines.append(f"state = {index}")
            return lines

        branches = []
        for block in members:
            self.lines = []
            self._available = loop.available[id(block)] | {id(p) for p in block.phis()}

            def terminator(instr: Instruction, block=block) -> None:
                op = instr.opcode
                if op is Opcode.BR:
                    self.lines.extend(enter(block, instr.targets[0]))
                elif op is Opcode.CONDBR:
                    self.lines.append(f"if {self.operand(instr.operands[0])}:")
                    self.lines.extend(f"    {x}" for x in enter(block, instr.targets[0]))
                    self.lines.append("else:")
                    self.lines.extend(f"    {x}" for x in enter(block, instr.targets[1]))
                else:
                    self.emit_ret(instr)

            self.emit_body(block, terminator)
            branches.append(self.lines)

        lines = prologue + ["try:", "    while True:"]
        if len(branches) == 1:
            lines.extend(f"        {x}" for x in branches[0])
        else:
            for index, branch in enumerate(branches):
                if index == 0:
                    lines.append("        if state == 0:")
                elif index < len(branches) - 1:
                    lines.append(f"        elif state == {index}:")
                else:
                    lines.append("        else:")
                lines.extend(f"            {x}" for x in branch)
        lines += [
            "finally:",
            # A callee that trapped has already counted past `steps`.
            f"    if steps > {I}._steps:",
            f"        {I}._steps = steps",
        ]
        for index, block in enumerate(members):
            key = self.bind((self.fname, block.name))
            lines.append(f"    if n{index}:")
            lines.append(f"        blocks[{key}].count += n{index}")
        return self.finish(f"loop {header.name} of", lines)

    # -- instructions --------------------------------------------------------
    def emit(self, instr: Instruction) -> None:
        """One non-terminator instruction, its result in its local."""
        op = instr.opcode
        res = self.local(instr)
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
        else:
            raise VMError(f"cannot interpret opcode {op}")  # pragma: no cover
        self.define(instr)

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

    def emit_access(self, pointer: Value, nbytes: int, fast: str, slow: str) -> None:
        """*fast* at ``addr`` where Memory's check would pass, else *slow*.

        *slow* goes through ``Memory.load``/``store``, which raise the
        fault. A global's address is checked here, once.
        """
        L = self.lines.append
        L(f"addr = {self.operand(pointer)}")
        limit = self.interp.memory.size - nbytes
        if isinstance(pointer, GlobalVariable):
            address = pointer.address
            L(fast if 8 <= address <= limit and not address & (nbytes - 1) else slow)
            return
        guard = f"8 <= addr <= {limit}"
        if nbytes > 1:
            guard += f" and not addr & {nbytes - 1}"
        L(f"if {guard}:")
        L(f"    {fast}")
        L("else:")
        L(f"    {slow}")

    def emit_load(self, res: str, instr: Instruction) -> None:
        memory = self.interp.memory
        acc = accessor(instr.type)
        unpack = self.bind(acc.load.unpack_from)
        mask = f" & {acc.load_mask}" if acc.load_mask is not None else ""
        self.emit_access(
            instr.operands[0],
            acc.nbytes,
            f"{res} = {unpack}({self.bind(memory.data)}, addr)[0]{mask}",
            f"{res} = {self.bind(memory.load)}(addr, {self.bind(instr.type)})",
        )

    def emit_store(self, instr: Instruction) -> None:
        memory = self.interp.memory
        value, pointer = instr.operands
        acc = accessor(value.type)
        v = self.operand(value)
        stored = v if acc.store_mask is None else f"{v} & {acc.store_mask}"
        pack = self.bind(acc.store.pack_into)
        self.emit_access(
            pointer,
            acc.nbytes,
            f"{pack}({self.bind(memory.data)}, addr, {stored})",
            f"{self.bind(memory.store)}(addr, {self.bind(value.type)}, {v})",
        )

    def emit_call(self, res: str, instr: Instruction) -> bool:
        """Emit a call; returns whether it produces a result."""
        callee = instr.callee
        args = [self.operand(o) for o in instr.operands]
        L = self.lines.append
        if isinstance(callee, str):
            intr = INTRINSICS.get(callee)
            if intr is None:
                raise VMError(f"unknown intrinsic {callee!r}")
            call = f"{self.bind(intr.fn)}({', '.join([self.bind(self.interp), *args])})"
        else:
            call_fn = self.bind(self.interp._call)
            call = f"{call_fn}({self.bind(callee)}, [{', '.join(args)}])"
        if self._in_loop:
            self.lines.extend(self.sync(load=False))
        L(f"{res} = {call}" if instr.has_result else call)
        if self._in_loop and not isinstance(callee, str):
            self.lines.extend(self.sync(load=True))
        return instr.has_result
