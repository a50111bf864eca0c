"""The IR interpreter.

Executes a module function-by-function with a flat memory, recording a
basic-block execution profile. Arithmetic reuses the constant-folding
evaluators (or inlined equivalents verified against them by property
tests), so interpreter and optimizer semantics cannot drift apart.

Execution time is *not* wall-clock: the profile is converted into PPC-405
cycles (and hence virtual seconds) after the run by
:class:`repro.vm.jitruntime.JitRuntimeModel`. This keeps app runs fast in
Python while making the reported runtimes deterministic.

Implementation: every IR function is compiled, on its first call, into
one ``exec``-generated Python function, its **function unit**.
:meth:`Interpreter._call` checks the arguments, pushes a stack frame and
calls the unit; there is no dispatch loop. In the unit every SSA value is
a Python local and every edge between the function's blocks a local
jump. The layout follows from the CFG alone (:class:`_FunctionPlan`):
each block is emitted exactly once, by a walk of the dominator tree in
the manner of Relooper (Zakai, 2011; Ramsey, "Beyond Relooper", 2022):

- a block with one forward in-edge is emitted inline at that edge;
- a merge block (two or more forward in-edges) is emitted after its
  immediate dominator's code, so both arms of an ``if``/``else`` fall
  through to it; where a jump to it would skip other code, that code is
  wrapped in a one-pass ``while True:`` left by ``break``;
- a natural loop becomes ``while True:``, a back edge ``continue``, and
  the loop's *follow*, the last block in reverse postorder that its
  members dominate outside it, is emitted after the loop and reached by
  ``break``;
- a jump that leaves more than one Python loop sets the ``_go`` state
  int and breaks out; after each loop it leaves, ``if _go == k:``
  continues it.

An irreducible CFG, or one whose structured code would pass CPython's 20
statically nested blocks or 100 indentation levels, is emitted as one
``while True:`` over a ``state`` int that selects the block instead.

Each edge carries the block accounting: the entered block's local count
(its profile entry inserted at its first execution, so key order stays
first-execution order), ``steps += size`` and the step-limit check, then
the target's phi moves as one parallel assignment. Counts and the step
count are flushed in ``finally``, traps included. Each unit's ``exec``
namespace binds ``_LINES``, the profile key of every source line, which
is how :class:`repro.vm.profiler.BlockTimeSampler` names the block an
interrupted unit frame is in: the units carry no sampling code, so a
sampled and a plain run execute the same code objects.

Each interpreter generates its units' source, but compiles it only if
no interpreter of the same module has compiled that exact source
before: ``Module.code_cache`` maps (source, filename) to the code
object. The code object is ``exec``'d into a fresh namespace per unit,
so everything the unit binds (memory, evaluators) stays this
interpreter's own. The interpreter itself is the unit's first argument,
``_I``, not a binding, so units and interpreter form no reference cycle:
an interpreter, and its memory image, is freed as soon as its caller
drops it. A block the patcher rewrote or another memory size changes
the source, so the cache needs no invalidation.

Invariants (pinned against the previous closure interpreter by
``tests/test_vm_blockjit.py``):

- return values, ``output`` and ``steps`` are bit-identical;
- every block count is identical and ``ExecutionProfile.blocks`` keeps
  first-execution *key order*, because ``total_cycles`` sums floats in
  dict order, so the virtual clock is bit-identical too;
- the step-limit trap fires on the same block, after counting it; a unit
  stores its step count to ``_steps`` before every call, so ``clock()``
  and callees see the same count as before;
- ``cycles_executed`` (what ``clock()`` reads) is the steps of every run
  so far;
- error behaviour is unchanged: reading a value whose definition did not
  run raises ``UnboundLocalError``, which the unit maps, through the
  ``_NAMES`` table bound at code generation, to ``VMError("use of
  undefined value %name")``; a CUSTOM instruction looks its evaluator up
  at run time, because the patcher installs evaluators after
  construction; a ``fold_binary`` trap becomes ``VMError("fn: ...")``;
  memory faults go through :class:`Memory`'s own check, so every
  ``MemoryError_`` message is the same; a block that cannot be compiled
  raises its ``VMError`` when it is first entered, uncounted.

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
from repro.ir.values import Constant, GlobalVariable, UndefValue, Value
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
        # Function units, compiled on first call.
        self._units: dict[Function, object] = {}

    @property
    def cycles_executed(self) -> int:
        """Coarse counter exposed to ``clock()``: steps of every run so far."""
        return self._steps_before + self._steps

    # -- public API ----------------------------------------------------------
    def run(self, function_name: str = "main", args: list | None = None) -> ExecutionResult:
        """Execute *function_name* to completion and return its result."""
        func = self.module.function(function_name)
        if not func.is_declaration and func not in self._units:
            # Outside _generate's frame: no unit runs yet, so the sampler
            # charges the entry function's generation to no block.
            self._units[func] = _FunctionCodegen(self, func).compile()
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
        unit = self._units.get(func)
        if unit is None:
            unit = self._units[func] = _generate(self, func)
        frame_token = self.memory.push_frame()
        try:
            return unit(self, *args)
        except MemoryError_ as exc:
            raise VMError(f"{func.name}: {exc}") from None
        finally:
            self.memory.pop_frame(frame_token)


# Runs the code generator in a frame whose globals bind ``_LINES``.
_GENERATE = compile(
    "def generate(interp, func):\n    return _FunctionCodegen(interp, func).compile()\n",
    "<generate>",
    "exec",
)


def _generate(interp: Interpreter, func: Function):
    """*func*'s unit, generated under a frame that charges its every line
    to *func*'s entry block: the sampler counts a callee's generation as
    the callee's time, not the calling block's."""
    namespace = {
        "_LINES": ((func.name, func.entry.name),) * 3,
        "_FunctionCodegen": _FunctionCodegen,
    }
    exec(_GENERATE, namespace)
    return namespace.pop("generate")(interp, func)


def _incoming(phi, pred: BasicBlock | None) -> Value | None:
    """The value *phi* takes coming from *pred* (the last entry wins)."""
    value = None
    for candidate, block in phi.incoming:
        if block is pred:
            value = candidate
    return value


class _FunctionPlan:
    """The control-flow facts a function unit is laid out from.

    ``rpo`` lists the reachable blocks in reverse postorder and ``index``
    numbers them by it; ``children`` holds every block's dominator-tree
    children in that order. ``merges`` are the ids of the blocks with two
    or more forward in-edges. ``loops`` maps each natural loop's header to
    the ids of its members. ``follows`` maps a header's id to the block
    emitted after its loop: of the blocks that loop members immediately
    dominate outside the loop and no enclosing loop claimed, the last in
    reverse postorder, which no other of them can jump to; ``claimed``
    holds the follows' ids. ``reducible`` is whether every retreating
    edge is a back edge.
    """

    def __init__(self, func: Function) -> None:
        cfg = ControlFlowInfo(func)
        self.rpo = cfg.rpo
        self.index = index = {id(block): i for i, block in enumerate(self.rpo)}
        self.children: dict[int, list[BasicBlock]] = {key: [] for key in index}
        for block in self.rpo[1:]:
            self.children[id(cfg.immediate_dominator(block))].append(block)
        forward = dict.fromkeys(index, 0)
        self.reducible = True
        for block in self.rpo:
            for succ in dict.fromkeys(block.successors):
                if index[id(succ)] > index[id(block)]:
                    forward[id(succ)] += 1
                elif not cfg.dominates(succ, block):
                    self.reducible = False
        self.merges = {key for key, count in forward.items() if count > 1}
        self.loops = {loop.header: loop.blocks for loop in cfg.loops}
        self.follows: dict[int, BasicBlock] = {}
        claimed: set[int] = set()
        for header in sorted(self.loops, key=lambda h: index[id(h)]):
            members = self.loops[header]
            outside = [
                child
                for block in self.rpo
                if id(block) in members
                for child in self.children[id(block)]
                if id(child) not in members and id(child) not in claimed
            ]
            if outside:
                follow = max(outside, key=lambda b: index[id(b)])
                claimed.add(id(follow))
                self.follows[id(header)] = follow
        self.claimed = claimed


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
# CPython allows 20 statically nested blocks and 100 indentation levels.
# A unit spends three blocks on try statements (its own two and one a
# folded instruction opens) and up to four levels around its items.
_MAX_LOOPS = 17
_MAX_INDENT = 95


def _wrap_lines(res: str, bits: int) -> list[str]:
    """Source wrapping *res* to the signed range of an int of *bits*."""
    mask = (1 << bits) - 1
    if bits == 1:
        return [f"{res} &= 1"]
    half = 1 << (bits - 1)
    return [f"{res} &= {mask}", f"if {res} >= {half}: {res} -= {1 << bits}"]


class _FunctionCodegen:
    """Generates the source of one function unit and compiles it.

    Objects the code needs (evaluators, types, memory functions) are
    bound by name in the ``exec`` namespace; integer constants, global
    addresses and profile keys are literals; the interpreter is the
    unit's first argument, ``_I``.

    Generation has two steps. :meth:`node`, :meth:`within` and
    :meth:`branch` turn the CFG into *items*: ``("line", key, text)``,
    ``("if", key, cond, then, else)``,
    ``("loop", key, target, body, after)``, ``("block", key, target,
    body)`` (a Relooper block: a jump to *target* goes to its end),
    ``("jump", key, target, follow)`` and ``("switch", cases)``. A target is
    ``("loop", id(header))`` or ``("block", id(block))``; *follow* is the
    target that control reaches by falling off the end of the code around
    the jump. :meth:`render` then writes the Python statements, choosing
    for every jump between falling through, ``continue``, ``break`` and
    the ``_go`` state int.
    """

    def __init__(self, interp: Interpreter, func: Function) -> None:
        self.interp = interp
        self.func = func
        self.fname = func.name
        self.plan = _FunctionPlan(func)
        self.lines: list[str] = []
        # Python local -> IR value name, for the undefined-value trap.
        self._names: dict[str, str] = {}
        self.namespace: dict[str, object] = {
            "_VME": VMError,
            "_NAMES": self._names,
            "_CALL": Interpreter._call,
            "_BP": BlockProfile,
            "_SLE": _step_limit_error,
        }
        self._bound: dict[int, str] = {}
        self._local_names: dict[int, str] = {}
        self.counters = {id(b): f"n{i}" for i, b in enumerate(self.plan.rpo)}
        # id(block) -> its body's source lines, or the message of the
        # fault that compiling it raised.
        self.bodies: dict[int, list | str] = {}
        self.flat_mode = not self.plan.reducible
        self.emulated: set[tuple] = set()
        # The blocks and the loops' exits open around the item being built.
        self.open: list[tuple] = []

    # -- bindings ----------------------------------------------------------
    def bind(self, obj: object) -> str:
        name = self._bound.get(id(obj))
        if name is None:
            name = f"_b{len(self._bound)}"
            self._bound[id(obj)] = name
            self.namespace[name] = obj
        return name

    def local(self, value: Value) -> str:
        """The Python local holding *value*."""
        name = self._local_names.get(id(value))
        if name is None:
            name = self._local_names[id(value)] = f"v{len(self._local_names)}"
            self._names[name] = getattr(value, "name", "?")
        return name

    def operand(self, value: Value) -> str:
        """Expression for one operand."""
        if isinstance(value, Constant):
            v = value.value
            return repr(v) if type(v) is int else self.bind(v)
        if isinstance(value, GlobalVariable):
            if value.address is None:
                raise VMError(f"global @{value.name} has no address")
            return repr(value.address)
        if isinstance(value, UndefValue):
            return "0.0" if value.type.is_float else "0"
        return self.local(value)

    # -- the unit ------------------------------------------------------------
    def compile(self):
        """Generate, compile (or fetch from the code cache) and bind the unit."""
        params = ", ".join(["_I"] + [self.local(arg) for arg in self.func.args])
        for block in self.plan.rpo:
            self.bodies[id(block)] = self.emit_body(block)
        entry = self.func.entry
        entry_key = (self.fname, entry.name)
        rendered = None
        if not self.flat_mode:
            # The walk recurses once per nesting level, as the code does:
            # too deep for the stack is too deep for CPython's compiler.
            try:
                rendered = self.render(self.edge(None, entry) + self.node(entry, None))
            except RecursionError:
                pass
        if rendered is None:
            self.flat_mode = True
            cases = [((self.fname, x.name), self.within(x, [], None)) for x in self.plan.rpo]
            loop = ("loop", entry_key, None, [("switch", cases)], None)
            rendered = self.render(self.edge(None, entry) + [loop])
        body, keys = rendered
        counters = list(self.counters.values())
        head = [
            f"def unit({params}):",
            "    steps = _I._steps",
            "    blocks = _I._profile.blocks",
            "    limit = _I.max_steps",
            f"    {' = '.join(counters)} = _go = state = 0",
            "    try:",
        ]
        tail = [
            "    except UnboundLocalError as exc:",
            "        if exc.__traceback__.tb_next is None:",
            '            raise _VME("use of undefined value %" + '
            "_NAMES[str(exc).split(\"'\")[1]]) from None",
            "        raise",
            "    finally:",
            # A callee that trapped has already counted past `steps`.
            "        if steps > _I._steps:",
            "            _I._steps = steps",
        ]
        for block in self.plan.rpo:
            n = self.counters[id(block)]
            key = (self.fname, block.name)
            tail.append(f"        if {n}: blocks[{key!r}].count += {n}")
        source = "\n".join(head + body + tail) + "\n"
        # Line numbers are 1-based; the lines around the blocks' code are
        # charged to the entry block.
        self.namespace["_LINES"] = (
            (entry_key,) * (len(head) + 1) + tuple(keys) + (entry_key,) * len(tail)
        )
        # The code object is a pure function of the source and its label,
        # so every interpreter of the module shares it; the namespace, and
        # with it every per-interpreter object, is this unit's own.
        key = (source, f"<unit {self.fname}>")
        cache = self.interp.module.code_cache
        code = cache.get(key)
        if code is None:
            code = cache[key] = compile(source, key[1], "exec")
        exec(code, self.namespace)
        # Popped, so that the unit and its globals form no cycle: an
        # interpreter, and its memory image, is freed when it is dropped.
        return self.namespace.pop("unit")

    # -- rendering -----------------------------------------------------------
    def render(self, items: list):
        """The source lines of *items* and the profile key of each, or None
        where they would pass CPython's nesting limits."""
        self.out: list[str] = []
        self.keys: list[tuple] = []
        # One (continue target, break target, pending _go jumps) per
        # enclosing Python loop.
        self.frames: list[tuple] = []
        self.go: dict[tuple, int] = {}
        self.deepest = self.widest = 0
        self.put_items(items, 2)
        if self.deepest > _MAX_LOOPS or self.widest > _MAX_INDENT:
            return None
        return self.out, self.keys

    def put(self, level: int, key: tuple, text: str) -> None:
        # Levels past the try body are one column each.
        self.out.append(" " * (level + 6) + text)
        self.keys.append(key)

    def put_items(self, items: list, level: int) -> None:
        self.widest = max(self.widest, level)
        for item in items:
            tag = item[0]
            if tag == "line":
                self.put(level, item[1], item[2])
            elif tag == "if":
                _, key, cond, then, other = item
                self.put(level, key, f"if {cond}:")
                self.put_arm(then, level + 1, key)
                # A then-arm that cannot fall through needs no else.
                last = self.out[-1]
                if last[level + 7] != " " and last.lstrip().startswith(
                    ("return", "continue", "break", "raise")
                ):
                    self.put_items(other, level)
                else:
                    self.put(level, key, "else:")
                    self.put_arm(other, level + 1, key)
            elif tag == "loop" or tag == "block":
                _, key, target, body = item[:4]
                if tag == "block" and target not in self.emulated:
                    self.put_items(body, level)
                    continue
                self.put(level, key, "while True:")
                if tag == "loop":
                    self.frames.append((target, item[4], {}))
                else:  # a one-pass loop, left by break
                    self.frames.append((None, target, {}))
                    body = body + [("line", key, "break")]
                self.deepest = max(self.deepest, len(self.frames))
                self.put_items(body, level + 1)
                _, after, pending = self.frames.pop()
                for k, (jkey, jtarget) in pending.items():
                    self.put(level, jkey, f"if _go == {k}:")
                    self.put_items([("jump", jkey, jtarget, after, k)], level + 1)
            elif tag == "jump":
                self.jump(level, *item[1:])
            else:  # the switch of the state-int form
                for index, (key, case) in enumerate(item[1]):
                    self.put(level, key, f"{'el' if index else ''}if state == {index}:")
                    self.put_arm(case, level + 1, key)

    def put_arm(self, items: list, level: int, key: tuple) -> None:
        mark = len(self.out)
        self.put_items(items, level)
        if len(self.out) == mark:
            self.put(level, key, "pass")

    def jump(self, level, key, target, follow, k=None) -> None:
        """Source jumping to *target* where falling off reaches *follow*;
        *k* is set where a ``_go`` jump left a loop and continues here."""
        cont, brk, pending = self.frames[-1] if self.frames else (None, None, None)
        if target == follow:
            action = None
        elif target == cont:
            action = "continue"
        elif target == brk:
            action = "break"
        else:
            if k is None:
                k = self.go.setdefault(target, len(self.go) + 1)
                self.put(level, key, f"_go = {k}")
            pending[k] = (key, target)
            self.put(level, key, "break")
            return
        if k is not None:
            self.put(level, key, "_go = 0")
        if action is not None:
            self.put(level, key, action)

    def emit_body(self, block: BasicBlock) -> list | str:
        """*block*'s non-phi, non-terminator instructions as source lines,
        or the message of the fault that compiling them raised."""
        self.lines = []
        instrs = block.instructions[len(block.phis()) :]
        if block.terminator is not None:
            instrs = instrs[:-1]
        try:
            for instr in instrs:
                self.emit(instr)
        except VMError as exc:
            return str(exc)
        return self.lines

    # -- items -------------------------------------------------------------
    def edge(self, source, target: BasicBlock) -> list:
        """Items taking the edge *source* -> *target* up to the jump."""
        key = (self.fname, target.name)
        body = self.bodies[id(target)]
        if isinstance(body, str):
            return [("line", key, f"raise _VME({body!r})")]
        n = self.counters[id(target)]
        size = len(target.instructions)
        lines = [
            f"{n} += 1",
            f"if {n} == 1 and {key!r} not in blocks:",
            f"    blocks[{key!r}] = _BP({self.fname!r}, {target.name!r}, 0, {size})",
            f"steps += {size}",
            "if steps > limit:",
            f"    raise _SLE(limit, {self.fname!r})",
        ]
        # The phi moves, as one parallel assignment.
        targets, values = [], []
        for phi in target.phis():
            value = _incoming(phi, source)
            if value is None:
                name = None if source is None else source.name
                lines.append(f"raise KeyError({name!r})")
                break
            targets.append(self.local(phi))
            values.append(self.operand(value))
        else:
            if targets:
                lines.append(f"{', '.join(targets)} = {', '.join(values)}")
        return [("line", key, line) for line in lines]

    def node(self, x: BasicBlock, follow) -> list:
        """Items for *x* and the blocks it dominates, less merges and follows
        emitted elsewhere. The code after a loop or a Relooper block (its
        follow or merge) continues the same list, so a run of statements
        does not recurse."""
        plan = self.plan
        items: list = []
        while True:
            key = (self.fname, x.name)
            ys = [
                y
                for y in plan.children[id(x)]
                if id(y) in plan.merges and id(y) not in plan.claimed
            ]
            if x in plan.loops:
                e = plan.follows.get(id(x))
                after = follow if e is None else ("block", id(e))
                self.open.append(("exit", after))
                body = self.within(x, ys, ("loop", id(x)))
                self.open.pop()
                items.append(("loop", key, ("loop", id(x)), body, after))
                if e is None:
                    return items
                x = e  # a jump to the follow breaks out of the loop
            elif ys:
                y = ys[-1]
                target = ("block", id(y))
                self.open.append(target)
                items.append(("block", key, target, self.within(x, ys[:-1], target)))
                self.open.pop()
                x = y
            else:
                return items + self.within(x, [], follow)

    def within(self, x: BasicBlock, ys: list, follow) -> list:
        """Ramsey's ``nodeWithin``: *x*'s code, each merge child in *ys*
        emitted after a block that holds the code before it."""
        if ys:
            y = ys[-1]
            target = ("block", id(y))
            self.open.append(target)
            inner = self.within(x, ys[:-1], target)
            self.open.pop()
            return [("block", (self.fname, x.name), target, inner)] + self.node(y, follow)
        key = (self.fname, x.name)
        body = self.bodies[id(x)]
        if isinstance(body, str):  # every edge into x raises the fault
            return []
        items = [("line", key, line) for line in body]
        term = x.terminator
        if term is None:
            message = f"{self.fname}/{x.name}: fell off block end"
            return items + [("line", key, f"raise _VME({message!r})")]
        op = term.opcode
        if op is Opcode.BR:
            return items + self.branch(x, term.targets[0], follow)
        if op is Opcode.CONDBR:
            cond = self.operand(term.operands[0])
            taken, other = term.targets
            if taken is other:
                return items + [("line", key, cond)] + self.branch(x, taken, follow)
            return items + [
                (
                    "if",
                    key,
                    cond,
                    self.branch(x, taken, follow),
                    self.branch(x, other, follow),
                )
            ]
        if term.operands:
            return items + [("line", key, f"return {self.operand(term.operands[0])}")]
        return items + [("line", key, "return None")]

    def branch(self, x: BasicBlock, y: BasicBlock, follow) -> list:
        """Items taking the edge *x* -> *y*: the edge, then *y* inline or a
        jump to it."""
        items = self.edge(x, y)
        plan = self.plan
        if self.flat_mode:
            return items + [("line", (self.fname, y.name), f"state = {plan.index[id(y)]}")]
        if plan.index[id(y)] <= plan.index[id(x)]:
            target = ("loop", id(y))
        elif id(y) in plan.merges or id(y) in plan.claimed:
            target = ("block", id(y))
            # Unless it falls through, the jump breaks out of a Python
            # loop: one around it that exits to *y*, else a one-pass loop
            # wrapped around the code y's block holds.
            for opened in reversed(self.open if target != follow else ()):
                if opened == ("exit", target):
                    break
                if opened == target:
                    self.emulated.add(target)
                    break
        else:
            return items + self.node(y, follow)
        return items + [("jump", (self.fname, y.name), target, follow)]

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
        elif op is Opcode.GEP:
            p, i = (self.operand(o) for o in operands)
            L(f"{res} = {p} + {i} * {instr.elem_size}")
        elif op is Opcode.ALLOCA:
            alloca = self.bind(self.interp.memory.alloca)
            L(f"{res} = {alloca}({instr.elem_size * instr.alloc_count})")
        elif op is Opcode.CALL:
            self.emit_call(res, instr)
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

    def emit_call(self, res: str, instr: Instruction) -> None:
        callee = instr.callee
        args = [self.operand(o) for o in instr.operands]
        L = self.lines.append
        if isinstance(callee, str):
            intr = INTRINSICS.get(callee)
            if intr is None:
                raise VMError(f"unknown intrinsic {callee!r}")
            call = f"{self.bind(intr.fn)}({', '.join(['_I', *args])})"
        else:
            call = f"_CALL(_I, {self.bind(callee)}, [{', '.join(args)}])"
        # The unit keeps the step count in a local; calls must see it.
        L("_I._steps = steps")
        L(f"{res} = {call}" if instr.has_result else call)
        if not isinstance(callee, str):
            L("steps = _I._steps")
