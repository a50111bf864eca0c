"""Real-clock dispatch-cost calibration for the interpreter.

The PPC405 model in :mod:`repro.vm.costmodel` prices the *virtual* clock;
this module measures the *real* one — what each opcode class costs the
CPython dispatch loop per executed instruction. The two disagree wildly
(soft-float ops are 18-85 virtual cycles but a Python ``+`` is nearly
free; a virtual 1-cycle integer add still pays its share of the
generated block's dispatch and ``env`` traffic), and that divergence is exactly what the dispatch-optimization
work must attack. The related microarchitecture-aware custom-instruction
papers (see PAPERS.md) make the same argument for hardware: candidate
selection must rank by *measured* cost on the actual machine, not by the
abstract cycle model — here the "machine" is the interpreter itself, the
stand-in for the paper's Figure 1 JIT VM.

Method: for each opcode class, build a synthetic IR kernel — a counted
loop whose body holds ``width`` instructions of that class — interpret it
for ``iters`` iterations, and subtract an empty-body baseline loop timed
the same way.  ``cost = (t_class - t_baseline) / (iters * width)``.  The
baseline loop (phi + add + icmp + condbr per iteration) also yields the
control-flow class by subtracting the already-measured add and icmp
costs. Timings take the min over ``repeats`` after a warm-up run, so
block-compilation cost is excluded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from repro.ir.builder import IRBuilder
from repro.ir.module import Module
from repro.ir.opcodes import FCmpPred, ICmpPred, Opcode
from repro.ir.types import F64, I32, I64
from repro.vm.interpreter import Interpreter

#: Opcode mnemonic -> calibration class. Every opcode maps somewhere, so
#: a profile's full opcode mix can be priced in real seconds.
CLASS_OF_OPCODE: dict[str, str] = {
    "add": "int_alu", "sub": "int_alu", "and": "int_alu", "or": "int_alu",
    "xor": "int_alu", "shl": "int_alu", "lshr": "int_alu", "ashr": "int_alu",
    "alloca": "int_alu",
    "mul": "int_mul",
    "sdiv": "int_div", "udiv": "int_div", "srem": "int_div", "urem": "int_div",
    "fadd": "fp_arith", "fsub": "fp_arith", "fmul": "fp_arith",
    "fneg": "fp_arith",
    "fdiv": "fp_div", "frem": "fp_div",
    "icmp": "icmp",
    "fcmp": "fcmp",
    "zext": "cast", "sext": "cast", "trunc": "cast", "fptosi": "cast",
    "sitofp": "cast", "fpext": "cast", "fptrunc": "cast", "bitcast": "cast",
    "select": "select",
    "load": "load",
    "store": "store",
    "gep": "gep",
    "call": "call", "custom": "call",
    "br": "control", "condbr": "control", "ret": "control", "phi": "control",
}

#: Classes measured directly by a payload kernel ("control" is derived
#: from the baseline loop instead).
MEASURED_CLASSES = (
    "int_alu", "int_mul", "int_div", "fp_arith", "fp_div",
    "icmp", "fcmp", "cast", "select", "load", "store", "gep", "call",
)


@dataclass
class DispatchCostTable:
    """Measured per-dispatch real-clock cost of each opcode class.

    ``class_seconds`` maps class name -> seconds per executed instruction;
    ``baseline_seconds`` is the per-iteration cost of the empty counted
    loop (the four-dispatch skeleton the payload costs were measured
    against).
    """

    class_seconds: dict[str, float] = field(default_factory=dict)
    baseline_seconds: float = 0.0
    iters: int = 0
    width: int = 0
    repeats: int = 0

    def seconds_for(self, opcode: "Opcode | str") -> float:
        """Seconds one dynamic dispatch of *opcode* costs the host."""
        mnemonic = opcode.value if isinstance(opcode, Opcode) else opcode
        cls = CLASS_OF_OPCODE.get(mnemonic)
        if cls is None:
            raise KeyError(f"no dispatch class for opcode {mnemonic!r}")
        return self.class_seconds.get(cls, 0.0)

    @property
    def dispatch_overhead_seconds(self) -> float:
        """Floor cost of one dispatched handler (the int-ALU class).

        An integer add does near-zero arithmetic work in Python, so its
        measured cost *is* the per-instruction overhead of the generated
        block (operand reads and the ``env`` store) — the miner prices
        its superinstruction savings with it.
        """
        return self.class_seconds.get("int_alu", 0.0)

    def to_dict(self) -> dict:
        return {
            "classes_ns": {
                name: self.class_seconds[name] * 1e9
                for name in sorted(self.class_seconds)
            },
            "baseline_ns_per_iter": self.baseline_seconds * 1e9,
            "iters": self.iters,
            "width": self.width,
            "repeats": self.repeats,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DispatchCostTable":
        return cls(
            class_seconds={
                name: ns / 1e9
                for name, ns in (data.get("classes_ns") or {}).items()
            },
            baseline_seconds=(data.get("baseline_ns_per_iter") or 0.0) / 1e9,
            iters=int(data.get("iters") or 0),
            width=int(data.get("width") or 0),
            repeats=int(data.get("repeats") or 0),
        )


# -- kernel construction -----------------------------------------------------
def _build_kernel(class_name: str, width: int) -> Module:
    """A counted loop with *width* instructions of *class_name* per pass."""
    module = Module(f"calib_{class_name}")
    if class_name == "call":
        leaf = module.declare_function("leaf", I32, [("x", I32)])
        lb = IRBuilder(leaf.add_block("entry"))
        lb.ret(leaf.args[0])
    if class_name in ("load", "store", "gep"):
        module.add_global("buf", I32, 8, [0, 1, 2, 3, 4, 5, 6, 7])

    func = module.declare_function("kernel", I32, [("n", I32)])
    (n,) = func.args
    entry = func.add_block("entry")
    loop = func.add_block("loop")
    done = func.add_block("done")

    b = IRBuilder(entry)
    # Loop-invariant operands prepared in the preheader, so the loop body
    # holds only the instructions under measurement.
    fval = None
    cond = None
    if class_name in ("fp_arith", "fp_div", "fcmp"):
        fval = b.sitofp(b.i32(3), F64)
    if class_name == "select":
        cond = b.icmp(ICmpPred.SLT, b.i32(1), b.i32(2))
    b.br(loop)

    b.set_block(loop)
    i = b.phi(I32, "i")
    _emit_payload(b, module, class_name, width, i, fval, cond)
    i_next = b.add(i, b.i32(1))
    exit_cond = b.icmp(ICmpPred.SLT, i_next, n)
    b.condbr(exit_cond, loop, done)
    i.add_incoming(b.i32(0), entry)
    i.add_incoming(i_next, loop)

    b.set_block(done)
    b.ret(i_next)
    return module


def _emit_payload(b, module, class_name, width, i, fval, cond) -> None:
    if class_name == "baseline":
        return
    if class_name == "int_alu":
        x = i
        for _ in range(width):
            x = b.add(x, b.i32(1))
    elif class_name == "int_mul":
        x = i
        for _ in range(width):
            x = b.mul(x, b.i32(3))
    elif class_name == "int_div":
        x = i
        for _ in range(width):
            x = b.sdiv(x, b.i32(3))
    elif class_name == "fp_arith":
        x = fval
        for _ in range(width):
            x = b.fadd(x, b.f64(1.0))
    elif class_name == "fp_div":
        x = fval
        for _ in range(width):
            x = b.fdiv(x, b.f64(1.0000001))
    elif class_name == "icmp":
        for _ in range(width):
            b.icmp(ICmpPred.SLT, i, b.i32(7))
    elif class_name == "fcmp":
        for _ in range(width):
            b.fcmp(FCmpPred.OLT, fval, b.f64(7.0))
    elif class_name == "cast":
        x = i
        for j in range(width):
            if j % 2 == 0:
                wide = b.zext(x, I64)
            else:
                x = b.trunc(wide, I32)
    elif class_name == "select":
        for _ in range(width):
            b.select(cond, i, b.i32(9))
    elif class_name == "load":
        buf = module.globals["buf"]
        for _ in range(width):
            b.load(I32, buf)
    elif class_name == "store":
        buf = module.globals["buf"]
        for _ in range(width):
            b.store(b.i32(7), buf)
    elif class_name == "gep":
        buf = module.globals["buf"]
        for _ in range(width):
            b.gep(buf, i, 4)
    elif class_name == "call":
        leaf = module.functions["leaf"]
        for _ in range(width):
            b.call(leaf, [i])
    else:  # pragma: no cover - class list is closed
        raise ValueError(f"unknown calibration class {class_name!r}")


# -- measurement -------------------------------------------------------------
def _time_kernel(module: Module, iters: int, repeats: int) -> float:
    """Best-of-*repeats* wall seconds for one kernel run (post warm-up)."""
    interp = Interpreter(module, max_steps=2_000_000_000)
    interp.run("kernel", [2])  # warm-up: compile blocks off the clock
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = perf_counter()
        interp.run("kernel", [iters])
        best = min(best, perf_counter() - start)
    return best


def measure_dispatch_costs(
    iters: int = 6000, width: int = 12, repeats: int = 3
) -> DispatchCostTable:
    """Calibrate per-dispatch real-clock costs on this host.

    Costs are clamped at zero: on a noisy host a cheap class can time
    marginally below the baseline loop; a negative dispatch cost is
    meaningless downstream.
    """
    baseline = _time_kernel(_build_kernel("baseline", 0), iters, repeats)
    base_per_iter = baseline / iters

    class_seconds: dict[str, float] = {}
    for class_name in MEASURED_CLASSES:
        # The call class is an order of magnitude slower per instruction
        # (full frame push/pop); a narrower payload keeps its runtime in
        # line with the others without hurting resolution.
        w = max(2, width // 4) if class_name == "call" else width
        elapsed = _time_kernel(_build_kernel(class_name, w), iters, repeats)
        per_dispatch = (elapsed - baseline) / (iters * w)
        class_seconds[class_name] = max(per_dispatch, 0.0)

    # The baseline loop is phi + add + icmp + condbr; after removing the
    # measured add and icmp shares, split the remainder over the two
    # control dispatches (phi resolution + conditional branch).
    residual = base_per_iter - class_seconds["int_alu"] - class_seconds["icmp"]
    class_seconds["control"] = max(residual, 0.0) / 2.0

    return DispatchCostTable(
        class_seconds=class_seconds,
        baseline_seconds=base_per_iter,
        iters=iters,
        width=width,
        repeats=repeats,
    )
