"""Opcode definitions and static opcode metadata.

The metadata here is consumed throughout the system:

- the verifier checks operand counts / types per opcode,
- the interpreter dispatches on opcodes,
- the ISE feasibility analysis (:mod:`repro.ise.feasibility`) uses
  :func:`is_hw_feasible` to exclude memory accesses, calls and control flow
  from custom-instruction candidates — the paper's central structural
  limitation (Section V.D),
- the PivPav IP-core library keys its circuit database by opcode.
"""

from __future__ import annotations

from enum import Enum


class Opcode(str, Enum):
    """All IR opcodes. Values double as the textual mnemonic."""

    # Integer binary arithmetic / bitwise
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    SDIV = "sdiv"
    UDIV = "udiv"
    SREM = "srem"
    UREM = "urem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    LSHR = "lshr"
    ASHR = "ashr"

    # Floating point binary arithmetic
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FREM = "frem"

    # Unary
    FNEG = "fneg"

    # Comparisons
    ICMP = "icmp"
    FCMP = "fcmp"

    # Casts
    ZEXT = "zext"
    SEXT = "sext"
    TRUNC = "trunc"
    FPTOSI = "fptosi"
    SITOFP = "sitofp"
    FPEXT = "fpext"
    FPTRUNC = "fptrunc"
    BITCAST = "bitcast"

    # Data movement / selection
    SELECT = "select"
    PHI = "phi"

    # Memory
    ALLOCA = "alloca"
    LOAD = "load"
    STORE = "store"
    GEP = "gep"

    # Control
    BR = "br"
    CONDBR = "condbr"
    RET = "ret"
    CALL = "call"

    # Custom instruction reference (inserted by the binary patcher after
    # ASIP specialization; executes a whole candidate DFG in one step).
    CUSTOM = "custom"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ICmpPred(str, Enum):
    """Integer comparison predicates (signed and unsigned)."""

    EQ = "eq"
    NE = "ne"
    SLT = "slt"
    SLE = "sle"
    SGT = "sgt"
    SGE = "sge"
    ULT = "ult"
    ULE = "ule"
    UGT = "ugt"
    UGE = "uge"


class FCmpPred(str, Enum):
    """Floating-point comparison predicates (ordered only)."""

    OEQ = "oeq"
    ONE = "one"
    OLT = "olt"
    OLE = "ole"
    OGT = "ogt"
    OGE = "oge"


INT_BINARY_OPS = frozenset(
    {
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.SDIV,
        Opcode.UDIV,
        Opcode.SREM,
        Opcode.UREM,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.SHL,
        Opcode.LSHR,
        Opcode.ASHR,
    }
)

FLOAT_BINARY_OPS = frozenset(
    {Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FREM}
)

BINARY_OPS = INT_BINARY_OPS | FLOAT_BINARY_OPS

CAST_OPS = frozenset(
    {
        Opcode.ZEXT,
        Opcode.SEXT,
        Opcode.TRUNC,
        Opcode.FPTOSI,
        Opcode.SITOFP,
        Opcode.FPEXT,
        Opcode.FPTRUNC,
        Opcode.BITCAST,
    }
)

TERMINATOR_OPS = frozenset({Opcode.BR, Opcode.CONDBR, Opcode.RET})

COMMUTATIVE_OPS = frozenset(
    {
        Opcode.ADD,
        Opcode.MUL,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.FADD,
        Opcode.FMUL,
    }
)

# Opcodes whose results may be folded / CSE'd freely (no side effects and
# no dependence on memory state).
PURE_OPS = (
    BINARY_OPS
    | CAST_OPS
    | frozenset({Opcode.ICMP, Opcode.FCMP, Opcode.SELECT, Opcode.FNEG, Opcode.GEP})
)

# Opcodes that can be implemented inside a hardware custom instruction.
#
# The paper (Section V.D) notes that "accesses to global variables or
# memory ... cannot be included in a hardware custom instruction"; control
# flow, calls and phi nodes are likewise infeasible because a Woolcano
# custom instruction is a pure feed-forward datapath between the register
# file read and write ports.
HW_FEASIBLE_OPS = PURE_OPS


def is_terminator(op: Opcode) -> bool:
    return op in TERMINATOR_OPS


def is_pure(op: Opcode) -> bool:
    return op in PURE_OPS


def is_hw_feasible(op: Opcode) -> bool:
    """Whether an opcode may appear inside a custom-instruction candidate."""
    return op in HW_FEASIBLE_OPS


def has_result(op: Opcode, result_type_is_void: bool = False) -> bool:
    """Whether instructions with this opcode define an SSA value."""
    if op in (Opcode.STORE, Opcode.BR, Opcode.CONDBR, Opcode.RET):
        return False
    if op is Opcode.CALL and result_type_is_void:
        return False
    return True
