"""Tests for the interpreter and profiler."""

import math
import random

import pytest

from repro.frontend import compile_source
from repro.ir import F64, IRBuilder, Module
from repro.ir.opcodes import FCmpPred, ICmpPred, Opcode
from repro.ir.passes.constfold import fold_binary, fold_fcmp, fold_icmp
from repro.ir.types import I1, I8, I32, I64
from repro.vm import Interpreter, VMError
from repro.vm.costmodel import PPC405_COST_MODEL
from repro.vm.profiler import static_block_costs

from conftest import build_sumsq_module, run_main


class TestExecution:
    def test_sumsq_unoptimized(self):
        module = build_sumsq_module()
        assert Interpreter(module).run("sumsq", [10]).return_value == 285

    def test_argument_count_checked(self):
        module = build_sumsq_module()
        with pytest.raises(VMError, match="expected 1 args"):
            Interpreter(module).run("sumsq", [])

    def test_division_by_zero_traps(self):
        src = "int main() { int z = dataset_size(); return 5 / z; }"
        module = compile_source(src, "trap").module
        with pytest.raises(VMError, match="div"):
            Interpreter(module, dataset_size=0).run("main")

    def test_step_limit(self):
        src = "int main() { int i = 0; while (1) { i++; } return i; }"
        module = compile_source(src, "inf").module
        with pytest.raises(VMError, match="step limit"):
            Interpreter(module, max_steps=10_000).run("main")

    def test_global_state_persists_across_runs(self):
        src = """
int counter = 0;
int main() { counter++; return counter; }
"""
        module = compile_source(src, "persist").module
        interp = Interpreter(module)
        assert interp.run("main").return_value == 1
        assert interp.run("main").return_value == 2  # same memory image

    def test_output_capture_order(self):
        src = """
int main() {
    print_i32(1); print_f64(2.5); print_i64(3);
    return 0;
}
"""
        assert run_main(src).output == [1, 2.5, 3]

    def test_unknown_function(self):
        module = build_sumsq_module()
        with pytest.raises(KeyError):
            Interpreter(module).run("nope")


class TestProfile:
    def test_block_counts_match_loop_trip_counts(self):
        module = build_sumsq_module()
        result = Interpreter(module).run("sumsq", [10])
        prof = result.profile
        assert prof.count_of("sumsq", "entry") == 1
        assert prof.count_of("sumsq", "loop") == 11  # 10 iterations + exit check
        assert prof.count_of("sumsq", "body") == 10
        assert prof.count_of("sumsq", "done") == 1

    def test_steps_equals_dynamic_instructions(self):
        module = build_sumsq_module()
        result = Interpreter(module).run("sumsq", [4])
        assert result.steps == result.profile.total_dynamic_instructions

    def test_merged_profiles_add_counts(self):
        module = build_sumsq_module()
        p1 = Interpreter(module).run("sumsq", [3]).profile
        p2 = Interpreter(module).run("sumsq", [5]).profile
        merged = p1.merged_with(p2)
        assert merged.count_of("sumsq", "body") == 8

    def test_total_cycles_positive_and_additive(self):
        module = build_sumsq_module()
        prof = Interpreter(module).run("sumsq", [6]).profile
        cm = PPC405_COST_MODEL
        total = prof.total_cycles(module, cm)
        assert total > 0
        costs = static_block_costs(module, cm)
        manual = sum(
            bp.count * costs[key] for key, bp in prof.blocks.items()
        )
        assert total == pytest.approx(manual)

    def test_block_cost_override_applied(self):
        module = build_sumsq_module()
        prof = Interpreter(module).run("sumsq", [6]).profile
        cm = PPC405_COST_MODEL

        def override(func, block):
            return 1.0 if block == "body" else None

        total = prof.total_cycles(module, cm, override)
        base = prof.total_cycles(module, cm)
        assert total < base

    def test_time_shares_sum_to_one(self):
        module = build_sumsq_module()
        prof = Interpreter(module).run("sumsq", [6]).profile
        shares = prof.block_time_shares(static_block_costs(module, PPC405_COST_MODEL))
        assert sum(shares.values()) == pytest.approx(1.0)


def _binary_interp(op, ty):
    """Interpreter over ``f(a, b) = op(a, b)`` for one opcode/type."""
    m = Module("parity")
    f = m.declare_function("f", ty, [("a", ty), ("b", ty)])
    b = IRBuilder(f.add_block("entry"))
    b.ret(b.binop(op, f.args[0], f.args[1]))
    return Interpreter(m)


def _int_operands(rng, ty, n=24):
    lo, hi = -(1 << (ty.bits - 1)), (1 << (ty.bits - 1)) - 1
    return [0, 1, -1, 2, lo, hi] + [rng.randint(lo, hi) for _ in range(n)]


FLOAT_SPECIALS = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 1e-300, 1e300]


def _float_operands(rng, n=24):
    return FLOAT_SPECIALS + [rng.uniform(-1e6, 1e6) for _ in range(n)]


def _same(x, y) -> bool:
    if isinstance(x, float) and math.isnan(x):
        return isinstance(y, float) and math.isnan(y)
    return x == y


class TestConstfoldParity:
    """The interpreter inlines its hot arithmetic handlers (wrapping add/
    sub/mul, bitwise ops, the common icmp predicates) instead of calling
    the constfold evaluators. Randomized operands pin the two
    implementations against each other: folding a constant expression at
    compile time and executing it at run time must agree bit-for-bit,
    otherwise optimization level changes program output.
    """

    DIV_OPS = (Opcode.SDIV, Opcode.UDIV, Opcode.SREM, Opcode.UREM)
    INT_OPS = (
        Opcode.ADD, Opcode.SUB, Opcode.MUL,
        Opcode.AND, Opcode.OR, Opcode.XOR,
        Opcode.SHL, Opcode.LSHR, Opcode.ASHR,
    ) + DIV_OPS
    FLOAT_OPS = (Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FREM)

    @pytest.mark.parametrize("ty", [I8, I32, I64], ids=str)
    @pytest.mark.parametrize("op", INT_OPS, ids=lambda o: o.value)
    def test_int_binary_matches_fold(self, op, ty):
        rng = random.Random(f"{op.value}/{ty.bits}")
        interp = _binary_interp(op, ty)
        vals = _int_operands(rng, ty)
        for _ in range(40):
            a, b = rng.choice(vals), rng.choice(vals)
            if op in self.DIV_OPS and b == 0:
                continue
            executed = interp.run("f", [a, b]).return_value
            folded = fold_binary(op, ty, a, b)
            assert executed == folded, f"{op.value} {ty}: {a}, {b}"

    @pytest.mark.parametrize("op", DIV_OPS, ids=lambda o: o.value)
    def test_division_by_zero_traps_not_folds(self, op):
        from repro.ir.passes.constfold import ConstantFoldError

        with pytest.raises(ConstantFoldError):
            fold_binary(op, I32, 7, 0)
        with pytest.raises(VMError, match="zero"):
            _binary_interp(op, I32).run("f", [7, 0])

    @pytest.mark.parametrize("op", FLOAT_OPS, ids=lambda o: o.value)
    def test_float_binary_matches_fold(self, op):
        rng = random.Random(op.value)
        interp = _binary_interp(op, F64)
        vals = _float_operands(rng)
        for _ in range(40):
            a, b = rng.choice(vals), rng.choice(vals)
            executed = interp.run("f", [a, b]).return_value
            folded = fold_binary(op, F64, a, b)
            assert _same(executed, folded), f"{op.value}: {a}, {b}"

    @pytest.mark.parametrize("pred", list(ICmpPred), ids=lambda p: p.value)
    def test_icmp_matches_fold(self, pred):
        rng = random.Random(pred.value)
        m = Module("parity")
        f = m.declare_function("f", I1, [("a", I32), ("b", I32)])
        b = IRBuilder(f.add_block("entry"))
        b.ret(b.icmp(pred, f.args[0], f.args[1]))
        interp = Interpreter(m)
        vals = _int_operands(rng, I32)
        for _ in range(40):
            a, c = rng.choice(vals), rng.choice(vals)
            executed = interp.run("f", [a, c]).return_value
            assert executed == fold_icmp(pred, I32, a, c), f"{pred.value}: {a}, {c}"

    @pytest.mark.parametrize("pred", list(FCmpPred), ids=lambda p: p.value)
    def test_fcmp_matches_fold(self, pred):
        rng = random.Random(pred.value)
        m = Module("parity")
        f = m.declare_function("f", I1, [("a", F64), ("b", F64)])
        b = IRBuilder(f.add_block("entry"))
        b.ret(b.fcmp(pred, f.args[0], f.args[1]))
        interp = Interpreter(m)
        vals = _float_operands(rng)
        for _ in range(40):
            a, c = rng.choice(vals), rng.choice(vals)
            executed = interp.run("f", [a, c]).return_value
            assert executed == fold_fcmp(pred, a, c), f"{pred.value}: {a}, {c}"


class TestCostModel:
    def test_fp_more_expensive_than_int(self):
        from repro.ir import F64, I32, IRBuilder, Module

        m = Module("t")
        f = m.declare_function("f", F64, [("x", F64), ("i", I32)])
        b = IRBuilder(f.add_block("entry"))
        fadd = b.fadd(f.args[0], f.args[0])
        iadd = b.add(f.args[1], f.args[1])
        b.ret(fadd)
        cm = PPC405_COST_MODEL
        assert cm.cycles_for(fadd) > 5 * cm.cycles_for(iadd)

    def test_f32_cheaper_than_f64(self):
        from repro.ir import F32, F64, IRBuilder, Module

        m = Module("t")
        f = m.declare_function("f", F32, [("a", F32), ("b", F64)])
        bl = IRBuilder(f.add_block("entry"))
        f32op = bl.fadd(f.args[0], f.args[0])
        f64op = bl.fadd(f.args[1], f.args[1])
        bl.ret(f32op)
        cm = PPC405_COST_MODEL
        assert cm.cycles_for(f32op) < cm.cycles_for(f64op)

    def test_soft_float_scale(self):
        from repro.ir import F64, IRBuilder, Module

        m = Module("t")
        f = m.declare_function("f", F64, [("x", F64)])
        b = IRBuilder(f.add_block("entry"))
        op = b.fmul(f.args[0], f.args[0])
        b.ret(op)
        base = PPC405_COST_MODEL
        scaled = base.with_soft_float_scale(3.0)
        assert scaled.cycles_for(op) == pytest.approx(3.0 * base.cycles_for(op))

    def test_seconds_conversion(self):
        cm = PPC405_COST_MODEL
        assert cm.seconds(cm.clock_hz) == pytest.approx(1.0)
