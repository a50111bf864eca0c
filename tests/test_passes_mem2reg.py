"""Tests for the mem2reg SSA-construction pass."""

import pytest

from repro.ir import I32, IRBuilder, Module, verify_function
from repro.ir.opcodes import ICmpPred, Opcode
from repro.ir.passes import Mem2RegPass
from repro.vm import Interpreter

from conftest import build_sumsq_module


def count_opcodes(func, *opcodes):
    return sum(1 for i in func.instructions() if i.opcode in opcodes)


class TestPromotion:
    def test_loads_stores_removed(self):
        module = build_sumsq_module()
        func = module.function("sumsq")
        assert count_opcodes(func, Opcode.LOAD) > 0
        changed = Mem2RegPass().run(module)
        assert changed
        assert count_opcodes(func, Opcode.LOAD, Opcode.STORE, Opcode.ALLOCA) == 0
        verify_function(func)

    def test_phis_inserted_at_join(self):
        module = build_sumsq_module()
        func = module.function("sumsq")
        Mem2RegPass().run(module)
        loop = func.block_named("loop")
        assert len(loop.phis()) == 2  # acc and i

    def test_semantics_preserved(self):
        module = build_sumsq_module()
        before = Interpreter(module).run("sumsq", [10]).return_value
        Mem2RegPass().run(module)
        after = Interpreter(module).run("sumsq", [10]).return_value
        assert before == after == 285

    def test_idempotent(self):
        module = build_sumsq_module()
        Mem2RegPass().run(module)
        assert Mem2RegPass().run(module) is False


class TestNonPromotable:
    def test_array_alloca_not_promoted(self):
        m = Module("t")
        f = m.declare_function("f", I32, [("i", I32)])
        entry = f.add_block("entry")
        b = IRBuilder(entry)
        arr = b.alloca(I32, 8)
        addr = b.gep(arr, f.args[0], 4)
        b.store(b.i32(7), addr)
        v = b.load(I32, addr)
        b.ret(v)
        Mem2RegPass().run(m)
        assert count_opcodes(f, Opcode.ALLOCA) == 1  # still there

    def test_escaping_alloca_not_promoted(self):
        m = Module("t")
        g = m.declare_function("g", I32, [("p", __import__("repro.ir.types", fromlist=["PTR"]).PTR)])
        ge = g.add_block("entry")
        gb = IRBuilder(ge)
        gb.ret(gb.load(I32, g.args[0]))

        f = m.declare_function("f", I32, [])
        entry = f.add_block("entry")
        b = IRBuilder(entry)
        slot = b.alloca(I32)
        b.store(b.i32(3), slot)
        call = b.call(g, [slot])  # address escapes
        b.ret(call)
        Mem2RegPass().run(m)
        assert count_opcodes(f, Opcode.ALLOCA) == 1

    def test_uninitialized_load_becomes_undef_zero(self):
        m = Module("t")
        f = m.declare_function("f", I32, [])
        entry = f.add_block("entry")
        b = IRBuilder(entry)
        slot = b.alloca(I32)
        v = b.load(I32, slot)  # read before any store
        b.ret(v)
        Mem2RegPass().run(m)
        verify_function(f)
        result = Interpreter(m).run("f", []).return_value
        assert result == 0  # undef reads as zero in the VM


class TestDiamond:
    def test_merge_requires_phi(self):
        m = Module("t")
        f = m.declare_function("f", I32, [("a", I32)])
        entry = f.add_block("entry")
        then = f.add_block("then")
        els = f.add_block("else")
        join = f.add_block("join")
        b = IRBuilder(entry)
        slot = b.alloca(I32)
        b.store(b.i32(0), slot)
        cond = b.icmp(ICmpPred.SGT, f.args[0], b.i32(0))
        b.condbr(cond, then, els)
        b.set_block(then)
        b.store(b.i32(10), slot)
        b.br(join)
        b.set_block(els)
        b.store(b.i32(20), slot)
        b.br(join)
        b.set_block(join)
        b.ret(b.load(I32, slot))
        Mem2RegPass().run(m)
        verify_function(f)
        assert len(join.phis()) == 1
        assert Interpreter(m).run("f", [5]).return_value == 10
        assert Interpreter(m).run("f", [-5]).return_value == 20


def test_registry_apps_print_identically_when_compiled_twice():
    """Phi creation walks blocks in reverse postorder, not sets of ids, so
    two compiles in one process (objects at other addresses) print the
    same optimized IR."""
    from repro.apps import ALL_APPS, compile_app
    from repro.ir.printer import print_module

    for spec in ALL_APPS:
        first = print_module(compile_app(spec).module)
        assert print_module(compile_app(spec).module) == first, spec.name
