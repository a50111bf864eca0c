"""Tests for DCE, CSE and simplify-CFG."""

import pytest

from repro.ir import I32, IRBuilder, Module, verify_function
from repro.ir.opcodes import ICmpPred, Opcode
from repro.ir.passes import (
    CommonSubexpressionEliminationPass,
    DeadCodeEliminationPass,
    SimplifyCfgPass,
)
from repro.vm import Interpreter


class TestDce:
    def test_removes_unused_pure_instruction(self):
        m = Module("t")
        f = m.declare_function("f", I32, [("a", I32)])
        b = IRBuilder(f.add_block("entry"))
        b.mul(f.args[0], f.args[0])  # dead
        live = b.add(f.args[0], b.i32(1))
        b.ret(live)
        DeadCodeEliminationPass().run(m)
        assert all(i.opcode is not Opcode.MUL for i in f.instructions())

    def test_removes_transitively_dead_chains(self):
        m = Module("t")
        f = m.declare_function("f", I32, [("a", I32)])
        b = IRBuilder(f.add_block("entry"))
        t1 = b.add(f.args[0], b.i32(1))
        t2 = b.mul(t1, t1)
        b.xor(t2, t2)  # dead root; t1/t2 become dead transitively
        b.ret(f.args[0])
        DeadCodeEliminationPass().run(m)
        assert f.instruction_count == 1  # just the ret

    def test_keeps_side_effecting_instructions(self):
        m = Module("t")
        f = m.declare_function("f", I32, [("a", I32)])
        b = IRBuilder(f.add_block("entry"))
        slot = b.alloca(I32)
        b.store(f.args[0], slot)  # store has a side effect
        b.call("print_i32", [f.args[0]])  # unused result/void call
        b.ret(f.args[0])
        DeadCodeEliminationPass().run(m)
        ops = [i.opcode for i in f.instructions()]
        assert Opcode.STORE in ops and Opcode.CALL in ops


class TestCse:
    def test_identical_expressions_merged(self):
        m = Module("t")
        f = m.declare_function("f", I32, [("a", I32), ("b", I32)])
        bl = IRBuilder(f.add_block("entry"))
        x = bl.add(f.args[0], f.args[1])
        y = bl.add(f.args[0], f.args[1])
        bl.ret(bl.mul(x, y))
        CommonSubexpressionEliminationPass().run(m)
        DeadCodeEliminationPass().run(m)
        adds = [i for i in f.instructions() if i.opcode is Opcode.ADD]
        assert len(adds) == 1

    def test_commutative_canonicalisation(self):
        m = Module("t")
        f = m.declare_function("f", I32, [("a", I32), ("b", I32)])
        bl = IRBuilder(f.add_block("entry"))
        x = bl.add(f.args[0], f.args[1])
        y = bl.add(f.args[1], f.args[0])  # same value, swapped operands
        bl.ret(bl.mul(x, y))
        CommonSubexpressionEliminationPass().run(m)
        DeadCodeEliminationPass().run(m)
        adds = [i for i in f.instructions() if i.opcode is Opcode.ADD]
        assert len(adds) == 1

    def test_sub_not_commuted(self):
        m = Module("t")
        f = m.declare_function("f", I32, [("a", I32), ("b", I32)])
        bl = IRBuilder(f.add_block("entry"))
        x = bl.sub(f.args[0], f.args[1])
        y = bl.sub(f.args[1], f.args[0])
        bl.ret(bl.mul(x, y))
        CommonSubexpressionEliminationPass().run(m)
        subs = [i for i in f.instructions() if i.opcode is Opcode.SUB]
        assert len(subs) == 2

    def test_loads_never_csed(self):
        m = Module("t")
        f = m.declare_function("f", I32, [])
        bl = IRBuilder(f.add_block("entry"))
        slot = bl.alloca(I32, 4)
        v1 = bl.load(I32, slot)
        bl.store(bl.i32(5), slot)
        v2 = bl.load(I32, slot)  # must NOT merge with v1
        bl.ret(bl.add(v1, v2))
        CommonSubexpressionEliminationPass().run(m)
        loads = [i for i in f.instructions() if i.opcode is Opcode.LOAD]
        assert len(loads) == 2

    def test_dominating_definition_reused_across_blocks(self):
        m = Module("t")
        f = m.declare_function("f", I32, [("a", I32)])
        entry = f.add_block("entry")
        nxt = f.add_block("next")
        bl = IRBuilder(entry)
        x = bl.add(f.args[0], bl.i32(7))
        bl.br(nxt)
        bl.set_block(nxt)
        y = bl.add(f.args[0], bl.i32(7))
        bl.ret(bl.mul(x, y))
        CommonSubexpressionEliminationPass().run(m)
        DeadCodeEliminationPass().run(m)
        adds = [i for i in f.instructions() if i.opcode is Opcode.ADD]
        assert len(adds) == 1
        verify_function(f)


class TestSimplifyCfg:
    def _branchy(self, cond_value: bool):
        m = Module("t")
        f = m.declare_function("f", I32, [("a", I32)])
        entry = f.add_block("entry")
        then = f.add_block("then")
        els = f.add_block("els")
        bl = IRBuilder(entry)
        from repro.ir.values import Constant
        from repro.ir.types import I1

        bl.condbr(Constant(I1, int(cond_value)), then, els)
        bl.set_block(then)
        bl.ret(bl.i32(1))
        bl.set_block(els)
        bl.ret(bl.i32(2))
        return m, f

    def test_constant_branch_folded_true(self):
        m, f = self._branchy(True)
        SimplifyCfgPass().run(m)
        verify_function(f)
        assert Interpreter(m).run("f", [0]).return_value == 1
        assert len(f.blocks) == 1  # entry merged with then, els removed

    def test_constant_branch_folded_false(self):
        m, f = self._branchy(False)
        SimplifyCfgPass().run(m)
        assert Interpreter(m).run("f", [0]).return_value == 2

    def test_unreachable_block_removed_and_phis_updated(self):
        m = Module("t")
        f = m.declare_function("f", I32, [("a", I32)])
        entry = f.add_block("entry")
        dead = f.add_block("dead")
        join = f.add_block("join")
        bl = IRBuilder(entry)
        bl.br(join)
        bl.set_block(dead)
        deadval = bl.add(f.args[0], bl.i32(9))
        bl.br(join)
        bl.set_block(join)
        phi = bl.phi(I32)
        phi.add_incoming(f.args[0], entry)
        phi.add_incoming(deadval, dead)
        bl.ret(phi)
        SimplifyCfgPass().run(m)
        verify_function(f)
        assert all(b.name != "dead" for b in f.blocks)

    def test_straightline_blocks_merged(self):
        m = Module("t")
        f = m.declare_function("f", I32, [("a", I32)])
        b1 = f.add_block("b1")
        b2 = f.add_block("b2")
        b3 = f.add_block("b3")
        bl = IRBuilder(b1)
        x = bl.add(f.args[0], bl.i32(1))
        bl.br(b2)
        bl.set_block(b2)
        y = bl.add(x, bl.i32(2))
        bl.br(b3)
        bl.set_block(b3)
        bl.ret(y)
        SimplifyCfgPass().run(m)
        assert len(f.blocks) == 1
        verify_function(f)
        assert Interpreter(m).run("f", [1]).return_value == 4

    @pytest.mark.parametrize(
        "order", [["b2", "b3", "other", "join"], ["join", "other", "b3", "b2"]]
    )
    def test_chain_merges_in_one_sweep_and_phis_name_the_merged_block(
        self, order
    ):
        # entry -> b2 -> b3 -> {other, join}, other -> join: whatever the
        # block order, one sweep folds b2 and b3 into entry, and join's
        # phi and other's predecessor then name entry.
        m = Module("t")
        f = m.declare_function("f", I32, [("a", I32)])
        entry = f.add_block("entry")
        blocks = {name: f.add_block(name) for name in order}
        b2, b3, other, join = (blocks[n] for n in ("b2", "b3", "other", "join"))
        bl = IRBuilder(entry)
        x = bl.add(f.args[0], bl.i32(1))
        bl.br(b2)
        bl.set_block(b2)
        y = bl.mul(x, bl.i32(3))
        bl.br(b3)
        bl.set_block(b3)
        bl.condbr(bl.icmp(ICmpPred.SGT, y, bl.i32(10)), join, other)
        bl.set_block(other)
        z = bl.sub(y, bl.i32(1))
        bl.br(join)
        bl.set_block(join)
        phi = bl.phi(I32)
        phi.add_incoming(y, b3)
        phi.add_incoming(z, other)
        bl.ret(phi)
        assert SimplifyCfgPass._merge_blocks(f)
        assert [b.name for b in f.blocks] == [
            "entry", *(n for n in order if n in ("other", "join"))
        ]
        assert phi.incoming_blocks == [entry, other]
        assert other.predecessors() == [entry]
        verify_function(f)
        assert Interpreter(m).run("f", [5]).return_value == 18
        assert Interpreter(m).run("f", [1]).return_value == 5
