"""Tests for the VM memory model."""

import pytest

from repro.ir import IRBuilder, Module
from repro.ir.types import F32, F64, I8, I16, I32, I64, PTR
from repro.ir.values import GlobalVariable
from repro.vm import Interpreter, VMError
from repro.vm.memory import Memory, MemoryError_


def make_memory(globals_=()):
    mem = Memory(size=1 << 16, stack_size=1 << 12)
    mem.place_globals(list(globals_))
    return mem


class TestScalars:
    @pytest.mark.parametrize(
        "ty,value",
        [
            (I8, -5),
            (I16, 1234),
            (I32, -(2**31)),
            (I64, 2**62),
            (F64, 3.141592653589793),
            (PTR, 4096),
        ],
    )
    def test_round_trip(self, ty, value):
        mem = make_memory()
        addr = mem.alloca(16)
        mem.store(addr, ty, value)
        assert mem.load(addr, ty) == value

    def test_f32_precision_squash(self):
        mem = make_memory()
        addr = mem.alloca(8)
        mem.store(addr, F32, 1.000000001)
        assert mem.load(addr, F32) == pytest.approx(1.0)

    def test_int_store_wraps(self):
        mem = make_memory()
        addr = mem.alloca(8)
        mem.store(addr, I8, 300)
        assert mem.load(addr, I8) == 300 - 256

    def test_null_page_protected(self):
        mem = make_memory()
        with pytest.raises(MemoryError_):
            mem.load(0, I32)
        with pytest.raises(MemoryError_):
            mem.store(4, I32, 1)

    def test_out_of_range(self):
        mem = make_memory()
        with pytest.raises(MemoryError_):
            mem.load(1 << 20, I32)


class TestGlobals:
    def test_layout_and_initializers(self):
        g1 = GlobalVariable("a", I32, 4, [1, 2, 3, 4])
        g2 = GlobalVariable("b", F64, 2, [0.5, 1.5])
        mem = make_memory([g1, g2])
        assert g1.address is not None and g2.address is not None
        assert g2.address >= g1.address + g1.size_bytes
        assert [mem.load(g1.address + 4 * i, I32) for i in range(4)] == [
            1, 2, 3, 4,
        ]
        assert [mem.load(g2.address + 8 * i, F64) for i in range(2)] == [
            0.5, 1.5,
        ]

    def test_alignment(self):
        g1 = GlobalVariable("odd", I8, 3)
        g2 = GlobalVariable("d", F64, 1)
        mem = make_memory([g1, g2])
        assert g2.address % 8 == 0

    def test_globals_placed_once(self):
        mem = make_memory()
        with pytest.raises(MemoryError_):
            mem.place_globals([])


class TestStackAndHeap:
    def test_frames_reuse_stack(self):
        mem = make_memory()
        token = mem.push_frame()
        a1 = mem.alloca(64)
        mem.pop_frame(token)
        token2 = mem.push_frame()
        a2 = mem.alloca(64)
        assert a1 == a2  # space was reclaimed

    def test_stack_overflow_detected(self):
        mem = make_memory()
        with pytest.raises(MemoryError_, match="stack overflow"):
            for _ in range(100):
                mem.alloca(1 << 10)

    def test_malloc_disjoint_from_stack(self):
        mem = make_memory()
        stack_addr = mem.alloca(32)
        heap_addr = mem.malloc(32)
        assert heap_addr > stack_addr
        mem.store(heap_addr, I64, 7)
        assert mem.load(heap_addr, I64) == 7

    def test_heap_exhaustion(self):
        mem = make_memory()
        with pytest.raises(MemoryError_, match="heap"):
            mem.malloc(1 << 22)

    def test_negative_malloc_rejected(self):
        mem = make_memory()
        with pytest.raises(MemoryError_):
            mem.malloc(-1)

    def test_alloca_aligned(self):
        mem = make_memory()
        mem.alloca(3)
        addr = mem.alloca(8)
        assert addr % 8 == 0


class TestErrorPaths:
    """Every fault class raises MemoryError_ with a diagnosable message."""

    def test_misaligned_load(self):
        mem = make_memory()
        addr = mem.alloca(16)  # 8-aligned
        with pytest.raises(MemoryError_, match="misaligned 4-byte"):
            mem.load(addr + 1, I32)

    def test_misaligned_store(self):
        mem = make_memory()
        addr = mem.alloca(16)
        with pytest.raises(MemoryError_, match="misaligned 8-byte"):
            mem.store(addr + 4, I64, 1)
        with pytest.raises(MemoryError_, match="misaligned 2-byte"):
            mem.store(addr + 3, I16, 1)

    def test_byte_access_never_misaligned(self):
        mem = make_memory()
        addr = mem.alloca(16)
        mem.store(addr + 3, I8, 7)
        assert mem.load(addr + 3, I8) == 7

    def test_naturally_aligned_access_passes(self):
        mem = make_memory()
        addr = mem.alloca(16)
        mem.store(addr + 4, I32, 9)
        assert mem.load(addr + 4, I32) == 9

    def test_oob_store_past_end(self):
        mem = make_memory()
        with pytest.raises(MemoryError_, match="out of range"):
            mem.store(mem.size - 2, I32, 1)  # aligned start, 2 bytes past end

    def test_oob_load_past_end(self):
        mem = make_memory()
        with pytest.raises(MemoryError_, match="out of range"):
            mem.load(mem.size, I8)

    def test_heap_oom_message_names_request(self):
        mem = make_memory()
        with pytest.raises(MemoryError_, match=r"heap exhausted \(requested"):
            mem.malloc(mem.size)


class TestInterpreterFaultTranslation:
    """Memory faults escaping a call frame surface as VMError (with the
    function name), never as a raw MemoryError_."""

    @staticmethod
    def _faulting_module(elem_size: int, index: int) -> Module:
        """fault() loads an I32 through ``gep(buf, index, elem_size)``."""
        m = Module("fault")
        m.add_global("buf", I8, 16, [0] * 16)
        f = m.declare_function("fault", I32, [])
        b = IRBuilder(f.add_block("entry"))
        p = b.gep(m.globals["buf"], b.i32(index), elem_size)
        b.ret(b.load(I32, p))
        return m

    def test_misaligned_access_becomes_vmerror(self):
        module = self._faulting_module(elem_size=1, index=1)  # buf+1, 4 bytes
        with pytest.raises(VMError, match="fault: misaligned 4-byte"):
            Interpreter(module).run("fault")

    def test_out_of_bounds_access_becomes_vmerror(self):
        module = self._faulting_module(elem_size=8, index=1 << 24)
        with pytest.raises(VMError, match="fault: .*out of range"):
            Interpreter(module).run("fault")
