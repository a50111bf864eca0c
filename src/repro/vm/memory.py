"""Flat byte-addressable VM memory.

Globals are laid out at load time; each call frame gets a bump-allocated
stack region for allocas; ``malloc`` draws from a heap region. Scalar
loads/stores go through one per-type :class:`Accessor` table of
precompiled ``struct.Struct`` objects, which the interpreter's block
compiler binds as well, so fixed-width semantics are written once.

Layout (addresses are plain ints; address 0 is reserved as NULL):

    [0 .. globals_end)     globals
    [globals_end .. heap)  stack (grows upward, per-frame bump regions)
    [heap .. size)         heap (bump allocator, no free-list)

Gives the interpreter — the paper's VM stand-in (Figure 1) — concrete
C memory semantics so the benchmark kernels behave like their native
counterparts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.ir.types import Type
from repro.ir.values import GlobalVariable


class MemoryError_(Exception):
    """VM memory fault (out-of-range access, overflow)."""


@dataclass(frozen=True)
class Accessor:
    """Typed scalar access: byte width, precompiled structs, wrap rules.

    Loads unpack with the signed/float format; an i1 load keeps only its
    low bit (``load_mask``). Stores pack the value masked to the type's
    width (``store_mask``) with the matching *unsigned* format, which
    writes the same bytes as packing the two's-complement wrapped value;
    float stores pack as-is, so an f32 store rounds to single precision.
    """

    nbytes: int
    load: struct.Struct
    store: struct.Struct
    load_mask: int | None
    store_mask: int | None


def _accessor(load_fmt: str, store_fmt: str, load_mask=None, store_mask=None):
    load = struct.Struct("<" + load_fmt)
    return Accessor(
        load.size, load, struct.Struct("<" + store_fmt), load_mask, store_mask
    )


#: (type kind, bits) -> Accessor, built once at import.
ACCESSORS: dict[tuple[str, int], Accessor] = {
    ("int", 1): _accessor("b", "B", load_mask=1, store_mask=1),
    ("int", 8): _accessor("b", "B", store_mask=0xFF),
    ("int", 16): _accessor("h", "H", store_mask=0xFFFF),
    ("int", 32): _accessor("i", "I", store_mask=0xFFFFFFFF),
    ("int", 64): _accessor("q", "Q", store_mask=(1 << 64) - 1),
    ("float", 32): _accessor("f", "f"),
    ("float", 64): _accessor("d", "d"),
    ("ptr", 64): _accessor("q", "Q", store_mask=(1 << 64) - 1),
}


def accessor(ty: Type) -> Accessor:
    """The :class:`Accessor` for scalar type *ty*."""
    return ACCESSORS[(ty.kind, ty.bits)]


class Memory:
    """Flat memory with stack and heap bump allocators."""

    def __init__(self, size: int = 1 << 22, stack_size: int = 1 << 20) -> None:
        self.size = size
        self.data = bytearray(size)
        self._globals_end = 8  # keep NULL + a small red zone
        self._stack_base = 0
        self._stack_ptr = 0
        self._heap_base = 0
        self._heap_ptr = 0
        self._stack_size = stack_size
        self._finalized = False

    # -- layout ------------------------------------------------------------
    def place_globals(self, globals_: list[GlobalVariable]) -> None:
        """Assign addresses to globals and write initializers."""
        if self._finalized:
            raise MemoryError_("globals already placed")
        addr = self._globals_end
        for gv in globals_:
            # 8-byte align every global.
            addr = (addr + 7) & ~7
            gv.address = addr
            if gv.initializer is not None:
                self._write_initializer(gv, addr)
            addr += gv.size_bytes
        self._globals_end = addr
        self._stack_base = (addr + 15) & ~15
        self._stack_ptr = self._stack_base
        self._heap_base = self._stack_base + self._stack_size
        self._heap_ptr = self._heap_base
        if self._heap_base >= self.size:
            raise MemoryError_("memory too small for globals + stack")
        self._finalized = True

    def _write_initializer(self, gv: GlobalVariable, addr: int) -> None:
        elem = gv.elem_type
        for i, value in enumerate(gv.initializer or []):
            self.store(addr + i * elem.size_bytes, elem, value)

    # -- allocation --------------------------------------------------------
    def push_frame(self) -> int:
        """Mark the current stack position; returns a token for pop_frame."""
        return self._stack_ptr

    def pop_frame(self, token: int) -> None:
        self._stack_ptr = token

    def alloca(self, size_bytes: int) -> int:
        addr = (self._stack_ptr + 7) & ~7
        new_ptr = addr + size_bytes
        if new_ptr > self._stack_base + self._stack_size:
            raise MemoryError_("VM stack overflow")
        self._stack_ptr = new_ptr
        return addr

    def malloc(self, size_bytes: int) -> int:
        if size_bytes < 0:
            raise MemoryError_("negative malloc")
        addr = (self._heap_ptr + 7) & ~7
        new_ptr = addr + size_bytes
        if new_ptr > self.size:
            raise MemoryError_(
                f"VM heap exhausted (requested {size_bytes} bytes)"
            )
        self._heap_ptr = new_ptr
        return addr

    # -- access ------------------------------------------------------------
    def _check(self, addr: int, nbytes: int) -> None:
        if addr < 8 or addr + nbytes > self.size:
            raise MemoryError_(f"access at {addr} ({nbytes} bytes) out of range")
        # Natural alignment, as the PPC405 bus would require for scalars.
        # Globals and allocas are 8-aligned and GEP scales by element size,
        # so well-formed programs never trip this.
        if nbytes > 1 and addr % nbytes:
            raise MemoryError_(
                f"misaligned {nbytes}-byte access at {addr}"
            )

    def load(self, addr: int, ty: Type):
        acc = accessor(ty)
        self._check(addr, acc.nbytes)
        (value,) = acc.load.unpack_from(self.data, addr)
        if acc.load_mask is not None:
            value &= acc.load_mask
        return value

    def store(self, addr: int, ty: Type, value) -> None:
        acc = accessor(ty)
        self._check(addr, acc.nbytes)
        if acc.store_mask is not None:
            value = int(value) & acc.store_mask
        acc.store.pack_into(self.data, addr, value)
