"""Modules: the top-level IR container (globals + functions).

A module is the unit the paper's tool flow compiles, profiles and
specializes (Figure 1).
"""

from __future__ import annotations

from typing import Iterator

from repro.ir.function import Function
from repro.ir.types import Type
from repro.ir.values import GlobalVariable


class Module:
    """A translation unit: named functions and global variables.

    The compiler produces one module per application; the VM loads a module
    and lays out its globals in memory before execution.
    """

    __slots__ = ("name", "functions", "globals", "source_info", "code_cache")

    def __init__(self, name: str) -> None:
        self.name = name
        self.functions: dict[str, Function] = {}
        self.globals: dict[str, GlobalVariable] = {}
        # Populated by the frontend: {"files": int, "loc": int}
        self.source_info: dict[str, int] = {}
        # Populated by the VM: (unit source, filename) -> code object, so
        # every interpreter of this module compiles a given unit once (see
        # repro.vm.interpreter). It dies with the module.
        self.code_cache: dict[tuple[str, str], object] = {}

    # Code objects do not pickle: a pickled or copied module starts with an
    # empty code cache.
    def __getstate__(self) -> dict:
        return {
            name: getattr(self, name) for name in self.__slots__ if name != "code_cache"
        }

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self.code_cache = {}

    # -- construction ----------------------------------------------------------
    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError(f"duplicate function {func.name!r} in module {self.name}")
        func.parent = self
        self.functions[func.name] = func
        return func

    def declare_function(
        self, name: str, return_type: Type, arg_types: list[tuple[str, Type]]
    ) -> Function:
        return self.add_function(Function(name, return_type, arg_types))

    def add_global(
        self,
        name: str,
        elem_type: Type,
        count: int = 1,
        initializer: list | None = None,
    ) -> GlobalVariable:
        if name in self.globals:
            raise ValueError(f"duplicate global {name!r} in module {self.name}")
        gv = GlobalVariable(name, elem_type, count, initializer)
        self.globals[name] = gv
        return gv

    # -- queries -----------------------------------------------------------
    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise KeyError(f"no function {name!r} in module {self.name}") from None

    def defined_functions(self) -> Iterator[Function]:
        return (f for f in self.functions.values() if not f.is_declaration)

    @property
    def basic_block_count(self) -> int:
        return sum(len(f.blocks) for f in self.functions.values())

    @property
    def instruction_count(self) -> int:
        return sum(f.instruction_count for f in self.functions.values())

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Module {self.name}: {len(self.functions)} functions, "
            f"{self.basic_block_count} blocks, {self.instruction_count} instrs>"
        )
