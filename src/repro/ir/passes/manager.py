"""Pass manager: sequences passes and verifies the IR after each one.

The pipeline stands in for the LLVM -O stage of the paper's Figure 1
tool flow; per-pass timings feed the compile span of the trace output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.verifier import verify_module


class ModulePass:
    """Base class for passes that transform a whole module."""

    name = "module-pass"

    def run(self, module: Module) -> bool:
        """Transform *module*; return True if anything changed."""
        raise NotImplementedError


class FunctionPass(ModulePass):
    """Base class for passes applied function-by-function."""

    name = "function-pass"

    def run(self, module: Module) -> bool:
        changed = False
        for func in list(module.defined_functions()):
            changed |= self.run_on_function(func)
        return changed

    def run_on_function(self, func: Function) -> bool:
        raise NotImplementedError


@dataclass
class PassManager:
    """Runs a sequence of passes over a module, recording per-pass timings.

    The recorded wall-clock times feed the "Compilation to Bitcode / real"
    column of Table I (the reproduction measures its own compiler, as the
    paper measured llvm-gcc). The module is verified after every pass, so
    a broken invariant is reported against the pass that broke it.
    """

    passes: list[ModulePass] = field(default_factory=list)
    timings: list[tuple[str, float]] = field(default_factory=list)

    def add(self, pass_: ModulePass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def run(self, module: Module) -> bool:
        changed_any = False
        self.timings = []
        for pass_ in self.passes:
            start = time.perf_counter()
            changed = pass_.run(module)
            self.timings.append((pass_.name, time.perf_counter() - start))
            changed_any |= changed
            try:
                verify_module(module)
            except Exception as exc:
                raise RuntimeError(
                    f"IR verification failed after pass {pass_.name!r}: {exc}"
                ) from exc
        return changed_any

    @property
    def total_time(self) -> float:
        return sum(t for _, t in self.timings)
