"""Compiler driver: source text -> verified, optimized IR module.

Measures its own wall-clock time, which feeds the "Compilation to Bitcode /
real" column of Table I (the paper measured llvm-gcc -O3 the same way).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.frontend.codegen import generate_module
from repro.frontend.parser import parse_program
from repro.ir.module import Module
from repro.ir.passes import standard_pipeline
from repro.ir.verifier import verify_module


def count_loc(source: str) -> int:
    """Count non-blank, non-comment-only source lines (paper's LOC metric)."""
    loc = 0
    in_block_comment = False
    for raw in source.splitlines():
        line = raw.strip()
        if in_block_comment:
            if "*/" in line:
                in_block_comment = False
                line = line.split("*/", 1)[1].strip()
            else:
                continue
        if line.startswith("/*"):
            if "*/" not in line:
                in_block_comment = True
                continue
            line = line.split("*/", 1)[1].strip()
        if not line or line.startswith("//"):
            continue
        loc += 1
    return loc


@dataclass
class CompilationResult:
    """Outcome of compiling one application."""

    module: Module
    files: int
    loc: int
    compile_seconds: float
    pass_timings: list[tuple[str, float]] = field(default_factory=list)

    @property
    def basic_blocks(self) -> int:
        return self.module.basic_block_count

    @property
    def instructions(self) -> int:
        return self.module.instruction_count


def compile_files(
    sources: list[tuple[str, str]], module_name: str, opt_level: int = 2
) -> CompilationResult:
    """Compile ``[(filename, source), ...]`` into one optimized module."""
    start = time.perf_counter()
    programs = [(parse_program(src, fname), fname) for fname, src in sources]
    module = generate_module(programs, module_name)
    module.source_info = {
        "files": len(sources),
        "loc": sum(count_loc(src) for _, src in sources),
    }
    # Verified once after codegen; the pipeline verifies after every pass.
    verify_module(module)
    pipeline = standard_pipeline(opt_level)
    pipeline.run(module)
    elapsed = time.perf_counter() - start
    return CompilationResult(
        module=module,
        files=len(sources),
        loc=module.source_info["loc"],
        compile_seconds=elapsed,
        pass_timings=list(pipeline.timings),
    )


def compile_source(
    source: str, module_name: str = "module", opt_level: int = 2
) -> CompilationResult:
    """Compile a single source string."""
    return compile_files([(f"{module_name}.c", source)], module_name, opt_level)
