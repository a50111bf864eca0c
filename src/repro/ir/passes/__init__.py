"""Optimization passes over the IR.

The frontend's ``-O2``-style pipeline (mirroring what llvm-gcc -O3 did for
the paper) is assembled in :func:`standard_pipeline`. The passes matter for
the reproduction beyond cosmetics: mem2reg is what turns frontend
load/store soup into dataflow that the ISE algorithms can mine, and the
cleanup passes shape the basic-block statistics (size, instruction mix) that
drive the paper's conclusions.
"""

from repro.ir.passes.manager import FunctionPass, ModulePass, PassManager
from repro.ir.passes.mem2reg import Mem2RegPass
from repro.ir.passes.constfold import ConstantFoldPass
from repro.ir.passes.dce import DeadCodeEliminationPass
from repro.ir.passes.cse import CommonSubexpressionEliminationPass
from repro.ir.passes.simplifycfg import SimplifyCfgPass
from repro.ir.passes.inline import InlinePass
from repro.ir.passes.licm import LoopInvariantCodeMotionPass
from repro.ir.passes.utils import replace_all_uses


def standard_pipeline(opt_level: int = 2) -> PassManager:
    """Build the standard optimization pipeline.

    Level 0: no passes (the frontend still verifies codegen's output).
    Level 1: mem2reg + cleanup. Level 2 (default, what the experiments
    use): adds inlining, CSE and LICM with a second cleanup round.
    """
    pm = PassManager()
    if opt_level >= 1:
        pm.add(Mem2RegPass())
        pm.add(ConstantFoldPass())
        pm.add(SimplifyCfgPass())
        pm.add(DeadCodeEliminationPass())
    if opt_level >= 2:
        pm.add(InlinePass())
        pm.add(Mem2RegPass())
        pm.add(ConstantFoldPass())
        pm.add(CommonSubexpressionEliminationPass())
        pm.add(LoopInvariantCodeMotionPass())
        pm.add(ConstantFoldPass())
        pm.add(CommonSubexpressionEliminationPass())
        pm.add(DeadCodeEliminationPass())
        pm.add(SimplifyCfgPass())
        pm.add(DeadCodeEliminationPass())
    return pm


__all__ = [
    "FunctionPass",
    "ModulePass",
    "PassManager",
    "Mem2RegPass",
    "ConstantFoldPass",
    "DeadCodeEliminationPass",
    "CommonSubexpressionEliminationPass",
    "SimplifyCfgPass",
    "InlinePass",
    "LoopInvariantCodeMotionPass",
    "replace_all_uses",
    "standard_pipeline",
]
