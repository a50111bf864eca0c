"""End-to-end JIT ISE system (Figure 1).

:class:`JitIseSystem` drives one application through the complete flow:

1. compile source to bitcode (traditional-compiler half of Figure 1),
2. execute on the VM with profiling,
3. run the ASIP specialization process concurrently (modelled: the VM keeps
   executing at software speed until the bitstreams are ready),
4. **adapt**: reconfigure the fabric and patch the binary to use the new
   custom instructions,
5. re-execute and verify output equivalence; report speedups and overheads.

Also provides textual renderings of the paper's two structural figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.asip_sp import AsipSpecializationProcess, SpecializationReport
from repro.frontend.compiler import CompilationResult
from repro.ir.verifier import verify_module
from repro.obs import get_tracer
from repro.vm.interpreter import ExecutionResult, Interpreter
from repro.vm.jitruntime import JitRuntimeModel, RuntimeEstimate
from repro.vm.patcher import BinaryPatcher
from repro.vm.profiler import static_block_costs
from repro.woolcano.machine import AsipSpeedup, WoolcanoMachine


@dataclass
class AdaptationResult:
    """Outcome of the adaptation phase for one application."""

    compilation: CompilationResult
    baseline: ExecutionResult
    adapted: ExecutionResult
    runtime: RuntimeEstimate
    specialization: SpecializationReport
    speedup: AsipSpeedup
    output_equal: bool

    @property
    def asip_ratio(self) -> float:
        return self.speedup.ratio


@dataclass
class JitIseSystem:
    """A configured just-in-time instruction-set-extension system."""

    asip_sp: AsipSpecializationProcess = field(
        default_factory=AsipSpecializationProcess
    )
    machine: WoolcanoMachine = field(default_factory=WoolcanoMachine)
    runtime_model: JitRuntimeModel = field(default_factory=JitRuntimeModel)

    def run_application(
        self,
        compilation: CompilationResult,
        entry: str = "main",
        args: list | None = None,
        dataset_size: int = 0,
        dataset_seed: int = 1,
    ) -> AdaptationResult:
        module = compilation.module
        tracer = get_tracer()
        with tracer.span("pipeline.run", app=module.name, entry=entry):
            # VM execution with profiling (the "VM" path of Figure 1).
            with tracer.span("pipeline.baseline") as sp:
                baseline = Interpreter(
                    module, dataset_size=dataset_size, dataset_seed=dataset_seed
                ).run(entry, args)
                sp.set_attr("steps", baseline.steps)
            runtime = self.runtime_model.estimate(module, baseline.profile)

            # ASIP specialization runs concurrently with execution.
            with tracer.span("pipeline.specialize") as sp:
                report = self.asip_sp.run(module, baseline.profile)
                sp.set_attrs(
                    candidates=report.candidate_count,
                    failed=len(report.failed),
                )

            # Speedup accounting must read the *unpatched* module (the patched
            # one contains CUSTOM instructions the base cost model cannot
            # price).
            speedup = self.machine.speedup(
                static_block_costs(module, self.machine.cost_model),
                baseline.profile,
                [ci.estimate for ci in report.implementations],
            )

            # Adaptation: patch the binary to use the custom instructions.
            with tracer.span("pipeline.adapt") as sp:
                patcher = BinaryPatcher()
                patcher.patch_module(
                    module,
                    [ci.estimate.candidate for ci in report.implementations],
                )
                sp.set_attr("custom_instructions", report.candidate_count)
            with tracer.span("pipeline.verify") as sp:
                verify_module(module)
                interp = Interpreter(
                    module, dataset_size=dataset_size, dataset_seed=dataset_seed
                )
                patcher.install(interp)
                adapted = interp.run(entry, args)
                output_equal = baseline.output == adapted.output
                sp.set_attr("output_equal", output_equal)
        return AdaptationResult(
            compilation=compilation,
            baseline=baseline,
            adapted=adapted,
            runtime=runtime,
            specialization=report,
            speedup=speedup,
            output_equal=baseline.output == adapted.output,
        )


FIGURE1 = """\
                 source code
                      |
        +-------------+--------------+
        |                            |
  Traditional Compiler (TC)     bitcode (IR)
  - static translation               |
  - tools: linker, assembler    Virtual Machine (VM)
        |                       - interpretation (eval)
   machine code                 - dynamic translation (JIT)
        |                       - info: runtime, profile
   CPU execution                - optimizations: hotspot, ...
                                     |
                         +-----------+-----------+
                         |                       |
                   CPU execution        ASIP Specialization
                (PowerPC-405 core)           Process
                         |                       |
                         +-----------------------+
                                     |
                    Woolcano architecture: PowerPC-405
                    + HW Custom Instructions (CI)
"""

FIGURE2 = """\
  bitcode (IR)
      |
  [ Candidate Search ]
      |  Pruner (@50pS3L)
      |  Identification (ISE algorithms: MAXMISO)
      |  Estimation (PivPav)
      |  Selection
      v
  [ PivPav Netlist Generation ]        (struct. VHDL)
      |  Generate VHDL
      |  Extract Netlists
      |  Create Project
      v
  [ PivPav Instruction Impl. ]
      |  Check Syntax
      |  Synthesis
      |  Translate
      |  Map & PAR
      v
  [ Partial Reconfiguration ] -> Bitstream
"""


def render_figure1() -> str:
    """Textual rendering of the paper's Figure 1 (tool-flow overview)."""
    return FIGURE1


def render_figure2() -> str:
    """Textual rendering of the paper's Figure 2 (ASIP-SP phases)."""
    return FIGURE2
