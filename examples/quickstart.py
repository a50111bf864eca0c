#!/usr/bin/env python3
"""Quickstart: the complete JIT instruction-set-extension flow in one page.

Compiles a small MiniC kernel, profiles it on the VM, searches for custom
instruction candidates, pushes the best one through the FPGA CAD flow, and
reports the resulting speedup and amortization story.

Run: python examples/quickstart.py
"""

from repro.frontend import compile_source
from repro.vm import Interpreter
from repro.ise import CandidateSearch
from repro.fpga import CadToolFlow
from repro.woolcano import WoolcanoMachine
from repro.util.timefmt import format_hms

SOURCE = """
double samples[128];
double weights[128];

int main() {
    int n = dataset_size();
    if (n < 16) n = 16;
    if (n > 128) n = 128;
    srand(dataset_seed());
    for (int i = 0; i < n; i++) {
        samples[i] = 0.001 * (double)(rand() % 2000 - 1000);
        weights[i] = 1.0 / (1.0 + (double)i);
    }
    double acc = 0.0;
    for (int it = 0; it < 40; it++) {
        for (int i = 1; i < n - 1; i++) {
            double v = samples[i] * weights[i]
                     + samples[i - 1] * 0.25
                     + samples[i + 1] * 0.25;
            acc += v * v - samples[i] * 0.125;
        }
    }
    print_f64(acc);
    return 0;
}
"""


def main() -> None:
    # 1. Compile to bitcode (the role of llvm-gcc in the paper).
    comp = compile_source(SOURCE, "quickstart")
    print(
        f"compiled: {comp.loc} LOC -> {comp.basic_blocks} blocks, "
        f"{comp.instructions} IR instructions in {comp.compile_seconds:.3f}s"
    )

    # 2. Execute on the profiling VM.
    interp = Interpreter(comp.module, dataset_size=96, dataset_seed=11)
    run = interp.run("main")
    print(f"program output: {run.output[0]:.6f}  ({run.steps} instructions executed)")

    # 3. Candidate search: pruning -> MAXMISO -> estimation -> selection.
    search = CandidateSearch().run(comp.module, run.profile)
    print(
        f"candidate search: {search.search_seconds * 1000:.2f} ms, "
        f"{search.candidate_count} candidates selected "
        f"(avg {search.avg_candidate_size:.1f} instructions each)"
    )
    for est in search.selected:
        c = est.candidate
        print(
            f"  #{c.index} {c.function}/{c.block}: {c.size} ops, "
            f"{len(c.inputs)} in / {len(c.outputs)} out, "
            f"SW {est.sw_cycles:.0f} cy -> HW {est.hw_cycles:.0f} cy "
            f"({est.local_speedup:.1f}x per execution)"
        )

    # 4. Implement the best candidate in "hardware".
    flow = CadToolFlow()
    impl = flow.implement(search.selected[0].candidate)
    t = impl.times
    print(f"\ngenerated VHDL entity {impl.entity_name} ({impl.vhdl.line_count} lines):")
    print("\n".join(impl.vhdl.source.splitlines()[:12]))
    print("  ...")
    print(
        f"tool flow (virtual): C2V {t.c2v:.1f}s  Syn {t.syn:.1f}s  "
        f"Xst {t.xst:.1f}s  Tra {t.tra:.1f}s  Map {format_hms(t.map)}  "
        f"PAR {format_hms(t.par)}  Bitgen {format_hms(t.bitgen)}  "
        f"=> total {format_hms(t.total)}"
    )
    print(
        f"partial bitstream: {impl.bitstream.size_bytes / 1e6:.2f} MB, "
        f"checksum {impl.bitstream.checksum}"
    )

    # 5. Whole-application speedup on the Woolcano machine.
    machine = WoolcanoMachine()
    speedup = machine.speedup(search.block_costs, run.profile, search.selected)
    print(f"\nASIP speedup with all candidates: {speedup.ratio:.2f}x")


if __name__ == "__main__":
    main()
