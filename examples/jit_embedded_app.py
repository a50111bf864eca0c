#!/usr/bin/env python3
"""Just-in-time ASIP specialization of a real benchmark application.

Drives the paper's Figure-1 flow end-to-end on the `fft` application from
the embedded suite: VM execution with profiling, concurrent ASIP
specialization, binary patching, and the amortization analysis (when does
the FPGA tool-flow overhead pay for itself?).

Run: python examples/jit_embedded_app.py [app-name]
"""

import sys

from repro.apps import compile_app, get_app
from repro.core import AsipSpecializationProcess, BreakEvenModel, JitIseSystem
from repro.profiling import classify_blocks, compute_kernel
from repro.util.timefmt import format_dhms, format_hms


def main() -> None:
    app_name = sys.argv[1] if len(sys.argv) > 1 else "fft"
    spec = get_app(app_name)
    print(f"application: {spec.name} ({spec.domain}) — {spec.description}")

    compiled = compile_app(spec)
    comp = compiled.compilation
    print(
        f"compiled {comp.files} files / {comp.loc} LOC -> "
        f"{comp.basic_blocks} blocks, {comp.instructions} instructions"
    )

    # Profile under every data set (needed for live/dead/const coverage).
    profiles = {ds.name: compiled.run(ds).profile for ds in spec.datasets}
    train = profiles["train"]
    coverage = classify_blocks(compiled.module, list(profiles.values()))
    kernel = compute_kernel(compiled.module, train)
    print(
        f"coverage: {coverage.live_pct:.1f}% live, {coverage.dead_pct:.1f}% dead, "
        f"{coverage.const_pct:.1f}% const; kernel = {kernel.size_pct:.1f}% of the "
        f"code for {kernel.freq_pct:.1f}% of the time"
    )

    # The ASIP specialization process (Figure 2).
    asip_sp = AsipSpecializationProcess()
    report = asip_sp.run(compiled.module, train)
    print(
        f"\ncandidate search: {report.search.search_seconds * 1000:.2f} ms -> "
        f"{report.candidate_count} custom instructions"
    )
    print(
        f"hardware generation: const {format_hms(report.const_seconds)}, "
        f"map {format_hms(report.map_seconds)}, par {format_hms(report.par_seconds)} "
        f"=> {format_hms(report.toolflow_seconds)} total"
    )
    print(
        f"partial reconfiguration: {report.reconfiguration_seconds * 1000:.1f} ms "
        f"for {len(report.reconfigurations)} bitstreams"
    )

    # Break-even analysis (Section V-D).
    analysis = BreakEvenModel().analyze(
        report.search.block_costs,
        train,
        coverage,
        report.search.selected,
        report.total_overhead_seconds,
    )
    if analysis.reachable:
        print(
            f"break-even after {format_dhms(analysis.live_aware_seconds)} "
            f"(d:h:m:s) of continued execution"
        )
    else:
        print("break-even: never (no live-code savings)")

    # End-to-end adaptation check: patched binary must behave identically.
    system = JitIseSystem()
    fresh = compile_app(spec)
    result = system.run_application(
        fresh.compilation,
        dataset_size=spec.train.size,
        dataset_seed=spec.train.seed,
    )
    status = "identical" if result.output_equal else "DIFFERENT (bug!)"
    print(
        f"\nadaptation: ASIP ratio {result.asip_ratio:.2f}x, VM/native "
        f"{result.runtime.ratio:.2f}, patched output {status}"
    )


if __name__ == "__main__":
    main()
