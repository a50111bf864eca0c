#!/usr/bin/env python3
"""Bring your own application: write MiniC, compare ISE algorithms.

Shows the library as a downstream user would adopt it: define a custom
application with its own data sets, profile it, and compare the three
identification algorithms (linear MAXMISO, union-of-MISOs, exponential
single-cut enumeration) on its hot code.

Run: python examples/custom_kernel.py
"""

import time

from repro.frontend import compile_source
from repro.ise import (
    CandidateSearch,
    MaxMisoIdentifier,
    SingleCutIdentifier,
    UnionMisoIdentifier,
)
from repro.vm import Interpreter
from repro.woolcano import WoolcanoMachine
from repro.util.tables import Table

# A Horner-scheme polynomial evaluator with a distance computation —
# two differently shaped FP kernels in one program.
SOURCE = """
double xs[256];
double ys[256];

double poly(double x) {
    // Horner: serial dependency chain (deep, narrow dataflow)
    return ((0.5 * x + 1.25) * x - 0.75) * x + 2.0;
}

int main() {
    int n = dataset_size();
    if (n < 16) n = 16;
    if (n > 256) n = 256;
    srand(dataset_seed());
    for (int i = 0; i < n; i++) {
        xs[i] = 0.01 * (double)(rand() % 200 - 100);
        ys[i] = 0.01 * (double)(rand() % 200 - 100);
    }
    double acc = 0.0;
    for (int it = 0; it < 25; it++) {
        for (int i = 0; i < n - 1; i++) {
            // distance-like expression: wide, parallel dataflow
            double dx = xs[i + 1] - xs[i];
            double dy = ys[i + 1] - ys[i];
            double d2 = dx * dx + dy * dy + 0.0001;
            acc += poly(xs[i]) / d2;
        }
    }
    print_f64(acc);
    return 0;
}
"""

ALGORITHMS = [
    ("maxmiso (paper)", MaxMisoIdentifier()),
    ("union-of-MISOs", UnionMisoIdentifier()),
    ("single-cut enum", SingleCutIdentifier(search_budget=20_000)),
]


def main() -> None:
    comp = compile_source(SOURCE, "custom")
    interp = Interpreter(comp.module, dataset_size=200, dataset_seed=99)
    run = interp.run("main")
    print(
        f"compiled {comp.loc} LOC, executed {run.steps} instructions, "
        f"result {run.output[0]:.4f}"
    )

    machine = WoolcanoMachine()
    table = Table(
        columns=["algorithm", "time [ms]", "candidates", "avg size", "ASIP ratio"],
        title="Identification algorithms on the custom kernel",
    )
    for label, identifier in ALGORITHMS:
        start = time.perf_counter()
        result = CandidateSearch(identifier=identifier).run(
            comp.module, run.profile
        )
        elapsed = (time.perf_counter() - start) * 1000
        speedup = machine.speedup(
            result.block_costs, run.profile, result.selected
        )
        table.add_row(
            [
                label,
                f"{elapsed:.2f}",
                result.candidate_count,
                f"{result.avg_candidate_size:.1f}",
                f"{speedup.ratio:.2f}x",
            ]
        )
    print()
    print(table.render())
    print(
        "\nNote how the deep Horner chain and the wide distance expression "
        "favour different algorithms: single-output MAXMISO captures the "
        "chain, multi-output enumeration can fuse the parallel terms."
    )


if __name__ == "__main__":
    main()
