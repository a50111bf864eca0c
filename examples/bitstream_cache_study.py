#!/usr/bin/env python3
"""Bitstream caching and faster-CAD extrapolation (paper Section VI).

Reproduces the Table IV methodology for a single application: populate the
partial-bitstream cache at varying hit rates, scale the CAD flow, and chart
how the break-even time responds.

Run: python examples/bitstream_cache_study.py [app-name]
"""

import math
import sys

from repro.apps import compile_app, get_app
from repro.core import AsipSpecializationProcess, BreakEvenModel, CacheSimulation
from repro.core.cache import BitstreamCache
from repro.profiling import classify_blocks
from repro.util.tables import Table
from repro.util.timefmt import format_hhmmss


def main() -> None:
    app_name = sys.argv[1] if len(sys.argv) > 1 else "sor"
    spec = get_app(app_name)
    compiled = compile_app(spec)
    profiles = {ds.name: compiled.run(ds).profile for ds in spec.datasets}
    coverage = classify_blocks(compiled.module, list(profiles.values()))
    train = profiles["train"]

    report = AsipSpecializationProcess().run(compiled.module, train)
    print(
        f"{spec.name}: {report.candidate_count} candidates, "
        f"tool flow {report.toolflow_seconds / 60:.1f} min"
    )

    # Demonstrate the cache itself: re-specializing the same application
    # hits on every structurally identical candidate.
    cache = BitstreamCache()
    for ci in report.implementations:
        sig = ci.estimate.candidate.signature
        if cache.get(sig) is None:
            cache.put(sig, ci.implementation.bitstream)
    for ci in report.implementations:
        assert cache.get(ci.estimate.candidate.signature) is not None
    print(
        f"cache after one specialization: {len(cache)} unique bitstreams, "
        f"hit rate on re-run {cache.hit_rate:.0%}"
    )

    # Table IV protocol for this one application.
    sim = CacheSimulation()
    model = BreakEvenModel()
    table = Table(
        columns=["Cache hit [%]", "CAD +0%", "CAD +30%", "CAD +60%", "CAD +90%"],
        title=f"Break-even time for {spec.name} [h:m:s]",
    )
    for hit in range(0, 100, 10):
        cells = [str(hit)]
        for speedup in (0, 30, 60, 90):
            toolflow = sim.average_effective_seconds(report, hit, trials=16)
            overhead = (
                report.search.search_seconds
                + toolflow * (1.0 - speedup / 100.0)
                + report.reconfiguration_seconds
            )
            analysis = model.analyze(
                report.search.block_costs,
                train,
                coverage,
                report.search.selected,
                overhead,
            )
            value = analysis.live_aware_seconds
            cells.append(format_hhmmss(value) if math.isfinite(value) else "never")
        table.add_row(cells)
    print()
    print(table.render())


if __name__ == "__main__":
    main()
