"""Table III: constant per-candidate overheads of the tool flow.

Mean and standard deviation of C2V, Syn, Xst, Tra and Bitgen across every
candidate implemented for the whole suite, plus their sum — the cost of
implementing "even the most simple custom instruction".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.experiments.runner import analyze_suite
from repro.util.tables import Table


@dataclass
class Table3:
    """Per-stage mean/stdev over all implemented candidates."""

    means: dict[str, float]
    stdevs: dict[str, float]
    samples: int

    STAGES = ("c2v", "syn", "xst", "tra", "bitgen")

    @property
    def constant_sum(self) -> float:
        return sum(self.means[s] for s in self.STAGES)

    @property
    def bitgen_share(self) -> float:
        """Fraction of the constant overhead spent in Bitgen (~85 %)."""
        total = self.constant_sum
        return self.means["bitgen"] / total if total else 0.0

    def render(self) -> str:
        table = Table(
            columns=["", "C2V", "Syn", "Xst", "Tra", "Bitgen", "Sum"],
            title="Table III: constant ASIP-SP overheads [s]",
        )
        table.add_row(
            ["Average"]
            + [f"{self.means[s]:.2f}" for s in self.STAGES]
            + [f"{self.constant_sum:.2f}"]
        )
        table.add_row(
            ["Stdev"]
            + [f"{self.stdevs[s]:.2f}" for s in self.STAGES]
            + [""]
        )
        return table.render()


def table3_from(analyses) -> Table3:
    """Build Table III statistics from an already-analyzed app list.

    Used by :func:`generate_table3` (full suite) and by the fidelity
    harness (:mod:`repro.obs.fidelity`), which compares a subset of the
    suite against the paper's published constants.
    """
    stage_values: dict[str, list[float]] = {s: [] for s in Table3.STAGES}
    for analysis in analyses:
        for ci in analysis.specialization.implementations:
            t = ci.times
            stage_values["c2v"].append(t.c2v)
            stage_values["syn"].append(t.syn)
            stage_values["xst"].append(t.xst)
            stage_values["tra"].append(t.tra)
            stage_values["bitgen"].append(t.bitgen)

    means: dict[str, float] = {}
    stdevs: dict[str, float] = {}
    n = len(stage_values["c2v"])
    for stage, values in stage_values.items():
        if not values:
            means[stage] = 0.0
            stdevs[stage] = 0.0
            continue
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        means[stage] = mean
        stdevs[stage] = math.sqrt(var)
    return Table3(means=means, stdevs=stdevs, samples=n)


def generate_table3(jobs: int = 1, cache=None) -> Table3:
    return table3_from(analyze_suite(jobs=jobs, cache=cache))
