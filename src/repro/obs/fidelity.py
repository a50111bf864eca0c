"""Reproduction-fidelity harness: compare a run against the paper's numbers.

The paper publishes concrete table cells (Tables I-IV of Grad & Plessl,
RAW/IPDPS 2011); this module holds those golden values, runs the analysis
suite, and compares cell-by-cell under per-column tolerances, emitting a
machine-readable ``BENCH_*.json`` report so the bench trajectory has data
points and regressions become diffable.

Three kinds of cells:

- **checked** (``mode`` "rel"/"max"/"min") — must hold for the run to pass:
  the Table III constants the timing model is calibrated to, structural
  invariants (kernel freq >= 90 % by construction, candidate search in
  milliseconds), and headline bounds (embedded break-even under two hours);
- **info** (``mode`` "info") — recorded with their relative error but never
  failing: the shape-level Table I/II aggregates where the reproduction
  deliberately deviates in magnitude (see EXPERIMENTS.md);
- the optional Table IV extrapolation factor (``--full``), checking the
  paper's "caching + faster CAD roughly halve break-even" claim.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

# -- golden values from the paper ---------------------------------------------
#: Table III constant stage overheads, mean and stdev in seconds.
PAPER_TABLE3_MEAN: dict[str, float] = {
    "c2v": 3.22,
    "syn": 4.22,
    "xst": 10.60,
    "tra": 8.99,
    "bitgen": 151.00,
}
PAPER_TABLE3_STD: dict[str, float] = {
    "c2v": 0.10,
    "syn": 0.10,
    "xst": 0.23,
    "tra": 1.22,
    "bitgen": 2.43,
}
PAPER_TABLE3_SUM = 178.03
PAPER_BITGEN_SHARE = 0.85  # "~85 %" of the constant overhead (Section V-C)
PAPER_FULL_BITSTREAM_S = 41.0  # non-EAPR full-device bitstream (Section V-C)

#: Per-stage relative tolerance on the Table III means. The model is
#: calibrated to these constants but a fidelity run measures them over the
#: (seeded) per-candidate noise of one domain's candidate set, so stages
#: with larger stdev get more slack (Tra: sigma/mean ~ 14 %).
TABLE3_MEAN_TOL: dict[str, float] = {
    "c2v": 0.10,
    "syn": 0.10,
    "xst": 0.10,
    "tra": 0.15,
    "bitgen": 0.05,
}

#: Table I / II domain averages as published (AVG-S / AVG-E rows). These are
#: *shape* references — our stand-in applications reproduce direction, not
#: magnitude — so they enter the report as info cells only.
PAPER_AVERAGES: dict[str, dict[str, float]] = {
    "scientific": {
        "vm_ratio": 1.14,
        "asip_upper_ratio": 1.71,
        "asip_pruned_ratio": 1.20,
        "kernel_size_pct": 15.1,
        "kernel_freq_pct": 94.2,
        "search_ms": 3.80,
        "candidates": 49,
        "const_s": 146 * 60 + 34,
        "toolflow_s": 270 * 60 + 28,
        "break_even_s": 881 * 86400.0,
    },
    "embedded": {
        "vm_ratio": 1.01,
        "asip_upper_ratio": 7.21,
        "asip_pruned_ratio": 4.98,
        "kernel_size_pct": 26.3,
        "kernel_freq_pct": 95.7,
        "search_ms": 0.60,
        "candidates": 8,
        "const_s": 24 * 60 + 28,
        "toolflow_s": 49 * 60 + 53,
        "break_even_s": 3600 + 59 * 60 + 55,  # 01:59:55
    },
}

#: Paper headline bounds, checked when the domain is covered by the run.
EMBEDDED_BREAK_EVEN_MAX_S = 2 * 3600.0  # "break even time of less than 2 hours"
SEARCH_SECONDS_MAX = 0.1  # candidate search is milliseconds, not seconds
KERNEL_FREQ_MIN_PCT = 90.0  # by construction of the 90 % threshold

#: Table IV: 30 % cache hits + 30 % faster CAD cut break-even "almost by a
#: half, 1.94x".
PAPER_TABLE4_FACTOR_30_30 = 1.94


@dataclass
class CellCheck:
    """One golden-reference comparison."""

    table: str  # "I", "II", "III", "IV" or "struct"
    row: str
    column: str
    expected: float
    actual: float
    mode: str = "rel"  # "rel" | "max" | "min" | "info"
    rel_tol: float | None = None
    note: str = ""

    @property
    def rel_error(self) -> float | None:
        if not math.isfinite(self.actual) or not math.isfinite(self.expected):
            return None
        if self.expected == 0.0:
            return None
        return abs(self.actual - self.expected) / abs(self.expected)

    @property
    def passed(self) -> bool | None:
        """True/False for checked cells, None for info cells."""
        if self.mode == "info":
            return None
        if not math.isfinite(self.actual):
            return False
        if self.mode == "max":
            return self.actual <= self.expected
        if self.mode == "min":
            return self.actual >= self.expected
        err = self.rel_error
        return err is not None and err <= (self.rel_tol or 0.0)

    def as_dict(self) -> dict:
        return {
            "table": self.table,
            "row": self.row,
            "column": self.column,
            "mode": self.mode,
            "expected": self.expected,
            "actual": self.actual if math.isfinite(self.actual) else None,
            "rel_tol": self.rel_tol,
            "rel_error": self.rel_error,
            "passed": self.passed,
            "note": self.note,
        }


@dataclass
class FidelityReport:
    """Cell-by-cell comparison of one run against the paper."""

    domain: str
    cells: list[CellCheck] = field(default_factory=list)
    wall_seconds: float = 0.0
    apps: list[str] = field(default_factory=list)

    @property
    def checked(self) -> list[CellCheck]:
        return [c for c in self.cells if c.mode != "info"]

    @property
    def failures(self) -> list[CellCheck]:
        return [c for c in self.checked if c.passed is False]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "schema": "repro-fidelity/1",
            "paper": "Grad & Plessl, JIT Instruction Set Extension (RAW/IPDPS 2011)",
            "domain": self.domain,
            "apps": self.apps,
            "ok": self.ok,
            "checked": len(self.checked),
            "passed": sum(1 for c in self.checked if c.passed),
            "failed": len(self.failures),
            "info": sum(1 for c in self.cells if c.mode == "info"),
            "wall_seconds": self.wall_seconds,
            "cells": [c.as_dict() for c in self.cells],
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def render(self) -> str:
        from repro.util.tables import Table

        table = Table(
            columns=["table", "cell", "expected", "actual", "err %", "status"],
            title=f"Fidelity vs. paper ({self.domain}, {len(self.apps)} apps)",
        )
        for c in self.cells:
            err = c.rel_error
            status = {True: "pass", False: "FAIL", None: "info"}[c.passed]
            op = {"max": "<=", "min": ">="}.get(c.mode, "")
            table.add_row(
                [
                    c.table,
                    f"{c.row}/{c.column}",
                    f"{op}{c.expected:g}",
                    f"{c.actual:g}" if math.isfinite(c.actual) else "inf",
                    f"{100.0 * err:.1f}" if err is not None else "-",
                    status,
                ]
            )
        table.add_footer(
            [
                "total",
                f"{len(self.cells)} cells",
                "",
                "",
                "",
                f"{sum(1 for c in self.checked if c.passed)}/"
                f"{len(self.checked)} pass",
            ]
        )
        return table.render()


def _finite_mean(values: list[float]) -> float:
    finite = [v for v in values if math.isfinite(v)]
    return sum(finite) / len(finite) if finite else math.inf


def fidelity_from_analyses(
    analyses, domain: str = "embedded", include_table4: bool = False
) -> FidelityReport:
    """Compare already-computed :class:`AppAnalysis` results to the paper."""
    from repro.experiments.table3 import table3_from

    report = FidelityReport(domain=domain, apps=[a.name for a in analyses])
    cells = report.cells

    # -- Table III: the calibrated constants (strict) -------------------------
    t3 = table3_from(analyses)
    for stage, paper_mean in PAPER_TABLE3_MEAN.items():
        cells.append(
            CellCheck(
                "III", "Average", stage.capitalize(), paper_mean,
                t3.means[stage], mode="rel", rel_tol=TABLE3_MEAN_TOL[stage],
                note=f"over {t3.samples} implemented candidates",
            )
        )
        cells.append(
            CellCheck(
                "III", "Stdev", stage.capitalize(), PAPER_TABLE3_STD[stage],
                t3.stdevs[stage], mode="info",
            )
        )
    cells.append(
        CellCheck(
            "III", "Average", "Sum", PAPER_TABLE3_SUM, t3.constant_sum,
            mode="rel", rel_tol=0.05,
        )
    )
    cells.append(
        CellCheck(
            "III", "share", "Bitgen", PAPER_BITGEN_SHARE, t3.bitgen_share,
            mode="rel", rel_tol=0.10, note="Bitgen dominates (~85 %)",
        )
    )

    from repro.fpga.timingmodel import CadTimingModel

    cells.append(
        CellCheck(
            "III", "full", "Bitgen", PAPER_FULL_BITSTREAM_S,
            CadTimingModel().full_bitstream_seconds(),
            mode="rel", rel_tol=0.05, note="non-EAPR full-device bitstream",
        )
    )

    # -- structural invariants (strict) ---------------------------------------
    for a in analyses:
        cells.append(
            CellCheck(
                "struct", a.name, "kernel freq %", KERNEL_FREQ_MIN_PCT,
                a.kernel.freq_pct, mode="min",
                note="90 % kernel threshold (Section IV-C)",
            )
        )
        cells.append(
            CellCheck(
                "struct", a.name, "search [s]", SEARCH_SECONDS_MAX,
                a.search_pruned.search_seconds, mode="max",
                note="candidate search is milliseconds (Table II)",
            )
        )

    # -- Table I / II domain aggregates ---------------------------------------
    for dom in ("scientific", "embedded"):
        rows = [a for a in analyses if a.domain == dom]
        if not rows:
            continue
        paper = PAPER_AVERAGES[dom]
        n = len(rows)
        measured = {
            "vm_ratio": sum(a.runtime.ratio for a in rows) / n,
            "asip_upper_ratio": sum(a.asip_max.ratio for a in rows) / n,
            "asip_pruned_ratio": sum(a.asip_pruned.ratio for a in rows) / n,
            "kernel_size_pct": sum(a.kernel.size_pct for a in rows) / n,
            "kernel_freq_pct": sum(a.kernel.freq_pct for a in rows) / n,
            "search_ms": sum(
                a.search_pruned.search_seconds * 1000.0 for a in rows
            ) / n,
            "candidates": sum(
                a.specialization.candidate_count for a in rows
            ) / n,
            "const_s": sum(a.specialization.const_seconds for a in rows) / n,
            "toolflow_s": sum(
                a.specialization.toolflow_seconds for a in rows
            ) / n,
            "break_even_s": _finite_mean(
                [a.breakeven.live_aware_seconds for a in rows]
            ),
        }
        label = "AVG-S" if dom == "scientific" else "AVG-E"
        for column, value in measured.items():
            cells.append(
                CellCheck(
                    "I/II", label, column, paper[column], value, mode="info"
                )
            )
        if dom == "embedded":
            cells.append(
                CellCheck(
                    "II", label, "break even [s]", EMBEDDED_BREAK_EVEN_MAX_S,
                    measured["break_even_s"], mode="max",
                    note="headline: embedded amortize in under two hours",
                )
            )

    # -- Table IV extrapolation factor (optional, needs the embedded suite) ---
    if include_table4 and any(a.domain == "embedded" for a in analyses):
        from repro.experiments.table4 import generate_table4

        grid = generate_table4().grid
        base = grid.at(0, 0)
        improved = grid.at(30, 30)
        factor = base / improved if improved > 0 else math.inf
        cells.append(
            CellCheck(
                "IV", "0/0 vs 30/30", "factor", PAPER_TABLE4_FACTOR_30_30,
                factor, mode="rel", rel_tol=0.10,
                note="caching + faster CAD halve embedded break-even",
            )
        )
    return report


def run_fidelity(
    domain: str = "embedded",
    out=None,
    include_table4: bool = False,
    jobs: int = 1,
    cache=None,
) -> FidelityReport:
    """Run the analysis suite for *domain* and compare it to the paper.

    ``domain`` is "embedded", "scientific" or "all". When *out* is given the
    report is also written there as ``BENCH_*.json``. *jobs*/*cache* are
    forwarded to the suite runner; they change the wall clock,
    not the compared cells.
    """
    from repro.experiments.runner import analyze_suite
    from repro.obs.tracer import get_tracer

    if domain not in ("embedded", "scientific", "all"):
        raise ValueError(f"unknown domain {domain!r}")
    t0 = time.perf_counter()
    with get_tracer().span("fidelity.run", domain=domain):
        analyses = analyze_suite(
            None if domain == "all" else domain,
            jobs=jobs,
            cache=cache,
        )
        report = fidelity_from_analyses(
            analyses, domain=domain, include_table4=include_table4
        )
    report.wall_seconds = time.perf_counter() - t0
    if out is not None:
        report.write(out)
    from repro.obs.ledger import current_run

    recorder = current_run()
    if recorder is not None:
        recorder.attach_fidelity(report)
        if out is not None:
            recorder.artifacts.setdefault("fidelity_report", str(out))
    return report


def default_report_path(domain: str) -> str:
    return f"BENCH_fidelity_{domain}.json"
