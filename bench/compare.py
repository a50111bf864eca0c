"""Verdicts for a change's runs against its parent's runs.

    python -m bench compare PARENT.json CHANGE.json

Both files come from ``python -m bench run --out FILE``; make them by
alternating parent and change runs, switching which side goes first.
Per (metric, workload), with runs paired in time order:

- **regressed**: the change's median is worse than the parent's by more
  than the metric's bound (``failed_frac``: by anything at all);
- **improved**: the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's interquartile range;
- **unresolved**: fewer than 10 alternated pairs, or the parent's spread
  is wider than the bound and the change does not read better on every
  run than the parent does on every run;
- **unchanged**: otherwise.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from bench.registry import END_TO_END, FAILED_FRAC, Metric

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path) -> list[dict]:
    return [r for r in json.loads(Path(path).read_text())["runs"] if not r["trace"]]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def alternated(parent: list[dict], change: list[dict]) -> bool:
    """True when, in time order, every consecutive pair has one run of each side."""
    order = sorted(
        [(r["started"], "p") for r in parent] + [(r["started"], "c") for r in change]
    )
    sides = [side for _, side in order]
    return len(sides) % 2 == 0 and all(
        {sides[i], sides[i + 1]} == {"p", "c"} for i in range(0, len(sides), 2)
    )


def verdict(parent: list[float], change: list[float], metric: Metric, paired: bool):
    """(verdict, note) for one metric; values are in time order."""
    n = min(len(parent), len(change))
    if n == 0:
        return "unresolved", "no runs"
    sign = 1.0 if metric.better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse = sign * (c_med - p_med)
    if metric.bound == 0.0:  # failed_frac: any failure more is a regression
        more = statistics.fmean(change) - statistics.fmean(parent)
        return ("regressed" if more > 0 else "unchanged"), ""
    if p_med and worse / abs(p_med) > metric.bound:
        return "regressed", f"{100 * worse / abs(p_med):+.1f}% > {100 * metric.bound:.0f}%"
    if n < MIN_PAIRS or not paired:
        why = f"{n} pairs" if n < MIN_PAIRS else "runs not alternated"
        return "unresolved", why
    q1, _, q3 = quartiles(parent)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    if wins >= WIN_SHARE * n and -worse > q3 - q1:
        return "improved", f"wins {wins}/{n}"
    spread = (q3 - q1) / abs(p_med) if p_med else 0.0
    every_run_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread > metric.bound and not every_run_better:
        return "unresolved", f"spread {100 * spread:.1f}% > bound"
    return "unchanged", f"wins {wins}/{n}"


def compare(parent_runs: list[dict], change_runs: list[dict]) -> list[dict]:
    """One row per (metric, workload) present on both sides."""
    rows = []
    workloads = sorted({r["workload"] for r in parent_runs} & {r["workload"] for r in change_runs})
    for name in workloads:
        parent = sorted((r for r in parent_runs if r["workload"] == name), key=lambda r: r["started"])
        change = sorted((r for r in change_runs if r["workload"] == name), key=lambda r: r["started"])
        paired = alternated(parent, change)
        for metric in END_TO_END + (FAILED_FRAC,):
            p = [_value(r, metric.name) for r in parent]
            c = [_value(r, metric.name) for r in change]
            result, note = verdict(p, c, metric, paired)
            rows.append(
                {
                    "workload": name,
                    "metric": metric.name,
                    "unit": metric.unit,
                    "parent": quartiles(p),
                    "change": quartiles(c),
                    "pairs": min(len(p), len(c)),
                    "verdict": result,
                    "note": note,
                }
            )
    return rows


def _value(run: dict, name: str) -> float:
    if name == FAILED_FRAC.name:
        return run["failed"] / max(1, run["attempted"])
    return run["metrics"][name]


def _quartiles_text(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def render(rows: list[dict]) -> str:
    head = (
        f"{'workload':<14} {'metric':<15} {'parent median [q1, q3]':>30} "
        f"{'change median [q1, q3]':>30} {'pairs':>5}  verdict"
    )
    lines = [head, "-" * len(head)]
    for r in rows:
        note = f" ({r['note']})" if r["note"] else ""
        lines.append(
            f"{r['workload']:<14} {r['metric']:<15} {_quartiles_text(r['parent']):>30} "
            f"{_quartiles_text(r['change']):>30} {r['pairs']:>5}  {r['verdict']}{note}"
        )
    return "\n".join(lines)
