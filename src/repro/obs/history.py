"""Fleet history: per-cell time series and anomaly detection over the ledger.

The paper reports each result once (Tables I–IV); a living reproduction
re-measures them on every recorded run. This module aggregates the
manifest cells of all runs in a ledger — live ``manifest.json`` files
plus the ``history.jsonl`` summaries that ``repro runs gc`` compacts
before deleting old runs — into per-cell time series, and mines them two
ways:

- **anomaly detection** (``repro anomaly``): the newest run's value for
  each cell is tested against the trailing history with a robust
  median+MAD z-score and an EWMA drift check; a cell flags only when both
  the robust deviation and a minimum relative change exceed their
  thresholds, so bit-identical deterministic cells and ordinary
  measurement jitter stay quiet while a seeded regression is named
  exactly;
- **noise bands** (``repro regress --history N``): for cells whose
  manifest block declares them measured (informational in
  :mod:`repro.obs.regress`), the observed median/MAD across history
  becomes the tolerance — measured-cell gates derive from fleet behaviour
  instead of hand tuning, while virtual-clock cells keep their exact
  gates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path

from repro.obs.ledger import RunLedger
from repro.obs.regress import flatten_cells, median_mad

#: Compacted-run summary file at the ledger root (one JSON line per run).
HISTORY_FILENAME = "history.jsonl"

#: Schema identifier for compacted history entries.
HISTORY_SCHEMA = "repro-history/1"

#: Robust z-score threshold (in 1.4826*MAD units) for flagging.
DEFAULT_MADS = 4.0

#: Minimum |relative change| vs the baseline median for flagging; absorbs
#: the ~1e-6 relative jitter of the modelled break-even cells.
DEFAULT_MIN_REL = 0.001

#: Trailing points needed before the newest value can be judged.
DEFAULT_MIN_POINTS = 4

#: EWMA smoothing factor for the drift check.
EWMA_ALPHA = 0.3

#: MAD-to-sigma factor for a normal distribution.
_MAD_SIGMA = 1.4826


def history_path(ledger: RunLedger) -> Path:
    return ledger.path / HISTORY_FILENAME


def entry_from_manifest(manifest: dict) -> dict:
    """One history entry: identity + flattened numeric cells."""
    return {
        "schema": HISTORY_SCHEMA,
        "run_id": manifest.get("run_id"),
        "timestamp": manifest.get("timestamp"),
        "command": manifest.get("command"),
        "config": manifest.get("config") or {},
        "cells": flatten_cells(manifest),
    }


def append_history(ledger: RunLedger, manifests) -> int:
    """Append compacted entries for *manifests* to ``history.jsonl``."""
    path = history_path(ledger)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with open(path, "a", encoding="utf-8") as fh:
        for manifest in manifests:
            fh.write(
                json.dumps(entry_from_manifest(manifest), sort_keys=True) + "\n"
            )
            count += 1
    return count


def load_history(ledger: RunLedger) -> list[dict]:
    """Compacted entries from ``history.jsonl`` (oldest first, as written)."""
    path = history_path(ledger)
    if not path.is_file():
        return []
    entries: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict) and entry.get("cells"):
                entries.append(entry)
    return entries


def collect_entries(
    ledger: RunLedger,
    command: str | None = None,
    limit: int | None = None,
) -> list[dict]:
    """All known runs — compacted + live — as history entries, oldest first.

    A run id present both in ``history.jsonl`` and on disk keeps the live
    manifest (gc should make that impossible, but an interrupted prune
    must not double-count). With *command*, only runs of that command are
    kept — per-cell series only make sense across comparable runs. With
    *limit*, only the newest N entries survive.
    """
    merged: dict[str, dict] = {}
    order: list[str] = []
    for entry in load_history(ledger):
        run_id = str(entry.get("run_id"))
        if run_id not in merged:
            order.append(run_id)
        merged[run_id] = entry
    for manifest in ledger.manifests():
        run_id = str(manifest.get("run_id"))
        if run_id not in merged:
            order.append(run_id)
        merged[run_id] = entry_from_manifest(manifest)
    entries = [
        merged[run_id]
        for run_id in sorted(order, key=RunLedger._sort_key)
    ]
    if command is not None:
        entries = [e for e in entries if e.get("command") == command]
    if limit is not None and limit > 0:
        entries = entries[-limit:]
    return entries


def build_series(
    entries: list[dict], patterns: list[str] | None = None
) -> dict[str, list[tuple[str, float]]]:
    """Per-cell ``[(run_id, value), ...]`` series across *entries*.

    *patterns* are fnmatch cell filters (any-match); None keeps every
    cell. Cells are ordered by name; each series is oldest first.
    """
    series: dict[str, list[tuple[str, float]]] = {}
    for entry in entries:
        run_id = str(entry.get("run_id"))
        for cell, value in (entry.get("cells") or {}).items():
            if patterns and not any(fnmatchcase(cell, p) for p in patterns):
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            series.setdefault(cell, []).append((run_id, float(value)))
    return dict(sorted(series.items()))


@dataclass
class Anomaly:
    """One cell whose newest value broke from its trailing history."""

    cell: str
    run_id: str
    value: float
    baseline_median: float
    mad: float
    zscore: float  # robust z (inf for a shifted historically-constant cell)
    ewma: float
    rel_change: float

    def describe(self) -> str:
        z = "inf" if self.zscore == float("inf") else f"{self.zscore:.1f}"
        return (
            f"{self.cell}: {self.value:g} vs median {self.baseline_median:g} "
            f"({100.0 * self.rel_change:+.2f}%, robust z={z}, "
            f"ewma {self.ewma:g}) in {self.run_id}"
        )


def detect_anomalies(
    series: dict[str, list[tuple[str, float]]],
    min_points: int = DEFAULT_MIN_POINTS,
    mads: float = DEFAULT_MADS,
    min_rel: float = DEFAULT_MIN_REL,
    ewma_alpha: float = EWMA_ALPHA,
) -> list[Anomaly]:
    """Changepoint test of each series' newest value against its history.

    For every cell with at least ``min_points`` trailing values, the
    newest value must exceed *both* a robust deviation test and the
    ``min_rel`` relative-change floor to flag:

    - history with spread (MAD > 0): robust z-score
      ``|x - median| / (1.4826 * MAD)`` above *mads*, **and** the EWMA of
      the trailing values must also sit more than ``mads * sigma`` away
      from the new value (a genuine level shift, not one straggler);
    - historically constant cells (MAD = 0, the deterministic
      virtual-clock cells): any relative change above ``min_rel`` flags —
      a bit-identical cell that moves at all is the regression.
    """
    anomalies: list[Anomaly] = []
    for cell, points in series.items():
        if len(points) < min_points + 1:
            continue
        *trailing, (run_id, value) = points
        values = [v for _, v in trailing]
        median, mad = median_mad(values)
        ewma = values[0]
        for v in values[1:]:
            ewma = ewma_alpha * v + (1.0 - ewma_alpha) * ewma
        denom = max(abs(median), 1e-12)
        rel_change = (value - median) / denom
        if abs(rel_change) <= min_rel:
            continue
        if mad > 0.0:
            sigma = _MAD_SIGMA * mad
            zscore = abs(value - median) / sigma
            if zscore <= mads:
                continue
            if abs(value - ewma) <= mads * sigma:
                continue
        else:
            zscore = float("inf")
        anomalies.append(
            Anomaly(
                cell=cell,
                run_id=run_id,
                value=value,
                baseline_median=median,
                mad=mad,
                zscore=zscore,
                ewma=ewma,
                rel_change=rel_change,
            )
        )
    return anomalies


def derive_noise_bands(
    entries: list[dict], min_points: int = 3
) -> dict[str, dict]:
    """Median/MAD bands for the cells observed in *entries*.

    A cell qualifies when it appears in at least *min_points* entries.
    The returned mapping feeds :func:`repro.obs.regress.compare_manifests`'s
    ``noise_bands`` parameter, which applies a band only to a measured
    (informational) cell, so deterministic cells keep their bit-exact
    gates.
    """
    series = build_series(entries)
    bands: dict[str, dict] = {}
    for cell, points in series.items():
        if len(points) < min_points:
            continue
        median, mad = median_mad([v for _, v in points])
        bands[cell] = {
            "median": median,
            "mad": mad,
            "samples": len(points),
        }
    return bands


# -- renderings ---------------------------------------------------------------
_SPARK_CHARS = " .:-=+*#%@"


def _sparkline(values: list[float]) -> str:
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK_CHARS[1] * len(values)
    steps = len(_SPARK_CHARS) - 1
    return "".join(
        _SPARK_CHARS[1 + int((v - lo) / (hi - lo) * (steps - 1))] for v in values
    )


def render_trend(
    series: dict[str, list[tuple[str, float]]],
    limit_cells: int = 40,
) -> str:
    """Per-cell trend table, most-moved cells first (``repro runs trend``)."""
    if not series:
        return "no history: record runs with --ledger (or gc with compaction)"
    rows = []
    for cell, points in series.items():
        values = [v for _, v in points]
        median, mad = median_mad(values)
        last = values[-1]
        denom = max(abs(median), 1e-12)
        rel = (last - median) / denom
        rows.append((abs(rel), cell, values, median, mad, last, rel))
    rows.sort(key=lambda r: (-r[0], r[1]))
    shown = rows[:limit_cells] if limit_cells else rows
    width = max(len(r[1]) for r in shown)
    lines = [
        f"{'cell':<{width}} {'n':>4} {'median':>12} {'last':>12} "
        f"{'delta %':>8}  trend"
    ]
    for _, cell, values, median, mad, last, rel in shown:
        lines.append(
            f"{cell:<{width}} {len(values):>4} {median:>12g} {last:>12g} "
            f"{100.0 * rel:>+8.2f}  {_sparkline(values)}"
        )
    if limit_cells and len(rows) > limit_cells:
        lines.append(f"... {len(rows) - limit_cells} more cell(s) not shown")
    return "\n".join(lines)


def trend_report(
    series: dict[str, list[tuple[str, float]]],
) -> dict:
    """JSON-safe trend report (the CI artifact for ``runs trend --out``)."""
    cells = {}
    for cell, points in series.items():
        values = [v for _, v in points]
        median, mad = median_mad(values)
        cells[cell] = {
            "n": len(values),
            "median": median,
            "mad": mad,
            "last": values[-1],
            "run_ids": [run_id for run_id, _ in points],
            "values": values,
        }
    return {"schema": "repro-trend/1", "cells": cells}


def render_anomalies(anomalies: list[Anomaly], runs_seen: int) -> str:
    if not anomalies:
        return f"no anomalies across {runs_seen} run(s)"
    lines = [f"{len(anomalies)} anomalous cell(s) across {runs_seen} run(s):"]
    for a in sorted(anomalies, key=lambda a: -abs(a.rel_change)):
        lines.append("  " + a.describe())
    return "\n".join(lines)
