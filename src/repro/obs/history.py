"""Run history: the manifest cells of every ledger run, and noise bands.

The paper reports each result once (Tables I–IV); a living reproduction
re-measures them on every recorded run. This module gathers the manifest
cells of all runs in a ledger — live ``manifest.json`` files plus the
``history.jsonl`` summaries that ``repro runs gc`` compacts before
deleting old runs — and derives **noise bands** from them for
``repro regress --history N``: for cells whose manifest block declares
them measured (informational in :mod:`repro.obs.regress`), the observed
median/MAD across history becomes the tolerance, while virtual-clock
cells keep their exact gates.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.ledger import RunLedger
from repro.obs.regress import flatten_cells, median_mad

#: Compacted-run summary file at the ledger root (one JSON line per run).
HISTORY_FILENAME = "history.jsonl"

#: Schema identifier for compacted history entries.
HISTORY_SCHEMA = "repro-history/1"


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
    series: dict[str, list[float]] = {}
    for entry in entries:
        for cell, value in (entry.get("cells") or {}).items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            series.setdefault(cell, []).append(float(value))
    bands: dict[str, dict] = {}
    for cell, values in sorted(series.items()):
        if len(values) < min_points:
            continue
        median, mad = median_mad(values)
        bands[cell] = {
            "median": median,
            "mad": mad,
            "samples": len(values),
        }
    return bands
