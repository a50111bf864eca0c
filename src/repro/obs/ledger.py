"""Run ledger: every recorded run becomes a durable, diffable artifact.

The paper's argument is quantitative — per-stage CAD overheads (Tables
II/III) and break-even times — so a change to the pruning filter or the
PPC405 cost model must be checkable against *history*, not just against
one fresh run. The ledger is that history: an append-only on-disk store
(default ``.repro-runs/``), one directory per run holding

- ``manifest.json`` — run id, timestamp, git revision, command/argv and
  config, environment, wall time, per-stage span totals folded from the
  tracer (real and virtual clocks), per-app scalar results (speedups,
  candidate counts, VM instructions and block executions, break-even
  times), the fidelity cell outcomes when a fidelity comparison ran, and
  artifact paths;
- ``trace.jsonl`` — the full span trace of the run, the one record of
  what happened in it: every span carries the decisions and stage
  results of its step (accepted and rejected candidates, CAD failures,
  a served request's break-even).

Recording is behind the CLI's ``--ledger`` flag (and the ``ledger=``
parameter of :func:`repro.experiments.runner.analyze_suite`): a
:class:`RunRecorder` is opened before the command runs, enriched by the
layers that own the data (the runner attaches scalars, the fidelity
harness attaches its cell outcomes), and finalized afterwards. The
regression sentinel (:mod:`repro.obs.regress`) compares two manifests
cell by cell.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.export import export_tracer, fold_stages, stage_table, tracer_records
from repro.obs.tracer import Tracer

#: Default on-disk location of the ledger (git-ignored).
DEFAULT_LEDGER_DIR = ".repro-runs"

#: Manifest schema identifier (bump on breaking changes).
MANIFEST_SCHEMA = "repro-run/1"

_RUN_ID_RE = re.compile(r"^r(\d+)-")
_LATEST_RE = re.compile(r"^latest(?:~(\d+))?$")


def _json_safe(value):
    """JSON-encodable view of *value*; non-finite floats become None."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return repr(value)


def git_revision(cwd=None) -> str | None:
    """Current ``HEAD`` revision, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def environment_info() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "argv0": sys.argv[0] if sys.argv else None,
    }


def scalars_from_analyses(analyses) -> dict:
    """Per-app and aggregate scalar results from :class:`AppAnalysis` rows.

    These are the manifest cells the regression sentinel gates on: they
    are deterministic for a fixed config except the measured ``search_ms``
    and the break-even times, which fold it in (reproducible to ~1e-6).
    """
    apps: dict[str, dict] = {}
    for a in analyses:
        be = a.breakeven.live_aware_seconds
        apps[a.name] = {
            "domain": a.domain,
            "candidates": a.specialization.candidate_count,
            "candidates_failed": len(a.specialization.failed),
            "vm_instructions": sum(
                p.total_dynamic_instructions for p in a.profiles.values()
            ),
            "vm_block_executions": sum(
                p.total_block_executions for p in a.profiles.values()
            ),
            "vm_ratio": round(a.runtime.ratio, 9),
            "asip_upper_ratio": round(a.asip_max.ratio, 9),
            "asip_pruned_ratio": round(a.asip_pruned.ratio, 9),
            "kernel_size_pct": round(a.kernel.size_pct, 9),
            "kernel_freq_pct": round(a.kernel.freq_pct, 9),
            "search_ms": round(a.search_pruned.search_seconds * 1000.0, 6),
            "const_seconds": round(a.specialization.const_seconds, 9),
            "toolflow_seconds": round(a.specialization.toolflow_seconds, 9),
            "break_even_seconds": (
                round(be, 6) if math.isfinite(be) else None
            ),
        }
    n = len(apps)
    aggregate: dict = {"apps": n}
    if n:
        aggregate.update(
            {
                "candidates_total": sum(v["candidates"] for v in apps.values()),
                "asip_pruned_ratio_mean": round(
                    sum(v["asip_pruned_ratio"] for v in apps.values()) / n, 9
                ),
                "toolflow_seconds_sum": round(
                    sum(v["toolflow_seconds"] for v in apps.values()), 9
                ),
            }
        )
        finite_be = [
            v["break_even_seconds"]
            for v in apps.values()
            if v["break_even_seconds"] is not None
        ]
        aggregate["break_even_seconds_mean"] = (
            round(sum(finite_be) / len(finite_be), 6) if finite_be else None
        )
    return {
        "per_app": apps,
        "aggregate": aggregate,
        "measured": ["per_app.*.search_ms"],
        "tolerance": {"*.break_even_seconds*": 1e-4},
    }


@dataclass
class RunLedger:
    """Append-only store of run manifests under one root directory."""

    root: str | os.PathLike = DEFAULT_LEDGER_DIR

    @property
    def path(self) -> Path:
        return Path(self.root)

    # -- enumeration ---------------------------------------------------------
    def run_ids(self) -> list[str]:
        """Finished run ids (those with a manifest), oldest first."""
        if not self.path.is_dir():
            return []
        ids = [
            entry.name
            for entry in self.path.iterdir()
            if entry.is_dir() and (entry / "manifest.json").is_file()
        ]
        return sorted(ids, key=self._sort_key)

    @staticmethod
    def _sort_key(run_id: str):
        m = _RUN_ID_RE.match(run_id)
        return (int(m.group(1)) if m else 0, run_id)

    def run_dir(self, run_id: str) -> Path:
        return self.path / run_id

    def load(self, run_id: str) -> dict:
        manifest_path = self.run_dir(run_id) / "manifest.json"
        try:
            with open(manifest_path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except OSError as exc:
            raise LookupError(f"no manifest for run {run_id!r}: {exc}") from None

    def resolve(self, spec: str) -> str:
        """Resolve ``latest``, ``latest~N``, an exact id, or a unique prefix."""
        ids = self.run_ids()
        if not ids:
            raise LookupError(
                f"run ledger {self.path} is empty (record a run with --ledger first)"
            )
        m = _LATEST_RE.match(spec)
        if m:
            back = int(m.group(1) or 0)
            if back >= len(ids):
                raise LookupError(
                    f"{spec!r} is out of range: only {len(ids)} run(s) recorded"
                )
            return ids[-1 - back]
        if spec in ids:
            return spec
        matches = [run_id for run_id in ids if run_id.startswith(spec)]
        if len(matches) == 1:
            return matches[0]
        if matches:
            raise LookupError(
                f"ambiguous run {spec!r}: matches {', '.join(matches)}"
            )
        raise LookupError(f"unknown run {spec!r} in ledger {self.path}")

    # -- garbage collection --------------------------------------------------
    def prune(self, keep: int) -> list[str]:
        """Delete the oldest finished runs beyond the *keep* newest.

        A run that is currently being recorded is never removed: unfinished
        run directories have no manifest (so they are not enumerated), and
        the process-global :func:`current_run` recorder's directory is
        skipped explicitly as well. Returns the removed run ids; nothing
        of a pruned run is kept.
        """
        if keep < 0:
            raise ValueError("--keep must be >= 0")
        ids = self.run_ids()
        excess = ids[: max(0, len(ids) - keep)]
        active = current_run()
        active_dir = (
            active.run_dir.resolve()
            if active is not None and active.run_dir.exists()
            else None
        )
        removed: list[str] = []
        for run_id in excess:
            run_dir = self.run_dir(run_id)
            if active_dir is not None and run_dir.resolve() == active_dir:
                continue  # refuse to delete the run being recorded
            shutil.rmtree(run_dir)
            removed.append(run_id)
        return removed

    # -- recording -----------------------------------------------------------
    def reserve_run(self, command: str) -> str:
        """Allocate and create the next run directory; returns its id."""
        slug = re.sub(r"[^a-z0-9]+", "-", command.lower()).strip("-") or "run"
        stamp = time.strftime("%Y%m%dT%H%M%S")
        seq = 1 + max(
            (
                int(m.group(1))
                for entry in (self.path.iterdir() if self.path.is_dir() else ())
                if (m := _RUN_ID_RE.match(entry.name))
            ),
            default=0,
        )
        self.path.mkdir(parents=True, exist_ok=True)
        while True:
            run_id = f"r{seq:04d}-{slug}-{stamp}"
            try:
                self.run_dir(run_id).mkdir(exist_ok=False)
                return run_id
            except FileExistsError:
                seq += 1


@dataclass
class RunRecorder:
    """One in-flight recorded run; enriched by the layers that own data."""

    ledger: RunLedger
    run_id: str
    command: str
    config: dict = field(default_factory=dict)
    argv: list[str] = field(default_factory=list)
    started: float = field(default_factory=time.perf_counter)
    scalars: dict | None = None
    fidelity: dict | None = None
    cache: dict | None = None
    serve: dict | None = None
    artifacts: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def run_dir(self) -> Path:
        return self.ledger.run_dir(self.run_id)

    def attach_scalars(self, scalars: dict) -> None:
        self.scalars = scalars

    def attach_cache(self, stats: dict) -> None:
        """Record persistent bitstream-cache statistics for this run.

        The cells are measured: hit counts depend on what earlier runs left
        in the store. The regression sentinel also demotes the ``cad.*``
        work cells when two compared runs used the cache differently (a
        warm run legitimately skips CAD work).
        """
        self.cache = {**stats, "measured": ["*"]}

    def attach_serve(self, summary: dict) -> None:
        """Record a serve-plane summary (daemon or loadgen) for this run.

        One server (or load-generation) run is one ledger run; the summary
        holds the request counters, dedup savings, per-tenant cache stats
        and latency quantiles that :func:`repro.obs.regress.flatten_cells`
        exposes as ``serve.*`` cells. Each request is a ``serve.request``
        span in the run's trace, not a manifest row.
        """
        if self.serve is None:
            self.serve = {}
        self.serve.update(summary)

    def attach_extra(self, name: str, payload: dict) -> None:
        """Attach a named top-level manifest block (e.g. ``vm``).

        The manifest's key set is otherwise fixed; extras let subsystems
        like the VM observatory persist their own block without widening
        the recorder for each one. A reserved manifest key is rejected so
        an extra can never shadow core evidence.
        """
        reserved = {
            "schema", "run_id", "timestamp", "command", "argv", "config",
            "git_rev", "environment", "status", "wall_seconds", "stages",
            "scalars", "fidelity", "cache", "serve", "artifacts",
            "measured",
        }
        if name in reserved:
            raise ValueError(f"extra block name {name!r} is reserved")
        self.extras[name] = payload

    def attach_fidelity(self, report) -> None:
        """Record a :class:`repro.obs.fidelity.FidelityReport`'s cells."""
        # Search columns are wall clock. The break-even cells fold them in,
        # and so does Table IV's factor, a ratio of two break-even times.
        self.fidelity = {
            "measured": ["*/search*"],
            "tolerance": {
                "I/II/*/break_even_s.*": 1e-4,
                "II/*/break even*": 1e-4,
                "IV/*/factor*": 1e-4,
            },
            "ok": report.ok,
            "checked": len(report.checked),
            "failed": len(report.failures),
            "cells": {
                f"{c.table}/{c.row}/{c.column}": {
                    "mode": c.mode,
                    "expected": c.expected,
                    "actual": c.actual,
                    "rel_error": c.rel_error,
                    "passed": c.passed,
                }
                for c in report.cells
            },
        }

    def finalize(
        self,
        tracer: Tracer | None = None,
        status: int | None = 0,
    ) -> Path:
        """Fold the run's evidence into ``manifest.json``; returns its path."""
        stages: dict = {}
        if tracer is not None:
            if getattr(tracer, "flush_path", None) is not None:
                # Long-running (daemon) tracer with an incremental JSONL
                # sink: complete the flush and fold stages from the file —
                # rewriting from memory would clobber the flushed prefix.
                from repro.obs.export import read_jsonl

                tracer.flush_all()
                tracer.close_flush()
                flush_path = Path(tracer.flush_path)
                records = read_jsonl(flush_path) if flush_path.is_file() else []
                stages = fold_stages(records)
                if records:
                    try:
                        rel = flush_path.relative_to(self.run_dir)
                        self.artifacts.setdefault("trace", str(rel))
                    except ValueError:
                        self.artifacts.setdefault("trace", str(flush_path))
            else:
                records = tracer_records(tracer)
                stages = fold_stages(records)
                if records:
                    export_tracer(tracer, self.run_dir / "trace.jsonl")
                    self.artifacts.setdefault("trace", "trace.jsonl")
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "run_id": self.run_id,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "command": self.command,
            "argv": list(self.argv),
            "config": _json_safe(self.config),
            "git_rev": git_revision(),
            "environment": environment_info(),
            "status": status,
            "wall_seconds": round(time.perf_counter() - self.started, 6),
            "measured": ["wall_seconds"],
            "stages": _json_safe(stages),
            "scalars": _json_safe(self.scalars),
            "fidelity": _json_safe(self.fidelity),
            "cache": _json_safe(self.cache),
            "serve": _json_safe(self.serve),
            "artifacts": _json_safe(self.artifacts),
        }
        for name, payload in self.extras.items():
            manifest[name] = _json_safe(payload)
        manifest_path = self.run_dir / "manifest.json"
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
        return manifest_path


# -- process-global current run ------------------------------------------------
# The CLI (or analyze_suite) opens one recorder per process; inner layers
# (runner scalars, fidelity cells) enrich it through current_run() without
# any plumbing through the call graph.
_current_run: RunRecorder | None = None


def current_run() -> RunRecorder | None:
    return _current_run


def start_run(
    ledger: RunLedger | str | os.PathLike,
    command: str,
    config: dict | None = None,
    argv: list[str] | None = None,
) -> RunRecorder:
    """Open a recorder as the process-global current run."""
    global _current_run
    if _current_run is not None:
        raise RuntimeError(
            f"a recorded run is already active ({_current_run.run_id})"
        )
    if not isinstance(ledger, RunLedger):
        ledger = RunLedger(ledger)
    recorder = RunRecorder(
        ledger=ledger,
        run_id=ledger.reserve_run(command),
        command=command,
        config=dict(config or {}),
        argv=list(argv or []),
    )
    _current_run = recorder
    return recorder


def finish_run(
    tracer: Tracer | None = None,
    status: int | None = 0,
) -> Path | None:
    """Finalize and clear the current run; returns the manifest path."""
    global _current_run
    recorder = _current_run
    _current_run = None
    if recorder is None:
        return None
    return recorder.finalize(tracer=tracer, status=status)


def abandon_run() -> None:
    """Drop the current recorder without writing a manifest."""
    global _current_run
    _current_run = None


def prune_runs(
    ledger: RunLedger | str | os.PathLike, keep: int
) -> list[str]:
    """Delete the oldest ledger runs beyond *keep*; see :meth:`RunLedger.prune`."""
    if not isinstance(ledger, RunLedger):
        ledger = RunLedger(ledger)
    return ledger.prune(keep)


# -- ASCII renderings ----------------------------------------------------------
def render_run_list(manifests: list[dict]) -> str:
    """One-line-per-run table for ``repro runs list``."""
    from repro.util.tables import Table

    table = Table(
        columns=["run", "when", "command", "config", "wall [s]", "status"],
        title="Recorded runs (oldest first)",
    )
    for m in manifests:
        config = {
            k: v
            for k, v in (m.get("config") or {}).items()
            if k != "command" and v not in (None, False)
        }
        config_text = " ".join(f"{k}={v}" for k, v in sorted(config.items()))
        fidelity = m.get("fidelity")
        status = "ok" if m.get("status") == 0 else f"status={m.get('status')}"
        if fidelity and fidelity.get("failed"):
            status += f" fid:{fidelity['failed']}F"
        table.add_row(
            [
                m.get("run_id", "?"),
                m.get("timestamp", "?"),
                m.get("command", "?"),
                config_text or "-",
                f"{m.get('wall_seconds', 0.0):.2f}",
                status,
            ]
        )
    return table.render()


def render_manifest(manifest: dict) -> str:
    """Full ASCII rendering of one manifest for ``repro runs show``."""
    from repro.util.tables import Table

    lines = [
        f"run:       {manifest.get('run_id')}",
        f"when:      {manifest.get('timestamp')}",
        f"command:   {manifest.get('command')}  "
        f"(argv: {' '.join(manifest.get('argv') or []) or '-'})",
        f"git rev:   {manifest.get('git_rev') or '-'}",
        f"status:    {manifest.get('status')}   "
        f"wall: {manifest.get('wall_seconds', 0.0):.2f} s",
        f"config:    {json.dumps(manifest.get('config') or {}, sort_keys=True)}",
    ]
    stages = manifest.get("stages") or {}
    if stages:
        lines += ["", stage_table(stages).render()]
    scalars = manifest.get("scalars") or {}
    per_app = scalars.get("per_app") or {}
    if per_app:
        table = Table(
            columns=[
                "app", "candidates", "ASIP ratio", "tool flow [s]",
                "break-even [s]",
            ],
            title="Per-application results",
        )
        for name, row in per_app.items():
            be = row.get("break_even_seconds")
            table.add_row(
                [
                    name,
                    row.get("candidates", 0),
                    f"{row.get('asip_pruned_ratio', 0.0):.2f}",
                    f"{row.get('toolflow_seconds', 0.0):.1f}",
                    f"{be:.0f}" if be is not None else "never",
                ]
            )
        lines += ["", table.render()]
    fidelity = manifest.get("fidelity")
    if fidelity:
        lines += [
            "",
            f"fidelity:  {'ok' if fidelity.get('ok') else 'FAILING'} "
            f"({fidelity.get('checked', 0)} checked, "
            f"{fidelity.get('failed', 0)} failed)",
        ]
    serve = manifest.get("serve")
    if serve:
        requests = serve.get("requests") or {}
        latency = serve.get("latency") or {}
        be = (latency.get("break_even") or {})
        shutdown = serve.get("shutdown") or "-"
        lines += [
            "",
            f"serve:     {requests.get('completed', 0)} completed / "
            f"{requests.get('rejected', 0)} rejected / "
            f"{requests.get('failed', 0)} failed, "
            f"dedup saved {(serve.get('dedup') or {}).get('saved', 0)}, "
            f"shutdown {shutdown}",
        ]
        if be.get("p95") is not None:
            lines += [
                f"           break-even p50/p95/p99 [s]: "
                f"{be.get('p50'):.0f} / {be.get('p95'):.0f} / {be.get('p99'):.0f}"
            ]
    mix = manifest.get("mix")
    if mix:
        cell_count = sum(len(caps) for caps in (mix.get("cells") or {}).values())
        lines += [
            "",
            f"mix:       {cell_count} cells, "
            f"{mix.get('events', 0)} events/trace",
        ]
    artifacts = manifest.get("artifacts") or {}
    if artifacts:
        lines += [
            "",
            "artifacts: "
            + ", ".join(f"{k}={v}" for k, v in sorted(artifacts.items())),
        ]
    return "\n".join(lines)
