"""Regression sentinel: compare two run manifests cell by cell.

A ledger manifest (:mod:`repro.obs.ledger`) flattens into named numeric
cells — per-stage virtual CAD seconds, span counts, per-app speedups and
break-even times, candidate counts, VM instruction counts, fidelity cell
outcomes. The sentinel compares a baseline manifest against a candidate
manifest under relative tolerances and exits non-zero on any regression,
so CI can gate on ``repro regress --baseline <run>``.

The code that writes a manifest block declares which clock its cells run
on. A block (the manifest itself, one ``stages`` entry, or a top-level
block such as ``scalars`` or ``vm``) may carry two keys, relative to it:

- ``measured``: globs naming host-clock cells (wall time, Table II's
  candidate-search milliseconds, serve latencies, cache hits). They are
  informational — reported, never failing — unless ``--tol`` sets a
  tolerance for them (e.g. ``--tol 'stages.search.*=0.5'``). Speed is
  judged by ``python -m bench compare``, whose runs are paired and
  alternated, never by two unpaired ledger runs;
- ``tolerance``: ``{glob: rel}`` for modelled cells that fold a measured
  term in, such as break-even times (reproducible to ~1e-6).

Every other cell — virtual-clock CAD stage totals, candidate counts,
speedups, fidelity actuals — is deterministic and gated at relative 1e-9,
so a block with no declaration is gated exactly. The candidate's
declarations apply; a cell only the baseline has keeps the baseline's.
The rules that compare two runs live here: ``--tol`` patterns win (first
match), and cells are demoted when the runs used the bitstream cache
differently or only one of them swept the fleet-mix grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fnmatch import fnmatchcase

from repro.util.tables import Table

#: Relative tolerance of every cell its block does not declare otherwise.
EXACT_TOLERANCE = 1e-9

#: Consulted after any user tolerances when the two compared runs used
#: the persistent bitstream cache differently: a warm run legitimately
#: skips CAD work, so the per-stage CAD span counts become informational.
#: The *results* cells (toolflow seconds, speedups, break-even) stay
#: gated — cached stage times are bit-identical to recomputed ones.
CACHE_DEMOTED_TOLERANCES: tuple[tuple[str, float | None], ...] = (
    ("stages.cad.*", None),
)

#: Manifest config keys that are expected to differ between runs. ``jobs``
#: and ``cache`` are execution strategy, not experiment configuration: a
#: parallel or cache-warmed run must remain comparable against a serial
#: baseline.
_VOLATILE_CONFIG_KEYS = frozenset(
    {
        "ledger",
        "trace",
        "out",
        "jobs",
        "cache",
        # Serve plane: the store directory is per-invocation scratch and
        # the listen address is bind-time detail, not experiment config.
        "store",
        "port",
        "host",
    }
)


def parse_tolerances(specs: list[str]) -> list[tuple[str, float | None]]:
    """Parse ``PATTERN=REL`` CLI specs (``REL`` = float, or ``info``)."""
    parsed: list[tuple[str, float | None]] = []
    for spec in specs:
        pattern, sep, value = spec.partition("=")
        if not sep or not pattern:
            raise ValueError(
                f"invalid tolerance {spec!r} (expected PATTERN=REL)"
            )
        if value.strip().lower() in ("info", "none"):
            parsed.append((pattern, None))
            continue
        try:
            rel = float(value)
        except ValueError:
            raise ValueError(
                f"invalid tolerance {spec!r}: {value!r} is not a number"
            ) from None
        if rel < 0:
            raise ValueError(f"invalid tolerance {spec!r}: must be >= 0")
        parsed.append((pattern, rel))
    return parsed


def _first_match(
    cell: str, patterns: list[tuple[str, float | None]], default
) -> float | None:
    for pattern, tol in patterns:
        if fnmatchcase(cell, pattern):
            return tol
    return default


def _declared_tolerance(block: dict, name: str) -> float | None:
    """Tolerance that *block*'s declaration gives its cell *name*.

    *name* is relative to the block. ``None`` marks a measured
    (informational) cell; a ``tolerance`` glob gives its relative
    tolerance; any other cell is gated at :data:`EXACT_TOLERANCE`.
    """
    if any(fnmatchcase(name, glob) for glob in block.get("measured") or ()):
        return None
    for glob, rel in (block.get("tolerance") or {}).items():
        if fnmatchcase(name, glob):
            return float(rel)
    return EXACT_TOLERANCE


def declared_cells(manifest: dict) -> dict[str, tuple[float, float | None]]:
    """``cell-name -> (value, declared tolerance)`` view of one manifest."""
    cells: dict[str, tuple[float, float | None]] = {}

    def put(block: dict, prefix: str, name: str, value) -> None:
        # bool is an int: a verdict flag becomes a 0/1 cell.
        if isinstance(value, (int, float)) and math.isfinite(value):
            tolerance = _declared_tolerance(block, name)
            cells[prefix + name] = (float(value), tolerance)

    def walk(block: dict, prefix: str, name: str, value) -> None:
        if not isinstance(value, dict):
            put(block, prefix, name, value)
            return
        for key, child in value.items():
            if value is block and key in ("measured", "tolerance"):
                continue
            walk(block, prefix, f"{name}.{key}" if name else key, child)

    put(manifest, "", "wall_seconds", manifest.get("wall_seconds"))
    put(manifest, "", "status", manifest.get("status"))

    for name, stage in (manifest.get("stages") or {}).items():
        for key in ("spans", "real_seconds", "virtual_seconds"):
            put(stage, f"stages.{name}.", key, stage.get(key))

    fidelity = manifest.get("fidelity") or {}
    put(fidelity, "fidelity.", "failed", fidelity.get("failed"))
    for key, cell in (fidelity.get("cells") or {}).items():
        put(fidelity, "fidelity.", f"{key}.actual", cell.get("actual"))
        if cell.get("passed") is not None:
            put(fidelity, "fidelity.", f"{key}.passed", cell.get("passed"))

    # Serve-plane block (repro serve daemon / repro loadgen phases): the
    # nesting varies (single summary vs per-phase summaries), so walk it
    # generically — numeric leaves become serve.* cells. The daemon's
    # config echo (ephemeral port, worker count, ...) is configuration,
    # not a result; it is compared via the manifest config block instead.
    serve = dict(manifest.get("serve") or {})
    serve.pop("config", None)
    walk(serve, "serve.", "", serve)

    # The remaining blocks are nested dicts all the way down (e.g.
    # mix.cells.<preset>.c<NN>.<metric>), so the generic walk
    # covers them; string leaves (app names) fall out.
    for name in ("scalars", "cache", "vm", "mix"):
        block = manifest.get(name) or {}
        walk(block, f"{name}.", "", block)
    return cells


def flatten_cells(manifest: dict) -> dict[str, float]:
    """Flat ``cell-name -> numeric value`` view of one manifest."""
    return {name: cell[0] for name, cell in declared_cells(manifest).items()}


@dataclass
class CellDelta:
    """One cell compared between baseline and candidate manifests."""

    cell: str
    baseline: float | None
    current: float | None
    tolerance: float | None  # None = informational

    @property
    def abs_delta(self) -> float | None:
        if self.baseline is None or self.current is None:
            return None
        return self.current - self.baseline

    @property
    def rel_delta(self) -> float | None:
        delta = self.abs_delta
        if delta is None:
            return None
        denom = max(abs(self.baseline), 1e-12)
        return delta / denom

    @property
    def checked(self) -> bool:
        return self.tolerance is not None

    @property
    def regressed(self) -> bool:
        if not self.checked:
            return False
        if self.baseline is None or self.current is None:
            return True  # a checked cell appeared or disappeared
        allowance = self.tolerance * max(abs(self.baseline), 1e-12)
        return abs(self.current - self.baseline) > allowance

    def describe(self) -> str:
        if self.baseline is None:
            return f"{self.cell}: new cell (current {self.current:g})"
        if self.current is None:
            return f"{self.cell}: cell disappeared (baseline {self.baseline:g})"
        rel = self.rel_delta
        return (
            f"{self.cell}: baseline {self.baseline:g} -> current "
            f"{self.current:g} (delta {100.0 * rel:+.3f}%, "
            f"tol {self.tolerance:g})"
        )


@dataclass
class RegressionReport:
    """Cell-by-cell comparison of two run manifests."""

    baseline_id: str
    current_id: str
    deltas: list[CellDelta] = field(default_factory=list)
    config_mismatches: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[CellDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def checked(self) -> list[CellDelta]:
        return [d for d in self.deltas if d.checked]

    def render(self, show_all: bool = False) -> str:
        table = Table(
            columns=["cell", "baseline", "current", "delta %", "tol", "status"],
            title=(
                f"Regression check: {self.baseline_id} (baseline) vs "
                f"{self.current_id}"
            ),
        )
        shown = 0
        for d in sorted(
            self.deltas, key=lambda d: (not d.regressed, d.cell)
        ):
            changed = d.abs_delta is None or d.abs_delta != 0.0
            if not show_all and not changed and not d.regressed:
                continue
            status = (
                "FAIL" if d.regressed else ("ok" if d.checked else "info")
            )
            rel = d.rel_delta
            table.add_row(
                [
                    d.cell,
                    f"{d.baseline:g}" if d.baseline is not None else "-",
                    f"{d.current:g}" if d.current is not None else "-",
                    f"{100.0 * rel:+.3f}" if rel is not None else "-",
                    f"{d.tolerance:g}" if d.tolerance is not None else "info",
                    status,
                ]
            )
            shown += 1
        checked = self.checked
        passed = sum(1 for d in checked if not d.regressed)
        table.add_footer(
            [
                "total",
                f"{len(self.deltas)} cells",
                f"{shown} shown",
                "",
                "",
                f"{passed}/{len(checked)} pass",
            ]
        )
        return table.render()


def compare_manifests(
    baseline: dict,
    current: dict,
    tolerances: list[tuple[str, float | None]] | None = None,
) -> RegressionReport:
    """Compare *current* against *baseline* cell by cell.

    *tolerances* are ``(pattern, rel)`` pairs that override the cells'
    declared tolerances (first match wins; ``rel`` None = informational).
    """
    tolerances = list(tolerances or [])
    demoted: list[tuple[str, float | None]] = []
    base_cache = baseline.get("cache") or {}
    cur_cache = current.get("cache") or {}
    cache_differs = bool(base_cache) != bool(cur_cache) or base_cache.get(
        "hits", 0
    ) != cur_cache.get("hits", 0)
    if cache_differs:
        demoted += list(CACHE_DEMOTED_TOLERANCES)
    # The mix block is recorded only when a run sweeps the fleet grid
    # (repro mix / repro bench mix): a grid swept on one side only is a
    # workflow difference, not a result drift, so demote the whole block
    # instead of failing on appeared/disappeared cells.
    mix_onesided = bool(baseline.get("mix")) != bool(current.get("mix"))
    if mix_onesided:
        demoted.append(("mix.*", None))
    # User tolerances win over the demotions, which win over declarations.
    resolved = tolerances + demoted
    base_cells = declared_cells(baseline)
    cur_cells = declared_cells(current)

    report = RegressionReport(
        baseline_id=str(baseline.get("run_id", "baseline")),
        current_id=str(current.get("run_id", "current")),
    )

    base_config = {
        k: v
        for k, v in (baseline.get("config") or {}).items()
        if k not in _VOLATILE_CONFIG_KEYS
    }
    cur_config = {
        k: v
        for k, v in (current.get("config") or {}).items()
        if k not in _VOLATILE_CONFIG_KEYS
    }
    for key in sorted(set(base_config) | set(cur_config)):
        if base_config.get(key) != cur_config.get(key):
            report.config_mismatches.append(
                f"config.{key}: baseline {base_config.get(key)!r} != "
                f"current {cur_config.get(key)!r}"
            )
    if mix_onesided:
        report.config_mismatches.append(
            "mix block recorded in only one of the runs; "
            "mix.* cells demoted to informational"
        )
    if cache_differs:
        report.config_mismatches.append(
            "bitstream-cache usage differs between runs: "
            f"baseline hits={base_cache.get('hits', 0)} vs "
            f"current hits={cur_cache.get('hits', 0)}; "
            "stages.cad.* demoted to informational"
        )

    for cell in sorted(set(base_cells) | set(cur_cells)):
        base_value, base_declared = base_cells.get(cell, (None, None))
        value, declared = cur_cells.get(cell, (None, base_declared))
        report.deltas.append(
            CellDelta(
                cell=cell,
                baseline=base_value,
                current=value,
                tolerance=_first_match(cell, resolved, declared),
            )
        )
    return report
