"""Trace-driven what-if replay of a recorded specialization run.

Table IV answers the paper's forward-looking question — what would
break-even look like with a bitstream cache and a faster CAD flow? — from
the analytic model in :mod:`repro.core.extrapolate`. This module answers
the same question from *measured* data: it replays a recorded ledger
run's span trace under hypothetical knobs and recomputes break-even with
the exact :class:`repro.core.breakeven.BreakEvenModel` the run used.

Knobs (:class:`WhatIfKnobs`):

- **cache hit rate** — removes whole candidate chains using the very
  protocol of :class:`repro.core.cache.CacheSimulation` (same
  deterministic RNG stream, same candidate ordering), Section VI-A;
- **CAD speedup** — uniform (Section VI-C's "faster tools") or per stage
  (e.g. only Bitgen), scaling the measured per-candidate stage splits;
- **N parallel CAD workers** — list-schedules the measured per-candidate
  chain durations greedily in ``custom_id`` order, the overlap the paper
  notes is possible because candidate generations are independent.

At the identity point (0 % cache, 0 % speedup, 1 worker) the replayed
overhead is exactly the recorded ``search + toolflow + reconfiguration``
sum, so the replayed break-even reproduces the run's recorded value on
the virtual clock (up to the manifest's 6-decimal rounding).

:func:`whatif_grid` regenerates the full Table IV-style grid from the
trace and :func:`check_grids` cross-checks it cell-by-cell against the
analytic grid in the style of :mod:`repro.obs.fidelity`, flagging cells
where the trace-driven and analytic models diverge beyond a tolerance —
drift there means the recorded behaviour no longer matches the model the
paper's Table IV is built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.obs.critpath import STAGE_KEYS, STAGE_LABELS, AppReplay, RunReplay
from repro.util.rng import DeterministicRng
from repro.util.tables import Table
from repro.util.timefmt import format_hhmmss

#: Default relative tolerance for the trace-vs-analytic grid cross-check.
DEFAULT_GRID_TOLERANCE = 0.05

#: Regression-sentinel declaration of the ``whatif`` manifest block: grid
#: and scenario fold the measured search milliseconds into their modelled
#: overheads; the ``mix`` replay is fully virtual-clock, so it stays exact.
MANIFEST_DECLARATION = {
    "measured": ["check.*"],
    "tolerance": {"grid.*": 1e-4, "scenario.*": 1e-4},
}


@dataclass(frozen=True)
class WhatIfKnobs:
    """Hypothetical-scenario parameters for one replay."""

    cache_hit_pct: float = 0.0
    cad_speedup_pct: float = 0.0  # uniform speedup over the whole chain
    stage_speedup_pct: tuple[tuple[str, float], ...] = ()  # (stage, pct)
    workers: int = 1
    trials: int = 16  # cache-population trials, as in CacheSimulation
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.cache_hit_pct <= 100.0:
            raise ValueError("cache hit rate must be within [0, 100] percent")
        if not 0.0 <= self.cad_speedup_pct < 100.0 + 1e-9:
            raise ValueError("CAD speedup must be within [0, 100] percent")
        for stage, pct in self.stage_speedup_pct:
            if stage not in STAGE_KEYS:
                raise ValueError(
                    f"unknown CAD stage {stage!r} (choose from {', '.join(STAGE_KEYS)})"
                )
            if not 0.0 <= pct <= 100.0:
                raise ValueError("stage speedup must be within [0, 100] percent")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    @property
    def stage_speedups(self) -> dict[str, float]:
        return dict(self.stage_speedup_pct)

    def describe(self) -> str:
        parts = [
            f"cache {self.cache_hit_pct:g}%",
            f"CAD +{self.cad_speedup_pct:g}%",
        ]
        parts.extend(f"{stage} +{pct:g}%" for stage, pct in self.stage_speedup_pct)
        parts.append(f"{self.workers} worker{'s' if self.workers != 1 else ''}")
        return ", ".join(parts)


def candidate_chain_seconds(candidate, knobs: WhatIfKnobs) -> float:
    """Virtual seconds of one candidate's CAD chain under the knobs."""
    uniform = 1.0 - knobs.cad_speedup_pct / 100.0
    stage_speedups = knobs.stage_speedups
    if not stage_speedups:
        return candidate.virtual_total * uniform
    total = 0.0
    for stage in STAGE_KEYS:
        stage_factor = 1.0 - stage_speedups.get(stage, 0.0) / 100.0
        total += candidate.virtual_stage(stage) * uniform * stage_factor
    return total


def _list_schedule(durations: Sequence[float], workers: int) -> float:
    """Greedy list-scheduling makespan, jobs taken in the given order."""
    if workers <= 1 or len(durations) <= 1:
        return sum(durations)
    finish = [0.0] * workers
    for dur in durations:
        slot = min(range(workers), key=lambda w: finish[w])
        finish[slot] += dur
    return max(finish) if durations else 0.0


def _toolflow_seconds(app: AppReplay, knobs: WhatIfKnobs, trial: int) -> float:
    """One trial's tool-flow makespan: cache removal + speedups + workers.

    The cache-population protocol matches
    :meth:`repro.core.cache.CacheSimulation.effective_toolflow_seconds`
    bit for bit (same RNG stream keyed on seed/trial/candidate count, same
    index ordering), so at 1 worker with uniform speedups the replay and
    the analytic model agree exactly.
    """
    n = len(app.candidates)
    if n == 0:
        return 0.0
    n_cached = int(round(n * knobs.cache_hit_pct / 100.0))
    rng = DeterministicRng(f"cache-sim/{knobs.seed}/{trial}/{n}")
    order = list(range(n))
    rng.shuffle(order)
    cached = set(order[:n_cached])
    durations = [
        candidate_chain_seconds(cand, knobs)
        for i, cand in enumerate(app.candidates)
        if i not in cached
    ]
    return _list_schedule(durations, knobs.workers)


def app_overhead_seconds(app: AppReplay, knobs: WhatIfKnobs) -> float:
    """Replayed specialization overhead of one app under the knobs."""
    toolflow = sum(
        _toolflow_seconds(app, knobs, trial) for trial in range(knobs.trials)
    ) / knobs.trials
    return app.search_virtual + toolflow + app.icap_virtual


# -- break-even replay ---------------------------------------------------------
@dataclass
class WhatIfAppResult:
    """One application's replayed overhead and break-even."""

    name: str
    baseline_overhead: float  # recorded serial overhead (no knobs)
    overhead: float
    baseline_break_even: float
    break_even: float


@dataclass
class WhatIfResult:
    """Scenario replay over every app with break-even inputs."""

    knobs: WhatIfKnobs
    apps: list[WhatIfAppResult] = field(default_factory=list)

    @property
    def break_even_mean(self) -> float:
        return _mean_finite([a.break_even for a in self.apps])

    @property
    def baseline_break_even_mean(self) -> float:
        return _mean_finite([a.baseline_break_even for a in self.apps])

    def render(self) -> str:
        table = Table(
            columns=["app", "overhead [s]", "break-even", "recorded", "speedup"],
            title=f"What-if replay: {self.knobs.describe()}",
        )
        for app in self.apps:
            if math.isfinite(app.break_even) and app.break_even > 0:
                gain = (
                    f"{app.baseline_break_even / app.break_even:.2f}x"
                    if math.isfinite(app.baseline_break_even)
                    else "-"
                )
            else:
                gain = "-"
            table.add_row(
                [
                    app.name,
                    f"{app.overhead:.2f}",
                    _fmt_break_even(app.break_even),
                    _fmt_break_even(app.baseline_break_even),
                    gain,
                ]
            )
        table.add_footer(
            [
                "AVG",
                "",
                _fmt_break_even(self.break_even_mean),
                _fmt_break_even(self.baseline_break_even_mean),
                "",
            ]
        )
        return table.render()


def _mean_finite(values: Sequence[float]) -> float:
    finite = [v for v in values if math.isfinite(v)]
    return sum(finite) / len(finite) if finite else math.inf


def _fmt_break_even(value: float) -> str:
    return format_hhmmss(value) if math.isfinite(value) else "never"


def breakeven_inputs(app_names: Sequence[str]) -> dict[str, object]:
    """Re-derive per-app break-even model inputs for recorded app names.

    Runs the deterministic analysis pipeline (memoized in-process) for
    each registry app and returns name ->
    :class:`repro.core.extrapolate.AppBreakEvenInputs`. Raises
    ``KeyError`` for names not in the app registry (e.g. ad-hoc ``jit``
    runs), which callers surface as "break-even replay unavailable".
    """
    from repro.experiments.runner import analyze_app
    from repro.experiments.table4 import breakeven_inputs_from

    analyses = [analyze_app(name) for name in app_names]
    return {inp.name: inp for inp in breakeven_inputs_from(analyses)}


def whatif_break_even(
    replay: RunReplay,
    inputs: dict[str, object],
    knobs: WhatIfKnobs,
    model=None,
) -> WhatIfResult:
    """Replay one scenario; apps without break-even inputs are skipped."""
    from repro.core.breakeven import BreakEvenModel
    from repro.vm.profiler import static_block_costs

    model = model or BreakEvenModel()
    baseline = WhatIfKnobs(trials=knobs.trials, seed=knobs.seed)
    result = WhatIfResult(knobs=knobs)
    for app in replay.apps:
        inp = inputs.get(app.name)
        if inp is None:
            continue
        block_costs = static_block_costs(inp.module, model.cost_model)

        def analyze(overhead: float) -> float:
            return model.analyze(
                block_costs, inp.profile, inp.coverage, inp.estimates, overhead
            ).live_aware_seconds

        overhead = app_overhead_seconds(app, knobs)
        baseline_overhead = app_overhead_seconds(app, baseline)
        result.apps.append(
            WhatIfAppResult(
                name=app.name,
                baseline_overhead=baseline_overhead,
                overhead=overhead,
                baseline_break_even=analyze(baseline_overhead),
                break_even=analyze(overhead),
            )
        )
    return result


# -- Table IV-style grid from the trace ----------------------------------------
def whatif_grid(
    replay: RunReplay,
    inputs: dict[str, object],
    hit_rates: Sequence[int] | None = None,
    cad_speedups: Sequence[int] | None = None,
    workers: int = 1,
    trials: int = 16,
    model=None,
):
    """Regenerate the Table IV grid from measured spans.

    Returns a :class:`repro.core.extrapolate.ExtrapolationGrid` whose
    cells are mean break-even seconds over the apps with inputs, computed
    from the replayed (not analytic) overheads.
    """
    from repro.core.breakeven import BreakEvenModel
    from repro.core.extrapolate import (
        DEFAULT_CAD_SPEEDUPS,
        DEFAULT_HIT_RATES,
        ExtrapolationGrid,
    )
    from repro.vm.profiler import static_block_costs

    hit_rates = list(hit_rates) if hit_rates is not None else list(DEFAULT_HIT_RATES)
    cad_speedups = (
        list(cad_speedups) if cad_speedups is not None else list(DEFAULT_CAD_SPEEDUPS)
    )
    model = model or BreakEvenModel()
    apps = [a for a in replay.apps if a.name in inputs]
    costs = {
        a.name: static_block_costs(inputs[a.name].module, model.cost_model)
        for a in apps
    }
    grid = ExtrapolationGrid(cache_hit_rates=hit_rates, cad_speedups=cad_speedups)
    for hit in hit_rates:
        for speedup in cad_speedups:
            knobs = WhatIfKnobs(
                cache_hit_pct=float(hit),
                cad_speedup_pct=float(speedup),
                workers=workers,
                trials=trials,
            )
            values = []
            for app in apps:
                inp = inputs[app.name]
                overhead = app_overhead_seconds(app, knobs)
                values.append(
                    model.analyze(
                        costs[app.name],
                        inp.profile,
                        inp.coverage,
                        inp.estimates,
                        overhead,
                    ).live_aware_seconds
                )
            grid.seconds[(hit, speedup)] = _mean_finite(values)
    return grid


def analytic_grid(
    inputs: dict[str, object],
    hit_rates: Sequence[int] | None = None,
    cad_speedups: Sequence[int] | None = None,
    trials: int = 16,
):
    """Analytic Table IV grid for the same app set (cross-check baseline)."""
    from repro.core.extrapolate import extrapolate_break_even

    return extrapolate_break_even(
        sorted(inputs.values(), key=lambda inp: inp.name),
        list(hit_rates) if hit_rates is not None else None,
        list(cad_speedups) if cad_speedups is not None else None,
        trials=trials,
    )


# -- fidelity-style cross-check ------------------------------------------------
@dataclass(frozen=True)
class GridCheckCell:
    """One (hit, speedup) comparison between trace-driven and analytic."""

    hit_pct: int
    speedup_pct: int
    trace_seconds: float
    analytic_seconds: float
    tolerance: float

    @property
    def rel_error(self) -> float:
        if math.isinf(self.trace_seconds) and math.isinf(self.analytic_seconds):
            return 0.0
        if math.isinf(self.trace_seconds) or math.isinf(self.analytic_seconds):
            return math.inf
        if self.analytic_seconds == 0.0:
            return 0.0 if self.trace_seconds == 0.0 else math.inf
        return abs(self.trace_seconds - self.analytic_seconds) / abs(
            self.analytic_seconds
        )

    @property
    def passed(self) -> bool:
        return self.rel_error <= self.tolerance

    @property
    def key(self) -> str:
        return f"h{self.hit_pct}.s{self.speedup_pct}"


@dataclass
class GridCheck:
    """Cell-by-cell divergence report between the two Table IV models."""

    tolerance: float
    cells: list[GridCheckCell] = field(default_factory=list)

    @property
    def flagged(self) -> list[GridCheckCell]:
        return [c for c in self.cells if not c.passed]

    @property
    def ok(self) -> bool:
        return not self.flagged

    def render(self) -> str:
        table = Table(
            columns=["cell", "trace", "analytic", "rel err", "status"],
            title=(
                "Trace-driven vs analytic Table IV "
                f"(tolerance {self.tolerance:.1%})"
            ),
        )
        for cell in self.cells:
            err = (
                f"{cell.rel_error:.3%}"
                if math.isfinite(cell.rel_error)
                else "inf"
            )
            table.add_row(
                [
                    f"hit {cell.hit_pct}% / CAD +{cell.speedup_pct}%",
                    _fmt_break_even(cell.trace_seconds),
                    _fmt_break_even(cell.analytic_seconds),
                    err,
                    "ok" if cell.passed else "DIVERGED",
                ]
            )
        table.add_footer(
            [
                f"{len(self.cells)} cells",
                "",
                "",
                "",
                "ok" if self.ok else f"{len(self.flagged)} diverged",
            ]
        )
        return table.render()


def check_grids(trace_grid, analytic, tolerance: float = DEFAULT_GRID_TOLERANCE) -> GridCheck:
    """Compare two Table IV grids cell-by-cell (must share axes)."""
    if (
        trace_grid.cache_hit_rates != analytic.cache_hit_rates
        or trace_grid.cad_speedups != analytic.cad_speedups
    ):
        raise ValueError("grids have different axes; cannot cross-check")
    check = GridCheck(tolerance=tolerance)
    for hit in trace_grid.cache_hit_rates:
        for speedup in trace_grid.cad_speedups:
            check.cells.append(
                GridCheckCell(
                    hit_pct=hit,
                    speedup_pct=speedup,
                    trace_seconds=trace_grid.at(hit, speedup),
                    analytic_seconds=analytic.at(hit, speedup),
                    tolerance=tolerance,
                )
            )
    return check


# -- manifest block ------------------------------------------------------------
def _round_or_none(value: float, digits: int = 6):
    return round(value, digits) if math.isfinite(value) else None


def scenario_block(result: WhatIfResult) -> dict:
    """``whatif.scenario`` manifest payload for one knob combination."""
    return {
        "knobs": {
            "cache_hit_pct": result.knobs.cache_hit_pct,
            "cad_speedup_pct": result.knobs.cad_speedup_pct,
            "stage_speedup_pct": dict(result.knobs.stage_speedup_pct),
            "workers": result.knobs.workers,
            "trials": result.knobs.trials,
        },
        "break_even_mean": _round_or_none(result.break_even_mean),
        "baseline_break_even_mean": _round_or_none(
            result.baseline_break_even_mean
        ),
        "apps": {
            app.name: {
                "overhead": _round_or_none(app.overhead),
                "break_even": _round_or_none(app.break_even),
                "baseline_break_even": _round_or_none(app.baseline_break_even),
            }
            for app in result.apps
        },
    }


def grid_block(trace_grid, check: GridCheck, workers: int = 1) -> dict:
    """``whatif.grid`` + ``whatif.check`` manifest payload."""
    return {
        "grid": {
            "workers": workers,
            "cache_hit_rates": list(trace_grid.cache_hit_rates),
            "cad_speedups": list(trace_grid.cad_speedups),
            "cells": {
                f"h{hit}.s{speedup}": _round_or_none(
                    trace_grid.at(hit, speedup)
                )
                for hit in trace_grid.cache_hit_rates
                for speedup in trace_grid.cad_speedups
            },
        },
        "check": {
            "tolerance": check.tolerance,
            "checked": len(check.cells),
            "flagged": len(check.flagged),
            "flagged_cells": [c.key for c in check.flagged],
        },
    }


# -- fleet-mix what-if replay --------------------------------------------------
def whatif_mix(
    mix_block: dict,
    slots: int | None = None,
    policy: str | None = None,
    store_root=None,
) -> dict:
    """Replay a recorded fleet-mix grid under different slot counts/policies.

    *mix_block* is the ``mix`` block of a ``repro mix --ledger`` manifest.
    The traces are rebuilt bit-identically from the recorded (preset,
    events, seed) triple, the specialization profiles are re-derived from
    the app registry, and every requested cell re-simulates on the
    virtual clock. With no overrides the recorded grid replays as-is; the
    first recorded cell doubles as an **identity check** — its replayed
    fleet break-even must match the recorded value exactly, proving the
    replay runs the same simulation the manifest recorded.

    Returns a nested-dict report safe to attach as ``whatif.mix`` (every
    numeric cell is virtual-clock deterministic; gated at 1e-9).
    """
    import os
    import shutil
    import tempfile

    from repro.mix.profiles import build_app_profiles
    from repro.mix.simulator import simulate_cell
    from repro.mix.trace import build_trace, preset_config

    recorded_cells = mix_block.get("cells") or {}
    if not recorded_cells:
        raise ValueError("manifest mix block has no recorded cells")
    events = int(mix_block["events"])
    seed = int(mix_block["seed"])
    presets = list(recorded_cells)
    recorded_policies = list(next(iter(recorded_cells.values())))
    recorded_caps = sorted(
        int(ckey.lstrip("c"))
        for ckey in next(iter(next(iter(recorded_cells.values())).values()))
    )
    policies = [policy] if policy else recorded_policies
    capacities = [slots] if slots else recorded_caps

    owns_store = store_root is None
    if owns_store:
        store_root = tempfile.mkdtemp(prefix="repro-whatif-mix-")
    try:
        profiles = build_app_profiles()
        traces = {
            preset: build_trace(preset_config(preset, events=events, seed=seed))
            for preset in presets
        }

        def cell(preset: str, pol: str, cap: int, root: str) -> dict:
            result = simulate_cell(
                profiles,
                traces[preset],
                pol,
                cap,
                os.path.join(root, f"{preset}-{pol}-{cap}"),
                mix_name=preset,
            ).as_dict()
            return {
                "fleet_break_even_seconds": result["fleet_break_even_seconds"],
                "mean_occupancy_pct": result["mean_occupancy_pct"],
                "slot_loads": result["slots"]["loads"],
                "slot_reloads": result["slots"]["reloads"],
                "slot_evictions": result["slots"]["evictions"],
                "cross_app_hits": result["store"]["cross_app_hits"],
            }

        # Identity check against the first recorded cell, in a store of its
        # own: the grid below replays the same cell and must start cold.
        id_preset = presets[0]
        id_policy = recorded_policies[0]
        id_ckey = next(iter(recorded_cells[id_preset][id_policy]))
        id_cap = int(id_ckey.lstrip("c"))
        recorded_be = recorded_cells[id_preset][id_policy][id_ckey][
            "fleet_break_even_seconds"
        ]
        replayed_be = cell(
            id_preset, id_policy, id_cap, os.path.join(store_root, "identity")
        )["fleet_break_even_seconds"]
        identity = {
            "preset_policy_capacity": f"{id_preset}/{id_policy}/{id_cap}",
            "recorded_break_even_seconds": recorded_be,
            "replayed_break_even_seconds": replayed_be,
            "identical": replayed_be == recorded_be,
        }

        cells: dict = {}
        for preset in presets:
            for pol in policies:
                for cap in capacities:
                    replayed = cell(preset, pol, cap, store_root)
                    recorded = (
                        recorded_cells.get(preset, {})
                        .get(pol, {})
                        .get(f"c{cap:02d}")
                    )
                    if recorded is not None:
                        replayed["recorded_break_even_seconds"] = recorded[
                            "fleet_break_even_seconds"
                        ]
                    cells.setdefault(preset, {}).setdefault(pol, {})[
                        f"c{cap:02d}"
                    ] = replayed
    finally:
        if owns_store:
            shutil.rmtree(store_root, ignore_errors=True)

    return {
        "events": events,
        "seed": seed,
        "overrides": {"slots": slots, "policy": policy},
        "identity": identity,
        "cells": cells,
    }


def render_whatif_mix(report: dict) -> str:
    """Human-readable table for ``repro whatif --slots/--policy``."""
    overrides = report.get("overrides") or {}
    parts = []
    if overrides.get("slots"):
        parts.append(f"slots={overrides['slots']}")
    if overrides.get("policy"):
        parts.append(f"policy={overrides['policy']}")
    table = Table(
        columns=["mix", "policy", "slots", "evict", "reloads", "fleet-BE(s)", "recorded"],
        title=(
            "Fleet-mix what-if replay"
            + (f" ({', '.join(parts)})" if parts else " (identity)")
        ),
    )
    for preset, policies in report["cells"].items():
        for pol, caps in policies.items():
            for ckey in sorted(caps):
                c = caps[ckey]
                be = c["fleet_break_even_seconds"]
                recorded = c.get("recorded_break_even_seconds")
                table.add_row(
                    [
                        preset,
                        pol,
                        int(ckey.lstrip("c")),
                        c["slot_evictions"],
                        c["slot_reloads"],
                        f"{be:.1f}" if be is not None else "-",
                        f"{recorded:.1f}" if recorded is not None else "-",
                    ]
                )
    lines = [table.render()]
    identity = report.get("identity") or {}
    lines.append(
        f"identity check ({identity.get('preset_policy_capacity')}): "
        + (
            "replayed == recorded"
            if identity.get("identical")
            else "MISMATCH vs recorded manifest"
        )
    )
    return "\n".join(lines)



__all__ = [
    "DEFAULT_GRID_TOLERANCE",
    "MANIFEST_DECLARATION",
    "WhatIfKnobs",
    "WhatIfAppResult",
    "WhatIfResult",
    "GridCheck",
    "GridCheckCell",
    "analytic_grid",
    "app_overhead_seconds",
    "breakeven_inputs",
    "candidate_chain_seconds",
    "check_grids",
    "grid_block",
    "scenario_block",
    "whatif_break_even",
    "whatif_grid",
    "whatif_mix",
    "render_whatif_mix",
]
