"""Observability: span tracing, metrics, and trace export.

The paper's results are per-stage time breakdowns (Tables II/III); this
package makes every run of the reproduction produce the same shape of
evidence on demand:

- :mod:`repro.obs.tracer` — thread-safe span tracer with nested
  parent/child spans and a process-global default that is a no-op until
  enabled (zero overhead on hot paths);
- :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket
  histograms behind a :class:`MetricsRegistry`;
- :mod:`repro.obs.export` — JSONL round-trip, Chrome ``trace_event``
  dump, and ASCII stage-table / timeline renderers keyed to the paper's
  stage names;
- :mod:`repro.obs.profile` — span trace folded into a hierarchical
  self-time/total-time profile tree with collapsed-stack flamegraph
  export and a top-N hot-path table;
- :mod:`repro.obs.heat` — per-basic-block heat annotations (profile
  counts x cost model) rendered through the IR printer, kernel blocks
  flagged (lazy import: pulls the IR/VM layers);
- :mod:`repro.obs.fidelity` — golden-reference harness comparing a run's
  tables cell-by-cell against the paper's published values, emitting a
  ``BENCH_*.json`` report (lazy import: pulls the experiments layer);
- :mod:`repro.obs.log` — leveled structured event log (JSONL), every
  record stamped with the active run id and tracer span id;
- :mod:`repro.obs.ledger` — append-only run ledger: each recorded run
  becomes a durable ``manifest.json`` (+ trace + event log) under
  ``.repro-runs/``;
- :mod:`repro.obs.regress` — regression sentinel comparing two ledger
  manifests cell-by-cell under configurable tolerances, repeat-run
  noise bands, and history-derived noise bands;
- :mod:`repro.obs.slo` — declarative SLOs with error-budget accounting
  and multi-window burn-rate alerts over a serve run's request records;
- :mod:`repro.obs.history` — fleet history: per-cell time series over
  every ledger run (live + gc-compacted), robust anomaly detection, and
  noise-band derivation for the regression sentinel;
- :mod:`repro.obs.critpath` — critical-path analyzer reconstructing the
  specialization DAG from a recorded span trace (CPM on both clocks,
  per-stage slack, Amdahl-style break-even headroom table);
- :mod:`repro.obs.whatif` — trace-driven what-if engine replaying a
  recorded run under hypothetical knobs (cache hit rate, CAD speedups,
  parallel CAD workers) and cross-checking its Table IV-style grid
  against the analytic model (lazy import: pulls the experiments layer
  when deriving break-even inputs).

Enable both at once with :func:`enable` (the CLI's ``--trace`` /
``--metrics`` flags call this). Pool children hand their evidence back
through one pair: :func:`capture_worker` in the child and
:func:`absorb_worker` in the parent, so a run sharded over processes
records the same spans, metrics and event log as a serial one.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    get_metrics,
    metrics_enabled,
    render_snapshot,
    set_metrics,
)
from repro.obs.tracer import (
    NOOP_SPAN,
    Span,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
    span,
    tracing_enabled,
)
from repro.obs.export import (
    PAPER_STAGES,
    PAPER_STAGE_LABELS,
    TABLE3_SPAN_NAMES,
    SpanRecord,
    chrome_trace,
    export_tracer,
    read_jsonl,
    render_stage_table,
    render_timeline,
    stage_table,
    tracer_records,
    validate_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.profile import Profile, ProfileNode, build_profile
from repro.obs.log import (
    LEVELS,
    EventLog,
    disable_logging,
    enable_logging,
    get_log,
    log_enabled,
    log_event,
    read_log,
    render_tail,
    set_log,
)
from repro.obs.ledger import (
    DEFAULT_LEDGER_DIR,
    MANIFEST_SCHEMA,
    RunLedger,
    RunRecorder,
    abandon_run,
    current_run,
    finish_run,
    fold_stages,
    prune_runs,
    scalars_from_analyses,
    start_run,
)
from repro.obs.regress import (
    CellDelta,
    RegressionReport,
    compare_manifests,
    flatten_cells,
    median_mad,
    parse_tolerances,
)

# The heat and fidelity layers sit *above* the substrate: they import the
# IR/VM/experiments packages, which themselves import repro.obs — so they
# are exposed lazily (PEP 562) to keep `import repro.obs` light and
# cycle-free from any entry point.
_LAZY_EXPORTS = {
    "BlockHeat": "repro.obs.heat",
    "HeatMap": "repro.obs.heat",
    "compute_heat": "repro.obs.heat",
    "heat_table": "repro.obs.heat",
    "render_heat": "repro.obs.heat",
    "CellCheck": "repro.obs.fidelity",
    "FidelityReport": "repro.obs.fidelity",
    "default_report_path": "repro.obs.fidelity",
    "fidelity_from_analyses": "repro.obs.fidelity",
    "run_fidelity": "repro.obs.fidelity",
    "AppReplay": "repro.obs.critpath",
    "CandidateReplay": "repro.obs.critpath",
    "CriticalPathAnalysis": "repro.obs.critpath",
    "HeadroomTable": "repro.obs.critpath",
    "RunReplay": "repro.obs.critpath",
    "analyze_critical_path": "repro.obs.critpath",
    "critpath_block": "repro.obs.critpath",
    "headroom_table": "repro.obs.critpath",
    "render_critical_path": "repro.obs.critpath",
    "table3_summary": "repro.obs.critpath",
    "SloObjective": "repro.obs.slo",
    "SloReport": "repro.obs.slo",
    "ObjectiveStatus": "repro.obs.slo",
    "apply_objective_spec": "repro.obs.slo",
    "default_objectives": "repro.obs.slo",
    "evaluate_slo": "repro.obs.slo",
    "read_requests": "repro.obs.slo",
    "render_slo": "repro.obs.slo",
    "write_alerts": "repro.obs.slo",
    "Anomaly": "repro.obs.history",
    "append_history": "repro.obs.history",
    "build_series": "repro.obs.history",
    "collect_entries": "repro.obs.history",
    "derive_noise_bands": "repro.obs.history",
    "detect_anomalies": "repro.obs.history",
    "load_history": "repro.obs.history",
    "render_anomalies": "repro.obs.history",
    "render_trend": "repro.obs.history",
    "trend_report": "repro.obs.history",
    "GridCheck": "repro.obs.whatif",
    "GridCheckCell": "repro.obs.whatif",
    "WhatIfKnobs": "repro.obs.whatif",
    "WhatIfResult": "repro.obs.whatif",
    "analytic_grid": "repro.obs.whatif",
    "breakeven_inputs": "repro.obs.whatif",
    "check_grids": "repro.obs.whatif",
    "grid_block": "repro.obs.whatif",
    "scenario_block": "repro.obs.whatif",
    "whatif_break_even": "repro.obs.whatif",
    "whatif_grid": "repro.obs.whatif",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def enable(tracing: bool = True, metrics: bool = True) -> None:
    """Turn on tracing and/or metrics collection for this process."""
    if tracing:
        enable_tracing()
    if metrics:
        enable_metrics()


def disable() -> None:
    disable_tracing()
    disable_metrics()


# -- pool-child handoff ---------------------------------------------------------
def worker_settings() -> dict:
    """The picklable observability settings a pool child should adopt."""
    log = get_log()
    return {
        "tracing": get_tracer().enabled,
        "metrics": get_metrics().enabled,
        "log_level_no": log.level_no if log.enabled else None,
        "run_id": log.run_id,
    }


def capture_worker(settings: dict):
    """Child side: install fresh globals configured like the parent's.

    A forked child inherits the parent's tracer, registry and log along
    with their open sinks; fresh instances keep the child's evidence to
    exactly its own unit of work and out of the parent's files. Returns a
    callable that collects that evidence for :func:`absorb_worker`.
    """
    tracer = set_tracer(Tracer(enabled=settings["tracing"]))
    registry = set_metrics(MetricsRegistry(enabled=settings["metrics"]))
    log = set_log(
        EventLog(
            enabled=settings["log_level_no"] is not None,
            run_id=settings["run_id"],
        )
    )
    if log.enabled:
        log.level_no = settings["log_level_no"]

    def evidence() -> dict:
        return {
            "spans": tracer_records(tracer) if tracer.enabled else [],
            "metrics": registry.snapshot() if registry.enabled else None,
            "log": log.records(),
        }

    return evidence


def absorb_worker(evidence: dict, parent=None, base: float | None = None) -> None:
    """Parent side: merge a child's spans, metrics and event-log records.

    Spans are reparented under *parent* (:meth:`Tracer.absorb`); each log
    record's ``span_id`` is re-stamped with the id its span got here, and
    a record emitted outside any child span takes *parent*'s id, as it
    would have in-process. Records are appended in the order received.
    """
    ids = get_tracer().absorb(evidence["spans"], parent=parent, base=base)
    if evidence["metrics"] is not None:
        get_metrics().merge_snapshot(evidence["metrics"])
    records = evidence["log"]
    if records:
        fallback = getattr(parent, "span_id", None) or None
        for record in records:
            record["span_id"] = ids.get(record["span_id"], fallback)
        get_log().absorb(records)


__all__ = [
    "Anomaly",
    "AppReplay",
    "ObjectiveStatus",
    "SloObjective",
    "SloReport",
    "append_history",
    "apply_objective_spec",
    "build_series",
    "collect_entries",
    "default_objectives",
    "derive_noise_bands",
    "detect_anomalies",
    "evaluate_slo",
    "load_history",
    "read_requests",
    "render_anomalies",
    "render_slo",
    "render_trend",
    "trend_report",
    "write_alerts",
    "BlockHeat",
    "CandidateReplay",
    "CellCheck",
    "CellDelta",
    "CriticalPathAnalysis",
    "GridCheck",
    "GridCheckCell",
    "HeadroomTable",
    "RunReplay",
    "WhatIfKnobs",
    "WhatIfResult",
    "analytic_grid",
    "analyze_critical_path",
    "breakeven_inputs",
    "check_grids",
    "critpath_block",
    "grid_block",
    "headroom_table",
    "prune_runs",
    "render_critical_path",
    "scenario_block",
    "table3_summary",
    "whatif_break_even",
    "whatif_grid",
    "Counter",
    "DEFAULT_LEDGER_DIR",
    "EventLog",
    "LEVELS",
    "MANIFEST_SCHEMA",
    "RegressionReport",
    "RunLedger",
    "RunRecorder",
    "abandon_run",
    "absorb_worker",
    "capture_worker",
    "compare_manifests",
    "current_run",
    "disable_logging",
    "enable_logging",
    "finish_run",
    "flatten_cells",
    "fold_stages",
    "get_log",
    "log_enabled",
    "log_event",
    "median_mad",
    "parse_tolerances",
    "read_log",
    "render_tail",
    "scalars_from_analyses",
    "set_log",
    "start_run",
    "FidelityReport",
    "Gauge",
    "HeatMap",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "PAPER_STAGES",
    "PAPER_STAGE_LABELS",
    "Profile",
    "ProfileNode",
    "TABLE3_SPAN_NAMES",
    "Span",
    "SpanRecord",
    "Tracer",
    "build_profile",
    "chrome_trace",
    "compute_heat",
    "default_report_path",
    "fidelity_from_analyses",
    "heat_table",
    "render_heat",
    "run_fidelity",
    "tracer_records",
    "disable",
    "disable_metrics",
    "disable_tracing",
    "enable",
    "enable_metrics",
    "enable_tracing",
    "export_tracer",
    "get_metrics",
    "get_tracer",
    "metrics_enabled",
    "read_jsonl",
    "render_snapshot",
    "render_stage_table",
    "render_timeline",
    "set_metrics",
    "set_tracer",
    "span",
    "stage_table",
    "tracing_enabled",
    "validate_trace",
    "write_chrome_trace",
    "worker_settings",
    "write_jsonl",
]
