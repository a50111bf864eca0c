"""Observability: span tracing, trace export and the run ledger.

The paper's results are per-stage time breakdowns (Tables II/III); this
package makes every run of the reproduction produce the same shape of
evidence on demand:

- :mod:`repro.obs.tracer` — thread-safe span tracer with nested
  parent/child spans and a process-global default that is a no-op until
  enabled (zero overhead on hot paths);
- :mod:`repro.obs.metrics` — the fixed-bucket :class:`Histogram` behind
  the serve summary's latency quantiles;
- :mod:`repro.obs.export` — JSONL round-trip, Chrome ``trace_event``
  dump, and the per-stage fold and table keyed to the paper's stage
  names (``repro profile`` and ``repro runs show`` print it);
- :mod:`repro.obs.profile` — span trace folded into a hierarchical
  self-time/total-time profile tree with collapsed-stack flamegraph
  export and a top-N hot-path table;
- :mod:`repro.obs.ledger` — append-only run ledger: each recorded run
  becomes a durable ``manifest.json`` (+ its span trace) under
  ``.repro-runs/``;
- :mod:`repro.obs.regress` — regression sentinel comparing two ledger
  manifests cell-by-cell: deterministic cells gated exactly, measured
  (host-clock) cells informational.

The layers above the substrate are not re-exported here, because they
import the IR/VM/experiments packages, which themselves import
:mod:`repro.obs`: :mod:`repro.obs.fidelity` (golden-reference comparison
against the paper's published values), :mod:`repro.obs.bench` and
:mod:`repro.obs.vmprof` (opcode profile, per-block virtual and real
time shares, kernel flags and the heat-annotated IR listing).

The suite runner's pool children (``--jobs N``) hand their spans back
through one pair: :func:`capture_worker` in the child and
:func:`absorb_worker` in the parent, so a run sharded over processes
records the same spans as a serial one. The serve daemon needs neither:
its workers are threads recording into the daemon's own tracer.
"""

from repro.obs.metrics import Histogram
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
    fold_stages,
    read_jsonl,
    stage_table,
    tracer_records,
    validate_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.profile import Profile, ProfileNode, build_profile
from repro.obs.ledger import (
    DEFAULT_LEDGER_DIR,
    MANIFEST_SCHEMA,
    RunLedger,
    RunRecorder,
    abandon_run,
    current_run,
    finish_run,
    prune_runs,
    scalars_from_analyses,
    start_run,
)
from repro.obs.regress import (
    CellDelta,
    RegressionReport,
    compare_manifests,
    flatten_cells,
    parse_tolerances,
)

# -- pool-child handoff ---------------------------------------------------------
def worker_settings() -> dict:
    """The picklable observability settings a pool child should adopt."""
    return {"tracing": get_tracer().enabled}


def capture_worker(settings: dict):
    """Child side: install a fresh tracer configured like the parent's.

    A forked child inherits the parent's tracer along with its open sink;
    a fresh instance keeps the child's spans to exactly its own unit of
    work and out of the parent's files. Returns a callable that collects
    those spans for :func:`absorb_worker`.
    """
    tracer = set_tracer(Tracer(enabled=settings["tracing"]))

    def evidence() -> dict:
        return {"spans": tracer_records(tracer) if tracer.enabled else []}

    return evidence


def absorb_worker(evidence: dict, parent=None, base: float | None = None) -> None:
    """Parent side: merge a child's spans.

    Spans are reparented under *parent* (:meth:`Tracer.absorb`) and shifted
    onto this process's clock by *base*.
    """
    get_tracer().absorb(evidence["spans"], parent=parent, base=base)


__all__ = [
    "abandon_run",
    "absorb_worker",
    "build_profile",
    "capture_worker",
    "CellDelta",
    "chrome_trace",
    "compare_manifests",
    "current_run",
    "DEFAULT_LEDGER_DIR",
    "disable_tracing",
    "enable_tracing",
    "export_tracer",
    "finish_run",
    "flatten_cells",
    "fold_stages",
    "get_tracer",
    "Histogram",
    "MANIFEST_SCHEMA",
    "NOOP_SPAN",
    "PAPER_STAGE_LABELS",
    "PAPER_STAGES",
    "parse_tolerances",
    "Profile",
    "ProfileNode",
    "prune_runs",
    "read_jsonl",
    "RegressionReport",
    "RunLedger",
    "RunRecorder",
    "scalars_from_analyses",
    "set_tracer",
    "Span",
    "span",
    "SpanRecord",
    "stage_table",
    "start_run",
    "TABLE3_SPAN_NAMES",
    "Tracer",
    "tracer_records",
    "tracing_enabled",
    "validate_trace",
    "worker_settings",
    "write_chrome_trace",
    "write_jsonl",
]
