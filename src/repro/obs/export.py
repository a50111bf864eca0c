"""Trace export and rendering.

Three output formats for a finished trace:

- **JSON lines** (:func:`write_jsonl` / :func:`read_jsonl`): one span per
  line, losslessly round-trippable — the on-disk format behind the CLI's
  ``--trace FILE`` flag, replayed by ``repro profile FILE``;
- **Chrome trace_event** (:func:`chrome_trace`): loadable in
  ``chrome://tracing`` / Perfetto for interactive flame views;
- **ASCII** (:func:`stage_table`): a per-stage time table keyed to the
  paper's Table II/III column names, rendered from :func:`fold_stages`'
  totals — the same dict a ledger manifest stores as its ``stages``, so
  ``repro profile`` and ``repro runs show`` print one table.

Stage aggregation understands the pipeline's two clocks: real
``perf_counter`` durations for phases that genuinely run (candidate
search), and the ``virtual_seconds`` attribute for the modelled CAD
stages, whose virtual totals are what Tables II/III report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

from repro.obs.tracer import Span, Tracer
from repro.util.tables import Table

#: Span-name -> paper column-name taxonomy (Tables II and III). The CAD
#: stage names follow the real tools they model: the paper's "Syn" is the
#: syntax check, "Xst" the XST synthesis run.
PAPER_STAGES: tuple[tuple[str, str], ...] = (
    ("search", "Search"),
    ("cad.c2v", "C2V"),
    ("cad.syntax", "Syn"),
    ("cad.synthesis", "Xst"),
    ("cad.translate", "Tra"),
    ("cad.map", "Map"),
    ("cad.par", "PAR"),
    ("cad.bitgen", "Bitgen"),
    ("icap.reconfigure", "ICAP"),
)

PAPER_STAGE_LABELS: dict[str, str] = dict(PAPER_STAGES)

#: The Table III columns proper, in paper order (span names).
TABLE3_SPAN_NAMES: tuple[str, ...] = (
    "cad.c2v",
    "cad.syntax",
    "cad.synthesis",
    "cad.translate",
    "cad.map",
    "cad.par",
    "cad.bitgen",
)


@dataclass
class SpanRecord:
    """One span as loaded back from an exported trace."""

    name: str
    span_id: int
    parent_id: int | None
    t0: float
    t1: float
    thread: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.t1 - self.t0)

    @property
    def virtual_seconds(self) -> float | None:
        value = self.attrs.get("virtual_seconds")
        return float(value) if value is not None else None


# -- serialization -------------------------------------------------------------
def span_to_dict(span: Span, epoch: float = 0.0) -> dict:
    """JSON-safe dict for one finished span, times relative to *epoch*."""
    end = span.end if span.end is not None else span.start
    return {
        "name": span.name,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "t0": round(span.start - epoch, 9),
        "t1": round(end - epoch, 9),
        "thread": span.thread,
        "attrs": _json_safe(span.attrs),
    }


def _json_safe(value):
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def write_jsonl(
    spans: Iterable[Span], path_or_file, epoch: float | None = None
) -> int:
    """Write spans as JSON lines; returns the number of spans written."""
    spans = list(spans)
    if epoch is None:
        epoch = min((s.start for s in spans), default=0.0)
    lines = [json.dumps(span_to_dict(s, epoch)) for s in spans]
    text = "\n".join(lines) + ("\n" if lines else "")
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            fh.write(text)
    return len(lines)


def export_tracer(tracer: Tracer, path_or_file) -> int:
    """Export all finished spans of *tracer*, relative to its epoch."""
    return write_jsonl(tracer.spans(), path_or_file, epoch=tracer.epoch)


def tracer_records(tracer: Tracer) -> list[SpanRecord]:
    """In-memory :class:`SpanRecord` view of a tracer's finished spans.

    Same shape a JSONL round-trip would produce (times relative to the
    tracer's epoch), without touching disk — the profile builder
    (:mod:`repro.obs.profile`) consumes this directly.
    """
    epoch = tracer.epoch
    return [
        SpanRecord(
            name=s.name,
            span_id=s.span_id,
            parent_id=s.parent_id,
            t0=s.start - epoch,
            t1=(s.end if s.end is not None else s.start) - epoch,
            thread=s.thread,
            attrs=dict(s.attrs),
        )
        for s in tracer.spans()
    ]


def read_jsonl(path_or_file) -> list[SpanRecord]:
    """Load a JSONL trace back into :class:`SpanRecord` objects."""
    if hasattr(path_or_file, "read"):
        text = path_or_file.read()
    else:
        with open(path_or_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    records: list[SpanRecord] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace line {lineno}: invalid JSON ({exc})") from None
        records.append(
            SpanRecord(
                name=str(obj.get("name", "")),
                span_id=int(obj.get("span_id", 0)),
                parent_id=(
                    int(obj["parent_id"]) if obj.get("parent_id") is not None else None
                ),
                t0=float(obj.get("t0", 0.0)),
                t1=float(obj.get("t1", 0.0)),
                thread=int(obj.get("thread", 0)),
                attrs=dict(obj.get("attrs") or {}),
            )
        )
    return records


def validate_trace(records: Sequence[SpanRecord]) -> list[str]:
    """Schema-check a loaded trace; returns a list of problems (empty = ok)."""
    errors: list[str] = []
    ids = set()
    for rec in records:
        where = f"span {rec.span_id} ({rec.name!r})"
        if not rec.name:
            errors.append(f"{where}: empty name")
        if rec.span_id <= 0:
            errors.append(f"{where}: span_id must be positive")
        elif rec.span_id in ids:
            errors.append(f"{where}: duplicate span_id")
        ids.add(rec.span_id)
        if rec.t1 < rec.t0:
            errors.append(f"{where}: ends before it starts (t1 < t0)")
    for rec in records:
        if rec.parent_id is not None and rec.parent_id not in ids:
            errors.append(
                f"span {rec.span_id} ({rec.name!r}): "
                f"unknown parent_id {rec.parent_id}"
            )
    return errors


# -- Chrome trace_event --------------------------------------------------------
def chrome_trace(records: Sequence[SpanRecord]) -> dict:
    """Chrome ``trace_event`` document (complete 'X' events, µs units)."""
    events = []
    for rec in records:
        events.append(
            {
                "name": PAPER_STAGE_LABELS.get(rec.name, rec.name),
                "cat": rec.name.split(".", 1)[0],
                "ph": "X",
                "ts": rec.t0 * 1e6,
                "dur": rec.duration * 1e6,
                "pid": 1,
                "tid": rec.thread,
                "args": rec.attrs,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(records: Sequence[SpanRecord], path_or_file) -> None:
    doc = chrome_trace(records)
    if hasattr(path_or_file, "write"):
        json.dump(doc, path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# -- ASCII renderings ----------------------------------------------------------
def _fmt_seconds(value: float | None) -> str:
    if value is None:
        return "-"
    if value < 0.001 and value != 0.0:
        return f"{value * 1000:.3f} ms"
    if value < 1.0:
        return f"{value * 1000:.2f} ms"
    return f"{value:.2f} s"


def fold_stages(records: Sequence[SpanRecord]) -> dict:
    """Aggregate a trace into per-span-name totals on both clocks.

    Returns ``{name: {label, spans, real_seconds, virtual_seconds,
    measured}}`` where ``label`` is the paper column name for Table II/III
    stages and ``virtual_seconds`` is None for span names that never
    carried one. ``measured`` (:mod:`repro.obs.regress`) names the host-
    clock fields: all of them for spans opened with ``measured=True``.
    This is the manifest's ``stages`` block and what :func:`stage_table`
    renders.
    """
    stages: dict[str, dict] = {}
    for rec in records:
        entry = stages.setdefault(
            rec.name,
            {
                "label": PAPER_STAGE_LABELS.get(rec.name),
                "spans": 0,
                "real_seconds": 0.0,
                "virtual_seconds": None,
                "measured": ["real_seconds"],
            },
        )
        if rec.attrs.get("measured"):
            entry["measured"] = ["*"]
        entry["spans"] += 1
        entry["real_seconds"] += rec.duration
        virtual = rec.virtual_seconds
        if virtual is not None:
            entry["virtual_seconds"] = (entry["virtual_seconds"] or 0.0) + virtual
    for entry in stages.values():
        entry["real_seconds"] = round(entry["real_seconds"], 9)
        if entry["virtual_seconds"] is not None:
            entry["virtual_seconds"] = round(entry["virtual_seconds"], 9)
    return stages


def stage_table(stages: dict) -> Table:
    """Per-stage time table of :func:`fold_stages`' dict, both clocks.

    Rows follow the order of :data:`PAPER_STAGES` for stages present;
    any other span names follow, sorted by real time spent. Real time is
    the measured ``perf_counter`` interval; virtual time sums the
    ``virtual_seconds`` attributes (the modelled Table II/III values).
    """
    table = Table(
        columns=["stage", "spans", "real", "virtual"],
        title="Per-stage times",
    )
    paper_names = [name for name, _ in PAPER_STAGES if name in stages]
    other_names = sorted(
        (n for n in stages if n not in PAPER_STAGE_LABELS),
        key=lambda n: -stages[n]["real_seconds"],
    )
    virtuals = [
        st["virtual_seconds"]
        for st in stages.values()
        if st["virtual_seconds"] is not None
    ]
    for name in paper_names + other_names:
        st = stages[name]
        label = st["label"]
        table.add_row(
            [
                f"{label} [{name}]" if label else name,
                st["spans"],
                _fmt_seconds(st["real_seconds"]),
                _fmt_seconds(st["virtual_seconds"]),
            ]
        )
    table.add_footer(
        [
            "total",
            sum(st["spans"] for st in stages.values()),
            _fmt_seconds(sum(st["real_seconds"] for st in stages.values())),
            _fmt_seconds(sum(virtuals) if virtuals else None),
        ]
    )
    return table
