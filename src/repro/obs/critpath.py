"""Critical-path analysis of a recorded specialization run.

The paper answers "is JIT ISE feasible?" with per-stage overhead tables
(Tables II/III) and break-even times (Section V-D); what it cannot show
from aggregates alone is *which* stage bounds the process — where the
critical path sits and how much headroom a faster stage would buy. This
module reconstructs the specialization DAG of Figure 2 from a recorded
span trace (candidate search -> per-candidate CAD stage chains -> ICAP
reconfiguration = instruction activation), honoring the ``cached``
(bitstream-cache hit) and ``shared`` span attributes, and runs classic
CPM (earliest/latest start-finish) over it on both clocks:

- **virtual** — the modelled Table III stage runtimes; the critical path
  here names the CAD bottleneck (Bitgen, ~151 s of the ~178 s
  per-candidate chain);
- **real** — measured ``perf_counter`` durations; here candidate search
  and profiling dominate because the CAD stages are simulated.

Dependencies in the DAG: an application's candidate chains only depend on
its search (they could run on parallel CAD workers), stages within one
candidate are sequential, and ICAP writes serialize in ``custom_id``
order. The recorded 1-worker schedule is the serial sum of all weights;
the CPM makespan is the unbounded-worker lower bound, and per-node slack
says how far a stage can stretch without moving break-even.

The Amdahl-style headroom table reuses
:class:`repro.core.breakeven.BreakEvenModel`: for each stage it reports
the break-even time that would result from speeding *only that stage* up
by k in {1.5x, 2x, 5x, 10x, inf} — the trace-driven answer to "what
single change moves break-even most" (the same question Table IV asks
analytically for caching and a uniformly faster CAD flow).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.obs.export import SpanRecord, _fmt_seconds
from repro.util.tables import Table
from repro.util.timefmt import format_hhmmss

#: Short stage keys in per-candidate chain order (Table III columns).
STAGE_KEYS: tuple[str, ...] = ("c2v", "syn", "xst", "tra", "map", "par", "bitgen")

#: Span name -> short stage key for the CAD stage spans.
SPAN_TO_STAGE: dict[str, str] = {
    "cad.c2v": "c2v",
    "cad.syntax": "syn",
    "cad.synthesis": "xst",
    "cad.translate": "tra",
    "cad.map": "map",
    "cad.par": "par",
    "cad.bitgen": "bitgen",
}

#: Display labels (paper column names) for every DAG stage kind.
STAGE_LABELS: dict[str, str] = {
    "search": "Search",
    "c2v": "C2V",
    "syn": "Syn",
    "xst": "Xst",
    "tra": "Tra",
    "map": "Map",
    "par": "PAR",
    "bitgen": "Bitgen",
    "icap": "ICAP",
}

#: Table III's constant stages. Map and PAR scale with candidate size and
#: are excluded from the paper's constant-overhead table; for large
#: candidates they can dominate the chain even though Bitgen dominates
#: the constant portion (~151 s of the ~178 s constant sum).
CONSTANT_STAGE_KEYS: tuple[str, ...] = ("c2v", "syn", "xst", "tra", "bitgen")

#: Headroom speedup factors (k = how much faster the stage runs).
HEADROOM_FACTORS: tuple[float, ...] = (1.5, 2.0, 5.0, 10.0, math.inf)

_EPS = 1e-12


def _factor_label(k: float) -> str:
    return "inf" if math.isinf(k) else f"{k:g}x"


# -- trace -> replay model -----------------------------------------------------
@dataclass
class CandidateReplay:
    """One implemented candidate as reconstructed from the trace."""

    custom_id: int
    key: str | None
    virtual_total: float  # modelled CAD chain seconds (Table III total)
    real_total: float  # measured span duration
    icap_virtual: float  # ICAP reconfiguration seconds (activation)
    icap_real: float
    from_cache: bool = False  # served by the persistent bitstream cache
    shared: bool = False  # reused a structurally equal implementation
    stage_virtual: dict[str, float] | None = None
    stage_real: dict[str, float] | None = None
    split_estimated: bool = False  # stage split backfilled from run averages

    def virtual_stage(self, stage: str) -> float:
        """Virtual seconds of one stage (0.0 when no split is known)."""
        if self.stage_virtual is None:
            return 0.0
        return self.stage_virtual.get(stage, 0.0)


@dataclass
class AppReplay:
    """One application's specialization process from the trace."""

    name: str
    search_virtual: float  # == the measured search_seconds (Table II)
    search_real: float
    candidates: list[CandidateReplay] = field(default_factory=list)
    failed: int = 0  # candidates whose CAD implementation failed

    @property
    def toolflow_virtual(self) -> float:
        return sum(c.virtual_total for c in self.candidates)

    @property
    def icap_virtual(self) -> float:
        return sum(c.icap_virtual for c in self.candidates)

    @property
    def overhead_virtual(self) -> float:
        """Recorded serial overhead: search + CAD chains + ICAP writes."""
        return self.search_virtual + self.toolflow_virtual + self.icap_virtual

    def stage_total(self, stage: str, clock: str = "virtual") -> float:
        """Summed weight of one stage kind over the whole app."""
        if stage == "search":
            return self.search_virtual if clock == "virtual" else self.search_real
        if stage == "icap":
            return sum(
                c.icap_virtual if clock == "virtual" else c.icap_real
                for c in self.candidates
            )
        total = 0.0
        for c in self.candidates:
            splits = c.stage_virtual if clock == "virtual" else c.stage_real
            if splits:
                total += splits.get(stage, 0.0)
        return total


@dataclass
class RunReplay:
    """Every specialization process found in one recorded trace."""

    apps: list[AppReplay] = field(default_factory=list)

    @property
    def app_names(self) -> list[str]:
        return [a.name for a in self.apps]

    @classmethod
    def from_records(cls, records: Sequence[SpanRecord]) -> "RunReplay":
        """Reconstruct the specialization DAG inputs from a span trace."""
        by_id = {r.span_id: r for r in records}
        children: dict[int | None, list[SpanRecord]] = {}
        for rec in records:
            parent = rec.parent_id if rec.parent_id in by_id else None
            children.setdefault(parent, []).append(rec)
        for group in children.values():
            group.sort(key=lambda r: (r.t0, r.span_id))

        def subtree(root: SpanRecord) -> list[SpanRecord]:
            out: list[SpanRecord] = []
            stack = [root]
            while stack:
                rec = stack.pop()
                out.append(rec)
                stack.extend(children.get(rec.span_id, []))
            return out

        def app_name_for(run: SpanRecord) -> str:
            # Prefer the enclosing analysis.run span's registry name; the
            # asip_sp.run module attribute is the fallback (jit runs).
            cur: SpanRecord | None = run
            while cur is not None:
                if cur.name == "analysis.run" and cur.attrs.get("app"):
                    return str(cur.attrs["app"])
                cur = by_id.get(cur.parent_id) if cur.parent_id else None
            return str(run.attrs.get("module") or "app")

        replay = cls()
        sp_runs = [r for r in records if r.name == "asip_sp.run"]
        sp_runs.sort(key=lambda r: (r.t0, r.span_id))
        for run in sp_runs:
            nodes = subtree(run)
            app = AppReplay(name=app_name_for(run), search_virtual=0.0, search_real=0.0)
            searches = [r for r in nodes if r.name == "search"]
            if searches:
                search = min(searches, key=lambda r: r.t0)
                virt = search.virtual_seconds
                app.search_real = search.duration
                app.search_virtual = virt if virt is not None else search.duration

            # Per-candidate stage splits live on cad.implement spans — as
            # children of the candidate span, or under asip_sp.run in
            # traces from the former CAD thread prefetch. Keyed by the
            # candidate key attribute either way.
            splits: dict[str, tuple[dict[str, float], dict[str, float]]] = {}
            for impl in nodes:
                if impl.name != "cad.implement":
                    continue
                key = impl.attrs.get("candidate")
                stage_virtual: dict[str, float] = {}
                stage_real: dict[str, float] = {}
                for child in children.get(impl.span_id, []):
                    stage = SPAN_TO_STAGE.get(child.name)
                    if stage is None:
                        continue
                    virt = child.virtual_seconds
                    if virt is None:
                        stage_virtual.clear()
                        break  # failed flow: timings never back-filled
                    stage_virtual[stage] = stage_virtual.get(stage, 0.0) + virt
                    stage_real[stage] = stage_real.get(stage, 0.0) + child.duration
                if key is not None and len(stage_virtual) == len(STAGE_KEYS):
                    splits[str(key)] = (stage_virtual, stage_real)

            cand_spans = [
                r
                for r in children.get(run.span_id, [])
                if r.name == "asip_sp.candidate"
            ]
            cand_spans.sort(
                key=lambda r: (int(r.attrs.get("custom_id", 0)), r.t0)
            )
            for cand in cand_spans:
                if cand.attrs.get("failed"):
                    app.failed += 1
                    continue
                virtual_total = cand.virtual_seconds
                if virtual_total is None:
                    app.failed += 1
                    continue
                icap_virtual = icap_real = 0.0
                for child in subtree(cand):
                    if child.name == "icap.reconfigure":
                        virt = child.virtual_seconds
                        icap_virtual += virt if virt is not None else 0.0
                        icap_real += child.duration
                key = cand.attrs.get("candidate")
                split = splits.get(str(key)) if key is not None else None
                app.candidates.append(
                    CandidateReplay(
                        custom_id=int(cand.attrs.get("custom_id", len(app.candidates))),
                        key=str(key) if key is not None else None,
                        virtual_total=virtual_total,
                        real_total=cand.duration,
                        icap_virtual=icap_virtual,
                        icap_real=icap_real,
                        from_cache=bool(cand.attrs.get("cached")),
                        shared=bool(cand.attrs.get("shared")),
                        stage_virtual=dict(split[0]) if split else None,
                        stage_real=dict(split[1]) if split else None,
                    )
                )
            replay.apps.append(app)
        replay._backfill_splits()
        return replay

    def _backfill_splits(self) -> None:
        """Estimate stage splits for candidates without CAD stage spans.

        Shared and cache-served candidates carry only their chain total
        (the paper's per-candidate accounting still charges them fully);
        their split is estimated from the mean stage shares observed over
        every implemented chain in the run and flagged ``split_estimated``.
        """
        share_sum = {stage: 0.0 for stage in STAGE_KEYS}
        observed = 0
        for app in self.apps:
            for cand in app.candidates:
                if cand.stage_virtual is None or cand.virtual_total <= 0.0:
                    continue
                total = sum(cand.stage_virtual.values())
                if total <= 0.0:
                    continue
                observed += 1
                for stage in STAGE_KEYS:
                    share_sum[stage] += cand.stage_virtual.get(stage, 0.0) / total
        if not observed:
            return
        shares = {stage: share_sum[stage] / observed for stage in STAGE_KEYS}
        for app in self.apps:
            for cand in app.candidates:
                if cand.stage_virtual is not None:
                    continue
                cand.stage_virtual = {
                    stage: shares[stage] * cand.virtual_total
                    for stage in STAGE_KEYS
                }
                cand.stage_real = {stage: 0.0 for stage in STAGE_KEYS}
                cand.split_estimated = True


# -- CPM over the specialization DAG -------------------------------------------
@dataclass
class CritNode:
    """One node of the specialization DAG with its CPM schedule."""

    stage: str  # "search", a STAGE_KEYS entry, or "icap"
    app: str
    candidate: int | None  # custom_id, None for search
    weight: float
    from_cache: bool = False
    estimated: bool = False
    earliest_start: float = 0.0
    earliest_finish: float = 0.0
    latest_start: float = 0.0
    latest_finish: float = 0.0

    @property
    def slack(self) -> float:
        return max(0.0, self.latest_start - self.earliest_start)

    @property
    def critical(self) -> bool:
        return self.slack <= _EPS

    @property
    def label(self) -> str:
        name = STAGE_LABELS.get(self.stage, self.stage)
        if self.candidate is None:
            return f"{self.app}:{name}"
        return f"{self.app}:c{self.candidate}:{name}"


@dataclass
class CriticalPathAnalysis:
    """CPM result for one clock over a run's specialization DAG."""

    clock: str
    nodes: list[CritNode]
    makespan: float  # unbounded-worker (CPM) lower bound
    serial_seconds: float  # recorded 1-worker schedule (sum of weights)
    path: list[CritNode]  # one critical chain, source to sink

    def stage_summary(self) -> dict[str, dict]:
        """Per-stage totals, node counts, slack, and critical membership."""
        summary: dict[str, dict] = {}
        on_path = {id(node) for node in self.path}
        for node in self.nodes:
            entry = summary.setdefault(
                node.stage,
                {
                    "label": STAGE_LABELS.get(node.stage, node.stage),
                    "nodes": 0,
                    "total": 0.0,
                    "slack_min": math.inf,
                    "on_path": 0,
                    "cached": 0,
                },
            )
            entry["nodes"] += 1
            entry["total"] += node.weight
            entry["slack_min"] = min(entry["slack_min"], node.slack)
            if id(node) in on_path:
                entry["on_path"] += 1
            if node.from_cache:
                entry["cached"] += 1
        for entry in summary.values():
            if math.isinf(entry["slack_min"]):
                entry["slack_min"] = 0.0
        return summary

    @property
    def dominant_stage(self) -> str | None:
        """Stage carrying the most weight on the critical path."""
        weights: dict[str, float] = {}
        for node in self.path:
            weights[node.stage] = weights.get(node.stage, 0.0) + node.weight
        if not weights:
            return None
        return max(weights, key=lambda s: weights[s])

    @property
    def path_seconds(self) -> float:
        return sum(node.weight for node in self.path)


def analyze_critical_path(replay: RunReplay, clock: str = "virtual") -> CriticalPathAnalysis:
    """Run CPM over *replay*'s specialization DAG on one clock.

    Applications are independent branches (each program triggers its own
    ASIP-SP); candidate chains fan out after their app's search; ICAP
    writes chain in ``custom_id`` order after their candidate's Bitgen.
    """
    if clock not in ("virtual", "real"):
        raise ValueError(f"unknown clock {clock!r} (virtual or real)")
    nodes: list[CritNode] = []
    preds: list[list[int]] = []
    succs: list[list[int]] = []

    def add(node: CritNode, pred_ids: list[int]) -> int:
        node_id = len(nodes)
        nodes.append(node)
        preds.append(list(pred_ids))
        succs.append([])
        for p in pred_ids:
            succs[p].append(node_id)
        return node_id

    for app in replay.apps:
        search_id = add(
            CritNode(
                stage="search",
                app=app.name,
                candidate=None,
                weight=app.search_virtual if clock == "virtual" else app.search_real,
            ),
            [],
        )
        prev_icap: int | None = None
        for cand in app.candidates:
            splits = cand.stage_virtual if clock == "virtual" else cand.stage_real
            prev = search_id
            for stage in STAGE_KEYS:
                weight = (splits or {}).get(stage, 0.0)
                prev = add(
                    CritNode(
                        stage=stage,
                        app=app.name,
                        candidate=cand.custom_id,
                        weight=weight,
                        from_cache=cand.from_cache,
                        estimated=cand.split_estimated,
                    ),
                    [prev],
                )
            icap_preds = [prev]
            if prev_icap is not None:
                icap_preds.append(prev_icap)
            prev_icap = add(
                CritNode(
                    stage="icap",
                    app=app.name,
                    candidate=cand.custom_id,
                    weight=cand.icap_virtual if clock == "virtual" else cand.icap_real,
                    from_cache=cand.from_cache,
                ),
                icap_preds,
            )

    # Forward pass (construction order is topological by design).
    for i, node in enumerate(nodes):
        node.earliest_start = max(
            (nodes[p].earliest_finish for p in preds[i]), default=0.0
        )
        node.earliest_finish = node.earliest_start + node.weight
    makespan = max((n.earliest_finish for n in nodes), default=0.0)

    # Backward pass.
    for i in range(len(nodes) - 1, -1, -1):
        node = nodes[i]
        node.latest_finish = min(
            (nodes[s].latest_start for s in succs[i]), default=makespan
        )
        node.latest_start = node.latest_finish - node.weight

    # Extract one critical chain: walk back from a sink finishing at the
    # makespan, always through the predecessor that bounds the start time.
    path: list[CritNode] = []
    current: int | None = None
    for i, node in enumerate(nodes):
        if abs(node.earliest_finish - makespan) <= _EPS and node.critical:
            current = i
            break
    while current is not None:
        node = nodes[current]
        path.append(node)
        candidates_back = [
            p
            for p in preds[current]
            if abs(nodes[p].earliest_finish - node.earliest_start) <= _EPS
            and nodes[p].critical
        ]
        current = candidates_back[0] if candidates_back else None
    path.reverse()

    return CriticalPathAnalysis(
        clock=clock,
        nodes=nodes,
        makespan=makespan,
        serial_seconds=sum(n.weight for n in nodes),
        path=path,
    )


# -- Amdahl-style headroom -----------------------------------------------------
@dataclass
class HeadroomTable:
    """Break-even headroom of speeding up one stage at a time.

    ``rows[stage]["break_even"][label]`` is the mean live-aware break-even
    (seconds, :data:`math.inf` when unreachable) over the run's apps when
    only *stage* runs k times faster; everything else keeps its measured
    virtual cost — the Amdahl bound of a single-stage improvement.
    """

    factors: tuple[float, ...]
    baseline_break_even: float  # mean over apps at the recorded overheads
    rows: dict[str, dict] = field(default_factory=dict)

    def render(self) -> str:
        table = Table(
            columns=["stage", "total [s]", "share %"]
            + [_factor_label(k) for k in self.factors],
            title="Break-even headroom per stage (virtual clock, h:m:s)",
        )
        for stage, row in self.rows.items():
            cells = [
                STAGE_LABELS.get(stage, stage),
                f"{row['total']:.2f}",
                f"{100.0 * row['share']:.1f}",
            ]
            for k in self.factors:
                be = row["break_even"][_factor_label(k)]
                cells.append(format_hhmmss(be) if math.isfinite(be) else "never")
            table.add_row(cells)
        table.add_footer(
            ["baseline", "", ""]
            + [
                format_hhmmss(self.baseline_break_even)
                if math.isfinite(self.baseline_break_even)
                else "never"
            ]
            * len(self.factors)
        )
        return table.render()


def headroom_table(
    replay: RunReplay,
    inputs: dict[str, object],
    model=None,
    factors: tuple[float, ...] = HEADROOM_FACTORS,
) -> HeadroomTable:
    """Compute the per-stage break-even headroom from measured overheads.

    *inputs* maps app name -> :class:`repro.core.extrapolate.AppBreakEvenInputs`
    (only the module/profile/coverage/estimates fields are used; the
    overheads come from the replay). Apps missing from *inputs* are
    skipped. Reuses :class:`repro.core.breakeven.BreakEvenModel` exactly
    as the recorded run did, so the baseline column reproduces the run's
    recorded break-even times.
    """
    from repro.core.breakeven import BreakEvenModel
    from repro.vm.profiler import static_block_costs

    model = model or BreakEvenModel()
    apps = [a for a in replay.apps if a.name in inputs]
    stages = ["search", *STAGE_KEYS, "icap"]
    costs = {
        a.name: static_block_costs(inputs[a.name].module, model.cost_model)
        for a in apps
    }

    def break_even(app: AppReplay, overhead: float) -> float:
        inp = inputs[app.name]
        analysis = model.analyze(
            costs[app.name], inp.profile, inp.coverage, inp.estimates, overhead
        )
        return analysis.live_aware_seconds

    def mean_finite(values: list[float]) -> float:
        finite = [v for v in values if math.isfinite(v)]
        return sum(finite) / len(finite) if finite else math.inf

    baseline = mean_finite([break_even(a, a.overhead_virtual) for a in apps])
    grand_total = sum(a.overhead_virtual for a in apps)
    table = HeadroomTable(factors=tuple(factors), baseline_break_even=baseline)
    for stage in stages:
        stage_total = sum(a.stage_total(stage, "virtual") for a in apps)
        row = {
            "total": stage_total,
            "share": stage_total / grand_total if grand_total > 0 else 0.0,
            "break_even": {},
        }
        for k in factors:
            saved_fraction = 1.0 if math.isinf(k) else 1.0 - 1.0 / k
            values = []
            for app in apps:
                reduced = (
                    app.overhead_virtual
                    - saved_fraction * app.stage_total(stage, "virtual")
                )
                values.append(break_even(app, max(0.0, reduced)))
            row["break_even"][_factor_label(k)] = mean_finite(values)
        table.rows[stage] = row
    return table


def table3_summary(replay: RunReplay) -> dict | None:
    """Mean per-candidate constant-stage split (Table III consistency).

    Averages the observed (non-estimated) candidate chains' constant
    stages; ``bitgen_share`` should sit near the paper's 151.00 / 178.03
    = 0.85 whenever the recorded run matches Table III. Returns None when
    the trace carries no observed stage splits.
    """
    totals = {stage: 0.0 for stage in CONSTANT_STAGE_KEYS}
    count = 0
    for app in replay.apps:
        for cand in app.candidates:
            if cand.stage_virtual is None or cand.split_estimated:
                continue
            count += 1
            for stage in CONSTANT_STAGE_KEYS:
                totals[stage] += cand.stage_virtual.get(stage, 0.0)
    if not count:
        return None
    means = {stage: totals[stage] / count for stage in CONSTANT_STAGE_KEYS}
    constant_sum = sum(means.values())
    return {
        "candidates": count,
        "means": means,
        "constant_sum": constant_sum,
        "bitgen_share": means["bitgen"] / constant_sum if constant_sum else 0.0,
        "dominant": max(means, key=lambda s: means[s]) if constant_sum else None,
    }


def render_table3_summary(summary: dict) -> str:
    dominant = summary["dominant"]
    return (
        f"constant stages (Table III, {summary['candidates']} observed "
        f"chains): {STAGE_LABELS.get(dominant, dominant)}-dominated — "
        f"Bitgen {summary['means']['bitgen']:.2f} s of "
        f"{summary['constant_sum']:.2f} s mean per-candidate constant "
        f"overhead ({100.0 * summary['bitgen_share']:.1f} %)"
    )


# -- rendering & manifest block ------------------------------------------------
def render_critical_path(analysis: CriticalPathAnalysis, limit: int = 12) -> str:
    """ASCII rendering: path chain, dominant stage, per-stage slack table."""
    lines = [
        f"critical path ({analysis.clock} clock): "
        f"{_fmt_seconds(analysis.makespan)} with unbounded CAD workers, "
        f"{_fmt_seconds(analysis.serial_seconds)} as recorded (serial)"
    ]
    if analysis.path:
        shown = analysis.path[:limit]
        chain = " -> ".join(
            f"{n.label} ({_fmt_seconds(n.weight)})" for n in shown
        )
        if len(analysis.path) > limit:
            chain += f" -> ... ({len(analysis.path) - limit} more)"
        lines.append(f"  path: {chain}")
        dominant = analysis.dominant_stage
        if dominant is not None:
            dom_weight = sum(
                n.weight for n in analysis.path if n.stage == dominant
            )
            share = (
                100.0 * dom_weight / analysis.path_seconds
                if analysis.path_seconds > 0
                else 0.0
            )
            lines.append(
                f"  dominated by {STAGE_LABELS.get(dominant, dominant)}: "
                f"{_fmt_seconds(dom_weight)} of "
                f"{_fmt_seconds(analysis.path_seconds)} on the path "
                f"({share:.1f} %)"
            )
    table = Table(
        columns=["stage", "nodes", "total", "min slack", "on path", "cached"],
        title=f"Per-stage slack ({analysis.clock} clock)",
    )
    summary = analysis.stage_summary()
    for stage in sorted(summary, key=lambda s: -summary[s]["total"]):
        entry = summary[stage]
        table.add_row(
            [
                entry["label"],
                entry["nodes"],
                _fmt_seconds(entry["total"]),
                _fmt_seconds(entry["slack_min"]),
                entry["on_path"],
                entry["cached"] or "-",
            ]
        )
    lines.append("")
    lines.append(table.render())
    return "\n".join(lines)


def critpath_block(
    virtual: CriticalPathAnalysis,
    real: CriticalPathAnalysis,
    headroom: HeadroomTable | None = None,
    table3: dict | None = None,
) -> dict:
    """Manifest block for :meth:`repro.obs.ledger.RunLedger.attach_block`.

    The real-clock cells and the candidate-search cells (measured wall
    clock on both clocks) are declared measured; the virtual-clock cells
    are modelled times that fold the search milliseconds into a
    minutes-scale total, so they are gated at 1e-4.
    """
    block: dict = {
        "measured": ["real.*", "virtual.stages.search.*", "headroom.search.*"],
        "tolerance": {"*": 1e-4},
    }
    for analysis in (virtual, real):
        dominant = analysis.dominant_stage
        entry: dict = {
            "makespan": round(analysis.makespan, 9),
            "serial_seconds": round(analysis.serial_seconds, 9),
            "path": [n.label for n in analysis.path],
            "dominant_stage": dominant,
            "stages": {},
        }
        if dominant is not None and analysis.path_seconds > 0:
            dom_weight = sum(
                n.weight for n in analysis.path if n.stage == dominant
            )
            entry["dominant_share"] = round(
                dom_weight / analysis.path_seconds, 9
            )
        for stage, summary in analysis.stage_summary().items():
            entry["stages"][stage] = {
                "total": round(summary["total"], 9),
                "nodes": summary["nodes"],
                "slack_min": round(summary["slack_min"], 9),
                "on_path": summary["on_path"],
            }
        block[analysis.clock] = entry
    if table3 is not None:
        block["table3"] = {
            "candidates": table3["candidates"],
            "constant_sum": round(table3["constant_sum"], 9),
            "bitgen_mean": round(table3["means"]["bitgen"], 9),
            "bitgen_share": round(table3["bitgen_share"], 9),
        }
    if headroom is not None:
        block["headroom"] = {
            "factors": [
                _factor_label(k) for k in headroom.factors
            ],
            "baseline_break_even": (
                round(headroom.baseline_break_even, 6)
                if math.isfinite(headroom.baseline_break_even)
                else None
            ),
            "stages": {
                stage: {
                    "total": round(row["total"], 9),
                    "share": round(row["share"], 9),
                    "break_even": {
                        label: (round(v, 6) if math.isfinite(v) else None)
                        for label, v in row["break_even"].items()
                    },
                }
                for stage, row in headroom.rows.items()
            },
        }
    return block
