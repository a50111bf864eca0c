"""Poisson load generation against the specialization daemon.

Drives the serving plane the way Section VI's feasibility argument is
framed: many clients, a weighted mix of applications, arrivals as a
Poisson process. The schedule is **deterministic** — interarrival gaps
are inverse-transform exponentials from a
:class:`repro.util.rng.DeterministicRng`, and client → tenant → app
assignments derive from the same stream — so two runs with one seed
replay the identical offered load and the regression sentinel can gate
the request counts exactly.

Two phases run the same schedule against one shared store: ``cold``
(empty store: every first candidate signature pays the CAD flow) and
``warm`` (every candidate a hit), so the committed ``BENCH_serve.json``
carries the serving-time analogue of Table IV's cache argument — warm
p95 break-even strictly below cold. Rejected admissions are retried
after the advertised ``retry_after_ms`` (backpressure, not lost work)
and surface as a retry count.
"""

from __future__ import annotations

import itertools
import math
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field

from repro.serve.protocol import ServeClient
from repro.serve.server import (
    SUMMARY_MEASURED,
    ServerConfig,
    SpecializationServer,
)
from repro.serve.store import SharedBitstreamStore
from repro.util.rng import DeterministicRng

#: Measured cells of the ``serve`` block a load-generation run records; a
#: cold phase races tenants to one signature, so its CAD work is too.
LOADGEN_MEASURED = (
    *(f"phases.*.{glob}" for glob in SUMMARY_MEASURED),
    "phases.*.retries", "phases.*.wall_seconds", "phases.*.throughput_rps",
    "phases.*.client_latency_ms.*", "phases.*.cad_implementations",
    "comparison.*",
)

#: Default offered application mix: the embedded suite, weighted toward
#: the apps with more selected candidates (heavier CAD work).
DEFAULT_APP_MIX: tuple[tuple[str, float], ...] = (
    ("fft", 3.0),
    ("adpcm", 2.0),
    ("sor", 2.0),
    ("whetstone", 1.0),
)


@dataclass
class LoadGenConfig:
    requests: int = 200
    clients: int = 1000  # logical client population
    tenants: int = 4
    rate: float = 50.0  # Poisson arrival rate, requests/second
    seed: int = 0
    concurrency: int = 12  # socket sender threads
    workers: int = 4  # embedded server worker pool
    queue_depth: int = 16  # embedded server admission queue
    tenant_budget: int | None = None
    time_share_pct: float = 50.0
    max_blocks: int = 3
    mix: tuple[tuple[str, float], ...] = DEFAULT_APP_MIX


@dataclass
class ScheduledRequest:
    offset: float  # seconds after phase start
    client: int
    tenant: str
    app: str


def build_schedule(cfg: LoadGenConfig) -> list[ScheduledRequest]:
    """Deterministic Poisson arrival schedule for one phase."""
    rng = DeterministicRng("serve/loadgen", cfg.seed)
    apps = [name for name, _ in cfg.mix]
    weights = [max(0.0, float(w)) for _, w in cfg.mix]
    total_weight = sum(weights) or 1.0
    cumulative: list[float] = []
    acc = 0.0
    for w in weights:
        acc += w / total_weight
        cumulative.append(acc)

    schedule: list[ScheduledRequest] = []
    t = 0.0
    for _ in range(cfg.requests):
        u = float(rng.random())
        t += -math.log(max(1e-12, 1.0 - u)) / max(1e-9, cfg.rate)
        client = int(rng.integers(0, max(1, cfg.clients)))
        draw = float(rng.random())
        app = apps[-1]
        for name, bound in zip(apps, cumulative):
            if draw <= bound:
                app = name
                break
        schedule.append(
            ScheduledRequest(
                offset=round(t, 6),
                client=client,
                tenant=f"tenant{client % max(1, cfg.tenants):02d}",
                app=app,
            )
        )
    return schedule


@dataclass
class _DriveResult:
    completed: int = 0
    failed: int = 0
    retries: int = 0
    unresolved: int = 0  # still rejected after the retry budget
    wall_seconds: float = 0.0
    client_latency_ms: list[float] = field(default_factory=list)


def drive_schedule(
    schedule: list[ScheduledRequest],
    host: str,
    port: int,
    cfg: LoadGenConfig,
    label: str = "phase",
) -> _DriveResult:
    """Replay *schedule* against a live server; returns client-side tallies."""
    result = _DriveResult()
    lock = threading.Lock()
    counter = itertools.count()
    start = time.perf_counter()

    def sender() -> None:
        client = ServeClient(host=host, port=port, timeout=300.0)
        while True:
            i = next(counter)
            if i >= len(schedule):
                return
            req = schedule[i]
            delay = req.offset - (time.perf_counter() - start)
            if delay > 0:
                time.sleep(delay)
            t0 = time.perf_counter()
            response, retries = client.specialize_retry(
                req.tenant,
                req.app,
                max_attempts=1000,
                time_share_pct=cfg.time_share_pct,
                max_blocks=cfg.max_blocks,
                request_id=f"{label}-{i:05d}",
            )
            latency_ms = (time.perf_counter() - t0) * 1000.0
            with lock:
                result.retries += retries
                result.client_latency_ms.append(round(latency_ms, 3))
                status = response.get("status")
                if status == "ok":
                    result.completed += 1
                elif status == "rejected":
                    result.unresolved += 1
                else:
                    result.failed += 1

    threads = [
        threading.Thread(target=sender, name=f"loadgen-{i}", daemon=True)
        for i in range(max(1, cfg.concurrency))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall_seconds = round(time.perf_counter() - start, 3)
    return result


def _run_phase(
    label: str,
    schedule: list[ScheduledRequest],
    store: SharedBitstreamStore,
    cfg: LoadGenConfig,
) -> dict:
    """One phase: fresh embedded server over the shared store."""
    stores_before = store.combined_stats()["stores"]
    dedup_before = store.dedup_saved
    server = SpecializationServer(
        ServerConfig(
            port=0,
            workers=cfg.workers,
            queue_depth=cfg.queue_depth,
            store_root=str(store.root),
            tenant_budget=cfg.tenant_budget,
        ),
        store=store,
        record_run=False,
    )
    server.start()
    try:
        drive = drive_schedule(schedule, "127.0.0.1", server.port, cfg, label)
    finally:
        server.request_shutdown(reason="loadgen-phase-complete")
        shutdown = server.drain()
    summary = server.summary(shutdown=shutdown)
    drive.client_latency_ms.sort()

    def client_pct(q: float) -> float | None:
        values = drive.client_latency_ms
        if not values:
            return None
        rank = min(len(values) - 1, max(0, int(round(q * (len(values) - 1)))))
        return values[rank]

    phase = {
        "requests": summary["requests"],
        "retries": drive.retries,
        "unresolved": drive.unresolved,
        "wall_seconds": drive.wall_seconds,
        "throughput_rps": round(
            drive.completed / max(1e-9, drive.wall_seconds), 3
        ),
        "latency": summary["latency"],
        "client_latency_ms": {
            "p50": client_pct(0.50),
            "p95": client_pct(0.95),
            "p99": client_pct(0.99),
        },
        "dedup": {"saved": store.dedup_saved - dedup_before},
        "cad_implementations": store.combined_stats()["stores"] - stores_before,
        "tenants": summary["tenants"],
        "shutdown": summary.get("shutdown"),
    }
    return phase


def run_loadgen(
    cfg: LoadGenConfig | None = None,
    store_root: str | os.PathLike | None = None,
) -> dict:
    """Cold + warm phases over one schedule; returns the report body.

    Its one gate, ``warm_p95_lower``: the warm phase's p95 break-even
    sits strictly below the cold phase's. *store_root* defaults to a
    temporary directory removed afterwards, so repeat benchmark runs
    always start from a genuinely cold store.
    """
    cfg = cfg or LoadGenConfig()
    owns_store = store_root is None
    if owns_store:
        store_root = tempfile.mkdtemp(prefix="repro-serve-store-")
    schedule = build_schedule(cfg)
    store = SharedBitstreamStore(store_root, tenant_budget=cfg.tenant_budget)
    try:
        phases = {
            label: _run_phase(label, schedule, store, cfg)
            for label in ("cold", "warm")
        }
    finally:
        if owns_store:
            shutil.rmtree(store_root, ignore_errors=True)

    def be(phase: str, q: str) -> float | None:
        return ((phases[phase].get("latency") or {}).get("break_even") or {}).get(q)

    comparison = {
        "break_even_p50_cold": be("cold", "p50"),
        "break_even_p50_warm": be("warm", "p50"),
        "break_even_p95_cold": be("cold", "p95"),
        "break_even_p95_warm": be("warm", "p95"),
        "break_even_p99_cold": be("cold", "p99"),
        "break_even_p99_warm": be("warm", "p99"),
        "dedup_saved_total": store.dedup_saved,
        "cad_implementations_cold": phases["cold"]["cad_implementations"],
        "cad_implementations_warm": phases["warm"]["cad_implementations"],
    }
    warm_p95_lower = bool(
        comparison["break_even_p95_warm"] is not None
        and comparison["break_even_p95_cold"] is not None
        and comparison["break_even_p95_warm"] < comparison["break_even_p95_cold"]
    )

    report = {
        "config": {
            "requests": cfg.requests,
            "clients": cfg.clients,
            "tenants": cfg.tenants,
            "rate_rps": cfg.rate,
            "seed": cfg.seed,
            "concurrency": cfg.concurrency,
            "workers": cfg.workers,
            "queue_depth": cfg.queue_depth,
            "tenant_budget": cfg.tenant_budget,
            "pruning": f"@{cfg.time_share_pct:g}pS{cfg.max_blocks}L",
            "mix": {name: weight for name, weight in cfg.mix},
        },
        "schedule": {
            "requests": len(schedule),
            "duration_seconds": schedule[-1].offset if schedule else 0.0,
            "distinct_tenants": len({r.tenant for r in schedule}),
            "distinct_clients": len({r.client for r in schedule}),
        },
        "phases": phases,
        "comparison": comparison,
        "gates": {"warm_p95_lower": warm_p95_lower},
    }

    from repro.obs.ledger import current_run

    recorder = current_run()
    if recorder is not None:
        recorder.attach_serve(
            {
                "phases": phases,
                "comparison": comparison,
                "warm_p95_lower": warm_p95_lower,
                "measured": LOADGEN_MEASURED,
            }
        )
        recorder.attach_cache(store.combined_stats())
    return report


def render_loadgen(report: dict) -> str:
    """ASCII rendering of a serve benchmark report for the CLI."""
    from repro.util.tables import Table

    table = Table(
        columns=[
            "phase", "completed", "retries", "wall [s]", "rps",
            "CAD impls", "dedup", "BE p50 [s]", "BE p95 [s]", "BE p99 [s]",
        ],
        title=(
            f"Serve benchmark: {report.get('schedule', {}).get('requests', 0)}"
            f" requests/phase, {report.get('config', {}).get('tenants', 0)}"
            f" tenants"
        ),
    )
    for name, phase in (report.get("phases") or {}).items():
        be = (phase.get("latency") or {}).get("break_even") or {}

        def fmt(q: str) -> str:
            value = be.get(q)
            return f"{value:.0f}" if value is not None else "-"

        table.add_row(
            [
                name,
                (phase.get("requests") or {}).get("completed", 0),
                phase.get("retries", 0),
                f"{phase.get('wall_seconds', 0.0):.2f}",
                f"{phase.get('throughput_rps', 0.0):.1f}",
                phase.get("cad_implementations", 0),
                (phase.get("dedup") or {}).get("saved", 0),
                fmt("p50"),
                fmt("p95"),
                fmt("p99"),
            ]
        )
    lines = [table.render()]
    comparison = report.get("comparison") or {}
    cold = comparison.get("break_even_p95_cold")
    warm = comparison.get("break_even_p95_warm")
    if cold is not None and warm is not None:
        verdict = "lower" if report["gates"]["warm_p95_lower"] else "NOT lower"
        lines.append(
            f"warm-vs-cold break-even p95: {warm:.0f} s vs {cold:.0f} s "
            f"({verdict}); dedup saved {comparison.get('dedup_saved_total', 0)} "
            f"CAD runs"
        )
    return "\n".join(lines)
