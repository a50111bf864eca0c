"""What the benchmark runs and reports: workloads, metrics and wrap points.

Every name a later change will quote lives here. ``BENCHMARK.json`` at the
repository root repeats the workloads and metrics for tools that run it;
``bench/tests/test_registry.py`` checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Shortest timed window of one run when ``--seconds`` is not given. A
#: suite window is whole rounds over its apps (at least one: 8-21 s) and
#: serve sends at least SERVE_MIN_REQUESTS (about 14 s), so this only
#: keeps warm-embedded to a single round.
DEFAULT_SECONDS = 5

#: Processes started per untraced run, by workload kind; ``setup_s`` and
#: ``shutdown_s`` are medians over them. A suite process is ready in half
#: a second and stops in 50 ms with 10 % jitter, so it gets five; a serve
#: set-up warms a daemon for about 9 s and varies by 1-2 %, so it gets two
#: (a third would add a fifth to the serve run's time).
SETUP_SAMPLES = {"suite": 5, "serve": 2}

#: ``wall_s`` of the serve workload is the time this many requests take
#: at the run's measured throughput.
NOMINAL_REQUESTS = 2000

EMBEDDED_APPS = ("fft", "adpcm", "sor", "whetstone")

#: Each selects at most 3 candidates and spends at least 85 % of a cold
#: analysis interpreting, on integer-heavy code (the embedded apps are
#: soft-float).
VM_APPS = ("164.gzip", "179.art", "429.mcf", "458.sjeng", "473.astar")

#: The load generator's default weights (repro.serve.loadgen).
SERVE_MIX = (("fft", 3), ("adpcm", 2), ("sor", 2), ("whetstone", 1))
SERVE_CLIENTS = 2
SERVE_WORKERS = 2
SERVE_TENANTS = ("t0", "t1")
#: The serve window runs until this many requests were sent: the p99
#: latency then has twelve samples beyond it. With 1000 the spread of
#: throughput and p99 between seeds was half as wide again as with 1500;
#: 1500 would make the benchmark's runs too long for its time budget.
SERVE_MIN_REQUESTS = 1200


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "suite": one app analysis per operation; "serve": one request
    apps: tuple[str, ...]
    warm: bool  # operations read a bitstream cache populated in set-up
    why: str


WORKLOADS = (
    Workload(
        "cold-embedded",
        "suite",
        EMBEDDED_APPS,
        warm=False,
        why="Table II/IV path against an empty bitstream cache: CAD-bound, "
        "placement is the largest layer and the cache write path runs",
    ),
    Workload(
        "warm-embedded",
        "suite",
        EMBEDDED_APPS,
        warm=True,
        why="same apps against a populated cache: CAD is bypassed and the VM "
        "dominates, so a placer change must leave wall_s unchanged",
    ),
    Workload(
        "vm-scientific",
        "suite",
        VM_APPS,
        warm=False,
        why="cold integer-heavy SPEC-like apps that are about 89 % "
        "interpretation: a dispatch change that favours one opcode mix shows",
    ),
    Workload(
        "serve-warm",
        "serve",
        tuple(app for app, _ in SERVE_MIX),
        warm=True,
        why="closed loop of 2 clients against a warm 2-tenant daemon: search, "
        "cache get, break-even and the serve queue, with VM and CAD bypassed",
    ),
)


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}; known: {[w.name for w in WORKLOADS]}")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str = "lower"
    bound: float | None = None  # allowed worsening, as a share of the parent median


END_TO_END = (
    Metric("wall_s", "s", bound=0.15),
    Metric("setup_s", "s", bound=0.25),
    Metric("peak_rss_mb", "MB", bound=0.20),
    Metric("latency_p50_ms", "ms", bound=0.18),
    Metric("latency_p99_ms", "ms", bound=0.24),
    Metric("shutdown_s", "s", bound=0.24),
)

#: Operations that failed their correctness check or raised, over those
#: attempted. It is 0 on a healthy tree, so it is reported through the
#: result's ``attempted``/``failed`` counts and gated by ``compare`` at
#: +0 absolute instead of being listed as a bounded end-to-end metric.
FAILED_FRAC = Metric("failed_frac", "ratio", bound=0.0)


@dataclass(frozen=True)
class WrapPoint:
    module: str
    attr: str  # "function" or "Class.method"
    layer: str


WRAP_POINTS = (
    WrapPoint("repro.experiments.runner", "analyze_app", "experiments"),
    WrapPoint("repro.frontend.compiler", "compile_files", "frontend"),
    WrapPoint("repro.ir.passes.manager", "PassManager.run", "ir.passes"),
    WrapPoint("repro.vm.interpreter", "Interpreter.run", "vm"),
    WrapPoint("repro.profiling.coverage", "classify_blocks", "profiling"),
    WrapPoint("repro.profiling.kernel", "compute_kernel", "profiling"),
    WrapPoint("repro.ise.selection", "CandidateSearch.run", "ise"),
    WrapPoint("repro.core.asip_sp", "AsipSpecializationProcess.run", "core.asip_sp"),
    WrapPoint("repro.core.cache", "PersistentBitstreamCache.get", "core.cache.get"),
    WrapPoint("repro.core.cache", "PersistentBitstreamCache.put", "core.cache.put"),
    WrapPoint("repro.fpga.toolflow", "CadToolFlow.implement", "fpga.other"),
    WrapPoint("repro.fpga.synthesis", "Synthesizer.synthesize", "fpga.synthesis"),
    WrapPoint("repro.fpga.placer", "Placer.place", "fpga.place"),
    WrapPoint("repro.fpga.router", "Router.route", "fpga.route"),
    WrapPoint("repro.fpga.bitgen", "BitstreamGenerator.generate", "fpga.bitgen"),
    WrapPoint("repro.woolcano.machine", "WoolcanoMachine.speedup", "woolcano"),
    WrapPoint("repro.woolcano.reconfig", "IcapModel.reconfigure", "woolcano"),
    WrapPoint("repro.core.breakeven", "BreakEvenModel.analyze", "core.breakeven"),
    WrapPoint("repro.serve.worker", "app_context", "serve"),
    WrapPoint("repro.serve.worker", "execute_specialize", "serve"),
    WrapPoint("repro.serve.store", "TenantCache.get", "serve.store"),
    WrapPoint("repro.serve.protocol", "ServeClient.specialize", "serve.client"),
)

#: Counts taken from a wrapped call's return value: layer -> (metric, fn).
COUNTS = {
    "vm": ("vm.instructions", lambda result: result.steps),
    "fpga.place": ("fpga.place.moves", lambda result: result.moves_attempted),
    "ise": ("ise.candidates", lambda result: len(result.selected)),
    "core.cache.get": ("core.cache.hits", lambda result: int(result is not None)),
}

#: Layers of the batch pipeline. A traced run of any workload executes all
#: of them (warm and serve runs populate their cache inside the traced
#: set-up), so a layer that never fires means a wrap point went stale.
PIPELINE_LAYERS = (
    "experiments",
    "frontend",
    "ir.passes",
    "vm",
    "profiling",
    "ise",
    "core.asip_sp",
    "core.cache.get",
    "core.cache.put",
    "fpga.synthesis",
    "fpga.place",
    "fpga.route",
    "fpga.bitgen",
    "fpga.other",
    "woolcano",
    "core.breakeven",
)

#: Layers that only the serve workload runs; reported in its per-layer
#: table, not in BENCHMARK.json (every listed metric must exist everywhere).
SERVE_LAYERS = ("serve", "serve.store", "serve.client")


def expected_layers(w: Workload) -> tuple[str, ...]:
    return PIPELINE_LAYERS + (SERVE_LAYERS if w.kind == "serve" else ())


#: Self-time metric names that differ from ``<layer>.busy_s``.
BUSY_NAMES = {
    "core.cache.get": "core.cache.get_s",
    "core.cache.put": "core.cache.put_s",
    "core.asip_sp": "core.asip_sp.self_s",
}


def busy_name(layer: str) -> str:
    return BUSY_NAMES.get(layer, f"{layer}.busy_s")


def _per_layer() -> tuple[Metric, ...]:
    metrics = []
    for layer in PIPELINE_LAYERS:
        metrics.append(Metric(busy_name(layer), "s"))
        metrics.append(Metric(f"{layer}.calls", "count"))
    metrics += [
        Metric("vm.instructions", "count"),
        Metric("vm.minstr_per_s", "Minstr/s", better="higher"),
        Metric("fpga.place.moves", "count"),
        Metric("fpga.place.kmoves_per_s", "kmoves/s", better="higher"),
        Metric("ise.candidates", "count", better="higher"),
        Metric("core.cache.hit_ratio", "ratio", better="higher"),
        Metric("traced_s", "s"),
        Metric("unattributed_s", "s"),
        Metric("trace_overhead_pct", "%"),
    ]
    return tuple(metrics)


PER_LAYER = _per_layer()
