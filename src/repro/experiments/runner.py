"""Per-application analysis pipeline shared by all experiment drivers.

Runs the specialization process of Figure 2 for each application and
collects everything Tables I-IV need. :func:`analyze_suite` optionally
shards the per-app analyses across worker processes (``jobs``) and
consults a persistent bitstream cache (Section VI-A) before invoking the
CAD flow — both default off, so the paper-faithful serial behaviour is
unchanged. A sharded run records the same spans as a serial one.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.apps import ALL_APPS, AppSpec, CompiledApp, compile_app, get_app
from repro.core.asip_sp import AsipSpecializationProcess, SpecializationReport
from repro.core.breakeven import BreakEvenAnalysis, BreakEvenModel
from repro.core.cache import PersistentBitstreamCache
from repro.ise.pruning import NO_PRUNING, PruningFilter
from repro.ise.selection import CandidateSearch, CandidateSearchResult
from repro.obs import absorb_worker, capture_worker, get_tracer, worker_settings
from repro.profiling import CoverageAnalysis, KernelAnalysis, classify_blocks, compute_kernel
from repro.vm.jitruntime import JitRuntimeModel, RuntimeEstimate
from repro.vm.profiler import ExecutionProfile, static_block_costs
from repro.woolcano.machine import AsipSpeedup, WoolcanoMachine


@dataclass
class AppAnalysis:
    """Everything the tables need for one application."""

    spec: AppSpec
    compiled: CompiledApp
    profiles: dict[str, ExecutionProfile]  # dataset name -> profile
    runtime: RuntimeEstimate
    coverage: CoverageAnalysis
    kernel: KernelAnalysis
    search_full: CandidateSearchResult  # no pruning (ASIP upper bound)
    search_pruned: CandidateSearchResult  # @50pS3L (Table II)
    asip_max: AsipSpeedup
    asip_pruned: AsipSpeedup
    specialization: SpecializationReport
    breakeven: BreakEvenAnalysis

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def domain(self) -> str:
        return self.spec.domain

    @property
    def train_profile(self) -> ExecutionProfile:
        return self.profiles[self.spec.train.name]

    @property
    def pruning_efficiency(self) -> float:
        """(speedup/ident-time) gain of pruning vs. full search (Table II)."""
        t_full = max(1e-6, self.search_full.search_seconds)
        t_pruned = max(1e-6, self.search_pruned.search_seconds)
        full_rate = self.asip_max.ratio / t_full
        pruned_rate = self.asip_pruned.ratio / t_pruned
        if full_rate <= 0:
            return 0.0
        return pruned_rate / full_rate


# Keyed on the full parameter tuple (app name + machine + pruning
# configuration): two analyses of the same app under different parameters
# are different experiments and must not alias each other's results.
_CACHE: dict[tuple, AppAnalysis] = {}


def clear_cache() -> None:
    _CACHE.clear()


def _cache_key(
    name: str,
    machine: WoolcanoMachine | None,
    pruning: PruningFilter | None,
) -> tuple:
    # Machines and pruning filters are plain dataclasses, so their reprs
    # are stable value fingerprints; None marks the shared default.
    return (
        name,
        None if machine is None else repr(machine),
        None if pruning is None else repr(pruning),
    )


def analyze_app(
    name: str,
    machine: WoolcanoMachine | None = None,
    use_cache: bool = True,
    pruning: PruningFilter | None = None,
    bitstream_cache: PersistentBitstreamCache | None = None,
) -> AppAnalysis:
    """Run the complete analysis pipeline for one application.

    *pruning* overrides the Table II search filter (default ``@50pS3L``);
    the full-search ASIP upper bound always runs unpruned.
    *bitstream_cache* serves previously implemented candidates from the
    persistent store. It does not change the analysis results, so the
    memo key deliberately ignores it.
    """
    key = _cache_key(name, machine, pruning)
    if use_cache and key in _CACHE:
        return _CACHE[key]

    spec = get_app(name)
    machine = machine or WoolcanoMachine()
    pruning = pruning or PruningFilter()
    tracer = get_tracer()
    with tracer.span("analysis.run", app=name):
        compiled = compile_app(spec)
        module = compiled.module

        with tracer.span("analysis.profile", datasets=len(spec.datasets)):
            profiles: dict[str, ExecutionProfile] = {}
            for ds in spec.datasets:
                profiles[ds.name] = compiled.run(ds).profile
            train = profiles[spec.train.name]

        runtime = JitRuntimeModel(cost_model=machine.cost_model).estimate(
            module, train
        )
        with tracer.span("analysis.coverage"):
            coverage = classify_blocks(module, list(profiles.values()))
            kernel = compute_kernel(module, train, cost_model=machine.cost_model)

        search_full = CandidateSearch(
            pruning=NO_PRUNING,
            min_total_cycles_saved=0.0,
            cost_model=machine.cost_model,
        ).run(module, train)
        asip_sp = AsipSpecializationProcess(
            search=CandidateSearch(
                pruning=pruning, cost_model=machine.cost_model
            ),
            bitstream_cache=bitstream_cache,
        )
        specialization = asip_sp.run(module, train)
        search_pruned = specialization.search

        block_costs = static_block_costs(module, machine.cost_model)
        asip_max = machine.speedup(block_costs, train, search_full.selected)
        asip_pruned = machine.speedup(block_costs, train, search_pruned.selected)

        with tracer.span("analysis.breakeven"):
            breakeven = BreakEvenModel(cost_model=machine.cost_model).analyze(
                block_costs,
                train,
                coverage,
                search_pruned.selected,
                specialization.total_overhead_seconds,
            )

    analysis = AppAnalysis(
        spec=spec,
        compiled=compiled,
        profiles=profiles,
        runtime=runtime,
        coverage=coverage,
        kernel=kernel,
        search_full=search_full,
        search_pruned=search_pruned,
        asip_max=asip_max,
        asip_pruned=asip_pruned,
        specialization=specialization,
        breakeven=breakeven,
    )
    if use_cache:
        _CACHE[key] = analysis
    return analysis


def resolve_bitstream_cache(cache) -> PersistentBitstreamCache | None:
    """Normalize a cache argument: None, a directory path, or an instance."""
    if cache is None or isinstance(cache, PersistentBitstreamCache):
        return cache
    return PersistentBitstreamCache(root=cache)


def _process_worker(name: str, settings: dict, cache_root):
    """Analyze one app in a pool child; returns the mergeable evidence.

    The child records under fresh observability globals
    (:func:`repro.obs.capture_worker`) and reports its cache counters, so
    the parent can fold both back and the suite totals match a serial run.
    """
    evidence = capture_worker(settings)
    cache = (
        PersistentBitstreamCache(root=cache_root)
        if cache_root is not None
        else None
    )
    analysis = analyze_app(name, use_cache=False, bitstream_cache=cache)
    return (
        analysis,
        evidence(),
        cache.counters() if cache is not None else None,
    )


def _analyze_parallel(
    apps: list[AppSpec],
    jobs: int,
    cache: PersistentBitstreamCache | None,
    suite_span,
) -> list[AppAnalysis]:
    """Shard per-app analyses across worker processes; results in paper order.

    Apps already in the in-process memo are reused, as in a serial run.
    Each other app runs in a pool child; the parent absorbs the children's
    spans (:func:`repro.obs.absorb_worker`) and cache counters
    in suite order, so the recorded evidence is the serial run's, span for
    span.
    """
    keys = {spec.name: _cache_key(spec.name, None, None) for spec in apps}
    pending = [spec for spec in apps if keys[spec.name] not in _CACHE]
    if pending:
        settings = worker_settings()
        cache_root = str(cache.root) if cache is not None else None
        fanout_start = time.perf_counter()
        # Prefer fork: children inherit the imported interpreter state, so
        # a worker starts in milliseconds; fall back to the platform
        # default (spawn on macOS/Windows) where fork is unavailable.
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(pending)), mp_context=ctx
        ) as pool:
            futures = [
                pool.submit(_process_worker, spec.name, settings, cache_root)
                for spec in pending
            ]
            for spec, future in zip(pending, futures):
                analysis, evidence, counters = future.result()
                _CACHE[keys[spec.name]] = analysis
                absorb_worker(evidence, parent=suite_span, base=fanout_start)
                if counters is not None:
                    cache.absorb_counters(counters)
    return [_CACHE[keys[spec.name]] for spec in apps]


def analyze_suite(
    domain: str | None = None,
    fidelity_out=None,
    ledger=None,
    jobs: int = 1,
    cache=None,
) -> list[AppAnalysis]:
    """Analyze every application (optionally one domain), in paper order.

    With *fidelity_out* set, the run's aggregate tables are additionally
    compared cell-by-cell against the paper's published values and the
    resulting report is written there as ``BENCH_*.json``
    (:mod:`repro.obs.fidelity`) — so any experiment run can double as a
    reproduction-fidelity data point.

    With *ledger* set (a :class:`repro.obs.ledger.RunLedger` or a ledger
    directory path), the suite run is recorded as a ledger manifest. When
    the CLI already opened a recorded run (``--ledger``), the suite only
    attaches its scalar results to that run; otherwise it opens, traces,
    and finalizes a run of its own.

    *jobs* > 1 shards the per-app analyses across that many worker
    processes; *cache* (a directory path or a
    :class:`PersistentBitstreamCache`) serves previously implemented
    candidates across runs. Results are deterministic either way — only
    the wall-clock and the cache statistics change.
    """
    from repro.obs.ledger import current_run, finish_run, scalars_from_analyses, start_run

    bitstream_cache = resolve_bitstream_cache(cache)
    recorder = current_run()
    owns_run = False
    tracing_was_enabled = True
    if ledger is not None and recorder is None:
        recorder = start_run(
            ledger,
            command="analyze-suite",
            config={
                "domain": domain or "all",
                "jobs": jobs,
                "cache": str(bitstream_cache.root) if bitstream_cache else None,
            },
        )
        owns_run = True
        tracing_was_enabled = get_tracer().enabled
        if not tracing_was_enabled:
            from repro.obs.tracer import enable_tracing

            enable_tracing()

    status = 1
    try:
        apps = [a for a in ALL_APPS if domain is None or a.domain == domain]
        with get_tracer().span(
            "analysis.suite", domain=domain or "all", apps=len(apps), jobs=jobs
        ) as suite_span:
            if jobs > 1 and len(apps) > 1:
                analyses = _analyze_parallel(
                    apps, jobs, bitstream_cache, suite_span
                )
            else:
                analyses = [
                    analyze_app(a.name, bitstream_cache=bitstream_cache)
                    for a in apps
                ]
        if recorder is not None:
            recorder.attach_scalars(scalars_from_analyses(analyses))
            if bitstream_cache is not None:
                recorder.attach_cache(bitstream_cache.stats())
        if fidelity_out is not None:
            from repro.obs.fidelity import fidelity_from_analyses

            report = fidelity_from_analyses(analyses, domain=domain or "all")
            report.write(fidelity_out)
            if recorder is not None:
                recorder.attach_fidelity(report)
                recorder.artifacts.setdefault("fidelity_report", str(fidelity_out))
        status = 0
    finally:
        if owns_run:
            tracer = get_tracer()
            if not tracing_was_enabled:
                from repro.obs.tracer import disable_tracing

                disable_tracing()
            finish_run(tracer=tracer, status=status)
    return analyses
