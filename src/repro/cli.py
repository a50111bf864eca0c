"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``tables [1|2|3|4|all]`` — regenerate the paper's tables;
- ``figures`` — print the textual renderings of Figures 1 and 2;
- ``apps`` — list the benchmark suite;
- ``analyze <app>`` — full analysis of one application (Table I+II row);
- ``jit <app>`` — run the end-to-end JIT flow on one application;
- ``timeline <app>`` — concurrent-specialization timeline (extension);
- ``trace <file>`` — replay a saved trace as a per-stage time table;
- ``profile <app|file>`` — hierarchical self/total-time profile of a run
  (hot-path table, collapsed-stack flamegraph lines, profile tree);
- ``heat <app>`` — heat-annotated IR listing (per-block time share,
  kernel blocks flagged);
- ``fidelity`` — compare a run's tables against the paper's published
  values and write a machine-readable ``BENCH_*.json`` report;
- ``runs list|show|diff|gc|trend`` — inspect or garbage-collect the run
  ledger (``.repro-runs/``); ``gc`` compacts pruned manifests into
  ``history.jsonl`` and ``trend`` renders per-cell time series across
  all recorded history;
- ``regress`` — compare the latest recorded run against a baseline run
  cell-by-cell, exiting non-zero on regression (CI gate); ``--history N``
  derives measured-cell noise bands from the last N runs;
- ``slo RUN`` — evaluate the serve plane's error-budget objectives over a
  recorded run's ``requests.jsonl``, appending burn-rate alerts to its
  ``alerts.jsonl`` (exit 1 on a breached objective);
- ``anomaly`` — robust changepoint detection of the newest run's manifest
  cells against the fleet history (exit 1 on anomalies);
- ``critpath RUN`` — reconstruct the specialization DAG of a recorded run
  from its span trace: critical path and per-stage slack on both clocks,
  plus the Amdahl-style break-even headroom table;
- ``whatif RUN`` — replay a recorded run under hypothetical knobs (cache
  hit rate, CAD speedups, parallel CAD workers); ``--grid`` regenerates
  the Table IV grid from measured spans and cross-checks it against the
  analytic model; ``--slots N`` / ``--policy P`` instead replay a
  recorded fleet-mix run under different slot counts or eviction
  policies;
- ``mix`` — sweep the fleet workload-mix grid (mix entropy x eviction
  policy x slot capacity) through the slot-contention simulator and
  write ``BENCH_mix.json``, exiting non-zero if break-even-aware
  eviction fails to beat LRU on the contended mix;
- ``cache stats|clear`` — inspect or empty the persistent bitstream cache
  (``.repro-cache/``, Section VI-A);
- ``bench`` — measure the parallel runner and the persistent cache against
  the serial cold baseline, writing ``BENCH_parallel.json``;
- ``serve`` — run the specialization daemon (:mod:`repro.serve`): a
  bounded admission queue and worker pool over the shared multi-tenant
  bitstream store, with request-level SLO telemetry;
- ``loadgen`` — drive a live or embedded daemon with a deterministic
  Poisson request mix (cold + warm phases) and write ``BENCH_serve.json``;
- ``top`` — live ASCII view of a running daemon's queue/latency/tenant
  statistics;
- ``tail <file>`` — render the last records of a JSONL event log.

Every command accepts ``--trace FILE`` (export a JSONL span trace of the
run), ``--metrics`` (print a metrics snapshot after the run), ``--log
FILE`` (write a structured JSONL event log), and ``--ledger [DIR]``
(record the run — manifest, trace, and event log — in the run ledger);
see :mod:`repro.obs`. The suite-running commands (``analyze``, ``tables``,
``fidelity``) additionally accept ``--jobs N`` / ``--backend`` (worker-pool
sharding) and ``--cache [DIR]`` (persistent bitstream cache).
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.util.timefmt import format_dhms, format_hms


def _parallel_kwargs(args: argparse.Namespace) -> dict:
    """The suite runner's jobs/backend/cache kwargs from parsed options."""
    return {
        "jobs": getattr(args, "jobs", 1),
        "backend": getattr(args, "backend", "process"),
        "cache": getattr(args, "cache", None),
    }


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro import experiments

    which = args.which
    generators = {
        "1": experiments.generate_table1,
        "2": experiments.generate_table2,
        "3": experiments.generate_table3,
        "4": experiments.generate_table4,
    }
    selected = generators.keys() if which == "all" else [which]
    for key in selected:
        table = generators[key](**_parallel_kwargs(args))
        print(table.render())
        print()
    return 0


def _cmd_figures(_args: argparse.Namespace) -> int:
    from repro.experiments import generate_figures

    figs = generate_figures()
    print(figs["figure1"])
    print()
    print(figs["figure2"])
    return 0


def _cmd_apps(_args: argparse.Namespace) -> int:
    from repro.apps import ALL_APPS

    for app in ALL_APPS:
        datasets = ", ".join(f"{d.name}={d.size}" for d in app.datasets)
        print(f"{app.name:12s} [{app.domain:10s}] {app.description}")
        print(f"{'':12s} datasets: {datasets}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.domain:
        return _cmd_analyze_domain(args)
    if not args.app:
        print(
            "error: analyze needs an application name or --domain",
            file=sys.stderr,
        )
        return 2

    from repro.experiments import analyze_app
    from repro.experiments.runner import resolve_bitstream_cache

    bitstream_cache = resolve_bitstream_cache(getattr(args, "cache", None))
    a = analyze_app(
        args.app,
        jobs=getattr(args, "jobs", 1),
        bitstream_cache=bitstream_cache,
    )
    _attach_run_scalars([a])
    if bitstream_cache is not None:
        from repro.obs.ledger import current_run

        recorder = current_run()
        if recorder is not None:
            recorder.attach_cache(bitstream_cache.stats())
    comp = a.compiled.compilation
    print(f"{a.name} ({a.domain})")
    print(
        f"  code: {comp.files} files, {comp.loc} LOC, {comp.basic_blocks} blocks, "
        f"{comp.instructions} instructions (compiled in {comp.compile_seconds:.2f}s)"
    )
    print(
        f"  runtime: VM {a.runtime.vm_seconds:.3f}s, native "
        f"{a.runtime.native_seconds:.3f}s (ratio {a.runtime.ratio:.2f})"
    )
    print(
        f"  coverage: live {a.coverage.live_pct:.1f}% / dead "
        f"{a.coverage.dead_pct:.1f}% / const {a.coverage.const_pct:.1f}%"
    )
    print(
        f"  kernel: {a.kernel.size_pct:.1f}% of code, "
        f"{a.kernel.freq_pct:.1f}% of time"
    )
    print(
        f"  ASIP ratio: {a.asip_max.ratio:.2f}x upper bound, "
        f"{a.asip_pruned.ratio:.2f}x with @50pS3L "
        f"({a.specialization.candidate_count} candidates)"
    )
    print(
        f"  overhead: search {a.search_pruned.search_seconds * 1000:.2f} ms, "
        f"tool flow {format_hms(a.specialization.toolflow_seconds)} (m:s)"
    )
    be = a.breakeven.live_aware_seconds
    print(
        "  break-even: "
        + (format_dhms(be) + " (d:h:m:s)" if math.isfinite(be) else "never")
    )
    return 0


def _attach_run_scalars(analyses) -> None:
    """Record scalar results on the active ledger run, if any."""
    from repro.obs.ledger import current_run, scalars_from_analyses

    recorder = current_run()
    if recorder is not None:
        recorder.attach_scalars(scalars_from_analyses(analyses))


def _cmd_analyze_domain(args: argparse.Namespace) -> int:
    from repro.experiments import analyze_suite

    domain = None if args.domain == "all" else args.domain
    # analyze_suite attaches its scalars (and cache statistics) to the
    # active ledger run itself.
    analyses = analyze_suite(domain, **_parallel_kwargs(args))
    for a in analyses:
        be = a.breakeven.live_aware_seconds
        print(
            f"{a.name:12s} [{a.domain:10s}] "
            f"ASIP {a.asip_pruned.ratio:5.2f}x  "
            f"{a.specialization.candidate_count:3d} candidates  "
            f"tool flow {format_hms(a.specialization.toolflow_seconds)} (m:s)  "
            f"break-even "
            + (format_dhms(be) if math.isfinite(be) else "never")
        )
    return 0


def _cmd_jit(args: argparse.Namespace) -> int:
    from repro.apps import compile_app, get_app
    from repro.core import JitIseSystem

    spec = get_app(args.app)
    compiled = compile_app(spec)
    system = JitIseSystem()
    result = system.run_application(
        compiled.compilation,
        dataset_size=spec.train.size,
        dataset_seed=spec.train.seed,
    )
    print(f"{spec.name}: ASIP ratio {result.asip_ratio:.2f}x")
    print(f"  VM/native ratio: {result.runtime.ratio:.2f}")
    print(
        f"  custom instructions: {result.specialization.candidate_count}, "
        f"tool flow {format_hms(result.specialization.toolflow_seconds)} (m:s)"
    )
    print(f"  patched output identical: {result.output_equal}")
    return 0 if result.output_equal else 1


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.core import AsipSpecializationProcess, TimelineSimulator
    from repro.apps import compile_app, get_app
    from repro.profiling import classify_blocks

    spec = get_app(args.app)
    compiled = compile_app(spec)
    profiles = {ds.name: compiled.run(ds).profile for ds in spec.datasets}
    coverage = classify_blocks(compiled.module, list(profiles.values()))
    report = AsipSpecializationProcess().run(compiled.module, profiles["train"])
    result = TimelineSimulator().simulate(
        compiled.module, profiles["train"], coverage, report
    )
    print(result.event_log())
    print(f"\nfinal live-code rate: {result.final_rate:.2f}x baseline")
    for label, value in (
        ("dedicated-host break-even", result.dedicated_break_even),
        ("self-hosted break-even", result.self_hosted_break_even),
    ):
        print(
            f"{label}: "
            + (format_dhms(value) if math.isfinite(value) else "never")
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs

    try:
        records = obs.read_jsonl(args.file)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid trace: {exc}", file=sys.stderr)
        return 1
    errors = obs.validate_trace(records)
    if errors:
        for err in errors:
            print(f"invalid trace: {err}", file=sys.stderr)
        return 1
    print(obs.render_stage_table(records))
    if args.timeline:
        print()
        print(obs.render_timeline(records))
    if args.chrome:
        snapshot = _sibling_metrics(args.file)
        obs.write_chrome_trace(records, args.chrome, snapshot=snapshot)
        extra = " (+ metrics counter tracks)" if snapshot else ""
        print(f"\nwrote Chrome trace_event file: {args.chrome}{extra}")
    return 0


def _sibling_metrics(trace_path) -> dict | None:
    """Metrics snapshot from a ledger manifest next to *trace_path*, if any.

    A ledger run directory holds ``trace.jsonl`` and ``manifest.json``
    side by side; replaying such a trace can therefore also export the
    run's counters as Chrome counter tracks.
    """
    import json
    from pathlib import Path

    manifest = Path(trace_path).parent / "manifest.json"
    try:
        data = json.loads(manifest.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    snapshot = data.get("metrics")
    return snapshot if isinstance(snapshot, dict) else None


def _traced_run_records(app_name: str):
    """Run the end-to-end JIT flow on *app_name* under the global tracer
    and return the finished spans as records.

    If tracing is already on (the user passed ``--trace``), the run's spans
    simply join the global trace and get exported too; otherwise tracing is
    enabled just for this run and switched back off afterwards.
    """
    from repro import obs
    from repro.apps import compile_app, get_app
    from repro.core import JitIseSystem

    tracer = obs.get_tracer()
    was_enabled = tracer.enabled
    if not was_enabled:
        obs.enable_tracing()
    try:
        spec = get_app(app_name)
        compiled = compile_app(spec)
        JitIseSystem().run_application(
            compiled.compilation,
            dataset_size=spec.train.size,
            dataset_seed=spec.train.seed,
        )
        return obs.tracer_records(tracer)
    finally:
        if not was_enabled:
            obs.disable_tracing()


def _cmd_profile(args: argparse.Namespace) -> int:
    import os

    from repro import obs

    if os.path.exists(args.target):
        try:
            records = obs.read_jsonl(args.target)
        except ValueError as exc:
            print(f"invalid trace: {exc}", file=sys.stderr)
            return 1
    else:
        records = _traced_run_records(args.target)
    if not records:
        print("(empty trace: nothing to profile)")
        return 0
    profile = obs.build_profile(records)
    print(profile.hot_table(clock=args.clock, top=args.top).render())
    if args.tree:
        print()
        print(profile.render(clock=args.clock))
    if args.collapsed:
        lines = profile.collapsed(clock=args.clock)
        if args.collapsed == "-":
            print()
            for line in lines:
                print(line)
        else:
            with open(args.collapsed, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + ("\n" if lines else ""))
            print(
                f"\nwrote {len(lines)} collapsed stacks ({args.clock} time) "
                f"to {args.collapsed}"
            )
    return 0


def _cmd_heat(args: argparse.Namespace) -> int:
    from repro.apps import compile_app, get_app
    from repro.obs.heat import compute_heat, render_heat

    spec = get_app(args.app)
    compiled = compile_app(spec)
    profile = compiled.run(spec.train).profile
    heat = compute_heat(
        compiled.module, profile, kernel_threshold=args.threshold
    )
    try:
        print(
            render_heat(
                compiled.module, heat, function=args.function, top=args.top
            )
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 1
    if args.top_opcodes:
        from repro.obs.vmprof import opcode_table
        from repro.vm.costmodel import PPC405_COST_MODEL

        table = opcode_table(
            profile.opcode_counts(compiled.module),
            profile.opcode_cycles(compiled.module, PPC405_COST_MODEL),
            args.top_opcodes,
            title=f"Opcode rollup (top {args.top_opcodes})",
        )
        print()
        print(table.render())
    return 0


def _cmd_vmprof(args: argparse.Namespace) -> int:
    import json as json_mod

    from repro.obs.ledger import current_run
    from repro.obs.vmprof import (
        profile_app,
        render_vmprof,
        vm_manifest_block,
        vmprof_json,
    )

    prof = profile_app(
        args.app,
        dataset=args.dataset,
        sample_interval=args.sample,
    )
    print(render_vmprof(prof, top=args.top))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json_mod.dump(vmprof_json(prof), fh, indent=2)
            fh.write("\n")
        print(f"\nwrote vmprof report: {args.json}")
    recorder = current_run()
    if recorder is not None:
        recorder.attach_extra("vm", vm_manifest_block(prof))
    return 0


def _cmd_bench_vm(args: argparse.Namespace) -> int:
    from repro.obs.bench import render_vm_bench, run_vm_bench

    report = run_vm_bench(
        apps=args.apps.split(",") if args.apps else None,
        sample_interval=args.sample,
        out=args.out,
        pairs=args.pairs,
    )
    print(render_vm_bench(report))
    if args.out:
        print(f"\nwrote VM benchmark report: {args.out}")
    if not report["totals"]["virtual_identical"]:
        print(
            "error: virtual clock drifted under sampling", file=sys.stderr
        )
        return 1
    return 0


def _cmd_fidelity(args: argparse.Namespace) -> int:
    from repro.obs.fidelity import default_report_path, run_fidelity

    out = args.out or default_report_path(args.domain)
    report = run_fidelity(
        domain=args.domain,
        out=out,
        include_table4=args.full,
        **_parallel_kwargs(args),
    )
    print(report.render())
    print(f"\nwrote fidelity report: {out}")
    if not report.ok:
        for cell in report.failures:
            print(
                f"FAIL {cell.table} {cell.row}/{cell.column}: "
                f"expected {cell.expected:g}, got {cell.actual:g}",
                file=sys.stderr,
            )
        return 1
    return 0


def _resolve_run_replay(args: argparse.Namespace):
    """Shared critpath/whatif preamble: (ledger, run_id, replay) or an exit code."""
    from repro import obs
    from repro.obs.critpath import RunReplay
    from repro.obs.ledger import RunLedger

    ledger = RunLedger(args.ledger_dir)
    try:
        run_id = ledger.resolve(args.run)
    except LookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace_path = ledger.run_dir(run_id) / "trace.jsonl"
    if not trace_path.is_file():
        print(
            f"error: run {run_id} has no trace.jsonl "
            "(record the run with --ledger so its spans are kept)",
            file=sys.stderr,
        )
        return 2
    try:
        records = obs.read_jsonl(trace_path)
    except ValueError as exc:
        print(f"error: invalid trace for run {run_id}: {exc}", file=sys.stderr)
        return 2
    replay = RunReplay.from_records(records)
    if not replay.apps:
        print(
            f"error: run {run_id}'s trace contains no specialization "
            "processes (asip_sp.run spans)",
            file=sys.stderr,
        )
        return 2
    return ledger, run_id, replay


def _breakeven_inputs_or_none(replay):
    """Per-app break-even inputs, or None when an app is not in the registry."""
    from repro.obs.whatif import breakeven_inputs

    try:
        return breakeven_inputs(replay.app_names)
    except KeyError as exc:
        print(
            f"note: break-even replay unavailable (unknown app {exc}); "
            "overhead-only analysis",
            file=sys.stderr,
        )
        return None


def _cmd_critpath(args: argparse.Namespace) -> int:
    from repro.obs import critpath as cp

    resolved = _resolve_run_replay(args)
    if isinstance(resolved, int):
        return resolved
    ledger, run_id, replay = resolved

    virtual = cp.analyze_critical_path(replay, "virtual")
    real = cp.analyze_critical_path(replay, "real")
    candidates = sum(len(a.candidates) for a in replay.apps)
    print(
        f"run {run_id}: {len(replay.apps)} app(s) "
        f"({', '.join(replay.app_names)}), {candidates} candidate chain(s)"
    )
    print()
    print(cp.render_critical_path(virtual))
    table3 = cp.table3_summary(replay)
    if table3 is not None:
        print()
        print(cp.render_table3_summary(table3))
    print()
    print(cp.render_critical_path(real))

    headroom = None
    inputs = _breakeven_inputs_or_none(replay)
    if inputs is not None:
        headroom = cp.headroom_table(replay, inputs)
        print()
        print(headroom.render())

    if not args.no_save:
        path = ledger.attach_block(
            run_id,
            "critpath",
            cp.critpath_block(virtual, real, headroom, table3),
        )
        print(f"\nattached critpath block to {path}")
    return 0


def _parse_speedup_specs(specs: list[str]) -> tuple[float, tuple]:
    """Parse repeatable ``--cad-speedup`` values: ``PCT`` or ``STAGE=PCT``."""
    uniform = 0.0
    per_stage: list[tuple[str, float]] = []
    for spec in specs:
        stage, sep, value = spec.partition("=")
        if sep:
            per_stage.append((stage.strip(), float(value)))
        else:
            uniform = float(spec)
    return uniform, tuple(per_stage)


def _cmd_whatif_mix(args: argparse.Namespace) -> int:
    """``repro whatif --slots/--policy``: replay a recorded fleet mix."""
    from repro.obs import whatif as wi
    from repro.obs.ledger import RunLedger

    ledger = RunLedger(args.ledger_dir)
    try:
        run_id = ledger.resolve(args.run)
    except LookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    manifest = ledger.load(run_id)
    mix_block = manifest.get("mix")
    if not mix_block:
        print(
            f"error: run {run_id} has no mix block "
            "(record one with `repro mix --ledger`)",
            file=sys.stderr,
        )
        return 2
    try:
        report = wi.whatif_mix(
            mix_block, slots=args.slots, policy=args.policy
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"run {run_id}: fleet-mix what-if replay")
    print()
    print(wi.render_whatif_mix(report))
    status = 0
    if not report["identity"]["identical"]:
        print(
            "FAIL: replaying a recorded cell no longer reproduces the "
            "manifest's fleet break-even (simulation drift)",
            file=sys.stderr,
        )
        status = 1
    if not args.no_save:
        path = ledger.attach_block(run_id, "whatif", {"mix": report})
        print(f"\nattached whatif block to {path}")
    return status


def _cmd_whatif(args: argparse.Namespace) -> int:
    import json

    from repro.obs import whatif as wi

    if args.slots is not None or args.policy is not None:
        return _cmd_whatif_mix(args)

    resolved = _resolve_run_replay(args)
    if isinstance(resolved, int):
        return resolved
    ledger, run_id, replay = resolved

    inputs = _breakeven_inputs_or_none(replay)
    if inputs is None:
        print(
            "error: whatif needs break-even inputs for the recorded apps",
            file=sys.stderr,
        )
        return 2
    try:
        uniform, per_stage = _parse_speedup_specs(args.cad_speedup)
        knobs = wi.WhatIfKnobs(
            cache_hit_pct=args.cache_hit,
            cad_speedup_pct=uniform,
            stage_speedup_pct=per_stage,
            workers=args.workers,
            trials=args.trials,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    result = wi.whatif_break_even(replay, inputs, knobs)
    print(f"run {run_id}: trace-driven what-if replay")
    print()
    print(result.render())
    block: dict = {
        **wi.MANIFEST_DECLARATION,
        "scenario": wi.scenario_block(result),
    }

    # Identity check: with no knobs the replayed baseline must reproduce
    # the run's recorded break-even times (virtual clock, manifest
    # rounding). Divergence means the trace no longer explains the result.
    manifest = ledger.load(run_id)
    per_app = (manifest.get("scalars") or {}).get("per_app") or {}
    drifted = []
    for app in result.apps:
        recorded = (per_app.get(app.name) or {}).get("break_even_seconds")
        replayed = app.baseline_break_even
        if recorded is None:
            if math.isfinite(replayed):
                drifted.append(f"{app.name} (recorded never, replayed finite)")
            continue
        if not math.isfinite(replayed) or abs(replayed - recorded) > max(
            1e-5, 1e-5 * abs(recorded)
        ):
            drifted.append(
                f"{app.name} (recorded {recorded:g}, replayed {replayed:g})"
            )
    if drifted:
        print(
            "warning: replayed baseline break-even diverges from the "
            "recorded values: " + "; ".join(drifted),
            file=sys.stderr,
        )
    elif per_app:
        print(
            f"\nidentity check: replayed baseline matches the recorded "
            f"break-even of {len(result.apps)} app(s)"
        )

    status = 0
    if args.grid:
        from repro.experiments.table4 import render_grid

        trace_grid = wi.whatif_grid(
            replay, inputs, workers=args.workers, trials=args.trials
        )
        analytic = wi.analytic_grid(inputs, trials=args.trials)
        check = wi.check_grids(trace_grid, analytic, tolerance=args.tol)
        print()
        print(
            render_grid(
                trace_grid,
                title=(
                    f"What-if Table IV from run {run_id} "
                    f"({args.workers} worker(s)) [h:m:s]"
                ),
            )
        )
        print()
        print(check.render())
        block.update(wi.grid_block(trace_grid, check, workers=args.workers))
        if args.out:
            artifact = {
                "run_id": run_id,
                "workers": args.workers,
                "trials": args.trials,
                "tolerance": args.tol,
                "cache_hit_rates": list(trace_grid.cache_hit_rates),
                "cad_speedups": list(trace_grid.cad_speedups),
                "cells": [
                    {
                        "hit_pct": c.hit_pct,
                        "speedup_pct": c.speedup_pct,
                        "trace_seconds": (
                            c.trace_seconds
                            if math.isfinite(c.trace_seconds)
                            else None
                        ),
                        "analytic_seconds": (
                            c.analytic_seconds
                            if math.isfinite(c.analytic_seconds)
                            else None
                        ),
                        "passed": c.passed,
                    }
                    for c in check.cells
                ],
            }
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(artifact, fh, indent=2)
                fh.write("\n")
            print(f"\nwrote what-if grid: {args.out}")
        if not check.ok:
            for cell in check.flagged:
                print(
                    f"DIVERGED {cell.key}: trace {cell.trace_seconds:g} vs "
                    f"analytic {cell.analytic_seconds:g}",
                    file=sys.stderr,
                )
            status = 1

    if not args.no_save:
        path = ledger.attach_block(run_id, "whatif", block)
        print(f"\nattached whatif block to {path}")
    return status


def _cmd_runs(args: argparse.Namespace) -> int:
    from repro.obs.ledger import RunLedger, render_manifest, render_run_list

    ledger = RunLedger(args.ledger_dir)
    if args.runs_command == "gc":
        from repro.obs.ledger import prune_runs

        compact = not args.no_compact
        try:
            removed = prune_runs(ledger, args.keep, compact=compact)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if removed:
            print(
                f"removed {len(removed)} run(s): {', '.join(removed)}"
            )
            if compact:
                from repro.obs.history import history_path

                print(
                    f"compacted {len(removed)} manifest(s) into "
                    f"{history_path(ledger)}"
                )
        else:
            print(
                f"nothing to remove ({len(ledger.run_ids())} run(s) "
                f"recorded, keeping {args.keep})"
            )
        return 0
    if args.runs_command == "trend":
        from repro.obs.history import (
            build_series,
            collect_entries,
            render_trend,
            trend_report,
        )

        entries = collect_entries(
            ledger, command=args.filter_command, limit=args.limit or None
        )
        series = build_series(entries, args.cells or None)
        print(render_trend(series))
        if args.out:
            import json

            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(trend_report(series), fh, indent=2)
                fh.write("\n")
            print(f"\nwrote trend report: {args.out}")
        return 0
    if args.runs_command == "list":
        run_ids = ledger.run_ids()
        if not run_ids:
            print(f"(no runs recorded in {ledger.path})")
            return 0
        total = len(run_ids)
        # --last predates --limit and wins when given; either way only
        # the shown runs' manifests are loaded (a serve ledger can hold
        # thousands of runs — listing must not parse them all).
        limit = args.last if args.last and args.last > 0 else args.limit
        if limit and limit > 0:
            run_ids = run_ids[-limit:]
        print(render_run_list([ledger.load(run_id) for run_id in run_ids]))
        if len(run_ids) < total:
            print(
                f"({total - len(run_ids)} older run(s) not shown; "
                f"use --limit 0 to list all {total})"
            )
        return 0
    if args.runs_command == "show":
        try:
            manifest = ledger.load(ledger.resolve(args.run))
        except LookupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(render_manifest(manifest))
        return 0
    # diff: informational cell-by-cell comparison, never gating.
    from repro.obs.regress import compare_manifests

    try:
        baseline = ledger.load(ledger.resolve(args.a))
        current = ledger.load(ledger.resolve(args.b))
    except LookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = compare_manifests(baseline, current)
    print(report.render(show_all=args.all))
    for warning in report.config_mismatches:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_regress(args: argparse.Namespace) -> int:
    from repro.obs.ledger import RunLedger
    from repro.obs.regress import compare_manifests, parse_tolerances

    ledger = RunLedger(args.ledger_dir)
    try:
        tolerances = parse_tolerances(args.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        current_id = ledger.resolve(args.candidate)
        baseline_id = ledger.resolve(args.baseline)
    except LookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    history = None
    if args.repeat > 1:
        run_ids = ledger.run_ids()
        upto = run_ids.index(current_id) + 1
        history = [
            ledger.load(run_id)
            for run_id in run_ids[max(0, upto - args.repeat) : upto]
        ]
    noise_bands = None
    if args.history > 0:
        from repro.obs.history import collect_entries, derive_noise_bands

        candidate_manifest = ledger.load(current_id)
        entries = collect_entries(
            ledger,
            command=candidate_manifest.get("command"),
            limit=args.history,
        )
        noise_bands = derive_noise_bands(entries)
    report = compare_manifests(
        ledger.load(baseline_id),
        ledger.load(current_id),
        tolerances=tolerances,
        history=history,
        noise_bands=noise_bands,
    )
    print(report.render(show_all=args.all))
    if report.noise_banded:
        print(
            f"({len(report.noise_banded)} measured cell(s) gated by "
            f"history-derived noise bands)"
        )
    for warning in report.config_mismatches:
        print(f"warning: {warning}", file=sys.stderr)
    if not report.ok:
        print(
            f"\n{len(report.regressions)} regression(s) vs {baseline_id}:",
            file=sys.stderr,
        )
        for delta in report.regressions:
            print(f"  REGRESSION {delta.describe()}", file=sys.stderr)
        return 1
    print(
        f"\nno regressions vs {baseline_id} "
        f"({len(report.checked)} checked cells)"
    )
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    from repro.obs.ledger import RunLedger
    from repro.obs.slo import (
        apply_objective_spec,
        default_objectives,
        evaluate,
        read_requests,
        render_slo,
        write_alerts,
    )

    ledger = RunLedger(args.ledger_dir)
    try:
        run_id = ledger.resolve(args.run)
    except LookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    requests_path = ledger.run_dir(run_id) / "requests.jsonl"
    if not requests_path.is_file():
        print(
            f"error: run {run_id} has no requests.jsonl (record a serve or "
            "loadgen run with --ledger)",
            file=sys.stderr,
        )
        return 2
    try:
        records = read_requests(requests_path)
    except OSError as exc:
        print(f"error: cannot read {requests_path}: {exc}", file=sys.stderr)
        return 2
    objectives = default_objectives(args.break_even_threshold)
    try:
        for spec in args.objective:
            objectives = apply_objective_spec(objectives, spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = evaluate(records, objectives)
    print(render_slo(report, run_id))
    if report.alerts:
        alerts_path = write_alerts(
            ledger.run_dir(run_id) / "alerts.jsonl", report.alerts, run_id
        )
        print(f"\nappended {len(report.alerts)} alert(s) to {alerts_path}")
    if not args.no_save:
        # SLO state is derived from measured latency/admission behaviour.
        ledger.attach_block(
            run_id, "slo", {**report.summary(), "measured": ["*"]}
        )
    if report.breached:
        breached = [r.objective.name for r in report.results if r.breached]
        print(
            f"\nBREACHED: {', '.join(breached)} "
            f"(error budget exhausted or fast burn firing)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_anomaly(args: argparse.Namespace) -> int:
    from repro.obs.history import (
        build_series,
        collect_entries,
        detect_anomalies,
        render_anomalies,
    )
    from repro.obs.ledger import RunLedger

    ledger = RunLedger(args.ledger_dir)
    entries = collect_entries(
        ledger, command=args.filter_command, limit=args.limit or None
    )
    if not entries:
        print(
            f"(no history in {ledger.path}: record runs with --ledger first)"
        )
        return 0
    series = build_series(entries, args.cells or None)
    anomalies = detect_anomalies(
        series,
        min_points=args.min_points,
        mads=args.mads,
        min_rel=args.min_rel,
    )
    print(render_anomalies(anomalies, len(entries)))
    if args.out:
        import json

        payload = {
            "schema": "repro-anomaly/1",
            "runs": len(entries),
            "anomalies": [
                {
                    **vars(a),
                    # JSON has no Infinity: a shifted constant cell reports
                    # a null robust z instead.
                    "zscore": None if a.zscore == float("inf") else a.zscore,
                }
                for a in anomalies
            ],
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"\nwrote anomaly report: {args.out}")
    return 1 if anomalies else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.core.cache import PersistentBitstreamCache

    cache = PersistentBitstreamCache(root=args.dir)
    if args.cache_command == "clear":
        dropped = cache.clear()
        print(f"cleared {dropped} cached bitstream(s) from {cache.root}")
        return 0
    stats = cache.stats()
    print(f"bitstream cache at {stats['root']}:")
    print(f"  entries:   {stats['entries']}")
    print(f"  bytes:     {stats['bytes']}")
    if stats["hits"] or stats["misses"]:
        print(
            f"  session:   {stats['hits']} hit(s), {stats['misses']} miss(es)"
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs.bench import render_bench, run_parallel_bench

    report = run_parallel_bench(
        domain=args.domain,
        jobs=args.jobs,
        backend=args.backend,
        out=args.out,
        cache_dir=args.cache_dir,
    )
    print(render_bench(report))
    if args.out:
        print(f"\nwrote benchmark report: {args.out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro import obs
    from repro.obs.ledger import current_run
    from repro.serve.server import ServerConfig, SpecializationServer

    recorder = current_run()
    tracer = obs.get_tracer()
    if tracer.enabled and args.max_spans > 0:
        # A daemon runs indefinitely: bound the in-memory span buffer.
        # Under --ledger the overflow flushes incrementally to the run's
        # trace.jsonl (finalize folds stages from the file); without a
        # sink the buffer is a ring and the oldest spans are dropped.
        flush_path = (
            recorder.run_dir / "trace.jsonl" if recorder is not None else None
        )
        tracer.configure_flush(flush_path, max_spans=args.max_spans)

    server = SpecializationServer(
        ServerConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_depth=args.queue_depth,
            backend=args.serve_backend,
            store_root=args.store,
            tenant_budget=args.tenant_budget,
        )
    )
    server.start()
    # Parseable by scripts (serve_smoke) before any request lands.
    print(f"serving on {server.config.host}:{server.port}", flush=True)

    def _on_signal(signum, _frame):
        server.request_shutdown(reason="signal")

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        previous[sig] = signal.signal(sig, _on_signal)
    try:
        status = server.serve_forever()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    counts = server.requests
    print(
        f"serve shutdown ({status}): {counts['completed']} completed, "
        f"{counts['rejected']} rejected, {counts['failed']} failed; "
        f"dedup saved {server.store.dedup_saved} CAD run(s)",
        flush=True,
    )
    return 0


def _parse_app_mix(spec: str | None):
    """Parse a ``--mix app=weight,app=weight`` spec (None = default mix)."""
    if not spec:
        return None
    mix = []
    for part in spec.split(","):
        name, sep, weight = part.partition("=")
        name = name.strip()
        if not name:
            raise ValueError(f"empty app name in mix spec {spec!r}")
        mix.append((name, float(weight) if sep else 1.0))
    return tuple(mix)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.serve.loadgen import (
        LoadGenConfig,
        render_loadgen,
        run_loadgen,
    )

    try:
        mix = _parse_app_mix(args.mix)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    kwargs = dict(
        requests=args.requests,
        clients=args.clients,
        tenants=args.tenants,
        rate=args.rate,
        seed=args.seed,
        concurrency=args.concurrency,
        workers=args.workers,
        queue_depth=args.queue_depth,
        tenant_budget=args.tenant_budget,
        time_share_pct=args.time_share,
        max_blocks=args.max_blocks,
    )
    if mix is not None:
        kwargs["mix"] = mix
    report = run_loadgen(
        LoadGenConfig(**kwargs), out=args.out, store_root=args.store
    )
    print(render_loadgen(report))
    if args.out:
        print(f"\nwrote serve benchmark report: {args.out}")
    if not report["warm_p95_lower"]:
        print(
            "FAIL: warm-phase p95 break-even is not strictly below cold "
            "(the cache is not paying for itself)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_mix(args: argparse.Namespace) -> int:
    from repro.obs.bench import render_mix_bench, run_mix_bench

    presets = tuple(p.strip() for p in args.presets.split(",") if p.strip())
    policies = tuple(p.strip() for p in args.policies.split(",") if p.strip())
    try:
        capacities = tuple(
            int(c) for c in args.slots.split(",") if c.strip()
        )
    except ValueError as exc:
        print(f"error: invalid --slots: {exc}", file=sys.stderr)
        return 2
    if not presets or not policies or not capacities:
        print(
            "error: need at least one preset, policy and slot count",
            file=sys.stderr,
        )
        return 2
    if any(c < 1 for c in capacities):
        print("error: slot counts must be >= 1", file=sys.stderr)
        return 2
    try:
        report = run_mix_bench(
            presets=presets,
            policies=policies,
            capacities=capacities,
            events=args.events,
            seed=args.seed,
            out=args.out,
            store_root=args.store,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_mix_bench(report))
    if args.out:
        print(f"\nwrote fleet-mix benchmark report: {args.out}")
    status = 0
    if not report["determinism"]["bit_identical"]:
        print(
            "FAIL: re-simulating the contended cell from identical inputs "
            "did not reproduce bit-identically",
            file=sys.stderr,
        )
        status = 1
    if report["gate"]["breakeven_beats_lru"] is False:
        print(
            "FAIL: break-even-aware eviction does not beat LRU on the "
            "contended mix (fleet break-even regressed)",
            file=sys.stderr,
        )
        status = 1
    return status


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.serve.top import run_top

    try:
        return run_top(
            args.host,
            args.port,
            interval=args.interval,
            once=args.once,
            show_metrics=args.show_metrics,
        )
    except KeyboardInterrupt:
        return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    from repro.obs.log import read_log, render_tail

    try:
        records = read_log(args.file)
    except OSError as exc:
        print(f"cannot read log: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid log: {exc}", file=sys.stderr)
        return 1
    print(render_tail(records, limit=args.lines, level=args.level))
    return 0


def _run_config(args: argparse.Namespace) -> dict:
    """JSON-safe view of a command's own arguments for the run manifest."""
    skip = {"fn", "trace", "metrics", "ledger", "log"}
    config = {}
    for key, value in vars(args).items():
        if key in skip:
            continue
        if value is None or isinstance(value, (str, int, float, bool)):
            config[key] = value
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="JIT instruction-set-extension reproduction toolkit",
    )
    obs_options = argparse.ArgumentParser(add_help=False)
    obs_options.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="record a span trace of this run and export it as JSON lines",
    )
    obs_options.add_argument(
        "--metrics",
        action="store_true",
        help="collect metrics and print a snapshot after the run",
    )
    obs_options.add_argument(
        "--log",
        metavar="FILE",
        default=None,
        help="write a structured JSONL event log of this run",
    )
    obs_options.add_argument(
        "--ledger",
        metavar="DIR",
        nargs="?",
        const=".repro-runs",
        default=None,
        help="record this run (manifest + trace + event log) in the run "
        "ledger (default dir: .repro-runs)",
    )
    parallel_options = argparse.ArgumentParser(add_help=False)
    parallel_options.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="shard the suite across N workers (default: 1 = serial)",
    )
    parallel_options.add_argument(
        "--backend",
        choices=["process", "thread"],
        default="process",
        help="worker pool flavour for --jobs (default: process; use thread "
        "to keep --log event records complete)",
    )
    parallel_options.add_argument(
        "--cache",
        metavar="DIR",
        nargs="?",
        const=".repro-cache",
        default=None,
        help="serve previously implemented candidates from the persistent "
        "bitstream cache (default dir: .repro-cache)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser(
        "tables",
        parents=[obs_options, parallel_options],
        help="regenerate the paper's tables",
    )
    p_tables.add_argument(
        "which", nargs="?", default="all", choices=["1", "2", "3", "4", "all"]
    )
    p_tables.set_defaults(fn=_cmd_tables)

    sub.add_parser(
        "figures", parents=[obs_options], help="print Figures 1 and 2"
    ).set_defaults(fn=_cmd_figures)
    sub.add_parser(
        "apps", parents=[obs_options], help="list the benchmark suite"
    ).set_defaults(fn=_cmd_apps)

    p_analyze = sub.add_parser(
        "analyze",
        parents=[obs_options, parallel_options],
        help="analyze one application or a whole domain",
    )
    p_analyze.add_argument(
        "app", nargs="?", help="application name, e.g. fft or 470.lbm"
    )
    p_analyze.add_argument(
        "--domain",
        choices=["embedded", "scientific", "all"],
        default=None,
        help="analyze every application of a domain instead of one app",
    )
    p_analyze.set_defaults(fn=_cmd_analyze)

    for name, fn, help_text in (
        ("jit", _cmd_jit, "run the end-to-end JIT flow on one application"),
        ("timeline", _cmd_timeline, "concurrent-specialization timeline"),
    ):
        p = sub.add_parser(name, parents=[obs_options], help=help_text)
        p.add_argument("app", help="application name, e.g. fft or 470.lbm")
        p.set_defaults(fn=fn)

    p_profile = sub.add_parser(
        "profile",
        parents=[obs_options],
        help="hierarchical self/total-time profile of a run",
    )
    p_profile.add_argument(
        "target", help="application name, or a JSONL trace written by --trace"
    )
    p_profile.add_argument(
        "--clock",
        choices=["real", "virtual"],
        default="real",
        help="which clock to profile: measured perf_counter time or the "
        "modelled CAD virtual_seconds (default: real)",
    )
    p_profile.add_argument(
        "--top", type=int, default=15, help="rows in the hot-path table"
    )
    p_profile.add_argument(
        "--tree", action="store_true", help="also print the full profile tree"
    )
    p_profile.add_argument(
        "--collapsed",
        metavar="FILE",
        default=None,
        help="write Brendan-Gregg collapsed stacks for flamegraph.pl / "
        "speedscope ('-' = stdout)",
    )
    p_profile.set_defaults(fn=_cmd_profile)

    p_heat = sub.add_parser(
        "heat",
        parents=[obs_options],
        help="heat-annotated IR listing (block time shares, kernel flags)",
    )
    p_heat.add_argument("app", help="application name, e.g. fft or 470.lbm")
    p_heat.add_argument(
        "--function", default=None, help="print only this function"
    )
    p_heat.add_argument(
        "--top", type=int, default=10, help="rows in the hottest-block table"
    )
    p_heat.add_argument(
        "--threshold",
        type=float,
        default=0.90,
        help="kernel time-coverage threshold (paper: 0.90)",
    )
    p_heat.add_argument(
        "--top-opcodes",
        type=int,
        default=0,
        metavar="N",
        help="also print a dynamic opcode rollup (counts x cost model)",
    )
    p_heat.set_defaults(fn=_cmd_heat)

    p_vmprof = sub.add_parser(
        "vmprof",
        parents=[obs_options],
        help="VM observatory: opcode profile and real-vs-virtual "
        "divergence",
    )
    p_vmprof.add_argument("app", help="application name, e.g. fft or adpcm")
    p_vmprof.add_argument(
        "--dataset", default=None, help="dataset name (default: train)"
    )
    p_vmprof.add_argument(
        "--sample",
        type=int,
        default=64,
        metavar="N",
        help="real-clock sample interval in block executions "
        "(0 disables sampling; default: 64)",
    )
    p_vmprof.add_argument(
        "--top", type=int, default=12, help="rows per report table"
    )
    p_vmprof.add_argument(
        "--json", metavar="FILE", default=None, help="write the full report"
    )
    p_vmprof.set_defaults(fn=_cmd_vmprof)

    p_fidelity = sub.add_parser(
        "fidelity",
        parents=[obs_options, parallel_options],
        help="compare a run against the paper's published table values",
    )
    p_fidelity.add_argument(
        "--domain",
        choices=["embedded", "scientific", "all"],
        default="embedded",
        help="application subset to analyze (default: embedded)",
    )
    p_fidelity.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="report path (default: BENCH_fidelity_<domain>.json)",
    )
    p_fidelity.add_argument(
        "--full",
        action="store_true",
        help="also check the Table IV cache/CAD extrapolation factor",
    )
    p_fidelity.set_defaults(fn=_cmd_fidelity)

    p_trace = sub.add_parser(
        "trace", help="replay a saved JSONL trace as a per-stage time table"
    )
    p_trace.add_argument("file", help="trace file written by --trace")
    p_trace.add_argument(
        "--timeline",
        action="store_true",
        help="also render the ASCII span timeline",
    )
    p_trace.add_argument(
        "--chrome",
        metavar="FILE",
        default=None,
        help="also write a Chrome trace_event file (chrome://tracing)",
    )
    p_trace.set_defaults(fn=_cmd_trace, trace=None, metrics=False)

    ledger_dir_kwargs = dict(
        metavar="DIR",
        dest="ledger_dir",
        default=".repro-runs",
        help="run ledger directory (default: .repro-runs)",
    )

    p_runs = sub.add_parser("runs", help="inspect the run ledger")
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)
    p_runs_list = runs_sub.add_parser("list", help="list recorded runs")
    p_runs_list.add_argument("--ledger", **ledger_dir_kwargs)
    p_runs_list.add_argument(
        "--last", type=int, default=0, help="show only the last N runs"
    )
    p_runs_list.add_argument(
        "--limit",
        type=int,
        default=50,
        metavar="N",
        help="load and show at most the newest N runs (0 = all; "
        "default: 50)",
    )
    p_runs_show = runs_sub.add_parser("show", help="show one run's manifest")
    p_runs_show.add_argument(
        "run", help="run id, unique prefix, 'latest', or 'latest~N'"
    )
    p_runs_show.add_argument("--ledger", **ledger_dir_kwargs)
    p_runs_diff = runs_sub.add_parser(
        "diff", help="cell-by-cell diff of two runs (informational)"
    )
    p_runs_diff.add_argument("a", help="baseline run spec")
    p_runs_diff.add_argument("b", help="current run spec")
    p_runs_diff.add_argument("--ledger", **ledger_dir_kwargs)
    p_runs_diff.add_argument(
        "--all", action="store_true", help="show unchanged cells too"
    )
    p_runs_gc = runs_sub.add_parser(
        "gc", help="delete the oldest recorded runs beyond --keep N"
    )
    p_runs_gc.add_argument(
        "--keep",
        type=int,
        required=True,
        metavar="N",
        help="number of newest runs to keep (a currently open run is "
        "never removed)",
    )
    p_runs_gc.add_argument("--ledger", **ledger_dir_kwargs)
    p_runs_gc.add_argument(
        "--no-compact",
        action="store_true",
        help="delete pruned runs outright instead of first compacting "
        "their manifest cells into the ledger's history.jsonl",
    )
    p_runs_trend = runs_sub.add_parser(
        "trend",
        help="per-cell time series across all recorded history "
        "(live runs + gc-compacted history.jsonl)",
    )
    p_runs_trend.add_argument("--ledger", **ledger_dir_kwargs)
    p_runs_trend.add_argument(
        "--cells",
        action="append",
        default=[],
        metavar="PATTERN",
        help="fnmatch cell filter (repeatable; default: every cell)",
    )
    p_runs_trend.add_argument(
        "--command",
        dest="filter_command",
        default=None,
        metavar="CMD",
        help="only runs of this command (default: all runs)",
    )
    p_runs_trend.add_argument(
        "--limit",
        type=int,
        default=0,
        metavar="N",
        help="only the newest N runs (default: 0 = all)",
    )
    p_runs_trend.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="also write the series as a JSON trend report",
    )
    p_runs.set_defaults(fn=_cmd_runs, trace=None, metrics=False, log=None)
    for p in (p_runs_list, p_runs_show, p_runs_diff, p_runs_gc, p_runs_trend):
        p.set_defaults(fn=_cmd_runs, trace=None, metrics=False, log=None)

    p_regress = sub.add_parser(
        "regress",
        help="compare a recorded run against a baseline, fail on regression",
    )
    p_regress.add_argument(
        "--baseline",
        default="latest~1",
        help="baseline run spec (default: latest~1)",
    )
    p_regress.add_argument(
        "--candidate",
        default="latest",
        help="run under test (default: latest)",
    )
    p_regress.add_argument("--ledger", **ledger_dir_kwargs)
    p_regress.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="PATTERN=REL",
        help="override a cell tolerance (REL float, or 'info' to make the "
        "cells informational); repeatable, first match wins",
    )
    p_regress.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="widen tolerances by a median/MAD noise band estimated over "
        "the last N runs ending at the candidate (default: 1 = off)",
    )
    p_regress.add_argument(
        "--history",
        type=int,
        default=0,
        metavar="N",
        help="derive noise bands for measured (informational) cells from "
        "the last N same-command runs in the ledger history, and gate "
        "them at median +/- (5%% + 3*MAD) (default: 0 = off)",
    )
    p_regress.add_argument(
        "--all", action="store_true", help="show unchanged cells too"
    )
    p_regress.set_defaults(fn=_cmd_regress, trace=None, metrics=False, log=None)

    p_slo = sub.add_parser(
        "slo",
        help="evaluate error-budget SLOs over a recorded run's "
        "requests.jsonl, appending burn-rate alerts to alerts.jsonl",
    )
    p_slo.add_argument(
        "run",
        nargs="?",
        default="latest",
        help="run spec: id, unique prefix, 'latest', or 'latest~N' "
        "(default: latest)",
    )
    p_slo.add_argument("--ledger", **ledger_dir_kwargs)
    p_slo.add_argument(
        "--break-even-threshold",
        type=float,
        default=3600.0,
        metavar="SEC",
        help="bound for the break_even_p95 objective in virtual seconds "
        "of app runtime (default: 3600)",
    )
    p_slo.add_argument(
        "--objective",
        action="append",
        default=[],
        metavar="NAME:KEY=VAL,...",
        help="override a stock objective's fields (or declare a new one "
        "with at least good= and target=); repeatable",
    )
    p_slo.add_argument(
        "--no-save",
        action="store_true",
        help="do not attach the SLO summary block to the run's manifest",
    )
    p_slo.set_defaults(fn=_cmd_slo, trace=None, metrics=False, log=None)

    p_anomaly = sub.add_parser(
        "anomaly",
        help="flag manifest cells of the newest run that break from the "
        "fleet history (robust median+MAD changepoint)",
    )
    p_anomaly.add_argument("--ledger", **ledger_dir_kwargs)
    p_anomaly.add_argument(
        "--cells",
        action="append",
        default=[],
        metavar="PATTERN",
        help="fnmatch cell filter (repeatable; default: every cell)",
    )
    p_anomaly.add_argument(
        "--command",
        dest="filter_command",
        default=None,
        metavar="CMD",
        help="only runs of this command (default: all runs)",
    )
    p_anomaly.add_argument(
        "--limit",
        type=int,
        default=0,
        metavar="N",
        help="only the newest N runs (default: 0 = all)",
    )
    p_anomaly.add_argument(
        "--min-points",
        type=int,
        default=4,
        metavar="N",
        help="trailing points needed before a cell is judged (default: 4)",
    )
    p_anomaly.add_argument(
        "--mads",
        type=float,
        default=4.0,
        metavar="Z",
        help="robust z-score threshold in 1.4826*MAD units (default: 4)",
    )
    p_anomaly.add_argument(
        "--min-rel",
        type=float,
        default=0.001,
        metavar="FRAC",
        help="minimum |relative change| vs the baseline median "
        "(default: 0.001)",
    )
    p_anomaly.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the flagged cells as a JSON anomaly report",
    )
    p_anomaly.set_defaults(fn=_cmd_anomaly, trace=None, metrics=False, log=None)

    p_critpath = sub.add_parser(
        "critpath",
        help="critical path and per-stage slack of a recorded run's "
        "specialization DAG",
    )
    p_critpath.add_argument(
        "run",
        nargs="?",
        default="latest",
        help="run spec: id, unique prefix, 'latest', or 'latest~N' "
        "(default: latest)",
    )
    p_critpath.add_argument("--ledger", **ledger_dir_kwargs)
    p_critpath.add_argument(
        "--no-save",
        action="store_true",
        help="do not attach the critpath block to the run's manifest",
    )
    p_critpath.set_defaults(
        fn=_cmd_critpath, trace=None, metrics=False, log=None
    )

    p_whatif = sub.add_parser(
        "whatif",
        help="replay a recorded run under hypothetical cache/CAD/worker knobs",
    )
    p_whatif.add_argument(
        "run",
        nargs="?",
        default="latest",
        help="run spec: id, unique prefix, 'latest', or 'latest~N' "
        "(default: latest)",
    )
    p_whatif.add_argument("--ledger", **ledger_dir_kwargs)
    p_whatif.add_argument(
        "--cache-hit",
        type=float,
        default=0.0,
        metavar="PCT",
        help="bitstream-cache hit rate in percent (default: 0)",
    )
    p_whatif.add_argument(
        "--cad-speedup",
        action="append",
        default=[],
        metavar="PCT|STAGE=PCT",
        help="CAD speedup in percent: a bare number speeds up the whole "
        "chain, STAGE=PCT (e.g. bitgen=50) only one stage; repeatable",
    )
    p_whatif.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="parallel CAD workers list-scheduling the candidate chains "
        "(default: 1)",
    )
    p_whatif.add_argument(
        "--trials",
        type=int,
        default=16,
        metavar="N",
        help="cache-population trials, as in the analytic Table IV "
        "(default: 16)",
    )
    p_whatif.add_argument(
        "--grid",
        action="store_true",
        help="regenerate the full Table IV grid from the trace and "
        "cross-check it against the analytic model (exit 1 on divergence)",
    )
    p_whatif.add_argument(
        "--tol",
        type=float,
        default=0.05,
        metavar="REL",
        help="relative tolerance for the grid cross-check (default: 0.05)",
    )
    p_whatif.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the cross-checked grid as a JSON artifact (with --grid)",
    )
    p_whatif.add_argument(
        "--slots",
        type=int,
        default=None,
        metavar="N",
        help="fleet-mix replay: re-simulate the run's recorded mixes with "
        "N custom-instruction slots (needs a `repro mix --ledger` run)",
    )
    p_whatif.add_argument(
        "--policy",
        choices=["lru", "lfu", "breakeven"],
        default=None,
        help="fleet-mix replay: re-simulate the run's recorded mixes "
        "under this eviction policy",
    )
    p_whatif.add_argument(
        "--no-save",
        action="store_true",
        help="do not attach the whatif block to the run's manifest",
    )
    p_whatif.set_defaults(fn=_cmd_whatif, trace=None, metrics=False, log=None)

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the persistent bitstream cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    cache_dir_kwargs = dict(
        metavar="DIR",
        dest="dir",
        default=".repro-cache",
        help="cache directory (default: .repro-cache)",
    )
    p_cache_stats = cache_sub.add_parser(
        "stats", help="show entry count, bytes, and session hit/miss counts"
    )
    p_cache_stats.add_argument("--dir", **cache_dir_kwargs)
    p_cache_clear = cache_sub.add_parser(
        "clear", help="drop every cached bitstream"
    )
    p_cache_clear.add_argument("--dir", **cache_dir_kwargs)
    for p in (p_cache, p_cache_stats, p_cache_clear):
        p.set_defaults(fn=_cmd_cache, trace=None, metrics=False, log=None)

    p_bench = sub.add_parser(
        "bench",
        help="benchmark the parallel runner and the persistent cache",
    )
    p_bench.add_argument(
        "--domain",
        choices=["embedded", "scientific", "all"],
        default="embedded",
        help="application subset to benchmark (default: embedded)",
    )
    p_bench.add_argument(
        "--jobs",
        type=int,
        default=4,
        metavar="N",
        help="worker count for the parallel phase (default: 4)",
    )
    p_bench.add_argument(
        "--backend",
        choices=["process", "thread"],
        default="process",
        help="worker pool flavour (default: process)",
    )
    p_bench.add_argument(
        "--out",
        metavar="FILE",
        default="BENCH_parallel.json",
        help="report path (default: BENCH_parallel.json)",
    )
    p_bench.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="cache directory for the warm phases (default: a temporary "
        "directory, removed afterwards)",
    )
    p_bench.set_defaults(fn=_cmd_bench, trace=None, metrics=False, log=None)

    p_bench_vm = sub.add_parser(
        "bench-vm",
        parents=[obs_options],
        help="benchmark the interpreter over the embedded suite "
        "(BENCH_vm.json)",
    )
    p_bench_vm.add_argument(
        "--apps",
        metavar="A,B,...",
        default=None,
        help="comma-separated app subset (default: the embedded suite)",
    )
    p_bench_vm.add_argument(
        "--sample",
        type=int,
        default=64,
        metavar="N",
        help="sampler interval for the overhead phase (default: 64)",
    )
    p_bench_vm.add_argument(
        "--pairs",
        type=int,
        default=8,
        metavar="N",
        help="plain/sampled run pairs per app, alternating which runs "
        "first; the overhead is the median paired ratio with its "
        "quartiles (default: 8)",
    )
    p_bench_vm.add_argument(
        "--out",
        metavar="FILE",
        default="BENCH_vm.json",
        help="report path (default: BENCH_vm.json)",
    )
    p_bench_vm.set_defaults(fn=_cmd_bench_vm)

    p_serve = sub.add_parser(
        "serve",
        parents=[obs_options],
        help="run the specialization daemon (bounded queue + worker pool "
        "over the shared multi-tenant bitstream store)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port (default: 0 = ephemeral; the bound port is printed)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="worker pool size (default: 2)",
    )
    p_serve.add_argument(
        "--queue-depth",
        type=int,
        default=32,
        metavar="N",
        help="admission queue depth; a full queue rejects with "
        "retry_after_ms (default: 32)",
    )
    p_serve.add_argument(
        "--backend",
        dest="serve_backend",
        choices=["thread", "process"],
        default="thread",
        help="worker flavour (default: thread; thread keeps candidate-level "
        "single-flight dedup in-process)",
    )
    p_serve.add_argument(
        "--store",
        metavar="DIR",
        default=".repro-store",
        help="shared multi-tenant bitstream store root "
        "(default: .repro-store)",
    )
    p_serve.add_argument(
        "--tenant-budget",
        type=int,
        default=None,
        metavar="N",
        help="per-tenant cache eviction budget in entries (default: "
        "unbounded)",
    )
    p_serve.add_argument(
        "--max-spans",
        type=int,
        default=20000,
        metavar="N",
        help="bound the tracer's in-memory span buffer; overflow flushes "
        "to the ledger run's trace.jsonl (default: 20000; 0 = unbounded)",
    )
    p_serve.set_defaults(fn=_cmd_serve)

    p_loadgen = sub.add_parser(
        "loadgen",
        parents=[obs_options],
        help="drive an embedded daemon with a deterministic Poisson mix "
        "(cold + warm) and write BENCH_serve.json",
    )
    p_loadgen.add_argument(
        "--requests",
        type=int,
        default=200,
        metavar="N",
        help="requests per phase (default: 200)",
    )
    p_loadgen.add_argument(
        "--clients",
        type=int,
        default=1000,
        metavar="N",
        help="simulated client population (default: 1000)",
    )
    p_loadgen.add_argument(
        "--tenants",
        type=int,
        default=4,
        metavar="N",
        help="tenant namespaces the clients map onto (default: 4)",
    )
    p_loadgen.add_argument(
        "--rate",
        type=float,
        default=50.0,
        metavar="RPS",
        help="Poisson arrival rate in requests/second (default: 50)",
    )
    p_loadgen.add_argument(
        "--seed", type=int, default=0, help="schedule seed (default: 0)"
    )
    p_loadgen.add_argument(
        "--concurrency",
        type=int,
        default=12,
        metavar="N",
        help="client sender threads (default: 12)",
    )
    p_loadgen.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="embedded server worker pool size (default: 4)",
    )
    p_loadgen.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        metavar="N",
        help="embedded server admission queue depth (default: 16)",
    )
    p_loadgen.add_argument(
        "--tenant-budget",
        type=int,
        default=None,
        metavar="N",
        help="per-tenant cache eviction budget (default: unbounded)",
    )
    p_loadgen.add_argument(
        "--time-share",
        type=float,
        default=50.0,
        metavar="PCT",
        help="pruning time-share threshold (default: 50 = @50pS3L)",
    )
    p_loadgen.add_argument(
        "--max-blocks",
        type=int,
        default=3,
        metavar="N",
        help="pruning block limit (default: 3)",
    )
    p_loadgen.add_argument(
        "--mix",
        metavar="APP=W,APP=W",
        default=None,
        help="offered application mix with weights (default: the embedded "
        "suite weighted by CAD work)",
    )
    p_loadgen.add_argument(
        "--out",
        metavar="FILE",
        default="BENCH_serve.json",
        help="report path (default: BENCH_serve.json)",
    )
    p_loadgen.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="store root for the phases (default: a temporary directory, "
        "removed afterwards, so the cold phase is genuinely cold)",
    )
    p_loadgen.set_defaults(fn=_cmd_loadgen)

    p_mix = sub.add_parser(
        "mix",
        parents=[obs_options],
        help="sweep the fleet workload-mix grid (entropy x eviction policy "
        "x slot count) and write BENCH_mix.json",
    )
    p_mix.add_argument(
        "--presets",
        metavar="NAME,NAME",
        default="uniform,skewed",
        help="mix presets to replay (default: uniform,skewed)",
    )
    p_mix.add_argument(
        "--policies",
        metavar="P,P",
        default="lru,lfu,breakeven",
        help="eviction policies to sweep (default: lru,lfu,breakeven)",
    )
    p_mix.add_argument(
        "--slots",
        metavar="N,N",
        default="4,8,16",
        help="slot capacities to sweep (default: 4,8,16)",
    )
    p_mix.add_argument(
        "--events",
        type=int,
        default=120,
        metavar="N",
        help="invocations per trace (default: 120)",
    )
    p_mix.add_argument(
        "--seed", type=int, default=0, help="trace seed (default: 0)"
    )
    p_mix.add_argument(
        "--out",
        metavar="FILE",
        default="BENCH_mix.json",
        help="report path (default: BENCH_mix.json; use /dev/null to skip)",
    )
    p_mix.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="fleet store root for the cells (default: a temporary "
        "directory, removed afterwards, so every cell starts cold)",
    )
    p_mix.set_defaults(fn=_cmd_mix)

    p_top = sub.add_parser(
        "top", help="live ASCII view of a running specialization daemon"
    )
    p_top.add_argument(
        "--host", default="127.0.0.1", help="daemon host (default: 127.0.0.1)"
    )
    p_top.add_argument(
        "--port", type=int, required=True, help="daemon port (required)"
    )
    p_top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SEC",
        help="refresh interval (default: 2.0)",
    )
    p_top.add_argument(
        "--once",
        action="store_true",
        help="render a single page and exit (no screen clearing)",
    )
    p_top.add_argument(
        "--metrics",
        dest="show_metrics",
        action="store_true",
        help="append the daemon's full metrics snapshot, if instrumented",
    )
    p_top.set_defaults(
        fn=_cmd_top, trace=None, metrics=False, log=None, ledger=None
    )

    p_tail = sub.add_parser(
        "tail", help="render the last records of a JSONL event log"
    )
    p_tail.add_argument("file", help="event log written by --log or --ledger")
    p_tail.add_argument(
        "-n", "--lines", type=int, default=20, help="records to show"
    )
    p_tail.add_argument(
        "--level",
        choices=["debug", "info", "warning", "error"],
        default=None,
        help="show only records at or above this level",
    )
    p_tail.set_defaults(fn=_cmd_tail, trace=None, metrics=False, log=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    trace_file = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    log_file = getattr(args, "log", None)
    ledger_dir = getattr(args, "ledger", None)
    if not (trace_file or want_metrics or log_file or ledger_dir):
        return args.fn(args)

    from pathlib import Path

    from repro import obs

    recorder = None
    if ledger_dir:
        # A recorded run must measure real work, not cache hits.
        from repro.experiments.runner import clear_cache

        clear_cache()
        recorder = obs.start_run(
            ledger_dir,
            command=args.command,
            config=_run_config(args),
            argv=list(argv) if argv is not None else sys.argv[1:],
        )
        if log_file is None:
            log_file = str(Path(recorder.run_dir) / "log.jsonl")
    if trace_file or recorder is not None:
        obs.enable_tracing()
    if want_metrics or recorder is not None:
        obs.enable_metrics()
    if log_file:
        obs.enable_logging(
            log_file, run_id=recorder.run_id if recorder else None
        )
    status = None
    try:
        status = args.fn(args)
        return status
    finally:
        if log_file:
            obs.disable_logging()
        tracer = obs.disable_tracing() if obs.get_tracer().enabled else None
        registry = (
            obs.disable_metrics() if obs.get_metrics().enabled else None
        )
        if trace_file and tracer is not None:
            count = obs.export_tracer(tracer, trace_file)
            print(f"\nwrote {count} spans to {trace_file}")
        if want_metrics and registry is not None:
            print("\nmetrics snapshot:")
            print(obs.render_snapshot(registry.snapshot()))
        if recorder is not None:
            manifest_path = obs.finish_run(
                tracer=tracer,
                metrics=registry,
                status=status if status is not None else -1,
                log_path=log_file,
            )
            print(f"\nrecorded run {recorder.run_id} -> {manifest_path}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
