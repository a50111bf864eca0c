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
- ``runs list|show|gc`` — inspect or garbage-collect the run
  ledger (``.repro-runs/``);
- ``regress`` — compare the latest recorded run against a baseline run
  cell-by-cell, exiting non-zero on regression (CI gate); it gates the
  deterministic cells, while measured (host-clock) cells are
  informational and timing is judged by ``python -m bench compare``;
- ``mix`` — sweep the fleet workload-mix grid (mix entropy x slot
  capacity) through the slot-contention simulator, exiting non-zero if
  the most-evicting cell does not reproduce bit-identically;
- ``bench [vm|mix|serve ...]`` — run the committed benchmarks with their
  defaults and write ``BENCH_<name>.json``, exiting non-zero on a false
  gate;
- ``cache stats|clear`` — inspect or empty the persistent bitstream cache
  (``.repro-cache/``, Section VI-A);
- ``serve`` — run the specialization daemon (:mod:`repro.serve`): a
  bounded admission queue and worker pool over the shared multi-tenant
  bitstream store, each request a ``serve.request`` span;
- ``loadgen`` — drive an embedded daemon with a deterministic Poisson
  request mix (cold + warm phases).

Every command accepts ``--trace FILE`` (export a JSONL span trace of the
run) and ``--ledger [DIR]`` (record the run — manifest and trace — in
the run ledger); see :mod:`repro.obs`. The suite-running commands
(``analyze``, ``tables``, ``fidelity``) additionally accept ``--jobs N``
(shard the suite across N worker processes) and ``--cache [DIR]``
(persistent bitstream cache).
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.util.timefmt import format_dhms, format_hms


def _parallel_kwargs(args: argparse.Namespace) -> dict:
    """The suite runner's jobs/cache kwargs from parsed options."""
    return {
        "jobs": getattr(args, "jobs", 1),
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
    if args.jobs > 1:
        # One app is analyzed in this process; only a suite shards.
        print("error: analyze --jobs needs --domain", file=sys.stderr)
        return 2

    from repro.experiments import analyze_app
    from repro.experiments.runner import resolve_bitstream_cache

    bitstream_cache = resolve_bitstream_cache(getattr(args, "cache", None))
    a = analyze_app(args.app, bitstream_cache=bitstream_cache)
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
        obs.write_chrome_trace(records, args.chrome)
        print(f"\nwrote Chrome trace_event file: {args.chrome}")
    return 0


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

    prof = profile_app(args.app, dataset=args.dataset)
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


def _check_gates(name: str, body: dict) -> int:
    """Exit status of a benchmark body: 1, naming each false gate, or 0.

    A ``None`` gate does not apply and does not fail.
    """
    failed = [gate for gate, ok in body["gates"].items() if ok is False]
    for gate in failed:
        print(f"FAIL: {name} gate {gate} is false", file=sys.stderr)
    return 1 if failed else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs.bench import benchmarks, write_report

    table = benchmarks()
    unknown = [name for name in args.names if name not in table]
    if unknown:
        print(
            f"error: unknown benchmark {', '.join(unknown)} "
            f"(choose from {', '.join(table)})",
            file=sys.stderr,
        )
        return 2
    status = 0
    for name in args.names or table:
        schema, run, render = table[name]
        body = run()
        print(render(body))
        print(f"\nwrote {write_report(name, schema, body)}\n")
        status |= _check_gates(name, body)
    return status


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


def _cmd_runs(args: argparse.Namespace) -> int:
    from repro.obs.ledger import RunLedger, render_manifest, render_run_list

    ledger = RunLedger(args.ledger_dir)
    if args.runs_command == "gc":
        from repro.obs.ledger import prune_runs

        try:
            removed = prune_runs(ledger, args.keep)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if removed:
            print(
                f"removed {len(removed)} run(s): {', '.join(removed)}"
            )
        else:
            print(
                f"nothing to remove ({len(ledger.run_ids())} run(s) "
                f"recorded, keeping {args.keep})"
            )
        return 0
    if args.runs_command == "list":
        run_ids = ledger.run_ids()
        if not run_ids:
            print(f"(no runs recorded in {ledger.path})")
            return 0
        total = len(run_ids)
        # Only the shown runs' manifests are loaded (a serve ledger can
        # hold thousands of runs — listing must not parse them all).
        if args.limit > 0:
            run_ids = run_ids[-args.limit:]
        print(render_run_list([ledger.load(run_id) for run_id in run_ids]))
        if len(run_ids) < total:
            print(
                f"({total - len(run_ids)} older run(s) not shown; "
                f"use --limit 0 to list all {total})"
            )
        return 0
    # show: one run's manifest.
    try:
        manifest = ledger.load(ledger.resolve(args.run))
    except LookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_manifest(manifest))
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
    report = compare_manifests(
        ledger.load(baseline_id),
        ledger.load(current_id),
        tolerances=tolerances,
    )
    print(report.render(show_all=args.all))
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


def _cmd_serve(args: argparse.Namespace) -> int:
    import gc
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
    # The process exits next and its warm heap (app contexts, store
    # indexes) goes with it. Frozen, it is skipped by the full collections
    # of interpreter finalization, which otherwise took most of the stop
    # (about 80 ms of 90) and most of its run-to-run spread.
    gc.freeze()
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
    report = run_loadgen(LoadGenConfig(**kwargs), store_root=args.store)
    print(render_loadgen(report))
    return _check_gates("serve", report)


def _cmd_mix(args: argparse.Namespace) -> int:
    from repro.obs.bench import render_mix_bench, run_mix_bench

    presets = tuple(p.strip() for p in args.presets.split(",") if p.strip())
    try:
        capacities = tuple(
            int(c) for c in args.slots.split(",") if c.strip()
        )
    except ValueError as exc:
        print(f"error: invalid --slots: {exc}", file=sys.stderr)
        return 2
    if not presets or not capacities:
        print("error: need at least one preset and slot count", file=sys.stderr)
        return 2
    if any(c < 1 for c in capacities):
        print("error: slot counts must be >= 1", file=sys.stderr)
        return 2
    try:
        report = run_mix_bench(
            presets=presets,
            capacities=capacities,
            events=args.events,
            seed=args.seed,
            store_root=args.store,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_mix_bench(report))
    return _check_gates("mix", report)


def _run_config(args: argparse.Namespace) -> dict:
    """JSON-safe view of a command's own arguments for the run manifest."""
    skip = {"fn", "trace", "ledger"}
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
        "--ledger",
        metavar="DIR",
        nargs="?",
        const=".repro-runs",
        default=None,
        help="record this run (manifest + trace) in the run ledger "
        "(default dir: .repro-runs)",
    )
    parallel_options = argparse.ArgumentParser(add_help=False)
    parallel_options.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="shard the suite across N worker processes (default: 1 = serial)",
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
    p_trace.set_defaults(fn=_cmd_trace, trace=None)

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
    p_runs.set_defaults(fn=_cmd_runs, trace=None)
    for p in (p_runs_list, p_runs_show, p_runs_gc):
        p.set_defaults(fn=_cmd_runs, trace=None)

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
        "--all", action="store_true", help="show unchanged cells too"
    )
    p_regress.set_defaults(fn=_cmd_regress, trace=None)

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
        p.set_defaults(fn=_cmd_cache, trace=None)

    p_bench = sub.add_parser(
        "bench",
        parents=[obs_options],
        help="run the committed benchmarks (vm, mix, serve; default: all) "
        "and write BENCH_<name>.json",
    )
    p_bench.add_argument(
        "names", nargs="*", metavar="NAME", help="vm, mix or serve"
    )
    p_bench.set_defaults(fn=_cmd_bench)

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
        "(cold + warm phases)",
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
        help="sweep the fleet workload-mix grid (entropy x slot count)",
    )
    p_mix.add_argument(
        "--presets",
        metavar="NAME,NAME",
        default="uniform,skewed",
        help="mix presets to replay (default: uniform,skewed)",
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
        "--store",
        metavar="DIR",
        default=None,
        help="fleet store root for the cells (default: a temporary "
        "directory, removed afterwards, so every cell starts cold)",
    )
    p_mix.set_defaults(fn=_cmd_mix)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    trace_file = getattr(args, "trace", None)
    ledger_dir = getattr(args, "ledger", None)
    if not (trace_file or ledger_dir):
        return args.fn(args)

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
    obs.enable_tracing()
    status = None
    try:
        status = args.fn(args)
        return status
    finally:
        tracer = obs.disable_tracing() if obs.get_tracer().enabled else None
        if trace_file and tracer is not None:
            count = obs.export_tracer(tracer, trace_file)
            print(f"\nwrote {count} spans to {trace_file}")
        if recorder is not None:
            manifest_path = obs.finish_run(
                tracer=tracer,
                status=status if status is not None else -1,
            )
            print(f"\nrecorded run {recorder.run_id} -> {manifest_path}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
