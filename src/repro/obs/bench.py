"""Wall-clock benchmark of the parallel runner and the persistent cache.

Section VI-A of the paper argues that a bitstream cache (and, in VI-B, a
faster CAD flow) is what moves the break-even times of Table IV; this
module measures the two mechanisms this reproduction actually implements —
worker-pool sharding (``--jobs``) and the persistent bitstream cache
(``--cache``) — against the serial cold baseline, and writes the evidence
as ``BENCH_parallel.json`` so the repository carries measured numbers, not
claims.

Four phases, each a full ``analyze_suite`` run with the in-process memo
cleared:

1. ``serial_cold`` — jobs=1, no persistent cache (the paper-faithful run);
2. ``parallel_cold`` — jobs=N, no persistent cache;
3. ``cache_cold`` — jobs=1 against an empty persistent cache (populates);
4. ``cache_warm`` — jobs=1 against the now-warm cache (every candidate a
   hit; the ``cad.implementations`` counter drops to the failures only).

Per phase we record the wall seconds, the ``cad.implementations`` counter
(virtual CAD work actually performed), and the cache hit/miss statistics.
Speedups are computed from the recorded wall times. On a single-core host
the honest parallel speedup is ~1x — the cache speedup is the headline
number there.

:func:`run_vm_bench` is the interpreter-side sibling (``BENCH_vm.json``):
per-app interpreter wall time, instructions/sec, dynamic opcode counts
and top digrams, with the sampler overhead and the PPC405 virtual clock
checked bit-identical between the sampled and unsampled runs.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import tempfile
import time

from repro.obs.metrics import disable_metrics, enable_metrics

#: Report schema identifier (bump on breaking changes).
BENCH_SCHEMA = "repro-bench-parallel/1"

#: Default report location, committed at the repository root.
DEFAULT_BENCH_OUT = "BENCH_parallel.json"

#: VM interpreter benchmark (repro bench-vm) schema + committed report.
BENCH_VM_SCHEMA = "repro-bench-vm/2"
DEFAULT_VM_BENCH_OUT = "BENCH_vm.json"


def _phase(domain: str, jobs: int, backend: str, cache) -> dict:
    """One timed ``analyze_suite`` run with fresh metrics and memo."""
    from repro.core.cache import PersistentBitstreamCache
    from repro.experiments.runner import analyze_suite, clear_cache

    clear_cache()
    if cache is not None and not isinstance(cache, PersistentBitstreamCache):
        cache = PersistentBitstreamCache(root=cache)
    registry = enable_metrics()
    try:
        t0 = time.perf_counter()
        analyses = analyze_suite(domain, jobs=jobs, backend=backend, cache=cache)
        wall = time.perf_counter() - t0
        counters = registry.snapshot()["counters"]
    finally:
        disable_metrics()
    result = {
        "jobs": jobs,
        "backend": backend if jobs > 1 else None,
        "wall_seconds": round(wall, 3),
        "apps": len(analyses),
        "cad_implementations": counters.get("cad.implementations", 0),
    }
    if cache is not None:
        result["cache"] = cache.stats()
    return result


def run_parallel_bench(
    domain: str = "embedded",
    jobs: int = 4,
    backend: str = "process",
    out: str | os.PathLike | None = DEFAULT_BENCH_OUT,
    cache_dir: str | os.PathLike | None = None,
) -> dict:
    """Run the four-phase benchmark; returns (and optionally writes) the report.

    *cache_dir* defaults to a temporary directory that is removed
    afterwards, so the benchmark never pollutes (or is polluted by) the
    working tree's ``.repro-cache/``.
    """
    owns_cache_dir = cache_dir is None
    if owns_cache_dir:
        cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        phases = {
            "serial_cold": _phase(domain, 1, backend, None),
            "parallel_cold": _phase(domain, jobs, backend, None),
            "cache_cold": _phase(domain, 1, backend, cache_dir),
            "cache_warm": _phase(domain, 1, backend, cache_dir),
        }
    finally:
        if owns_cache_dir:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def speedup(a: str, b: str) -> float:
        return round(
            phases[a]["wall_seconds"] / max(1e-9, phases[b]["wall_seconds"]), 3
        )

    report = {
        "schema": BENCH_SCHEMA,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "domain": domain,
        "jobs": jobs,
        "backend": backend,
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "phases": phases,
        "speedups": {
            "parallel_vs_serial": speedup("serial_cold", "parallel_cold"),
            "warm_cache_vs_cold": speedup("cache_cold", "cache_warm"),
            "warm_cache_vs_serial": speedup("serial_cold", "cache_warm"),
        },
    }
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return report


#: The sampler-overhead claim BENCH_vm.json tests (percent of plain wall).
SAMPLER_OVERHEAD_CLAIM_PCT = 1.5


def overhead_summary(ratios: list[float]) -> dict:
    """Median sampled/plain overhead with its quartiles and a verdict.

    The label is ``supported`` when even the upper quartile stays within
    :data:`SAMPLER_OVERHEAD_CLAIM_PCT`, ``exceeded`` when even the lower
    quartile lies above it, and ``inconclusive`` when the interquartile
    range spans the claim.
    """
    if len(ratios) > 1:
        q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    else:
        q1 = median = q3 = ratios[0]
    pct = [round(100.0 * (r - 1.0), 2) for r in (q1, median, q3)]
    if pct[2] <= SAMPLER_OVERHEAD_CLAIM_PCT:
        label = "supported"
    elif pct[0] > SAMPLER_OVERHEAD_CLAIM_PCT:
        label = "exceeded"
    else:
        label = "inconclusive"
    return {"median_pct": pct[1], "iqr_pct": [pct[0], pct[2]], "label": label}


def run_vm_bench(
    apps: list[str] | None = None,
    sample_interval: int = 64,
    out: str | os.PathLike | None = DEFAULT_VM_BENCH_OUT,
    top_digrams_n: int = 10,
    pairs: int = 8,
) -> dict:
    """Interpreter macro benchmark over the embedded suite (BENCH_vm.json).

    Each app runs on its train set as *pairs* back-to-back (plain,
    sampled) run pairs, alternating which phase runs first (ABBA), so a
    warm-up or drift that favours the second run cancels across pairs.
    Wall time is the min over the plain runs; the sampler overhead is the
    **median of the per-pair sampled/plain ratios** with its quartiles
    (:func:`overhead_summary`), per app and pooled over all pairs in
    ``totals``. The PPC405 virtual cycles of the two phases must be
    bit-identical — profiling may never bend the virtual clock.
    """
    from repro.apps import EMBEDDED_APPS, compile_app, get_app
    from repro.obs.vmprof import build_profile, top_digrams, vm_manifest_block
    from repro.vm.costmodel import PPC405_COST_MODEL
    from repro.vm.profiler import BlockTimeSampler

    if apps is None:
        apps = [spec.name for spec in EMBEDDED_APPS]

    app_reports: dict[str, dict] = {}
    all_identical = True
    all_ratios: list[float] = []
    for name in apps:
        spec = get_app(name)
        compiled = compile_app(spec)

        def timed(sampler):
            t0 = time.perf_counter()
            result = compiled.run(spec.train, sampler=sampler)
            return result, time.perf_counter() - t0

        wall_plain = wall_sampled = float("inf")
        ratios: list[float] = []
        for index in range(max(1, pairs)):
            sampler = BlockTimeSampler(interval=sample_interval)
            if index % 2 == 0:
                plain, plain_wall = timed(None)
                sampled, sampled_wall = timed(sampler)
            else:
                sampled, sampled_wall = timed(sampler)
                plain, plain_wall = timed(None)
            wall_plain = min(wall_plain, plain_wall)
            wall_sampled = min(wall_sampled, sampled_wall)
            ratios.append(sampled_wall / max(plain_wall, 1e-9))
        all_ratios.extend(ratios)
        overhead = overhead_summary(ratios)

        plain_cycles = plain.profile.total_cycles(
            compiled.module, PPC405_COST_MODEL
        )
        sampled_cycles = sampled.profile.total_cycles(
            compiled.module, PPC405_COST_MODEL
        )
        virtual_identical = plain_cycles == sampled_cycles
        all_identical = all_identical and virtual_identical

        prof = build_profile(
            app=spec.name,
            dataset=spec.train.name,
            module=compiled.module,
            profile=sampled.profile,
            steps=sampled.steps,
            wall_seconds=wall_plain,
            sampler=sampler,
        )
        app_reports[spec.name] = {
            "wall_seconds": round(wall_plain, 6),
            "sampled_wall_seconds": round(wall_sampled, 6),
            "sampler_overhead_pct": overhead["median_pct"],
            "sampler_overhead_iqr_pct": overhead["iqr_pct"],
            "sampler_overhead": overhead["label"],
            "instructions": sampled.steps,
            "instructions_per_second": round(
                sampled.steps / max(wall_plain, 1e-9), 1
            ),
            "block_executions": prof.block_executions,
            "virtual_cycles": plain_cycles,
            "virtual_seconds": PPC405_COST_MODEL.seconds(plain_cycles),
            "virtual_identical": virtual_identical,
            "opcodes": dict(sorted(prof.opcode_counts.items())),
            "top_digrams": {
                "+".join(pair): count
                for pair, count in top_digrams(prof, top_digrams_n)
            },
        }
        # Feed the current ledger run (if any): the vm block of the last
        # profiled app wins, which is what the regress-vm single-app leg
        # uses; multi-app wall data lives in this report instead.
        from repro.obs.ledger import current_run

        recorder = current_run()
        if recorder is not None:
            recorder.attach_extra("vm", vm_manifest_block(prof))

    pooled = overhead_summary(all_ratios)
    totals = {
        "wall_seconds": round(
            sum(a["wall_seconds"] for a in app_reports.values()), 3
        ),
        "instructions": sum(
            a["instructions"] for a in app_reports.values()
        ),
        "sampler_overhead_pct": pooled["median_pct"],
        "sampler_overhead_iqr_pct": pooled["iqr_pct"],
        "sampler_overhead": pooled["label"],
        "virtual_identical": all_identical,
    }

    report = {
        "schema": BENCH_VM_SCHEMA,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "sample_interval": sample_interval,
        "pairs": max(1, pairs),
        "sampler_overhead_claim_pct": SAMPLER_OVERHEAD_CLAIM_PCT,
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "apps": app_reports,
        "totals": totals,
    }
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return report


def render_vm_bench(report: dict) -> str:
    """ASCII rendering of a VM benchmark report for the CLI."""
    from repro.util.tables import Table

    table = Table(
        columns=[
            "app", "wall [s]", "M instr/s", "sampler ovh %", "IQR %",
            "claim", "virt clock",
        ],
        title=(
            "VM interpreter benchmark "
            f"(sample interval {report.get('sample_interval')}, "
            f"{report.get('pairs', '?')} ABBA pairs)"
        ),
    )
    for name, app in (report.get("apps") or {}).items():
        q1, q3 = app.get("sampler_overhead_iqr_pct") or (0.0, 0.0)
        table.add_row(
            [
                name,
                f"{app.get('wall_seconds', 0.0):.2f}",
                f"{app.get('instructions_per_second', 0.0) / 1e6:.2f}",
                f"{app.get('sampler_overhead_pct', 0.0):+.1f}",
                f"{q1:+.1f}..{q3:+.1f}",
                app.get("sampler_overhead", "-"),
                "identical" if app.get("virtual_identical") else "DRIFTED",
            ]
        )
    lines = [table.render()]
    totals = report.get("totals") or {}
    if totals:
        q1, q3 = totals.get("sampler_overhead_iqr_pct") or (0.0, 0.0)
        lines.append(
            f"total: {totals.get('wall_seconds', 0.0):.2f}s for "
            f"{totals.get('instructions', 0):,} instructions; "
            "virtual clock "
            + (
                "bit-identical under sampling"
                if totals.get("virtual_identical")
                else "DRIFTED under sampling"
            )
        )
        median = totals.get("sampler_overhead_pct", 0.0)
        claim = report.get("sampler_overhead_claim_pct", SAMPLER_OVERHEAD_CLAIM_PCT)
        lines.append(
            f"sampler overhead (pooled): {median:+.2f}% median, "
            f"IQR {q1:+.2f}..{q3:+.2f}%; <= {claim}% claim "
            f"{totals.get('sampler_overhead', '-')}"
        )
    return "\n".join(lines)


def render_bench(report: dict) -> str:
    """ASCII rendering of a benchmark report for the CLI."""
    from repro.util.tables import Table

    table = Table(
        columns=["phase", "jobs", "wall [s]", "CAD impls", "cache hits"],
        title=(
            f"Parallel/cache benchmark: {report.get('domain')} suite "
            f"({report.get('host', {}).get('cpus', '?')} cpu)"
        ),
    )
    for name, phase in (report.get("phases") or {}).items():
        cache = phase.get("cache") or {}
        table.add_row(
            [
                name,
                phase.get("jobs", 1),
                f"{phase.get('wall_seconds', 0.0):.2f}",
                phase.get("cad_implementations", 0),
                cache.get("hits", "-") if cache else "-",
            ]
        )
    lines = [table.render()]
    speedups = report.get("speedups") or {}
    if speedups:
        lines.append(
            "speedups: "
            + ", ".join(f"{k}={v}x" for k, v in speedups.items())
        )
    return "\n".join(lines)

# -- fleet workload-mix benchmark (repro mix) --------------------------------

#: Fleet-mix grid benchmark (repro mix) schema + committed report.
BENCH_MIX_SCHEMA = "repro-bench-mix/1"
DEFAULT_MIX_BENCH_OUT = "BENCH_mix.json"

#: Default grid axes: >=2 entropies x >=3 policies x >=3 slot counts.
DEFAULT_MIX_PRESETS = ("uniform", "skewed")
DEFAULT_MIX_POLICIES = ("lru", "lfu", "breakeven")
DEFAULT_MIX_CAPACITIES = (4, 8, 16)


def _mix_cell_key(capacity: int) -> str:
    return f"c{capacity:02d}"


def mix_manifest_block(report: dict) -> dict:
    """The nested-dict ``mix`` block a ledger manifest carries.

    Dicts all the way down (the regression sentinel's flattener walks
    dicts, not lists): ``mix.cells.<preset>.<policy>.c<NN>.<metric>``.
    The candidate-search wall time is excluded from every charged
    overhead, so the simulated cells are fully virtual-clock and compare
    at 1e-9; only the grid's own ``wall_seconds`` is measured.
    """
    block: dict = {
        "events": report["events"],
        "seed": report["seed"],
        "entropy": dict(report["entropy"]),
        "gate": {
            "breakeven_beats_lru": report["gate"]["breakeven_beats_lru"],
            "contended_preset": report["gate"]["contended"]["preset"],
            "contended_capacity": report["gate"]["contended"]["capacity"],
        },
        "wall_seconds": report["wall_seconds"],
        "cells": {},
        "measured": ["wall_seconds"],
    }
    for preset, policies in report["cells"].items():
        for policy, caps in policies.items():
            for ckey, cell in caps.items():
                dest = (
                    block["cells"]
                    .setdefault(preset, {})
                    .setdefault(policy, {})
                    .setdefault(ckey, {})
                )
                dest["fleet_break_even_seconds"] = cell[
                    "fleet_break_even_seconds"
                ]
                dest["mean_occupancy_pct"] = cell["mean_occupancy_pct"]
                slots = cell["slots"]
                dest["slot_loads"] = slots["loads"]
                dest["slot_reloads"] = slots["reloads"]
                dest["slot_evictions"] = slots["evictions"]
                store = cell["store"]
                dest["store_hits"] = store["hits"]
                dest["store_misses"] = store["misses"]
                dest["cross_app_hits"] = store["cross_app_hits"]
    return block


def run_mix_bench(
    presets=DEFAULT_MIX_PRESETS,
    policies=DEFAULT_MIX_POLICIES,
    capacities=DEFAULT_MIX_CAPACITIES,
    events: int = 120,
    seed: int = 0,
    out: str | os.PathLike | None = DEFAULT_MIX_BENCH_OUT,
    store_root: str | os.PathLike | None = None,
    apps=None,
) -> dict:
    """Sweep the fleet grid (mix entropy x policy x slot count).

    Specialization profiles are built once (the only measured wall time
    that matters); every grid cell then replays the preset's trace on the
    virtual clock against a cold per-cell fleet store, so identical
    (presets, policies, capacities, events, seed) inputs reproduce every
    deterministic cell bit-identically. The *contended* cell — the
    (preset, capacity) pair where plain LRU evicts most — gates the
    break-even-aware policy: it must strictly beat LRU there, or the
    report says so and ``repro mix`` exits non-zero.
    """
    from repro.mix.profiles import DEFAULT_APPS, build_app_profiles
    from repro.mix.simulator import simulate_cell
    from repro.mix.trace import (
        build_trace,
        empirical_entropy,
        mix_entropy,
        preset_config,
    )

    apps = tuple(apps) if apps else DEFAULT_APPS
    t0 = time.perf_counter()
    profiles = build_app_profiles(apps)
    profile_wall = time.perf_counter() - t0

    owns_store = store_root is None
    if owns_store:
        store_root = tempfile.mkdtemp(prefix="repro-mix-store-")
    store_root = os.fspath(store_root)

    traces = {}
    entropy = {}
    for preset in presets:
        config = preset_config(preset, events=events, seed=seed)
        traces[preset] = build_trace(config)
        entropy[preset] = {
            "configured": round(mix_entropy(config.mix), 9),
            "empirical": round(empirical_entropy(traces[preset]), 9),
        }

    def run_cell(preset: str, policy: str, capacity: int) -> dict:
        cell_root = os.path.join(
            store_root, f"{preset}-{policy}-{capacity}"
        )
        return simulate_cell(
            profiles,
            traces[preset],
            policy,
            capacity,
            cell_root,
            mix_name=preset,
        ).as_dict()

    t1 = time.perf_counter()
    cells: dict = {}
    try:
        for preset in presets:
            for policy in policies:
                for capacity in capacities:
                    cells.setdefault(preset, {}).setdefault(policy, {})[
                        _mix_cell_key(capacity)
                    ] = run_cell(preset, policy, capacity)

        # Contended cell: the (preset, capacity) pair where plain LRU
        # evicts most — deterministic, so the gate targets the same cell
        # on every host.
        contended = None
        if "lru" in policies:
            best = (-1, "", 0)
            for preset in presets:
                for capacity in capacities:
                    evictions = cells[preset]["lru"][_mix_cell_key(capacity)][
                        "slots"
                    ]["evictions"]
                    if evictions > best[0]:
                        best = (evictions, preset, capacity)
            if best[0] > 0:
                contended = {
                    "preset": best[1],
                    "capacity": best[2],
                    "lru_evictions": best[0],
                }

        gate = {"breakeven_beats_lru": None, "contended": contended}
        if contended is not None and "breakeven" in policies:
            ckey = _mix_cell_key(contended["capacity"])
            lru_be = cells[contended["preset"]]["lru"][ckey][
                "fleet_break_even_seconds"
            ]
            be_be = cells[contended["preset"]]["breakeven"][ckey][
                "fleet_break_even_seconds"
            ]
            gate["lru_break_even_seconds"] = lru_be
            gate["breakeven_break_even_seconds"] = be_be
            gate["breakeven_beats_lru"] = (
                lru_be is not None and be_be is not None and be_be < lru_be
            )

        # Determinism self-check: re-simulate the contended (or first)
        # cell from the same frozen inputs and require bit-identity.
        check_preset = contended["preset"] if contended else presets[0]
        check_capacity = contended["capacity"] if contended else capacities[0]
        check_policy = policies[0]
        rerun_root = os.path.join(store_root, "determinism-rerun")
        rerun = simulate_cell(
            profiles,
            traces[check_preset],
            check_policy,
            check_capacity,
            rerun_root,
            mix_name=check_preset,
        ).as_dict()
        first = cells[check_preset][check_policy][_mix_cell_key(check_capacity)]
        determinism = {
            "cell": {
                "preset": check_preset,
                "policy": check_policy,
                "capacity": check_capacity,
            },
            "bit_identical": json.dumps(rerun, sort_keys=True)
            == json.dumps(first, sort_keys=True),
        }
    finally:
        if owns_store:
            shutil.rmtree(store_root, ignore_errors=True)

    grid_wall = time.perf_counter() - t1
    report = {
        "schema": BENCH_MIX_SCHEMA,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "apps": list(apps),
        "presets": list(presets),
        "policies": list(policies),
        "capacities": list(capacities),
        "events": events,
        "seed": seed,
        "entropy": entropy,
        "profile": {
            "wall_seconds": round(profile_wall, 3),
            "search_seconds": {
                name: round(p.search_seconds, 3) for name, p in profiles.items()
            },
            "configurations": {
                name: len(p.candidates) for name, p in profiles.items()
            },
        },
        "cells": cells,
        "gate": gate,
        "determinism": determinism,
        "wall_seconds": round(profile_wall + grid_wall, 3),
    }
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")

    from repro.obs.ledger import current_run

    recorder = current_run()
    if recorder is not None:
        recorder.attach_extra("mix", mix_manifest_block(report))
    return report


def render_mix_bench(report: dict) -> str:
    """Human-readable fleet-grid table for the ``repro mix`` CLI."""
    from repro.util.tables import Table

    table = Table(
        columns=[
            "mix",
            "H",
            "policy",
            "slots",
            "occ%",
            "loads",
            "reloads",
            "evict",
            "store-hit%",
            "xapp",
            "fleet-BE(s)",
        ],
        title="Fleet workload-mix grid (break-even vs policy vs capacity)",
    )
    for preset, policies in report["cells"].items():
        h = report["entropy"][preset]["configured"]
        for policy, caps in policies.items():
            for ckey in sorted(caps):
                cell = caps[ckey]
                slots = cell["slots"]
                store = cell["store"]
                lookups = store["hits"] + store["misses"]
                hit_pct = 100.0 * store["hits"] / lookups if lookups else 0.0
                be = cell["fleet_break_even_seconds"]
                table.add_row(
                    [
                        preset,
                        f"{h:.2f}",
                        policy,
                        cell["capacity"],
                        f"{cell['mean_occupancy_pct']:.1f}",
                        slots["loads"],
                        slots["reloads"],
                        slots["evictions"],
                        f"{hit_pct:.1f}",
                        store["cross_app_hits"],
                        f"{be:.1f}" if be is not None else "-",
                    ]
                )
    lines = [table.render()]
    gate = report.get("gate") or {}
    contended = gate.get("contended")
    if contended:
        verdict = gate.get("breakeven_beats_lru")
        lines.append(
            f"contended cell: mix={contended['preset']} "
            f"slots={contended['capacity']} "
            f"(lru evictions={contended['lru_evictions']}) -- "
            f"breakeven {gate.get('breakeven_break_even_seconds')}s vs "
            f"lru {gate.get('lru_break_even_seconds')}s: "
            + ("breakeven wins" if verdict else "breakeven does NOT win")
        )
    else:
        lines.append("contended cell: none (no LRU evictions anywhere in grid)")
    det = report.get("determinism") or {}
    if det:
        lines.append(
            "determinism rerun: "
            + ("bit-identical" if det.get("bit_identical") else "MISMATCH")
        )
    return "\n".join(lines)
