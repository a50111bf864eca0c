"""The committed benchmarks ``BENCH_vm.json``, ``BENCH_mix.json`` and
``BENCH_serve.json``, written by ``repro bench``.

Each benchmark returns its report body without opening a file; the body
carries a ``gates`` dict (false fails the run, ``None`` does not apply).
:func:`write_report`, the one writer, adds the common header.

:func:`run_vm_bench` measures the interpreter behind the paper's VM
profiling runs (Section IV): per-app interpreter CPU time,
instructions/sec, dynamic opcode counts and top digrams, with the
sampler overhead and the PPC405 virtual clock checked bit-identical
between the sampled and unsampled runs. :func:`run_mix_bench` sweeps the
fleet workload-mix grid, and :func:`repro.serve.loadgen.run_loadgen`
measures the serving-time analogue of Table IV's cache argument. Suite
wall time, cold and warm-cache, is measured by the repository's
``bench`` harness instead.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import shutil
import statistics
import tempfile
import time


def benchmarks() -> dict:
    """``repro bench`` names -> ``(schema, run, render)``.

    ``run()`` takes no argument: it runs the benchmark with the defaults
    its committed file records. Bump a schema whenever a key moves.
    """
    from repro.serve.loadgen import render_loadgen, run_loadgen

    return {
        "vm": ("repro-bench-vm/4", run_vm_bench, render_vm_bench),
        "mix": ("repro-bench-mix/3", run_mix_bench, render_mix_bench),
        "serve": ("repro-bench-serve/3", run_loadgen, render_loadgen),
    }


def write_report(name: str, schema: str, body: dict) -> str:
    """Write ``BENCH_<name>.json``: the common header, then *body*.

    Returns the path written, relative to the working directory.
    """
    path = f"BENCH_{name}.json"
    report = {
        "schema": schema,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        **body,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return path


#: The sampler-overhead claim BENCH_vm.json tests (percent of plain time).
SAMPLER_OVERHEAD_CLAIM_PCT = 1.5

#: Train runs timed together as one side of a plain/sampled pair: one
#: 0.03-0.13 s run is too short to time a 1.5 % difference.
RUNS_PER_SIDE = 5


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


def run_vm_bench(apps: list[str] | None = None, pairs: int = 8) -> dict:
    """Interpreter macro benchmark over the embedded suite (BENCH_vm.json).

    Each app runs on its train set as *pairs* back-to-back (plain,
    sampled) side pairs, alternating which side runs first (ABBA), so a
    warm-up or drift that favours the second side cancels across pairs.
    A side is :data:`RUNS_PER_SIDE` train runs timed together on the
    process CPU clock, which a preempted process does not advance, after
    one untimed run has compiled the app's units; a sampled side runs
    under one sampler. CPU time per run is the min over the plain sides;
    the sampler overhead is the **median of the per-pair sampled/plain
    ratios** with its quartiles (:func:`overhead_summary`), per app and
    pooled over all pairs in ``totals``. The gate: the PPC405 virtual
    cycles of the two sides must be bit-identical — profiling may never
    bend the virtual clock.
    """
    from repro.apps import EMBEDDED_APPS, compile_app, get_app
    from repro.obs.ledger import current_run
    from repro.obs.vmprof import build_profile, top_digrams, vm_manifest_block
    from repro.vm.costmodel import PPC405_COST_MODEL
    from repro.vm.profiler import SAMPLE_INTERVAL_S, BlockTimeSampler

    if apps is None:
        apps = [spec.name for spec in EMBEDDED_APPS]
    pairs = max(1, pairs)

    app_reports: dict[str, dict] = {}
    all_identical = True
    all_ratios: list[float] = []
    for name in apps:
        spec = get_app(name)
        compiled = compile_app(spec)

        def side(sampler):
            t0 = time.process_time()
            with sampler or contextlib.nullcontext():
                for _ in range(RUNS_PER_SIDE):
                    result = compiled.run(spec.train)
            return result, (time.process_time() - t0) / RUNS_PER_SIDE

        compiled.run(spec.train)  # compiles the units outside the timing
        cpu_plain = cpu_sampled = float("inf")
        ratios: list[float] = []
        for index in range(pairs):
            sampler = BlockTimeSampler()
            if index % 2 == 0:
                plain, plain_cpu = side(None)
                sampled, sampled_cpu = side(sampler)
            else:
                sampled, sampled_cpu = side(sampler)
                plain, plain_cpu = side(None)
            cpu_plain = min(cpu_plain, plain_cpu)
            cpu_sampled = min(cpu_sampled, sampled_cpu)
            ratios.append(sampled_cpu / max(plain_cpu, 1e-9))
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
            wall_seconds=cpu_plain,
            sampler=sampler,
        )
        app_reports[spec.name] = {
            "cpu_seconds": round(cpu_plain, 6),
            "sampled_cpu_seconds": round(cpu_sampled, 6),
            "sampler_overhead_pct": overhead["median_pct"],
            "sampler_overhead_iqr_pct": overhead["iqr_pct"],
            "sampler_overhead": overhead["label"],
            "instructions": sampled.steps,
            "instructions_per_second": round(
                sampled.steps / max(cpu_plain, 1e-9), 1
            ),
            "block_executions": prof.block_executions,
            "virtual_cycles": plain_cycles,
            "virtual_seconds": PPC405_COST_MODEL.seconds(plain_cycles),
            "virtual_identical": virtual_identical,
            "opcodes": dict(sorted(prof.opcode_counts.items())),
            "top_digrams": {
                "+".join(pair): count for pair, count in top_digrams(prof, 10)
            },
        }
        # Feed the current ledger run (if any): the vm block of the last
        # profiled app wins, which is what the regress-vm single-app leg
        # uses; multi-app timings live in this report instead.
        recorder = current_run()
        if recorder is not None:
            recorder.attach_extra("vm", vm_manifest_block(prof))

    pooled = overhead_summary(all_ratios)
    return {
        "sample_interval": SAMPLE_INTERVAL_S,
        "pairs": pairs,
        "runs_per_side": RUNS_PER_SIDE,
        "sampler_overhead_claim_pct": SAMPLER_OVERHEAD_CLAIM_PCT,
        "apps": app_reports,
        "totals": {
            "cpu_seconds": round(
                sum(a["cpu_seconds"] for a in app_reports.values()), 3
            ),
            "instructions": sum(
                a["instructions"] for a in app_reports.values()
            ),
            "sampler_overhead_pct": pooled["median_pct"],
            "sampler_overhead_iqr_pct": pooled["iqr_pct"],
            "sampler_overhead": pooled["label"],
        },
        "gates": {"virtual_identical": all_identical},
    }


def render_vm_bench(report: dict) -> str:
    """ASCII rendering of a VM benchmark report for the CLI."""
    from repro.util.tables import Table

    table = Table(
        columns=[
            "app", "cpu [s]", "M instr/s", "sampler ovh %", "IQR %",
            "claim", "virt clock",
        ],
        title=(
            f"VM interpreter benchmark (sample interval "
            f"{report['sample_interval']} s, {report['pairs']} ABBA pairs "
            f"of {report['runs_per_side']} runs per side)"
        ),
    )
    for name, app in report["apps"].items():
        q1, q3 = app["sampler_overhead_iqr_pct"]
        table.add_row(
            [
                name,
                f"{app['cpu_seconds']:.2f}",
                f"{app['instructions_per_second'] / 1e6:.2f}",
                f"{app['sampler_overhead_pct']:+.1f}",
                f"{q1:+.1f}..{q3:+.1f}",
                app["sampler_overhead"],
                "identical" if app["virtual_identical"] else "DRIFTED",
            ]
        )
    totals = report["totals"]
    q1, q3 = totals["sampler_overhead_iqr_pct"]
    drift = "bit-identical" if report["gates"]["virtual_identical"] else "DRIFTED"
    return "\n".join(
        [
            table.render(),
            f"total: {totals['cpu_seconds']:.2f}s CPU for "
            f"{totals['instructions']:,} instructions; virtual clock "
            f"{drift} under sampling",
            f"sampler overhead (pooled): {totals['sampler_overhead_pct']:+.2f}% "
            f"median, IQR {q1:+.2f}..{q3:+.2f}%; <= "
            f"{report['sampler_overhead_claim_pct']}% claim "
            f"{totals['sampler_overhead']}",
        ]
    )


# -- fleet workload-mix benchmark (repro mix) --------------------------------

#: Default grid axes: 2 entropies x 3 slot counts.
DEFAULT_MIX_PRESETS = ("uniform", "skewed")
DEFAULT_MIX_CAPACITIES = (4, 8, 16)


def _mix_cell_key(capacity: int) -> str:
    return f"c{capacity:02d}"


def mix_manifest_block(report: dict) -> dict:
    """The nested-dict ``mix`` block a ledger manifest carries.

    Dicts all the way down (the regression sentinel's flattener walks
    dicts, not lists): ``mix.cells.<preset>.c<NN>.<metric>``.
    The candidate-search wall time is excluded from every charged
    overhead, so the simulated cells are fully virtual-clock and compare
    at 1e-9; only the grid's own ``wall_seconds`` is measured.
    """
    block: dict = {
        "events": report["events"],
        "seed": report["seed"],
        "entropy": dict(report["entropy"]),
        "wall_seconds": report["wall_seconds"],
        "cells": {},
        "measured": ["wall_seconds"],
    }
    for preset, caps in report["cells"].items():
        for ckey, cell in caps.items():
            slots = cell["slots"]
            store = cell["store"]
            block["cells"].setdefault(preset, {})[ckey] = {
                "fleet_break_even_seconds": cell["fleet_break_even_seconds"],
                "mean_occupancy_pct": cell["mean_occupancy_pct"],
                "slot_loads": slots["loads"],
                "slot_reloads": slots["reloads"],
                "slot_evictions": slots["evictions"],
                "store_hits": store["hits"],
                "store_misses": store["misses"],
                "cross_app_hits": store["cross_app_hits"],
            }
    return block


def run_mix_bench(
    presets=DEFAULT_MIX_PRESETS,
    capacities=DEFAULT_MIX_CAPACITIES,
    events: int = 120,
    seed: int = 0,
    store_root: str | os.PathLike | None = None,
    apps=None,
) -> dict:
    """Sweep the fleet grid (mix entropy x slot count).

    Specialization profiles are built once (the only measured wall time
    that matters); every grid cell then replays the preset's trace on the
    virtual clock against a cold per-cell fleet store, so identical
    (presets, capacities, events, seed) inputs reproduce every
    deterministic cell bit-identically. The one gate re-simulates the
    cell whose slot pool evicts most (the first cell when none evicts)
    from the same inputs and requires it to reproduce bit-identically.
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

    def run_cell(preset: str, capacity: int, cell_dir: str) -> dict:
        return simulate_cell(
            profiles,
            traces[preset],
            capacity,
            os.path.join(store_root, cell_dir),
            mix_name=preset,
        ).as_dict()

    t1 = time.perf_counter()
    cells: dict = {}
    try:
        for preset in presets:
            for capacity in capacities:
                cells.setdefault(preset, {})[_mix_cell_key(capacity)] = (
                    run_cell(preset, capacity, f"{preset}-{capacity}")
                )

        # Determinism self-check: re-simulate the cell that evicts most
        # (the first on a tie) from the same frozen inputs and require
        # bit-identity. Deterministic, so every host checks the same cell.
        check_preset, check_capacity = max(
            ((p, c) for p in presets for c in capacities),
            key=lambda pc: cells[pc[0]][_mix_cell_key(pc[1])]["slots"][
                "evictions"
            ],
        )
        first = cells[check_preset][_mix_cell_key(check_capacity)]
        rerun = run_cell(check_preset, check_capacity, "determinism-rerun")
        bit_identical = json.dumps(rerun, sort_keys=True) == json.dumps(
            first, sort_keys=True
        )
    finally:
        if owns_store:
            shutil.rmtree(store_root, ignore_errors=True)

    grid_wall = time.perf_counter() - t1
    report = {
        "apps": list(apps),
        "presets": list(presets),
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
        "determinism_cell": {
            "preset": check_preset,
            "capacity": check_capacity,
            "evictions": first["slots"]["evictions"],
        },
        "wall_seconds": round(profile_wall + grid_wall, 3),
        "gates": {"determinism_bit_identical": bit_identical},
    }

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
            "slots",
            "occ%",
            "loads",
            "reloads",
            "evict",
            "store-hit%",
            "xapp",
            "fleet-BE(s)",
        ],
        title="Fleet workload-mix grid (break-even vs capacity)",
    )
    for preset, caps in report["cells"].items():
        h = report["entropy"][preset]["configured"]
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
    check = report["determinism_cell"]
    verdict = (
        "bit-identical"
        if report["gates"]["determinism_bit_identical"]
        else "MISMATCH"
    )
    return (
        f"{table.render()}\n"
        f"determinism rerun of {check['preset']}/c{check['capacity']:02d} "
        f"({check['evictions']} evictions): {verdict}"
    )
