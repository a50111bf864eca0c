"""The repository benchmark.

    python -m bench run [--workload NAME ...] [--seed S] [--repeat N] [--seconds T] [--trace [0|1]] [--out FILE]
    python -m bench compare PARENT.json CHANGE.json
    python -m bench reference

``run`` prints every metric by name with its unit, then, as its last line,
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. An
untraced run reports the end-to-end metrics; ``--trace`` runs with every
wrap point installed and reports the per-layer metrics. ``--out`` appends
the run records to FILE for ``compare``. ``reference`` rewrites
``bench/expected.json`` from the code under test.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench import compare, harness
from bench.registry import (
    DEFAULT_SECONDS,
    END_TO_END,
    FAILED_FRAC,
    PER_LAYER,
    SERVE_LAYERS,
    WORKLOADS,
    busy_name,
    workload,
)


def _median_metrics(records: list[dict], trace: bool) -> dict[str, float]:
    names = [m.name for m in (PER_LAYER if trace else END_TO_END)]
    return {n: statistics.median(r["metrics"][n] for r in records) for n in names}


def render_e2e(name: str, records: list[dict]) -> str:
    lines = [f"\n{name}: {len(records)} run(s); first run: {_info(records[0])}"]
    lines.append(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12}  unit   bound")
    for m in END_TO_END + (FAILED_FRAC,):
        values = [compare._value(r, m.name) for r in records]
        q1, q2, q3 = compare.quartiles(values)
        bound = "+0 absolute" if m.bound == 0 else f"{100 * m.bound:.0f} %"
        lines.append(f"  {m.name:<16} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g}  {m.unit:<6} {bound}")
    return "\n".join(lines)


def render_layers(name: str, record: dict) -> str:
    m = record["metrics"]
    traced = m["traced_s"]
    lines = [f"\n{name}: traced run, seed {record['seed']}, {traced:.2f} s traced; {_info(record)}"]
    lines.append(f"  {'layer':<16} {'busy_s':>9} {'share':>7} {'in set-up':>10} {'calls':>8}")
    layers = sorted(record["layers"].items(), key=lambda kv: -kv[1]["busy_s"])
    for layer, row in layers:
        share = 100.0 * row["busy_s"] / traced
        lines.append(
            f"  {layer:<16} {row['busy_s']:>9.3f} {share:>6.1f}% {row['setup_s']:>10.3f} {row['calls']:>8}"
        )
    top, row = next((l, r) for l, r in layers if l not in SERVE_LAYERS)
    lines.append(f"  dominant layer: {top} ({100.0 * row['busy_s'] / traced:.1f} % of traced time)")
    shown = {busy_name(l) for l in record["layers"]} | {f"{l}.calls" for l in record["layers"]}
    for metric in PER_LAYER:
        if metric.name not in shown:
            lines.append(f"  {metric.name:<24} {m[metric.name]:>14.6g} {metric.unit}")
    for key, value in record["info"].items():
        if key.startswith("serve."):
            lines.append(f"  {key:<24} {value:>14.6g} ms")
    return "\n".join(lines)


def _info(record: dict) -> str:
    return " ".join(
        f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in record["info"].items()
        if not k.startswith("serve.")
    )


def cmd_run(args) -> int:
    chosen = [workload(n) for n in args.workload] if args.workload else list(WORKLOADS)
    trace = bool(args.trace)
    records = []
    try:
        for r in range(args.repeat):
            for w in chosen:
                print(f"bench: {w.name} seed {args.seed + r}{' (traced)' if trace else ''}", file=sys.stderr)
                records.append(harness.run_once(w, args.seed + r, args.seconds, trace))
    except harness.RunError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        path = Path(args.out)
        saved = json.loads(path.read_text()) if path.exists() else {"runs": []}
        saved["runs"] += records
        path.write_text(json.dumps(saved, indent=1))
    units = {m.name: m.unit for m in PER_LAYER + END_TO_END}
    metrics = {}
    for w in chosen:
        mine = [r for r in records if r["workload"] == w.name]
        print(render_layers(w.name, mine[-1]) if trace else render_e2e(w.name, mine))
        for e in [e for r in mine for e in r["errors"]][:10]:
            print(f"  FAILED {e}")
        prefix = "" if len(chosen) == 1 else f"{w.name}."
        for name, value in _median_metrics(mine, trace).items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    failed = sum(r["failed"] for r in records)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["attempted"] for r in records),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def cmd_compare(args) -> int:
    rows = compare.compare(compare.load_runs(args.parent), compare.load_runs(args.change))
    print(compare.render(rows))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


def cmd_reference(_args) -> int:
    from bench.worker import write_reference

    write_reference()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", action="append", help="workload name (repeatable; default: all)")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--repeat", type=int, default=1, help="runs per workload, seeds S..S+N-1")
    run.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="timed window per run")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    run.add_argument("--out", help="append the run records to this JSON file")
    run.set_defaults(fn=cmd_run)
    cmp = sub.add_parser("compare", help="verdicts for a change's runs against its parent's")
    cmp.add_argument("parent")
    cmp.add_argument("change")
    cmp.set_defaults(fn=cmd_compare)
    ref = sub.add_parser("reference", help="rewrite bench/expected.json from the code under test")
    ref.set_defaults(fn=cmd_reference)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
