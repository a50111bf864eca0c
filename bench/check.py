"""Correctness reference for every analysed app and every served request.

``bench/expected.json`` holds, per app, what a cold analysis produced when
the benchmark was defined (``python -m bench reference`` rewrites it):

- per dataset: a digest of the VM output, the return value, the executed
  instruction count and the virtual cycles;
- the selected candidate keys and the ones whose CAD flow failed;
- per implemented candidate: its virtual CAD seconds, the placer's move
  count and the bitstream size;
- the ASIP ratios and the live-aware break-even time, plus the break-even
  model's inputs so a served request's break-even can be recomputed from
  the overhead it reports.

Deterministic values must match to 1e-9. The break-even times fold in the
measured candidate-search milliseconds, so they are checked at 1e-3.

The placement's final wirelength is not recorded: the synthesized netlist
numbers its primitives differently from one analysis to the next, so the
annealer starts from a different placement and ends at a different
wirelength (sor's first candidate gave 3001, 3081, 3095 and 3225 in four
analyses in one process), while cell counts and everything priced from
them repeat exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")
EXACT_REL = 1e-9
BREAK_EVEN_REL = 1e-3
#: Serve responses round floats to 6 (seconds) or 9 (ratios) decimals.
RESPONSE_REL = 1e-6
RESPONSE_ABS = 2e-6


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))["apps"]


def _key(candidate) -> str:
    return "/".join(str(part) for part in candidate.key)


def _finite(value: float) -> float | None:
    return value if math.isfinite(value) else None


def app_record(analysis, vm_results) -> dict:
    """Reference record of one analysis; *vm_results* are its VM runs in order."""
    from repro.woolcano.machine import WoolcanoMachine

    cost_model = WoolcanoMachine().cost_model
    module = analysis.compiled.module
    datasets = {}
    for ds, result in zip(analysis.spec.datasets, vm_results):
        datasets[ds.name] = {
            "output_sha256": hashlib.sha256(repr(result.output).encode()).hexdigest(),
            "return_value": repr(result.return_value),
            "steps": result.steps,
            "cycles": result.profile.total_cycles(module, cost_model),
        }
    if len(vm_results) != len(analysis.spec.datasets):
        datasets["vm_runs"] = len(vm_results)
    spec = analysis.specialization
    be = analysis.breakeven
    return {
        "datasets": datasets,
        "selected": [_key(e.candidate) for e in analysis.search_pruned.selected],
        "failed": [_key(e.candidate) for e, _ in spec.failed],
        "implemented": [
            {
                "key": _key(ci.estimate.candidate),
                "shared": ci.shared_with_signature,
                "cad_virtual_s": ci.times.total,
                "place_moves": ci.implementation.placement.moves_attempted,
                "bitstream_bytes": ci.implementation.bitstream.size_bytes,
            }
            for ci in spec.implementations
        ],
        "reconfiguration_s": spec.reconfiguration_seconds,
        "asip_max_ratio": analysis.asip_max.ratio,
        "asip_pruned_ratio": analysis.asip_pruned.ratio,
        "break_even_live_s": _finite(be.live_aware_seconds),
        "break_even_model": {
            "const_cpu_s": be.const_cpu_seconds,
            "const_asip_s": be.const_asip_seconds,
            "rate": be.live_savings_rate,
        },
    }


def mismatches(expected, actual, path: str = "") -> list[str]:
    """Every place where *actual* differs from *expected*."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            if key not in actual or key not in expected:
                out.append(f"{path}{key}: missing on one side")
            else:
                out += mismatches(expected[key], actual[key], f"{path}{key}.")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path[:-1]}: {len(actual)} items, expected {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += mismatches(e, a, f"{path}{i}.")
        return out
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        rel = BREAK_EVEN_REL if path.startswith("break_even_live_s") else EXACT_REL
        if math.isclose(expected, actual, rel_tol=rel, abs_tol=1e-12):
            return []
    elif expected == actual and type(expected) is type(actual):
        return []
    return [f"{path[:-1]}: {actual!r}, expected {expected!r}"]


def live_aware_seconds(overhead: float, model: dict) -> float | None:
    """The live-aware break-even of repro.core.breakeven for one overhead."""
    if model["rate"] <= 0:
        return None
    remaining = overhead - (model["const_cpu_s"] - model["const_asip_s"])
    if remaining <= 0:
        return model["const_asip_s"]
    return model["const_asip_s"] + remaining / model["rate"]


def serve_mismatches(expected: dict, result: dict) -> list[str]:
    """Check one warm ``specialize`` result against the app's reference.

    Every structurally distinct candidate must come from the tenant's
    cache; candidates that repeat a signature within the request are
    shared, not looked up.
    """
    implemented = expected["implemented"]
    shared = sum(1 for c in implemented if c["shared"])
    fixed = expected["reconfiguration_s"] + sum(
        c["cad_virtual_s"] for c in implemented if c["shared"]
    )
    overhead = result["effective_overhead_seconds"]
    want = {
        "candidates": len(implemented),
        "candidates_failed": len(expected["failed"]),
        "shared": shared,
        "cache_hits": len(implemented) - shared,
    }
    out = [
        f"{key}: {result.get(key)!r}, expected {value!r}"
        for key, value in want.items()
        if result.get(key) != value
    ]
    close = [
        ("speedup", result["speedup"], expected["asip_pruned_ratio"]),
        (
            "toolflow_seconds",
            result["toolflow_seconds"],
            sum(c["cad_virtual_s"] for c in implemented),
        ),
        ("overhead_without_search", overhead - result["search_ms"] / 1000.0, fixed),
    ]
    for name, got, ref in close:
        if not math.isclose(got, ref, rel_tol=RESPONSE_REL, abs_tol=RESPONSE_ABS):
            out.append(f"{name}: {got!r}, expected {ref!r}")
    be_want = live_aware_seconds(overhead, expected["break_even_model"])
    be_got = result["break_even_seconds"]
    if (be_want is None) != (be_got is None) or (
        be_want is not None
        and not math.isclose(be_got, be_want, rel_tol=BREAK_EVEN_REL, abs_tol=RESPONSE_ABS)
    ):
        out.append(f"break_even_seconds: {be_got!r}, expected {be_want!r}")
    return out
