"""In-memory spans around the program's public functions.

The benchmark traces the program from outside: :func:`install` replaces
each registry wrap point with a wrapper that records a span (layer, parent,
operation id, start, end) and, for some layers, a count read from the
return value. Nothing inside the program changes. Spans stay in memory
until the run ends; :func:`layer_table` folds them into per-layer self
time, where a span's self time is its duration minus the part of it that
its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import threading
import time

from bench.registry import COUNTS, WrapPoint, busy_name


@dataclasses.dataclass
class Span:
    index: int
    parent: int | None
    layer: str
    op: str | None
    start: float
    end: float = 0.0
    count: int | None = None

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def set_op(self, op: str | None) -> None:
        """Operation id for top-level spans this thread opens next."""
        self._local.op = op

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, layer: str):
        count = COUNTS.get(layer, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            if parent is not None:
                op = parent.op
            elif args and isinstance(args[0], dict) and "request_id" in args[0]:
                op = args[0]["request_id"]  # a daemon worker thread's request
            else:
                op = getattr(self._local, "op", None)
            span = Span(0, parent.index if parent else None, layer, op, 0.0)
            with self._lock:
                span.index = len(self.spans)
                self.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.count = count(result)
            return result

        return traced


def _resolve(point: WrapPoint):
    """(owner, attribute name, current value) of one wrap point."""
    owner = importlib.import_module(point.module)
    *path, name = point.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name]


def resolve_all(points) -> None:
    """Raise unless every wrap point names an existing function."""
    for point in points:
        try:
            _, _, fn = _resolve(point)
        except (ImportError, AttributeError, KeyError) as exc:
            raise LookupError(
                f"wrap point {point.module}:{point.attr} ({point.layer}) "
                f"does not resolve: {exc!r}"
            ) from None
        if not callable(fn):
            raise LookupError(f"wrap point {point.module}:{point.attr} is not callable")


def install(points, wrap):
    """Replace each point with ``wrap(original, layer)``; returns an undo.

    A module-level function is also rebound in every loaded ``repro``
    module that imported it by name, so callers that hold the name see the
    wrapper too.
    """
    undo = []
    for point in points:
        owner, name, original = _resolve(point)
        wrapped = wrap(original, point.layer)
        targets = [owner]
        if isinstance(owner, type(sys)):
            targets += [
                module
                for mod_name, module in list(sys.modules.items())
                if mod_name.startswith("repro")
                and module is not owner
                and getattr(module, name, None) is original
            ]
        for target in targets:
            setattr(target, name, wrapped)
            undo.append((target, name, original))

    def restore() -> None:
        for target, name, original in reversed(undo):
            setattr(target, name, original)

    return restore


# -- folding spans -------------------------------------------------------------


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of *intervals* clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span index -> duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["index"]: (s["end"] - s["start"])
        - covered(s["start"], s["end"], children.get(s["index"], ()))
        for s in spans
    }


def layer_table(spans: list[dict]) -> dict[str, dict]:
    """Layer -> {"busy_s", "calls", <count metric>} over *spans* of one process."""
    table: dict[str, dict] = {}
    own = self_times(spans)
    for s in spans:
        row = table.setdefault(s["layer"], {"busy_s": 0.0, "calls": 0})
        row["calls"] += 1
        row["busy_s"] += own[s["index"]]
        metric = COUNTS.get(s["layer"], (None,))[0]
        if metric is not None and s["count"] is not None:
            row[metric] = row.get(metric, 0) + s["count"]
    return table


def unattributed(spans: list[dict], lo: float, hi: float) -> float:
    """Time in [lo, hi] that no top-level span covers."""
    tops = [(s["start"], s["end"]) for s in spans if s["parent"] is None]
    return (hi - lo) - covered(lo, hi, tops)


def merge_tables(tables) -> dict[str, dict]:
    merged: dict[str, dict] = {}
    for table in tables:
        for layer, row in table.items():
            out = merged.setdefault(layer, {})
            for key, value in row.items():
                out[key] = out.get(key, 0) + value
    return merged


def per_layer_metrics(table: dict[str, dict], layers) -> dict[str, float]:
    """Flatten a merged layer table into named per-layer metrics."""
    metrics: dict[str, float] = {}
    for layer in layers:
        row = table.get(layer, {"busy_s": 0.0, "calls": 0})
        metrics[busy_name(layer)] = row["busy_s"]
        metrics[f"{layer}.calls"] = row["calls"]
    vm = table.get("vm", {})
    place = table.get("fpga.place", {})
    get = table.get("core.cache.get", {})
    metrics["vm.instructions"] = vm.get("vm.instructions", 0)
    metrics["vm.minstr_per_s"] = _rate(vm.get("vm.instructions", 0), vm.get("busy_s", 0.0), 1e6)
    metrics["fpga.place.moves"] = place.get("fpga.place.moves", 0)
    metrics["fpga.place.kmoves_per_s"] = _rate(
        place.get("fpga.place.moves", 0), place.get("busy_s", 0.0), 1e3
    )
    metrics["ise.candidates"] = table.get("ise", {}).get("ise.candidates", 0)
    metrics["core.cache.hit_ratio"] = (
        get.get("core.cache.hits", 0) / get["calls"] if get.get("calls") else 0.0
    )
    return metrics


def _rate(work: float, seconds: float, scale: float) -> float:
    return work / seconds / scale if seconds > 0 else 0.0


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call costs over a plain one, measured here."""
    recorder = Recorder()

    def noop():
        return None

    wrapped = recorder.wrap(noop, "calibration")
    best_plain = best_wrapped = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best_plain = min(best_plain, t1 - t0)
        best_wrapped = min(best_wrapped, t2 - t1)
        recorder.spans.clear()
    return max(0.0, (best_wrapped - best_plain) / calls)
