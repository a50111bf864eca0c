"""Counters, gauges, and histograms for the JIT-ISE pipeline.

Complements :mod:`repro.obs.tracer`: spans answer *where did the time go*,
metrics answer *how much work happened* — instructions interpreted,
intrinsic calls, candidates implemented, bitstream bytes written through
the ICAP. All instruments live in a :class:`MetricsRegistry`;
:meth:`MetricsRegistry.snapshot` returns a plain-dict view suitable for
printing or JSON export.

Like tracing, the process-global registry is **disabled** by default and
instrumentation sites are expected to gate on :func:`metrics_enabled`
(the interpreter bakes the check into block compilation, so a disabled
registry costs the hot loop nothing).
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} is monotonic: cannot inc by {amount}"
            )
        with self._lock:
            self.value += amount


class Gauge:
    """Last-written value (e.g. current fabric slot occupancy)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self.value += float(delta)


# Default histogram buckets: seconds, log-ish spacing spanning the paper's
# observed range — milliseconds (search, ICAP) to minutes (Map/PAR/Bitgen).
DEFAULT_BUCKETS = (
    0.001, 0.01, 0.1, 1.0, 5.0, 15.0, 60.0, 180.0, 600.0,
)


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max."""

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum", "min", "max", "_lock")

    def __init__(self, name: str, buckets: tuple = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.bounds = bounds
        # bucket_counts[i] counts observations <= bounds[i]; the final
        # slot is the +Inf overflow bucket.
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float | None:
        """Bucket-interpolated q-quantile (q in [0, 1]); None when empty.

        Within the bucket holding the target rank the value is linearly
        interpolated between the bucket's bounds (the observed min/max stand
        in for the open outer edges), so the estimate is exact at q=0/q=1
        and never leaves the observed range.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            return self._percentile(q)

    def _percentile(self, q: float) -> float | None:
        if self.count == 0:
            return None
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                cumulative += bucket_count
                continue
            if cumulative + bucket_count >= rank:
                lower = self.min if i == 0 else self.bounds[i - 1]
                upper = self.max if i == len(self.bounds) else self.bounds[i]
                lower = max(lower, self.min)
                upper = min(upper, self.max)
                if upper <= lower:
                    return lower
                frac = (rank - cumulative) / bucket_count
                return lower + (upper - lower) * max(0.0, min(1.0, frac))
            cumulative += bucket_count
        return self.max

    def merge_dict(self, data: dict) -> None:
        """Fold a same-bucketed histogram snapshot (:meth:`as_dict`) in.

        Used by the sharded experiment runner to merge worker-process
        registries back into the suite registry: bucket counts, count, and
        sum add; min/max widen. The bucket layout must match.
        """
        buckets = data.get("buckets") or {}
        with self._lock:
            labels = [f"le_{b:g}" for b in self.bounds] + ["inf"]
            if set(buckets) != set(labels):
                raise ValueError(
                    f"histogram {self.name!r}: cannot merge snapshot with "
                    f"different bucket layout"
                )
            for i, label in enumerate(labels):
                self.bucket_counts[i] += int(buckets[label])
            self.count += int(data.get("count", 0))
            self.sum += float(data.get("sum", 0.0))
            if data.get("min") is not None:
                self.min = min(self.min, float(data["min"]))
            if data.get("max") is not None:
                self.max = max(self.max, float(data["max"]))

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "count": self.count,
                "sum": self.sum,
                "mean": self.mean,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None,
                "p50": self._percentile(0.50),
                "p95": self._percentile(0.95),
                "p99": self._percentile(0.99),
                "buckets": {
                    **{f"le_{b:g}": c for b, c in zip(self.bounds, self.bucket_counts)},
                    "inf": self.bucket_counts[-1],
                },
            }


@dataclass
class MetricsRegistry:
    """Named instruments, created on first use."""

    enabled: bool = True
    _counters: dict[str, Counter] = field(default_factory=dict)
    _gauges: dict[str, Gauge] = field(default_factory=dict)
    _histograms: dict[str, Histogram] = field(default_factory=dict)
    _measured: set[str] = field(default_factory=set)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def counter(self, name: str, measured: bool = False) -> Counter:
        """The counter *name*; *measured* marks a scheduling- or history-
        dependent count (cache hits, admissions) the sentinel never gates."""
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(name)
            if measured:
                self._measured.add(name)
            return inst

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge(name)
            return inst

    def histogram(self, name: str, buckets: tuple = DEFAULT_BUCKETS) -> Histogram:
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram(name, buckets)
            return inst

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a worker registry's :meth:`snapshot` into this registry.

        Counters add, gauges take the incoming value (last write wins),
        histograms merge bucket-by-bucket — so a suite run sharded over
        worker processes produces the same totals as a serial run.
        """
        measured = set(snap.get("measured") or ())
        for name, value in (snap.get("counters") or {}).items():
            self.counter(name, f"counters.{name}" in measured).inc(int(value))
        for name, value in (snap.get("gauges") or {}).items():
            self.gauge(name).set(value)
        for name, data in (snap.get("histograms") or {}).items():
            self.histogram(name).merge_dict(data)

    def snapshot(self) -> dict:
        """Plain-dict view of every instrument's current state."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in sorted(self._counters.items())},
                "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
                "histograms": {
                    n: h.as_dict() for n, h in sorted(self._histograms.items())
                },
                "measured": [f"counters.{n}" for n in sorted(self._measured)],
            }

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._measured.clear()


def render_snapshot(snap: dict) -> str:
    """Human-readable rendering of a :meth:`MetricsRegistry.snapshot`."""
    lines: list[str] = []
    if snap.get("counters"):
        lines.append("counters:")
        for name, value in snap["counters"].items():
            lines.append(f"  {name:40s} {value}")
    if snap.get("gauges"):
        lines.append("gauges:")
        for name, value in snap["gauges"].items():
            lines.append(f"  {name:40s} {value:g}")
    if snap.get("histograms"):
        lines.append("histograms:")
        for name, h in snap["histograms"].items():
            quantiles = " ".join(
                f"{label}={h[label]:.4g}" if h.get(label) is not None else f"{label}=-"
                for label in ("p50", "p95", "p99")
            )
            lines.append(
                f"  {name:40s} count={h['count']} mean={h['mean']:.4g} "
                f"min={h['min'] if h['min'] is not None else '-'} "
                f"max={h['max'] if h['max'] is not None else '-'} "
                f"{quantiles}"
            )
    return "\n".join(lines) if lines else "(no metrics recorded)"


# -- process-global default registry ------------------------------------------
_default_registry = MetricsRegistry(enabled=False)


def get_metrics() -> MetricsRegistry:
    return _default_registry


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    global _default_registry
    _default_registry = registry
    return registry


def enable_metrics(reset: bool = True) -> MetricsRegistry:
    if reset:
        _default_registry.reset()
    _default_registry.enabled = True
    return _default_registry


def disable_metrics() -> MetricsRegistry:
    _default_registry.enabled = False
    return _default_registry


def metrics_enabled() -> bool:
    return _default_registry.enabled
