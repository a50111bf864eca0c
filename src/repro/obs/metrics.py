"""Fixed-bucket histogram: the serve summary's always-on quantile tracker.

The paper's evidence is per-stage times and counts (Tables II/III).
Spans answer *where did the time go*; the counts of a run (instructions
interpreted, candidates implemented, bitstream bytes written) are span
attributes, per-app scalars or a component's own ``stats()``. What a
span trace cannot give cheaply is a streaming quantile, so the serve
daemon keeps one :class:`Histogram` per distribution its summary
reports (queue wait, service time, and the break-even times of
Section V).
"""

from __future__ import annotations

import bisect
import threading


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
