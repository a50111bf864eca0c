"""Span-based tracing for the JIT-ISE pipeline.

The paper's central evidence is *where time goes*: Tables II and III are
per-stage wall-clock breakdowns of the ASIP specialization process. The
tracer makes every run of the reproduction inspectable the same way: each
pipeline phase opens a :class:`Span` (a named interval with attributes),
spans nest to form a tree, and the finished trace can be exported
(:mod:`repro.obs.export`) as JSON lines, a Chrome ``trace_event`` file, or
an ASCII stage-time table keyed to the paper's column names.

Two clocks coexist:

- **real time** — each span records monotonic ``perf_counter`` start/end
  timestamps (candidate search genuinely runs here, so its real time is a
  result, as in Table II's ``real [ms]`` column);
- **virtual time** — the CAD stages are modelled, so their spans carry a
  ``virtual_seconds`` attribute holding the calibrated Table III runtime.

The process-global default tracer is **disabled** until
:func:`enable_tracing` is called: a disabled tracer returns a shared no-op
span, so instrumented hot paths pay one attribute check and nothing else.

Batch experiments finish quickly enough that keeping every finished span
in memory is fine; a long-running specialization daemon
(:mod:`repro.serve`) is not, so the tracer also supports a bounded
buffer: :meth:`Tracer.configure_flush` sets a ``max_spans`` limit and,
optionally, a JSONL sink — when the buffer overflows, the oldest spans
are either appended to the sink (same schema as ``--trace`` exports, so
``repro trace``/Chrome export keep working on the flushed file) or
dropped ring-style.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One named, timed interval in the pipeline.

    Usable as a context manager; on exit it is timestamped and handed to
    its tracer. Attributes can be attached at creation, via
    :meth:`set_attr`, or after the fact (the tool flow back-fills
    ``virtual_seconds`` once the timing model has priced the stage).
    """

    name: str
    span_id: int
    parent_id: int | None
    start: float
    attrs: dict = field(default_factory=dict)
    end: float | None = None
    thread: int = 0
    tracer: "Tracer | None" = field(default=None, repr=False)

    @property
    def duration(self) -> float:
        """Real elapsed seconds (to now if the span is still open)."""
        end = self.end if self.end is not None else time.perf_counter()
        return max(0.0, end - self.start)

    @property
    def virtual_seconds(self) -> float | None:
        value = self.attrs.get("virtual_seconds")
        return float(value) if value is not None else None

    def set_attr(self, key: str, value) -> None:
        self.attrs[key] = value

    def set_attrs(self, **attrs) -> None:
        self.attrs.update(attrs)

    def finish(self) -> None:
        if self.end is None and self.tracer is not None:
            self.tracer._finish(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.finish()
        return False


class _NoopSpan:
    """Shared do-nothing span returned by a disabled tracer."""

    __slots__ = ()

    name = ""
    span_id = 0
    parent_id = None
    attrs: dict = {}

    @property
    def duration(self) -> float:
        return 0.0

    @property
    def virtual_seconds(self) -> None:
        return None

    def set_attr(self, key: str, value) -> None:
        pass

    def set_attrs(self, **attrs) -> None:
        pass

    def finish(self) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Thread-safe span collector.

    Parent/child nesting is tracked with a per-thread span stack, so
    concurrent pipelines (e.g. a future sharded experiment runner) produce
    correctly-parented trees without sharing state. Finished spans
    accumulate under a lock; :meth:`spans` returns a snapshot.
    """

    def __init__(
        self,
        enabled: bool = True,
        max_spans: int | None = None,
        flush_path=None,
    ) -> None:
        self.enabled = enabled
        self.epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._finished: list[Span] = []
        self._local = threading.local()
        self._next_id = itertools.count(1).__next__
        self.max_spans: int | None = None
        self.flush_path = None
        self._flush_file = None
        self.spans_flushed = 0
        self.spans_dropped = 0
        if max_spans is not None or flush_path is not None:
            self.configure_flush(flush_path, max_spans=max_spans)

    # -- recording -----------------------------------------------------------
    def span(self, name: str, **attrs):
        """Open a span (context manager). No-op when disabled."""
        if not self.enabled:
            return NOOP_SPAN
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(
            name=name,
            span_id=self._next_id(),
            parent_id=stack[-1].span_id if stack else None,
            start=time.perf_counter(),
            attrs=dict(attrs),
            thread=threading.get_ident(),
            tracer=self,
        )
        stack.append(span)
        return span

    def event(self, name: str, **attrs):
        """Record an instantaneous (zero-duration) span."""
        span = self.span(name, **attrs)
        span.finish()
        return span

    def record_interval(self, name: str, start: float, end: float, **attrs):
        """Record an already-elapsed interval as a finished span.

        The serve plane learns how long a ticket waited in the admission
        queue only once a worker dequeues it; by then the wait is over, so
        it cannot be bracketed with :meth:`span`. This records the interval
        retroactively (parented under the innermost open span on this
        thread, e.g. the ``serve.request`` span) without touching the span
        stack.
        """
        if not self.enabled:
            return NOOP_SPAN
        stack = getattr(self._local, "stack", None)
        span = Span(
            name=name,
            span_id=self._next_id(),
            parent_id=stack[-1].span_id if stack else None,
            start=start,
            attrs=dict(attrs),
            end=max(start, end),
            thread=threading.get_ident(),
            tracer=self,
        )
        with self._lock:
            self._finished.append(span)
            self._enforce_limit_locked()
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = getattr(self._local, "stack", None)
        if stack:
            # Normally `span` is on top; an exception unwinding through
            # several spans may finish them out of order — pop through.
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()
        with self._lock:
            self._finished.append(span)
            self._enforce_limit_locked()

    # -- long-run hygiene ----------------------------------------------------
    def configure_flush(self, flush_path=None, max_spans: int | None = None) -> None:
        """Bound the in-memory span buffer for long-running processes.

        With *flush_path* set, overflowing spans are appended to that JSONL
        file (truncated here) in the same record schema as ``--trace``
        exports; without a sink the buffer behaves as a ring and the
        oldest spans are dropped (counted in ``spans_dropped``).
        """
        with self._lock:
            if self._flush_file is not None:
                self._flush_file.close()
                self._flush_file = None
            self.max_spans = max_spans
            self.flush_path = flush_path
            self.spans_flushed = 0
            self.spans_dropped = 0
            if flush_path is not None:
                self._flush_file = open(flush_path, "w", encoding="utf-8")
            self._enforce_limit_locked()

    def _enforce_limit_locked(self) -> None:
        if self.max_spans is None or len(self._finished) <= self.max_spans:
            return
        # Evict in batches (down to half the limit) so the list splice is
        # amortised instead of per-span.
        keep = max(1, self.max_spans // 2)
        overflow = self._finished[:-keep]
        self._finished = self._finished[-keep:]
        if self._flush_file is not None:
            self._write_records_locked(overflow)
        else:
            self.spans_dropped += len(overflow)

    def _write_records_locked(self, spans) -> None:
        import json

        from repro.obs.export import span_to_dict

        for s in spans:
            self._flush_file.write(
                json.dumps(span_to_dict(s, epoch=self.epoch), sort_keys=True) + "\n"
            )
        self._flush_file.flush()
        self.spans_flushed += len(spans)

    def flush_all(self) -> int:
        """Flush every remaining in-memory span to the sink and clear.

        Returns the total number of spans written to the sink so far.
        No-op (returning 0) when no sink is configured.
        """
        with self._lock:
            if self._flush_file is None:
                return 0
            if self._finished:
                self._write_records_locked(self._finished)
                self._finished = []
            return self.spans_flushed

    def close_flush(self) -> None:
        with self._lock:
            if self._flush_file is not None:
                self._flush_file.close()
                self._flush_file = None

    # -- sharded runners -----------------------------------------------------
    @contextmanager
    def child_context(self, parent: Span | None):
        """Parent this thread's spans under *parent* for the duration.

        A worker thread has an empty span stack, so spans it opens would
        become roots; the serve plane's worker threads wrap each request
        in ``child_context(server_span)`` so the per-request spans stay
        attached to the tree the main thread is building. The
        parent span itself is owned (and finished) by its opening thread —
        here it is only a parenting reference.
        """
        if not self.enabled or parent is None:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(parent)
        try:
            yield
        finally:
            # A leaked span may sit above the parent; pop through, like
            # _finish does when exceptions unwind several spans at once.
            while stack and stack[-1] is not parent:
                stack.pop()
            if stack:
                stack.pop()

    def absorb(
        self, records, parent: Span | None = None, base: float | None = None
    ) -> None:
        """Merge exported span records from a worker process into this tracer.

        *records* are :class:`repro.obs.export.SpanRecord`-shaped objects
        (``name``/``span_id``/``parent_id``/``t0``/``t1``/``thread``/
        ``attrs``) with times relative to the worker tracer's epoch. Span
        ids are remapped onto this tracer's id space, roots are reparented
        under *parent*, and times are rebased so the absorbed subtree
        starts at *base* (a ``perf_counter`` timestamp; default: the
        fan-out is assumed to have just finished).
        """
        recs = list(records)
        if not self.enabled or not recs:
            return
        if base is None:
            extent = max(r.t1 for r in recs)
            base = time.perf_counter() - extent
        ids = {r.span_id: self._next_id() for r in recs}
        fallback = parent.span_id if parent is not None else None
        absorbed = []
        for r in recs:
            absorbed.append(
                Span(
                    name=r.name,
                    span_id=ids[r.span_id],
                    parent_id=(
                        ids.get(r.parent_id, fallback)
                        if r.parent_id is not None
                        else fallback
                    ),
                    start=base + r.t0,
                    attrs=dict(r.attrs),
                    end=base + r.t1,
                    thread=r.thread,
                    tracer=self,
                )
            )
        with self._lock:
            self._finished.extend(absorbed)
            self._enforce_limit_locked()

    # -- inspection ----------------------------------------------------------
    def current_span(self) -> Span | None:
        """The innermost open span on this thread (None outside any span).

        The shared store (:mod:`repro.serve.store`) records it as the
        leader of a single-flight CAD build, so a waiter's span can name
        the span whose work it reused.
        """
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def spans(self) -> list[Span]:
        """Snapshot of all finished spans, in completion order."""
        with self._lock:
            return list(self._finished)

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans() if s.name == name]

    def reset(self) -> None:
        with self._lock:
            self._finished.clear()
            if self._flush_file is not None:
                self._flush_file.close()
                self._flush_file = None
            self.max_spans = None
            self.flush_path = None
            self.spans_flushed = 0
            self.spans_dropped = 0
        self._local = threading.local()
        self.epoch = time.perf_counter()


# -- process-global default tracer -------------------------------------------
_default_tracer = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-global tracer all instrumentation points use."""
    return _default_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    global _default_tracer
    _default_tracer = tracer
    return tracer


def enable_tracing(reset: bool = True) -> Tracer:
    """Turn the global tracer on (clearing old spans by default)."""
    if reset:
        _default_tracer.reset()
    _default_tracer.enabled = True
    return _default_tracer


def disable_tracing() -> Tracer:
    _default_tracer.enabled = False
    return _default_tracer


def tracing_enabled() -> bool:
    return _default_tracer.enabled


def span(name: str, **attrs):
    """Convenience: open a span on the global tracer."""
    return _default_tracer.span(name, **attrs)
