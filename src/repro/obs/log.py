"""Structured, leveled JSONL event log correlated to spans and runs.

Spans answer *where the time went* and metrics *how much work happened*;
the event log answers *what happened, in order*: pipeline phase
boundaries, candidate accept/reject decisions, CAD stage completions,
ICAP reconfigurations. Every record is one JSON object per line carrying

- ``ts`` — wall-clock epoch seconds,
- ``level`` — ``debug`` | ``info`` | ``warning`` | ``error``,
- ``event`` — dotted event name (``pipeline.phase``, ``cad.stage``, ...),
- ``run_id`` — the ledger run this record belongs to (``null`` outside a
  recorded run),
- ``span_id`` — the id of the tracer span open at emit time, so a log
  line resolves against the exported trace of the same run,

plus arbitrary event-specific fields. Like the tracer and the metrics
registry, the process-global log is **disabled** until
:func:`enable_logging` is called and instrumentation sites gate on
``get_log().enabled``, so the cost on an unlogged run is one attribute
check.

The record stream is the narrative counterpart to the paper's
aggregate tables: CAD stage events carry the same stage names as
Table III.
"""

from __future__ import annotations

import json
import threading
import time

from repro.obs.tracer import get_tracer

#: Level name -> numeric severity (syslog-ish ordering).
LEVELS: dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def _level_no(level: str) -> int:
    try:
        return LEVELS[level]
    except KeyError:
        raise ValueError(
            f"unknown log level {level!r} (expected one of {sorted(LEVELS)})"
        ) from None


class EventLog:
    """Thread-safe leveled event collector with an optional JSONL sink.

    Records always accumulate in memory (so a finished run can be
    inspected programmatically); when a sink is attached each record is
    additionally written through as one JSON line, flushed immediately so
    a crash loses at most the in-flight record.
    """

    def __init__(
        self,
        enabled: bool = True,
        level: str = "debug",
        run_id: str | None = None,
    ) -> None:
        self.enabled = enabled
        self.level_no = _level_no(level)
        self.run_id = run_id
        self._sink = None
        self._owns_sink = False
        self._records: list[dict] = []
        self._lock = threading.Lock()

    # -- sink management -----------------------------------------------------
    def open(self, path) -> None:
        """Attach a file sink at *path* (truncating), closing any old one."""
        self.close()
        self._sink = open(path, "w", encoding="utf-8")
        self._owns_sink = True

    def close(self) -> None:
        sink, owns = self._sink, self._owns_sink
        self._sink = None
        self._owns_sink = False
        if sink is not None and owns:
            sink.close()

    # -- recording -----------------------------------------------------------
    def emit(
        self,
        event: str,
        level: str = "info",
        span_id: int | None = None,
        **fields,
    ) -> dict | None:
        """Record one event; returns the record dict (None when dropped)."""
        if not self.enabled or _level_no(level) < self.level_no:
            return None
        tracer = get_tracer()
        if span_id is None:
            current = tracer.current_span()
            span_id = current.span_id if current is not None else None
        record = {
            "ts": round(time.time(), 6),
            "level": level,
            "event": event,
            "run_id": self.run_id,
            "span_id": span_id or None,
        }
        trace_id = tracer.current_trace_id()
        if trace_id is not None:
            # Cross-process correlation: a serve-plane log line resolves
            # against the stitched distributed trace, not just the span.
            record["trace_id"] = trace_id
        record.update(fields)
        with self._lock:
            self._records.append(record)
            if self._sink is not None:
                self._sink.write(json.dumps(record) + "\n")
                self._sink.flush()
        return record

    def absorb(self, records: list[dict]) -> None:
        """Append records emitted elsewhere (a pool child), in order."""
        with self._lock:
            self._records.extend(records)
            if self._sink is not None:
                self._sink.writelines(json.dumps(r) + "\n" for r in records)
                self._sink.flush()

    # -- inspection ----------------------------------------------------------
    def records(self) -> list[dict]:
        """Snapshot of all in-memory records, in emit order."""
        with self._lock:
            return list(self._records)

    def reset(self) -> None:
        with self._lock:
            self._records.clear()


# -- process-global default log ------------------------------------------------
_default_log = EventLog(enabled=False)


def get_log() -> EventLog:
    """The process-global event log all instrumentation sites use."""
    return _default_log


def set_log(log: EventLog) -> EventLog:
    global _default_log
    _default_log = log
    return log


def enable_logging(
    path=None,
    level: str = "debug",
    run_id: str | None = None,
    reset: bool = True,
) -> EventLog:
    """Turn the global event log on, optionally writing through to *path*."""
    log = _default_log
    if reset:
        log.reset()
    log.level_no = _level_no(level)
    log.run_id = run_id
    if path is not None:
        log.open(path)
    log.enabled = True
    return log


def disable_logging() -> EventLog:
    log = _default_log
    log.enabled = False
    log.close()
    return log


def log_enabled() -> bool:
    return _default_log.enabled


def log_event(event: str, level: str = "info", **fields) -> dict | None:
    """Convenience: emit on the global log (no-op when disabled)."""
    return _default_log.emit(event, level=level, **fields)


# -- reading and rendering -----------------------------------------------------
def read_log(path_or_file) -> list[dict]:
    """Load a JSONL event log back into record dicts."""
    if hasattr(path_or_file, "read"):
        text = path_or_file.read()
    else:
        with open(path_or_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    records: list[dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"log line {lineno}: invalid JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise ValueError(f"log line {lineno}: expected an object")
        records.append(obj)
    return records
