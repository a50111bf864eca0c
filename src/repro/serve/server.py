"""The specialization daemon (Section III's online premise, made literal).

:class:`SpecializationServer` is a long-running service around the ASIP
specialization process of Figure 2: clients submit (tenant, app, machine
config, pruning) requests over the :mod:`repro.serve.protocol` socket
protocol; an **admission queue** of bounded depth provides backpressure
(a full queue rejects with ``retry_after_ms`` instead of queueing
unboundedly); a worker pool executes requests against the shared
multi-tenant bitstream store (:mod:`repro.serve.store`), whose
single-flight layer collapses concurrent CAD work on equal candidate
signatures.

Observability is first-class: each request is a ``serve.request`` span
parented under the server's root span (one server run = one ledger run),
live gauges track queue depth / in-flight workers / per-tenant cache hit
rate, and latency histograms record queue-wait and service time (real
clock) plus the **break-even** distribution (virtual clock) whose
p50/p95/p99 are the headline SLO quantiles. SIGINT/SIGTERM drain the
queue, finish in-flight CAD work, and close the ledger run with an
explicit ``interrupted`` shutdown status — never a dangling manifest.
"""

from __future__ import annotations

import json
import multiprocessing
import queue
import socket
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.obs import get_metrics, get_tracer
from repro.obs.metrics import Histogram
from repro.serve.protocol import (
    PROTOCOL_SCHEMA,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.serve.store import SharedBitstreamStore
from repro.serve.worker import (
    execute_specialize,
    parse_specialize_request,
    process_request_worker,
)

#: Default multi-tenant store location (git-ignored, like the cache).
DEFAULT_STORE_DIR = ".repro-store"

#: Break-even times span minutes to days: dedicated bucket bounds so the
#: p95/p99 interpolation stays sharp where Table IV's values live.
BREAK_EVEN_BUCKETS = (
    60.0, 300.0, 900.0, 1800.0, 3600.0, 7200.0, 14400.0, 43200.0, 86400.0,
    259200.0,
)

_SENTINEL = object()


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is printed/queryable
    workers: int = 2
    queue_depth: int = 32
    backend: str = "thread"  # thread (in-process single-flight) | process
    store_root: str = DEFAULT_STORE_DIR
    tenant_budget: int | None = None


@dataclass
class _Ticket:
    """One admitted request waiting for (or undergoing) execution."""

    conn: socket.socket
    request: dict
    enqueued_at: float = field(default_factory=time.perf_counter)


class SpecializationServer:
    """Bounded-queue, worker-pool specialization daemon."""

    def __init__(
        self,
        config: ServerConfig | None = None,
        store: SharedBitstreamStore | None = None,
        record_run: bool = True,
    ) -> None:
        self.config = config or ServerConfig()
        # With record_run=False the drain skips attaching the serve block
        # to the current ledger run — the load generator composes its own
        # per-phase block instead of letting two embedded servers fight
        # over one manifest.
        self.record_run = record_run
        if self.config.backend not in ("thread", "process"):
            raise ValueError(
                f"unknown backend {self.config.backend!r} (thread or process)"
            )
        self.store = store or SharedBitstreamStore(
            self.config.store_root, tenant_budget=self.config.tenant_budget
        )
        self._queue: queue.Queue = queue.Queue(maxsize=self.config.queue_depth)
        self._listener: socket.socket | None = None
        self._bound_port: int | None = None
        self._acceptor: threading.Thread | None = None
        self._workers: list[threading.Thread] = []
        self._pool: ProcessPoolExecutor | None = None
        self._span = None
        self._started = time.perf_counter()

        self._stop = threading.Event()
        self._drained = threading.Event()
        self._shutdown_reason: str | None = None

        self._stats_lock = threading.Lock()
        self.requests = {
            "total": 0,
            "accepted": 0,
            "completed": 0,
            "rejected": 0,
            "failed": 0,
        }
        self._tenant_requests: dict[str, int] = {}
        self._inflight = 0
        self._max_queue_depth = 0
        self._service_ewma = 0.5  # seconds; seeds the retry-after estimate
        self._records: list[dict] = []
        # Fleet-wide UDI slot telemetry summed over completed requests
        # (each request binds its implementations to its machine's slot
        # pool); `repro top` renders occupancy and eviction rate from it.
        self._slot_totals = {
            "loads": 0,
            "reloads": 0,
            "hits": 0,
            "evictions": 0,
            "occupancy_pct_sum": 0.0,
            "samples": 0,
        }

        # Always-on latency histograms (independent of the global metrics
        # registry, so `repro top` works against an un-instrumented daemon).
        self.queue_wait_hist = Histogram("serve.queue_wait_seconds")
        self.service_hist = Histogram("serve.service_seconds")
        self.break_even_hist = Histogram(
            "serve.break_even_seconds", buckets=BREAK_EVEN_BUCKETS
        )

    # -- lifecycle -----------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`, survives drain)."""
        if self._bound_port is not None:
            return self._bound_port
        return self.config.port

    def start(self) -> None:
        """Bind, open the root span, and start acceptor + workers."""
        tracer = get_tracer()
        self._span = tracer.span(
            "serve.run",
            host=self.config.host,
            workers=self.config.workers,
            queue_depth=self.config.queue_depth,
            backend=self.config.backend,
        )
        if self._span is not None and hasattr(self._span, "__exit__"):
            self._span.__enter__()
        self._started = time.perf_counter()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.config.host, self.config.port))
        listener.listen(128)
        self._listener = listener
        self._bound_port = listener.getsockname()[1]
        if self.config.backend == "process":
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.config.workers, mp_context=ctx
            )
        for i in range(self.config.workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{i}", daemon=True
            )
            worker.start()
            self._workers.append(worker)
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="serve-acceptor", daemon=True
        )
        self._acceptor.start()

    def request_shutdown(self, reason: str = "api") -> None:
        """Ask the daemon to stop accepting and drain (idempotent)."""
        with self._stats_lock:
            if self._shutdown_reason is None:
                self._shutdown_reason = reason
        self._stop.set()

    def serve_forever(self, poll_seconds: float = 0.25) -> str:
        """Block until shutdown is requested, then drain; returns status.

        The returned status is ``"interrupted"`` when the shutdown came
        from a signal, ``"ok"`` otherwise — recorded in the ledger's
        ``serve`` block either way, so a Ctrl-C'd daemon still closes its
        run cleanly.
        """
        while not self._stop.wait(poll_seconds):
            pass
        return self.drain()

    def drain(self) -> str:
        """Stop accepting, finish queued + in-flight work, close down."""
        self._stop.set()
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept() on
            # Linux; shutdown() does, so the acceptor exits at once.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        if self._acceptor is not None:
            self._acceptor.join(timeout=5.0)
        for _ in self._workers:
            self._queue.put(_SENTINEL)
        for worker in self._workers:
            worker.join()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._span is not None and hasattr(self._span, "finish"):
            self._span.set_attrs(
                completed=self.requests["completed"],
                rejected=self.requests["rejected"],
                failed=self.requests["failed"],
            )
            self._span.finish()
        self._drained.set()
        status = self.shutdown_status()
        if self.record_run:
            self._record_run(status)
        return status

    def shutdown_status(self) -> str:
        with self._stats_lock:
            reason = self._shutdown_reason
        return "interrupted" if reason == "signal" else "ok"

    def _record_run(self, status: str) -> None:
        """Attach the serve summary (+ per-request records) to the run."""
        from repro.obs.ledger import current_run

        recorder = current_run()
        if recorder is None:
            return
        recorder.attach_serve(self.summary(shutdown=status))
        recorder.attach_cache(self.store.combined_stats())
        with self._stats_lock:
            records = list(self._records)
        if records:
            path = recorder.run_dir / "requests.jsonl"
            with open(path, "w", encoding="utf-8") as fh:
                for record in records:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
            recorder.artifacts.setdefault("requests", "requests.jsonl")

    # -- acceptor ------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed: drain in progress
            handler = threading.Thread(
                target=self._handle_connection, args=(conn,), daemon=True
            )
            handler.start()

    def _handle_connection(self, conn: socket.socket) -> None:
        """Read one request; enqueue it or answer immediately."""
        keep_open = False
        try:
            conn.settimeout(30.0)
            try:
                message = recv_message(conn)
            except ProtocolError as exc:
                self._reply(conn, {"status": "error", "error": str(exc)})
                return
            if message is None:
                return
            op = message.get("op")
            if op == "ping":
                self._reply(conn, {"status": "ok", "op": "ping"})
            elif op == "stats":
                self._reply(
                    conn,
                    {
                        "status": "ok",
                        "op": "stats",
                        "stats": self.summary(),
                        "metrics": (
                            get_metrics().snapshot()
                            if get_metrics().enabled
                            else None
                        ),
                    },
                )
            elif op == "shutdown":
                self.request_shutdown(reason="client")
                self._reply(conn, {"status": "ok", "op": "shutdown"})
            elif op == "specialize":
                keep_open = self._admit(conn, message)
            else:
                self._reply(
                    conn, {"status": "error", "error": f"unknown op {op!r}"}
                )
        finally:
            if not keep_open:
                try:
                    conn.close()
                except OSError:
                    pass

    def _admit(self, conn: socket.socket, message: dict) -> bool:
        """Admission control; returns True when the worker owns the conn."""
        with self._stats_lock:
            self.requests["total"] += 1
        try:
            request = parse_specialize_request(message)
        except (KeyError, ValueError, TypeError) as exc:
            with self._stats_lock:
                self.requests["failed"] += 1
            self._count("serve.requests.failed")
            self._reply(conn, {"status": "error", "error": str(exc)})
            return False
        if self._stop.is_set():
            self._reject(
                conn, reason="shutting-down", retry_after_ms=None, request=request
            )
            return False
        ticket = _Ticket(conn=conn, request=request)
        try:
            self._queue.put_nowait(ticket)
        except queue.Full:
            self._reject(
                conn,
                reason="queue-full",
                retry_after_ms=self._retry_after_ms(),
                request=request,
            )
            return False
        with self._stats_lock:
            self.requests["accepted"] += 1
            self._max_queue_depth = max(
                self._max_queue_depth, self._queue.qsize()
            )
        self._count("serve.requests.accepted")
        self._set_gauge("serve.queue_depth", self._queue.qsize())
        return True

    def _reject(
        self,
        conn,
        reason: str,
        retry_after_ms: float | None,
        request: dict | None = None,
    ) -> None:
        with self._stats_lock:
            self.requests["rejected"] += 1
            # Rejections are SLO events too: the queue-reject-rate
            # objective is evaluated over requests.jsonl, so every parsed
            # but turned-away request leaves a record.
            if request is not None and len(self._records) < 100_000:
                self._records.append(
                    {
                        "t_offset": round(
                            time.perf_counter() - self._started, 6
                        ),
                        "tenant": request["tenant"],
                        "app": request["app"],
                        "request_id": request["request_id"] or None,
                        "status": "rejected",
                        "reason": reason,
                        "retry_after_ms": (
                            round(retry_after_ms, 3)
                            if retry_after_ms is not None
                            else None
                        ),
                        "queue_wait_ms": None,
                        "service_ms": None,
                        "break_even_seconds": None,
                        "error": None,
                        "trace_id": request.get("trace_id"),
                        "span_id": None,
                    }
                )
        self._count("serve.requests.rejected")
        response = {"status": "rejected", "reason": reason}
        if retry_after_ms is not None:
            response["retry_after_ms"] = round(retry_after_ms, 3)
        if request is not None and request.get("trace_id"):
            response["trace"] = {"trace_id": request["trace_id"], "span_id": None}
        self._reply(conn, response)

    def _retry_after_ms(self) -> float:
        with self._stats_lock:
            ewma = self._service_ewma
        backlog = self._queue.qsize() + self._inflight
        estimate = backlog * ewma * 1000.0 / max(1, self.config.workers)
        return max(25.0, min(2000.0, estimate))

    def _reply(self, conn: socket.socket, response: dict) -> None:
        response.setdefault("schema", PROTOCOL_SCHEMA)
        try:
            send_message(conn, response)
        except OSError:
            pass  # client went away; its work is still accounted

    # -- workers -------------------------------------------------------------
    def _worker_loop(self) -> None:
        tracer = get_tracer()
        while True:
            ticket = self._queue.get()
            if ticket is _SENTINEL:
                return
            self._set_gauge("serve.queue_depth", self._queue.qsize())
            with self._stats_lock:
                self._inflight += 1
            self._set_gauge("serve.inflight", self._inflight)
            try:
                self._process_ticket(ticket, tracer)
            finally:
                self.store.release_thread_flights()
                with self._stats_lock:
                    self._inflight -= 1
                self._set_gauge("serve.inflight", self._inflight)
                try:
                    ticket.conn.close()
                except OSError:
                    pass

    def _process_ticket(self, ticket: _Ticket, tracer) -> None:
        request = ticket.request
        tenant = request["tenant"]
        dequeued = time.perf_counter()
        queue_wait = dequeued - ticket.enqueued_at
        started = dequeued
        with tracer.child_context(self._span):
            with tracer.span(
                "serve.request",
                tenant=tenant,
                app=request["app"],
                request_id=request["request_id"] or None,
                trace_id=request.get("trace_id"),
                client_span_id=request.get("client_span_id"),
            ) as span:
                # The queue wait is already over when a worker picks the
                # ticket up; record it retroactively as a child of this
                # request span so the stitched trace shows client wait vs
                # queue wait vs CAD explicitly.
                tracer.record_interval(
                    "serve.queue.wait",
                    ticket.enqueued_at,
                    dequeued,
                    trace_id=request.get("trace_id"),
                )
                try:
                    result = self._execute(request, span)
                    error = None
                except Exception as exc:  # noqa: BLE001 - daemon must survive
                    result = None
                    error = f"{type(exc).__name__}: {exc}"
                    span.set_attr("error", type(exc).__name__)
                service = time.perf_counter() - started
                span.set_attrs(
                    queue_wait_ms=round(queue_wait * 1000.0, 3),
                    service_ms=round(service * 1000.0, 3),
                )
        self._account(ticket, result, error, queue_wait, service, span)

    def _execute(self, request: dict, span=None) -> dict:
        if self.config.backend == "process":
            assert self._pool is not None
            tracer = get_tracer()
            registry = get_metrics()
            fanout_start = time.perf_counter()
            future = self._pool.submit(
                process_request_worker,
                request,
                str(self.store.root),
                self.config.tenant_budget,
                tracer.enabled,
                registry.enabled,
            )
            result, records, snapshot, counters = future.result()
            if records:
                # Reparent the child process's span subtree under *this
                # request's* span (not the server root), so the stitched
                # trace keeps parent/child ids across the process boundary.
                tracer.absorb(
                    records,
                    parent=span if span is not None else self._span,
                    base=fanout_start,
                )
            if snapshot is not None:
                registry.merge_snapshot(snapshot)
            if counters is not None:
                self.store.tenant(request["tenant"]).cache.absorb_counters(
                    counters
                )
            return result
        tenant_cache = self.store.tenant(
            request["tenant"], app=request["app"]
        )
        with get_tracer().span(
            "serve.execute",
            tenant=request["tenant"],
            app=request["app"],
            trace_id=request.get("trace_id"),
            backend="thread",
        ):
            return execute_specialize(request, tenant_cache)

    def _account(
        self,
        ticket: _Ticket,
        result: dict | None,
        error: str | None,
        queue_wait: float,
        service: float,
        span=None,
    ) -> None:
        request = ticket.request
        tenant = request["tenant"]
        span_id = getattr(span, "span_id", 0) or None
        self.queue_wait_hist.observe(queue_wait)
        self.service_hist.observe(service)
        be = (result or {}).get("break_even_seconds")
        if be is not None:
            self.break_even_hist.observe(be)
        with self._stats_lock:
            if error is None:
                self.requests["completed"] += 1
            else:
                self.requests["failed"] += 1
            self._tenant_requests[tenant] = (
                self._tenant_requests.get(tenant, 0) + 1
            )
            tenant_count = self._tenant_requests[tenant]
            slot_stats = (result or {}).get("slots")
            if slot_stats:
                totals = self._slot_totals
                for key in ("loads", "reloads", "hits", "evictions"):
                    totals[key] += slot_stats.get(key, 0)
                totals["occupancy_pct_sum"] += slot_stats.get(
                    "occupancy_pct", 0.0
                )
                totals["samples"] += 1
            self._service_ewma = 0.8 * self._service_ewma + 0.2 * service
            if len(self._records) < 100_000:
                self._records.append(
                    {
                        "t_offset": round(
                            time.perf_counter() - self._started, 6
                        ),
                        "tenant": tenant,
                        "app": request["app"],
                        "request_id": request["request_id"] or None,
                        "status": "ok" if error is None else "failed",
                        "queue_wait_ms": round(queue_wait * 1000.0, 3),
                        "service_ms": round(service * 1000.0, 3),
                        "break_even_seconds": be,
                        "candidates": (result or {}).get("candidates"),
                        "cache_hits": (result or {}).get("cache_hits"),
                        "shared": (result or {}).get("shared"),
                        "error": error,
                        "trace_id": request.get("trace_id"),
                        "span_id": span_id,
                    }
                )
        registry = get_metrics()
        if registry.enabled:
            registry.counter(
                "serve.requests.completed"
                if error is None
                else "serve.requests.failed"
            ).inc()
            registry.histogram("serve.queue_wait_seconds").observe(queue_wait)
            registry.histogram("serve.service_seconds").observe(service)
            if be is not None:
                registry.histogram(
                    "serve.break_even_seconds", buckets=BREAK_EVEN_BUCKETS
                ).observe(be)
            hit_rate = self.store.tenant(tenant).cache.hit_rate
            registry.gauge(f"serve.tenant.{tenant}.hit_rate").set(
                round(hit_rate, 6)
            )
            registry.gauge(f"serve.tenant.{tenant}.requests").set(tenant_count)
        if error is None:
            response = {
                "status": "ok",
                "tenant": tenant,
                "app": request["app"],
                "request_id": request["request_id"] or None,
                "result": result,
                "timing": {
                    "queue_wait_ms": round(queue_wait * 1000.0, 3),
                    "service_ms": round(service * 1000.0, 3),
                },
            }
        else:
            response = {"status": "error", "error": error}
        if request.get("trace_id"):
            response["trace"] = {
                "trace_id": request["trace_id"],
                "span_id": f"{span_id:016x}" if span_id else None,
            }
        self._reply(ticket.conn, response)

    # -- telemetry -----------------------------------------------------------
    def _count(self, name: str) -> None:
        registry = get_metrics()
        if registry.enabled:
            registry.counter(name).inc()

    def _set_gauge(self, name: str, value: float) -> None:
        registry = get_metrics()
        if registry.enabled:
            registry.gauge(name).set(value)

    def summary(self, shutdown: str | None = None) -> dict:
        """JSON-safe serve-plane summary (stats op + ledger block)."""
        with self._stats_lock:
            requests = dict(self.requests)
            tenant_requests = dict(self._tenant_requests)
            max_depth = self._max_queue_depth
            inflight = self._inflight
            slot_totals = dict(self._slot_totals)
        store_stats = self.store.stats()
        budget = self.config.tenant_budget
        tenants = {}
        for name, stats in (store_stats.get("tenants") or {}).items():
            entries = stats.get("entries", 0)
            tenants[name] = {
                "requests": tenant_requests.get(name, 0),
                "entries": entries,
                "budget": budget,
                "budget_used_pct": (
                    round(100.0 * entries / budget, 1) if budget else None
                ),
                "hits": stats.get("hits", 0),
                "misses": stats.get("misses", 0),
                "stores": stats.get("stores", 0),
                "evictions": stats.get("evictions", 0),
                "hit_rate": stats.get("hit_rate", 0.0),
            }
        def hist(h: Histogram) -> dict:
            data = h.as_dict()
            return {
                key: data.get(key)
                for key in ("count", "mean", "min", "max", "p50", "p95", "p99")
            }

        summary = {
            "config": {
                "host": self.config.host,
                "port": self.port,
                "workers": self.config.workers,
                "queue_depth": self.config.queue_depth,
                "backend": self.config.backend,
                "store": str(self.store.root),
                "tenant_budget": self.config.tenant_budget,
            },
            "uptime_seconds": round(time.perf_counter() - self._started, 3),
            "requests": requests,
            "queue": {"depth": self._queue.qsize(), "max_depth": max_depth},
            "inflight": inflight,
            "dedup": {"saved": store_stats.get("dedup_saved", 0)},
            "cross_app_hits": store_stats.get("cross_app_hits", 0),
            "slots": {
                "loads": slot_totals["loads"],
                "reloads": slot_totals["reloads"],
                "hits": slot_totals["hits"],
                "evictions": slot_totals["evictions"],
                "eviction_rate": (
                    round(
                        slot_totals["evictions"] / slot_totals["loads"], 6
                    )
                    if slot_totals["loads"]
                    else 0.0
                ),
                "mean_occupancy_pct": (
                    round(
                        slot_totals["occupancy_pct_sum"]
                        / slot_totals["samples"],
                        3,
                    )
                    if slot_totals["samples"]
                    else 0.0
                ),
            },
            "tenants": tenants,
            "latency": {
                "queue_wait": hist(self.queue_wait_hist),
                "service": hist(self.service_hist),
                "break_even": hist(self.break_even_hist),
            },
            "slo": self._slo_summary(),
        }
        if shutdown is not None:
            summary["shutdown"] = shutdown
        return summary

    def request_records(self) -> list[dict]:
        """Snapshot of the per-request records (requests.jsonl rows)."""
        with self._stats_lock:
            return list(self._records)

    def _slo_summary(self) -> dict:
        """Live error-budget state per declared objective (`repro top`)."""
        from repro.obs.slo import default_objectives, evaluate

        records = self.request_records()
        report = evaluate(
            records, default_objectives(), now=time.perf_counter() - self._started
        )
        return report.summary()
