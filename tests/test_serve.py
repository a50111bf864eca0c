"""Tests for the specialization daemon (``repro serve``) and its plumbing.

Covers the serve plane of Section III's online premise: the framed-JSON
socket protocol, the shared multi-tenant bitstream store's single-flight
dedup (N concurrent equal-signature requests run the CAD flow exactly
once), tenant namespace isolation, the daemon's request telemetry and
graceful drain, the load generator's cold/warm comparison (Section
VI-A's cache argument as serving-time quantiles), the tracer's bounded
span buffer, and the serve-cell handling of the regression sentinel.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro import obs
from repro.obs.export import chrome_trace, read_jsonl, validate_trace
from repro.obs.regress import (
    DEFAULT_TOLERANCES,
    compare_manifests,
    flatten_cells,
    resolve_tolerance,
)
from repro.obs.tracer import Tracer
from repro.serve.protocol import (
    ProtocolError,
    ServeClient,
    recv_message,
    send_message,
)
from repro.serve.server import ServerConfig, SpecializationServer
from repro.serve.store import SharedBitstreamStore, validate_tenant
from repro.serve.worker import execute_specialize, parse_specialize_request


@pytest.fixture
def metrics():
    """A fresh, enabled global metrics registry; disabled on teardown."""
    try:
        yield obs.enable_metrics()
    finally:
        obs.disable_metrics()


def _request(tenant="acme", app="adpcm", **overrides) -> dict:
    message = {
        "op": "specialize",
        "tenant": tenant,
        "app": app,
        "pruning": {"time_share_pct": 50.0, "max_blocks": 3},
    }
    message.update(overrides)
    return parse_specialize_request(message)


@pytest.fixture
def server(tmp_path):
    """A started thread-backend daemon; drained on teardown."""
    srv = SpecializationServer(
        ServerConfig(
            workers=2, queue_depth=8, store_root=str(tmp_path / "store")
        ),
        record_run=False,
    )
    srv.start()
    try:
        yield srv
    finally:
        srv.request_shutdown(reason="test-teardown")
        srv.drain()


class TestProtocol:
    def test_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            message = {"op": "ping", "payload": {"nested": [1, 2, 3]}}
            send_message(a, message)
            assert recv_message(b) == message
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_message(b) is None
        finally:
            b.close()

    def test_garbage_frame_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\x04nope")
            with pytest.raises(ProtocolError):
                recv_message(b)
        finally:
            a.close()
            b.close()


class TestStore:
    def test_tenant_name_validation(self):
        assert validate_tenant("tenant00") == "tenant00"
        for bad in ("", "../evil", "a/b", "a b", None, "x" * 65):
            with pytest.raises(ValueError):
                validate_tenant(bad)

    def test_tenant_namespaces_are_isolated(self, tmp_path):
        store = SharedBitstreamStore(tmp_path / "store")
        a = store.tenant("acme")
        b = store.tenant("umbrella")
        execute_specialize(_request(tenant="acme"), a)
        key = a.cache.index_keys()[0] if hasattr(a.cache, "index_keys") else None
        # Tenant directories are disjoint; umbrella sees none of acme's
        # entries even for the identical candidate signature.
        assert a.cache.stats()["entries"] > 0
        assert b.cache.stats()["entries"] == 0
        assert a.cache.root != b.cache.root
        if key is not None:
            assert not b.contains(key)

    def test_single_flight_runs_cad_once(self, tmp_path, metrics):
        """N concurrent equal-signature requests -> exactly one CAD run."""
        store = SharedBitstreamStore(tmp_path / "store")
        n = 6
        barrier = threading.Barrier(n)
        results: list[dict] = []
        errors: list[BaseException] = []

        def worker() -> None:
            cache = store.tenant("acme")
            barrier.wait()
            try:
                result = execute_specialize(_request(tenant="acme"), cache)
                results.append(result)
            except BaseException as exc:  # pragma: no cover - debug aid
                errors.append(exc)
            finally:
                store.release_thread_flights()

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == n
        # adpcm selects exactly one candidate: one builder implements it,
        # every other request observes a cache hit.
        counters = metrics.snapshot()["counters"]
        assert counters.get("cad.implementations", 0) == 1
        combined = store.combined_stats()
        assert combined["stores"] == 1
        assert combined["misses"] == 1
        assert combined["hits"] == n - 1
        # Every request reports the same (deterministic) speedup.
        assert len({r["speedup"] for r in results}) == 1

    def test_serial_rerun_hits_without_dedup(self, tmp_path):
        store = SharedBitstreamStore(tmp_path / "store")
        cache = store.tenant("acme")
        cold = execute_specialize(_request(), cache)
        warm = execute_specialize(_request(), cache)
        assert cold["cache_hits"] == 0
        assert warm["cache_hits"] == warm["candidates"]
        # No concurrency -> plain persistent-cache hits, no flights saved.
        assert store.dedup_saved == 0
        # Warm effective overhead drops: break-even improves (VI-A).
        assert warm["break_even_seconds"] < cold["break_even_seconds"]


class TestServer:
    def test_ping_stats_and_specialize(self, server):
        client = ServeClient(port=server.port)
        assert client.ping()["status"] == "ok"
        response = client.specialize("acme", "adpcm")
        assert response["status"] == "ok"
        result = response["result"]
        assert result["candidates"] >= 1
        assert result["break_even_seconds"] > 0
        assert response["timing"]["service_ms"] > 0

        stats = client.stats()["stats"]
        assert stats["requests"]["completed"] == 1
        latency = stats["latency"]
        for hist in ("queue_wait", "service", "break_even"):
            assert latency[hist]["count"] == 1
            assert latency[hist]["p99"] is not None
        assert stats["tenants"]["acme"]["requests"] == 1

    def test_unknown_app_fails_without_crashing(self, server):
        client = ServeClient(port=server.port)
        response = client.specialize("acme", "no-such-app")
        assert response["status"] == "error"
        assert client.ping()["status"] == "ok"
        assert client.stats()["stats"]["requests"]["failed"] == 1

    def test_invalid_tenant_rejected(self, server):
        client = ServeClient(port=server.port)
        response = client.specialize("../evil", "adpcm")
        assert response["status"] == "error"
        assert "tenant" in response["error"]

    def test_signal_shutdown_reports_interrupted(self, tmp_path):
        srv = SpecializationServer(
            ServerConfig(workers=1, store_root=str(tmp_path / "store")),
            record_run=False,
        )
        srv.start()
        client = ServeClient(port=srv.port)
        assert client.specialize("acme", "adpcm")["status"] == "ok"
        srv.request_shutdown(reason="signal")
        status = srv.serve_forever(poll_seconds=0.01)
        assert status == "interrupted"
        assert srv.summary(shutdown=status)["shutdown"] == "interrupted"
        # Queued + in-flight work was finished, not dropped.
        assert srv.requests["completed"] == 1

    def test_client_shutdown_op_drains_ok(self, tmp_path):
        srv = SpecializationServer(
            ServerConfig(workers=1, store_root=str(tmp_path / "store")),
            record_run=False,
        )
        srv.start()
        client = ServeClient(port=srv.port)
        assert client.shutdown()["status"] == "ok"
        assert srv.serve_forever(poll_seconds=0.01) == "ok"

    def test_drain_wakes_the_acceptor_at_once(self, tmp_path):
        srv = SpecializationServer(
            ServerConfig(workers=1, store_root=str(tmp_path / "store")),
            record_run=False,
        )
        srv.start()
        assert ServeClient(port=srv.port).ping()["status"] == "ok"
        started = time.perf_counter()
        assert srv.drain() == "ok"
        assert time.perf_counter() - started < 0.5
        assert not srv._acceptor.is_alive()

    def test_backpressure_rejects_with_retry_after(self, tmp_path):
        srv = SpecializationServer(
            ServerConfig(
                workers=1, queue_depth=1, store_root=str(tmp_path / "store")
            ),
            record_run=False,
        )
        # Overfill the admission queue directly (no workers running yet):
        # the first ticket is admitted, the second must be rejected with a
        # retry-after hint.
        srv._stats_lock  # noqa: B018 - touch to document internal access
        a1, a2 = socket.socketpair()
        b1, b2 = socket.socketpair()
        try:
            msg = {
                "op": "specialize",
                "tenant": "acme",
                "app": "adpcm",
            }
            assert srv._admit(a1, dict(msg)) is True
            assert srv._admit(b1, dict(msg)) is False
            reply = recv_message(b2)
            assert reply["status"] == "rejected"
            assert reply["reason"] == "queue-full"
            assert reply["retry_after_ms"] >= 25.0
            assert srv.requests["rejected"] == 1
        finally:
            for s in (a1, a2, b1, b2):
                s.close()


class TestLoadgen:
    def test_small_cold_warm_run(self, tmp_path):
        from repro.serve.loadgen import (
            LoadGenConfig,
            build_schedule,
            render_loadgen,
            run_loadgen,
        )

        cfg = LoadGenConfig(
            requests=10,
            rate=200.0,
            concurrency=4,
            workers=2,
            queue_depth=4,
            tenants=2,
            mix=(("adpcm", 1.0),),
        )
        # The schedule is deterministic for a seed.
        s1, s2 = build_schedule(cfg), build_schedule(cfg)
        assert [vars(r) for r in s1] == [vars(r) for r in s2]

        out = tmp_path / "BENCH_serve.json"
        report = run_loadgen(cfg, out=out, store_root=tmp_path / "store")
        assert report["schema"].startswith("repro-bench-serve/")
        phases = report["phases"]
        assert phases["cold"]["requests"]["completed"] == 10
        assert phases["warm"]["requests"]["completed"] == 10
        # Every admitted-then-rejected request was retried to completion.
        assert phases["cold"]["unresolved"] == 0
        # The warm phase re-runs the same schedule over the now-populated
        # store: zero CAD implementations and a strictly lower p95.
        assert phases["warm"]["cad_implementations"] == 0
        assert report["warm_p95_lower"] is True
        comparison = report["comparison"]
        assert (
            comparison["break_even_p95_warm"]
            < comparison["break_even_p95_cold"]
        )
        assert json.loads(out.read_text())["warm_p95_lower"] is True
        rendering = render_loadgen(report)
        assert "warm-vs-cold break-even p95" in rendering


class TestBoundedTracer:
    def test_ring_mode_drops_oldest(self):
        tracer = Tracer(enabled=True, max_spans=100)
        for i in range(10_000):
            tracer.event("tick", i=i)
        spans = tracer.spans()
        assert len(spans) <= 100
        assert tracer.spans_dropped == 10_000 - len(spans)
        # The newest spans survive.
        assert spans[-1].attrs["i"] == 9_999

    def test_flush_mode_streams_jsonl(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        tracer = Tracer(enabled=True)
        tracer.configure_flush(sink, max_spans=64)
        with tracer.span("serve.run"):
            for i in range(10_000):
                tracer.event("serve.request", i=i)
        total = tracer.flush_all()
        tracer.close_flush()
        assert total == 10_001
        assert tracer.spans_dropped == 0
        # The flushed file is a valid trace: replay + Chrome export work.
        records = read_jsonl(sink)
        assert len(records) == 10_001
        assert validate_trace(records) == []
        trace = chrome_trace(records)
        assert len(trace["traceEvents"]) == len(records)
        names = {r.name for r in records}
        assert names == {"serve.run", "serve.request"}

    def test_reconfigure_resets_sink(self, tmp_path):
        sink = tmp_path / "trace.jsonl"
        tracer = Tracer(enabled=True)
        tracer.configure_flush(sink, max_spans=4)
        for i in range(32):
            tracer.event("tick", i=i)
        tracer.configure_flush(None, max_spans=None)
        assert tracer.flush_path is None
        for i in range(32):
            tracer.event("tick", i=i)
        assert len(tracer.spans()) >= 32


class TestTracePropagation:
    def test_traceparent_round_trip(self):
        from repro.serve.protocol import (
            mint_trace_id,
            mint_traceparent,
            parse_traceparent,
        )

        tid = mint_trace_id("r0001")
        assert tid == mint_trace_id("r0001")
        assert tid != mint_trace_id("r0002")
        assert len(tid) == 32
        parsed = parse_traceparent(mint_traceparent(tid, 0x1234))
        assert parsed == {"trace_id": tid, "parent_span_id": 0x1234}
        # Malformed headers are best-effort: never an error, just no trace.
        assert parse_traceparent(None) is None
        assert parse_traceparent("garbage") is None
        assert parse_traceparent("00-nothex!-0001-01") is None
        # A zero parent span id (client had tracing disabled) maps to None.
        assert parse_traceparent(mint_traceparent(tid, 0))["parent_span_id"] is None

    def test_thread_backend_stitches_one_trace(self, tmp_path):
        from repro.serve.protocol import mint_trace_id

        tracer = obs.enable_tracing()
        try:
            srv = SpecializationServer(
                ServerConfig(workers=1, store_root=str(tmp_path / "store")),
                record_run=False,
            )
            srv.start()
            try:
                response = ServeClient(port=srv.port).specialize(
                    "acme", "adpcm", request_id="r0001"
                )
                assert response["status"] == "ok"
            finally:
                srv.request_shutdown(reason="test")
                srv.drain()
        finally:
            obs.disable_tracing()
        trace_id = mint_trace_id("r0001")
        assert response["trace"]["trace_id"] == trace_id
        (client_span,) = tracer.find("serve.client")
        (request_span,) = tracer.find("serve.request")
        (queue_span,) = tracer.find("serve.queue.wait")
        executes = [
            s
            for s in tracer.find("serve.execute")
            if s.attrs.get("backend") == "thread"
        ]
        # Client, server request, queue wait, and CAD execution all carry
        # the trace id the client minted from the request id.
        for span in (client_span, request_span, queue_span, *executes):
            assert span.attrs["trace_id"] == trace_id
        # Each side learned the other's span id: the traceparent header
        # carried the client's, the response trace block the server's.
        assert request_span.attrs["client_span_id"] == client_span.span_id
        assert (
            client_span.attrs["server_span_id"] == f"{request_span.span_id:016x}"
        )
        # Queue wait and execution are children of the request span, so the
        # stitched tree breaks client wait into queue wait vs CAD.
        assert queue_span.parent_id == request_span.span_id
        assert executes
        assert all(s.parent_id == request_span.span_id for s in executes)

    def test_process_backend_stitches_across_processes(self, tmp_path):
        import os

        from repro.serve.protocol import mint_trace_id

        tracer = obs.enable_tracing()
        try:
            srv = SpecializationServer(
                ServerConfig(
                    workers=1,
                    backend="process",
                    store_root=str(tmp_path / "store"),
                ),
                record_run=False,
            )
            srv.start()
            try:
                response = ServeClient(port=srv.port).specialize(
                    "acme", "adpcm", request_id="r0002"
                )
                assert response["status"] == "ok"
            finally:
                srv.request_shutdown(reason="test")
                srv.drain()
        finally:
            obs.disable_tracing()
        (request_span,) = tracer.find("serve.request")
        workers = [
            s
            for s in tracer.find("serve.execute")
            if s.attrs.get("backend") == "process"
        ]
        assert len(workers) == 1
        (worker_span,) = workers
        # The pool child's subtree was absorbed under this request's span:
        # parent/child span ids hold across the process boundary.
        assert worker_span.parent_id == request_span.span_id
        assert worker_span.attrs["trace_id"] == mint_trace_id("r0002")
        assert worker_span.attrs["pid"] != os.getpid()
        # Absorbed spans are rebased onto the parent's clock, so the worker
        # subtree nests inside the request interval.
        assert request_span.start <= worker_span.start
        assert worker_span.end <= request_span.end

    def test_dedup_wait_span_links_to_leader(self, tmp_path):
        import time

        tracer = obs.enable_tracing()
        try:
            store = SharedBitstreamStore(tmp_path / "store")
            key = "f" * 64
            leader_ids: dict = {}
            errors: list = []
            leader_building = threading.Event()
            release = threading.Event()

            def leader():
                try:
                    with tracer.span("serve.request", role="leader") as span:
                        leader_ids["span_id"] = span.span_id
                        # Empty cache, no flight: this thread becomes the
                        # builder and holds the flight open until released.
                        assert store.tenant("acme").get(key) is None
                        leader_building.set()
                        assert release.wait(10.0)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                finally:
                    leader_building.set()
                    store.release_thread_flights()

            def follower():
                try:
                    assert leader_building.wait(10.0)
                    with tracer.span("serve.request", role="follower"):
                        # Waits on the leader's flight; the leader releases
                        # without storing, so the retry becomes the builder.
                        assert store.tenant("acme").get(key) is None
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)
                finally:
                    store.release_thread_flights()

            threads = [
                threading.Thread(target=leader),
                threading.Thread(target=follower),
            ]
            for t in threads:
                t.start()
            # Release the leader only once the follower is subscribed to
            # its flight, so the dedup-wait span is guaranteed to exist.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                with store._lock:
                    flight = store._flights.get(("acme", key))
                    if flight is not None and flight.waiters >= 1:
                        break
                time.sleep(0.002)
            release.set()
            for t in threads:
                t.join(timeout=10.0)
            assert not errors
        finally:
            obs.disable_tracing()
        (wait_span,) = tracer.find("store.dedup.wait")
        roles = {
            s.attrs.get("role"): s for s in tracer.find("serve.request")
        }
        # The follower's wait span sits in its own request subtree but
        # links to the leader span whose CAD run it subscribed to.
        assert wait_span.parent_id == roles["follower"].span_id
        assert wait_span.attrs["leader_span_id"] == leader_ids["span_id"]
        assert wait_span.attrs["leader_span_id"] == roles["leader"].span_id
        assert wait_span.attrs["timed_out"] is False
        assert wait_span.thread != roles["leader"].thread


class _RejectingClient(ServeClient):
    """A client whose server is permanently saturated (always rejects)."""

    def __init__(self):
        super().__init__()
        self.calls: list[dict] = []

    def specialize(self, tenant, app, **kwargs):
        self.calls.append(dict(kwargs))
        return {"status": "rejected", "retry_after_ms": 50}


class TestSpecializeRetryBackoff:
    def _run(self, monkeypatch, request_id, attempts=6, cap_ms=400.0):
        sleeps: list[float] = []
        monkeypatch.setattr(
            "repro.serve.protocol.time.sleep", lambda s: sleeps.append(s)
        )
        client = _RejectingClient()
        response, retries = client.specialize_retry(
            "acme",
            "adpcm",
            max_attempts=attempts,
            backoff_cap_ms=cap_ms,
            request_id=request_id,
        )
        return response, retries, sleeps, client

    def test_backoff_grows_caps_and_jitters(self, monkeypatch):
        response, retries, sleeps, client = self._run(monkeypatch, "r0042")
        assert response["status"] == "rejected"
        assert retries == 6
        assert len(sleeps) == 6
        assert all(s >= 0.005 for s in sleeps)
        # Worst-case jitter is 1.5x the capped delay.
        assert max(sleeps) <= 400.0 * 1.5 / 1000.0
        # Exponential growth dominates the jitter band: attempt 2's
        # minimum (200ms * 0.5) exceeds attempt 0's maximum (50ms * 1.5).
        assert sleeps[2] > sleeps[0]
        # Every attempt (including rejected ones) shares one trace id.
        from repro.serve.protocol import mint_trace_id

        assert {c.get("trace_id") for c in client.calls} == {
            mint_trace_id("r0042")
        }

    def test_backoff_is_deterministic_per_request_identity(self, monkeypatch):
        _, _, first, _ = self._run(monkeypatch, "r0042")
        _, _, replay, _ = self._run(monkeypatch, "r0042")
        _, _, other, _ = self._run(monkeypatch, "r0099")
        # A replayed schedule backs off identically; a different request
        # decorrelates (no retry stampede in lockstep).
        assert first == replay
        assert first != other


class TestAbsorbAfterFlush:
    def _worker_records(self, count=20):
        from repro.obs.export import tracer_records

        worker = Tracer(enabled=True)
        for i in range(count):
            with worker.span("cad.stage", index=i):
                pass
        return tracer_records(worker)

    def test_absorb_into_flush_sink_accounts_exactly(self, tmp_path):
        records = self._worker_records(20)
        sink = tmp_path / "trace.jsonl"
        tracer = Tracer(enabled=True)
        tracer.configure_flush(sink, max_spans=8)
        assert tracer.absorb(records, parent=None) == 20
        # absorb() appends the whole batch, then enforces the limit once:
        # 20 spans against max_spans=8 evicts down to 8 // 2 = 4 kept,
        # flushing exactly 16 to the sink and dropping none.
        assert tracer.spans_flushed == 16
        assert tracer.spans_dropped == 0
        assert len(tracer.spans()) == 4
        assert tracer.flush_all() == 20
        assert tracer.spans() == []
        tracer.close_flush()
        # The sink holds the complete absorbed trace, flushed + drained,
        # and it round-trips through validation and Chrome export whole.
        flushed = read_jsonl(sink)
        assert len(flushed) == 20
        assert sorted(r.attrs["index"] for r in flushed) == list(range(20))
        assert validate_trace(flushed) == []
        trace = chrome_trace(flushed)
        assert len(trace["traceEvents"]) == 20

    def test_absorb_ring_mode_drops_oldest(self):
        records = self._worker_records(20)
        tracer = Tracer(enabled=True)
        tracer.configure_flush(None, max_spans=8)
        assert tracer.absorb(records, parent=None) == 20
        # Same eviction math, but with no sink the overflow is dropped.
        assert tracer.spans_dropped == 16
        assert tracer.spans_flushed == 0
        assert tracer.flush_all() == 0
        kept = [s.attrs["index"] for s in tracer.spans()]
        assert kept == [16, 17, 18, 19]


class TestServeRegressCells:
    def _manifest(self, **serve) -> dict:
        return {
            "schema": "repro-run/1",
            "run_id": "r0001-serve",
            "command": "serve",
            "config": {"command": "serve"},
            "status": 0,
            "wall_seconds": 10.0,
            "serve": serve,
        }

    def test_latency_cells_informational_counts_gated(self):
        manifest = self._manifest(
            requests={"total": 5, "completed": 4, "failed": 1, "rejected": 2},
            latency={"break_even": {"p95": 5344.0, "count": 4}},
            dedup={"saved": 3},
            config={"port": 12345},
        )
        cells = flatten_cells(manifest)
        assert cells["serve.requests.completed"] == 4.0
        assert "serve.config.port" not in cells
        assert resolve_tolerance(
            "serve.requests.completed", list(DEFAULT_TOLERANCES)
        ) == pytest.approx(1e-9)
        for informational in (
            "serve.requests.total",
            "serve.requests.rejected",
            "serve.latency.break_even.p95",
            "serve.dedup.saved",
            "serve.phases.cold.retries",
            "serve.comparison.break_even_p95_cold",
        ):
            assert (
                resolve_tolerance(informational, list(DEFAULT_TOLERANCES))
                is None
            )

    def test_latency_drift_never_regresses_counts_do(self):
        baseline = self._manifest(
            requests={"completed": 10, "failed": 0},
            latency={"break_even": {"p95": 5000.0}},
            warm_p95_lower=True,
        )
        ok = self._manifest(
            requests={"completed": 10, "failed": 0},
            latency={"break_even": {"p95": 9999.0}},
            warm_p95_lower=True,
        )
        report = compare_manifests(baseline, ok)
        assert report.ok
        dropped = self._manifest(
            requests={"completed": 9, "failed": 1},
            latency={"break_even": {"p95": 5000.0}},
            warm_p95_lower=True,
        )
        report = compare_manifests(baseline, dropped)
        assert not report.ok
        names = {d.cell for d in report.regressions}
        assert "serve.requests.completed" in names
        # warm_p95_lower flattens to a tightly gated boolean cell.
        flipped = self._manifest(
            requests={"completed": 10, "failed": 0},
            latency={"break_even": {"p95": 5000.0}},
            warm_p95_lower=False,
        )
        report = compare_manifests(baseline, flipped)
        assert not report.ok
        assert any(
            d.cell == "serve.warm_p95_lower" for d in report.regressions
        )


class TestRunsListLimit:
    def _record_runs(self, tmp_path, count: int) -> None:
        from repro.obs.ledger import RunLedger, RunRecorder

        ledger = RunLedger(tmp_path / "ledger")
        for _ in range(count):
            recorder = RunRecorder(
                ledger=ledger,
                run_id=ledger.reserve_run("serve"),
                command="serve",
            )
            recorder.finalize(status=0)

    def test_limit_truncates_and_notes(self, tmp_path, capsys):
        from repro.cli import main

        self._record_runs(tmp_path, 5)
        ledger = str(tmp_path / "ledger")
        assert main(["runs", "list", "--ledger", ledger, "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("r000") == 2
        assert "3 older run(s) not shown" in out
        assert main(["runs", "list", "--ledger", ledger, "--limit", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("r000") == 5
        assert "not shown" not in out
