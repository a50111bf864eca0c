"""Tests for the observability layer (repro.obs): tracer, histogram, export."""

from __future__ import annotations

import io
import threading
import time

import pytest

from repro import obs
from repro.obs.tracer import NOOP_SPAN, Tracer
from repro.obs.metrics import Histogram


@pytest.fixture
def tracer():
    """A fresh, enabled global tracer; disabled again on teardown."""
    try:
        yield obs.enable_tracing()
    finally:
        obs.disable_tracing()


class TestTracer:
    def test_nesting_and_attributes(self, tracer):
        with tracer.span("outer", app="fft") as outer:
            with tracer.span("inner") as inner:
                inner.set_attr("luts", 42)
            outer.set_attrs(selected=3)
        spans = tracer.spans()
        assert [s.name for s in spans] == ["inner", "outer"]
        by_name = {s.name: s for s in spans}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None
        assert by_name["outer"].attrs == {"app": "fft", "selected": 3}
        assert by_name["inner"].attrs == {"luts": 42}
        assert by_name["inner"].duration >= 0.0
        assert by_name["outer"].end >= by_name["outer"].start

    def test_siblings_share_parent(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b = tracer.find("a")[0], tracer.find("b")[0]
        assert a.parent_id == b.parent_id == root.span_id

    def test_exception_records_error_and_unwinds(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("failing"):
                    raise ValueError("boom")
        failing = tracer.find("failing")[0]
        assert failing.attrs["error"] == "ValueError"
        # Parenting still works after the unwind.
        with tracer.span("after"):
            pass
        assert tracer.find("after")[0].parent_id is None

    def test_event_is_instantaneous(self, tracer):
        span = tracer.event("icap.reconfigure", bytes=128)
        assert span.end is not None
        assert tracer.find("icap.reconfigure") == [span]

    def test_disabled_tracer_returns_noop_singleton(self):
        obs.disable_tracing()
        t = obs.get_tracer()
        span = t.span("anything", x=1)
        assert span is NOOP_SPAN
        with span as s:
            s.set_attr("k", "v")
        assert s.attrs == {}
        assert s.duration == 0.0

    def test_reset_clears_spans(self, tracer):
        with tracer.span("x"):
            pass
        tracer.reset()
        assert tracer.spans() == []

    def test_threads_get_independent_stacks(self):
        t = Tracer()
        done = threading.Event()

        def worker():
            with t.span("worker-root"):
                with t.span("worker-child"):
                    done.wait(5)

        th = threading.Thread(target=worker)
        with t.span("main-root"):
            th.start()
            time.sleep(0.01)
            with t.span("main-child"):
                pass
            done.set()
            th.join()
        by_name = {s.name: s for s in t.spans()}
        assert by_name["main-child"].parent_id == by_name["main-root"].span_id
        assert (
            by_name["worker-child"].parent_id == by_name["worker-root"].span_id
        )
        assert by_name["worker-root"].parent_id is None


class TestNoOpOverhead:
    def test_disabled_span_overhead_is_negligible(self):
        """Guard: a disabled tracer's span() must stay sub-microsecond-ish."""
        obs.disable_tracing()
        t = obs.get_tracer()
        n = 50_000
        start = time.perf_counter()
        for _ in range(n):
            with t.span("hot"):
                pass
        per_call = (time.perf_counter() - start) / n
        assert per_call < 5e-6, f"no-op span cost {per_call * 1e6:.2f} µs"

class TestMetrics:
    def test_histogram_is_thread_safe_under_contention(self):
        hist = Histogram("values", buckets=(1.0,))
        threads, per_thread = 8, 2500
        barrier = threading.Barrier(threads)

        def hammer() -> None:
            barrier.wait()
            for _ in range(per_thread):
                # All threads observe into one histogram, so lost updates
                # would show up as short totals.
                hist.observe(0.5)

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        expected = threads * per_thread
        h = hist.as_dict()
        assert h["count"] == expected
        assert h["buckets"] == {"le_1": expected, "inf": 0}
        assert h["sum"] == pytest.approx(0.5 * expected)

    def test_histogram_bucket_edges(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(1.0)  # on the bound -> first bucket (le semantics)
        hist.observe(1.0001)
        assert hist.bucket_counts == [1, 1]

    def test_percentile_interpolates_within_buckets(self):
        hist = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 2.0, 4.0, 6.0, 8.0, 50.0):
            hist.observe(v)
        # q=0 / q=1 are exact (clamped to the observed range).
        assert hist.percentile(0.0) == pytest.approx(0.5)
        assert hist.percentile(1.0) == pytest.approx(50.0)
        # The median rank falls in the (1, 10] bucket, interpolated.
        p50 = hist.percentile(0.50)
        assert 1.0 < p50 <= 10.0
        # p99 lands in the last occupied bucket, clamped to max.
        assert 10.0 < hist.percentile(0.99) <= 50.0

    def test_percentile_empty_and_bounds(self):
        hist = Histogram("h", buckets=(1.0,))
        assert hist.percentile(0.5) is None
        with pytest.raises(ValueError):
            hist.percentile(1.5)
        with pytest.raises(ValueError):
            hist.percentile(-0.1)

    def test_percentile_single_observation(self):
        hist = Histogram("h", buckets=(1.0, 10.0))
        hist.observe(3.0)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert hist.percentile(q) == pytest.approx(3.0)

    def test_as_dict_includes_percentiles(self):
        hist = Histogram("seconds", buckets=(1.0, 10.0))
        for v in (0.5, 2.0, 5.0):
            hist.observe(v)
        h = hist.as_dict()
        assert h["count"] == 3
        assert h["sum"] == pytest.approx(7.5)
        assert h["min"] == 0.5 and h["max"] == 5.0
        assert h["buckets"] == {"le_1": 1, "le_10": 2, "inf": 0}
        assert h["p50"] == pytest.approx(hist.percentile(0.50))
        assert h["p95"] == pytest.approx(hist.percentile(0.95))
        assert h["p99"] == pytest.approx(hist.percentile(0.99))
        # An empty histogram reports no quantiles rather than crashing.
        empty = Histogram("empty").as_dict()
        assert empty["p50"] is None and empty["min"] is None


class TestExport:
    def _sample_tracer(self) -> Tracer:
        t = Tracer()
        with t.span("pipeline.run", app="sor"):
            with t.span("cad.map", luts=12) as sp:
                sp.set_attr("virtual_seconds", 40.0)
        return t

    def test_jsonl_round_trip(self, tmp_path):
        t = self._sample_tracer()
        path = tmp_path / "trace.jsonl"
        assert obs.write_jsonl(t.spans(), path, epoch=t.epoch) == 2
        records = obs.read_jsonl(path)
        assert obs.validate_trace(records) == []
        by_name = {r.name: r for r in records}
        assert set(by_name) == {"pipeline.run", "cad.map"}
        cad = by_name["cad.map"]
        assert cad.parent_id == by_name["pipeline.run"].span_id
        assert cad.attrs["luts"] == 12
        assert cad.virtual_seconds == 40.0
        assert cad.t1 >= cad.t0 >= 0.0

    def test_jsonl_file_object_round_trip(self):
        t = self._sample_tracer()
        buf = io.StringIO()
        obs.write_jsonl(t.spans(), buf, epoch=t.epoch)
        records = obs.read_jsonl(io.StringIO(buf.getvalue()))
        assert len(records) == 2

    def test_validate_catches_bad_records(self):
        good = obs.SpanRecord("x", 1, None, 0.0, 1.0)
        assert obs.validate_trace([good]) == []
        bad = [
            obs.SpanRecord("", 1, None, 0.0, 1.0),
            obs.SpanRecord("y", 1, None, 0.0, 1.0),  # duplicate id
            obs.SpanRecord("z", 2, 99, 2.0, 1.0),  # bad parent, t1 < t0
        ]
        errors = obs.validate_trace(bad)
        assert len(errors) == 4

    def test_read_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ValueError, match="line 1"):
            obs.read_jsonl(path)

    def test_chrome_trace_shape(self):
        t = self._sample_tracer()
        buf = io.StringIO()
        obs.write_jsonl(t.spans(), buf, epoch=t.epoch)
        records = obs.read_jsonl(io.StringIO(buf.getvalue()))
        doc = obs.chrome_trace(records)
        assert {e["ph"] for e in doc["traceEvents"]} == {"X"}
        names = {e["name"] for e in doc["traceEvents"]}
        assert "Map" in names  # paper label substituted for cad.map
        assert all(e["dur"] >= 0 for e in doc["traceEvents"])

    def test_stage_table_render(self):
        t = self._sample_tracer()
        buf = io.StringIO()
        obs.write_jsonl(t.spans(), buf, epoch=t.epoch)
        records = obs.read_jsonl(io.StringIO(buf.getvalue()))
        table = obs.stage_table(obs.fold_stages(records)).render()
        assert "Map [cad.map]" in table and "total" in table
        assert "pipeline.run" in table
        # Paper stages lead, in paper order; the rest follow.
        rows = [line.split()[0] for line in table.splitlines()[4:]]
        assert rows.index("Map") < rows.index("pipeline.run")
        empty = obs.stage_table({}).render()
        assert "Per-stage times" in empty and "total" in empty


class TestEndToEndPipelineTrace:
    def test_pipeline_emits_paper_stage_spans(self, fp_kernel, tracer):
        from repro.core import JitIseSystem

        result = JitIseSystem().run_application(
            fp_kernel, dataset_size=16, dataset_seed=3
        )
        assert result.output_equal
        spans = tracer.spans()
        names = {s.name for s in spans}

        # Candidate search with its four sub-phases.
        assert {
            "search",
            "search.pruning",
            "search.identification",
            "search.estimation",
            "search.selection",
        } <= names
        # Every Table III CAD stage, plus reconfiguration.
        assert set(obs.TABLE3_SPAN_NAMES) <= names
        assert "icap.reconfigure" in names
        # Pipeline phases.
        assert {
            "pipeline.run",
            "pipeline.baseline",
            "pipeline.specialize",
            "pipeline.adapt",
            "pipeline.verify",
        } <= names

        # CAD stage spans nest under cad.implement -> asip_sp.candidate.
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.name in obs.TABLE3_SPAN_NAMES:
                parent = by_id[span.parent_id]
                assert parent.name == "cad.implement"
                assert by_id[parent.parent_id].name == "asip_sp.candidate"
                assert span.virtual_seconds is not None
        # Per-candidate spans carry the shared/failed accounting attrs.
        for span in spans:
            if span.name == "asip_sp.candidate":
                assert "shared" in span.attrs and "failed" in span.attrs

    def test_trace_exports_and_replays(self, fp_kernel, tracer, tmp_path):
        from repro.core import JitIseSystem

        JitIseSystem().run_application(fp_kernel, dataset_size=16, dataset_seed=3)
        path = tmp_path / "pipeline.jsonl"
        obs.export_tracer(tracer, path)
        records = obs.read_jsonl(path)
        assert obs.validate_trace(records) == []
        table = obs.stage_table(obs.fold_stages(records)).render()
        for label in ("C2V", "Syn", "Xst", "Tra", "Map", "PAR", "Bitgen", "ICAP"):
            assert label in table
