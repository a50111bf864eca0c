"""Tests for the parallel runner accelerators and the persistent cache.

Covers the cross-run realization of the paper's Section VI-A bitstream
cache (:class:`repro.core.cache.PersistentBitstreamCache`) and the
determinism contract of the process-sharded suite runner: ``--jobs N``
and a warm cache may change where wall-clock time goes, but never the
reported Table II numbers or the decisions in the recorded trace.
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import cache as cache_module
from repro.core.asip_sp import AsipSpecializationProcess
from repro.core.cache import (
    CachedImplementation,
    PersistentBitstreamCache,
    PlacementStats,
)
from repro.fpga.bitgen import PartialBitstream
from repro.fpga.device import VIRTEX4_FX20, VIRTEX4_FX100
from repro.fpga.timingmodel import StageTimes
from repro.fpga.toolflow import CadToolFlow
from repro.ise.selection import CandidateSearch
from repro.obs import disable_tracing, enable_tracing, read_jsonl
from repro.obs.regress import compare_manifests


@pytest.fixture
def selected(fp_kernel_profile):
    """Selected candidate estimates of the FP kernel (non-empty)."""
    module, profile, _ = fp_kernel_profile
    result = CandidateSearch().run(module, profile)
    assert result.selected, "FP kernel should yield candidates"
    return result.selected


class TestPersistentCache:
    def test_round_trip_reattaches_candidate(self, tmp_path, selected):
        toolflow = CadToolFlow()
        est = selected[0]
        impl = toolflow.implement(est.candidate)
        cache = PersistentBitstreamCache(root=tmp_path / "bc")
        key = cache.key_for(est.candidate, toolflow.device)

        assert not cache.contains(key)
        assert cache.get(key) is None
        assert cache.misses == 1

        cache.put(key, impl)
        assert cache.contains(key)
        assert len(cache) == 1
        got = cache.get(key, est.candidate)
        assert got is not None and cache.hits == 1
        assert got.candidate is est.candidate
        assert got.entity_name == impl.entity_name
        assert got.times.total == impl.times.total
        assert got.bitstream.size_bytes == impl.bitstream.size_bytes

    def test_key_varies_with_device_and_timing_version(self, selected):
        cand = selected[0].candidate
        k100 = PersistentBitstreamCache.key_for(cand, VIRTEX4_FX100)
        k20 = PersistentBitstreamCache.key_for(cand, VIRTEX4_FX20)
        k_v2 = PersistentBitstreamCache.key_for(
            cand, VIRTEX4_FX100, timing_version=2
        )
        assert len({k100, k20, k_v2}) == 3

    def test_corrupted_index_is_ignored(self, tmp_path, selected):
        toolflow = CadToolFlow()
        impl = toolflow.implement(selected[0].candidate)
        cache = PersistentBitstreamCache(root=tmp_path / "bc")
        key = cache.key_for(selected[0].candidate, toolflow.device)
        cache.put(key, impl)

        cache.index_path.write_text("{ not json", encoding="utf-8")
        fresh = PersistentBitstreamCache(root=tmp_path / "bc")
        assert len(fresh) == 0
        assert fresh.get(key) is None and fresh.misses == 1
        # The store still works after the corruption.
        fresh.put(key, impl)
        assert fresh.contains(key)

    def test_corrupted_object_demotes_to_miss(self, tmp_path, selected):
        toolflow = CadToolFlow()
        impl = toolflow.implement(selected[0].candidate)
        cache = PersistentBitstreamCache(root=tmp_path / "bc")
        key = cache.key_for(selected[0].candidate, toolflow.device)
        cache.put(key, impl)

        cache._object_path(key).write_bytes(b"garbage")
        assert cache.get(key) is None
        assert cache.misses == 1
        # The broken entry was dropped so it is not retried forever.
        assert not cache.contains(key)

    def test_clear_empties_the_store(self, tmp_path, selected):
        toolflow = CadToolFlow()
        impl = toolflow.implement(selected[0].candidate)
        cache = PersistentBitstreamCache(root=tmp_path / "bc")
        key = cache.key_for(selected[0].candidate, toolflow.device)
        cache.put(key, impl)

        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.stats()["entries"] == 0
        assert not cache._object_path(key).exists()

    def test_clear_removes_leftover_temp_files(self, tmp_path, selected):
        toolflow = CadToolFlow()
        impl = toolflow.implement(selected[0].candidate)
        cache = PersistentBitstreamCache(root=tmp_path / "bc")
        key = cache.key_for(selected[0].candidate, toolflow.device)
        cache.put(key, impl)
        # What writers killed between writing and renaming leave behind.
        (cache.root / "objects" / f"{key}.pkl.tmp").write_bytes(b"partial")
        (cache.root / "objects" / f"{key}.pkl.x1y2.tmp").write_bytes(b"part")
        (cache.root / "index.json.tmp").write_text("{", encoding="utf-8")

        assert cache.clear() == 1
        assert not list(cache.root.rglob("*.tmp"))

    def test_forked_writers_sharing_a_root_never_collide(
        self, tmp_path, selected
    ):
        """Processes putting overlapping keys into one root (``analyze
        --jobs N --cache``) each write their own temp files: no put raises
        and every stored object loads."""
        impl = CadToolFlow().implement(selected[0].candidate)
        root = tmp_path / "bc"
        keys = [f"{i:064x}" for i in range(6)]

        def writer(offset: int) -> None:
            cache = PersistentBitstreamCache(root=root)
            failures = 0
            for n in range(120):
                try:
                    cache.put(keys[(n + offset) % len(keys)], impl)
                except OSError:
                    failures += 1
            sys.exit(min(failures, 255))

        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=writer, args=(i,)) for i in range(4)]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert [proc.exitcode for proc in procs] == [0, 0, 0, 0]

        objects = sorted((root / "objects").glob("*.pkl"))
        assert [path.stem for path in objects] == keys
        for path in objects:
            record = pickle.loads(path.read_bytes())
            assert isinstance(record, CachedImplementation)
            assert record.bitstream.data == impl.bitstream.data
        cache = PersistentBitstreamCache(root=root)
        assert all(cache.get(key) is not None for key in cache._load_index())
        assert not list(root.rglob("*.tmp"))

    def test_eviction_keeps_newest(self, tmp_path, selected):
        toolflow = CadToolFlow()
        impl = toolflow.implement(selected[0].candidate)
        cache = PersistentBitstreamCache(root=tmp_path / "bc", max_entries=1)
        cache.put("a" * 64, impl)
        cache.put("b" * 64, impl)
        assert cache.evictions == 1
        assert len(cache) == 1
        assert cache.contains("b" * 64) and not cache.contains("a" * 64)


def _slim_record() -> CachedImplementation:
    """A small stored record, without running the CAD flow."""
    return CachedImplementation(
        candidate=None,
        entity_name="ci_kept",
        bitstream=PartialBitstream(
            entity="ci_kept",
            data=b"\x01\x02",
            frame_count=1,
            column_count=1,
            nominal_size_bytes=2,
        ),
        times=StageTimes(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0),
        placement=PlacementStats(1.0, 1.0, 10, 5),
    )


KEY_A, KEY_B = "a" * 64, "b" * 64


class TestKeptIndex:
    """An instance keeps the index it parsed: a lookup stats
    ``index.json`` and reparses it only when another writer replaced it."""

    @pytest.fixture
    def parses(self, monkeypatch):
        real = json.loads
        calls: list[int] = []

        def loads(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(json, "loads", loads)
        return calls

    def test_get_on_an_unchanged_index_parses_nothing(self, tmp_path, parses):
        cache = PersistentBitstreamCache(root=tmp_path / "bc")
        cache.put(KEY_A, _slim_record())
        for _ in range(3):
            assert cache.get(KEY_A) is not None
            assert cache.get(KEY_B) is None
        assert cache.contains(KEY_A) and len(cache) == 1
        assert parses == []

        other = PersistentBitstreamCache(root=tmp_path / "bc")
        for _ in range(3):
            assert other.get(KEY_A) is not None
        assert len(parses) == 1

    def test_put_by_a_second_instance_is_a_hit(self, tmp_path):
        first = PersistentBitstreamCache(root=tmp_path / "bc")
        first.put(KEY_A, _slim_record())
        assert first.get(KEY_B) is None

        PersistentBitstreamCache(root=tmp_path / "bc").put(KEY_B, _slim_record())
        assert first.get(KEY_B) is not None
        assert (first.hits, first.misses) == (1, 1)

    def test_put_by_a_forked_writer_is_a_hit(self, tmp_path):
        root = tmp_path / "bc"
        first = PersistentBitstreamCache(root=root)
        first.put(KEY_A, _slim_record())
        assert first.get(KEY_B) is None

        def writer() -> None:
            PersistentBitstreamCache(root=root).put(KEY_B, _slim_record())

        proc = multiprocessing.get_context("fork").Process(target=writer)
        proc.start()
        proc.join(timeout=60)
        assert proc.exitcode == 0
        assert first.get(KEY_B) is not None
        assert first.get(KEY_A) is not None
        assert (first.hits, first.misses) == (2, 1)

    def test_corrupt_object_is_one_miss_and_drops_its_entry(self, tmp_path):
        cache = PersistentBitstreamCache(root=tmp_path / "bc")
        cache.put(KEY_A, _slim_record())
        cache.put(KEY_B, _slim_record())
        cache._object_path(KEY_A).write_bytes(b"garbage")

        assert cache.get(KEY_A) is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert not cache.contains(KEY_A) and cache.contains(KEY_B)
        on_disk = PersistentBitstreamCache(root=tmp_path / "bc")._load_index()
        assert sorted(on_disk) == [KEY_B]

    def test_failed_index_writes_leave_the_kept_copy_as_on_disk(
        self, tmp_path, monkeypatch
    ):
        """put and a corrupt get change their own copy of the entries; when
        the index write fails, the kept copy still matches the file."""
        root = tmp_path / "bc"
        cache = PersistentBitstreamCache(root=root)
        cache.put(KEY_A, _slim_record())
        real = cache_module._replace_atomically

        def no_index_writes(path, data):
            if path.name == "index.json":
                raise OSError("index not writable")
            return real(path, data)

        monkeypatch.setattr(cache_module, "_replace_atomically", no_index_writes)
        with pytest.raises(OSError):
            cache.put(KEY_B, _slim_record())
        assert not cache.contains(KEY_B) and len(cache) == 1

        cache._object_path(KEY_A).write_bytes(b"garbage")
        assert cache.get(KEY_A) is None
        assert sorted(cache._load_index()) == [KEY_A]
        monkeypatch.undo()
        assert sorted(PersistentBitstreamCache(root=root)._load_index()) == [KEY_A]


class TestAsipSpWithCacheAndJobs:
    def test_cold_then_warm_run_is_identical_with_fewer_cad_calls(
        self, fp_kernel_profile, tmp_path
    ):
        module, profile, _ = fp_kernel_profile
        root = tmp_path / "bc"
        tracer = enable_tracing()
        try:
            cold_cache = PersistentBitstreamCache(root=root)
            r1 = AsipSpecializationProcess(bitstream_cache=cold_cache).run(
                module, profile
            )
            cold_cad = len(tracer.find("cad.implement"))

            warm_cache = PersistentBitstreamCache(root=root)
            r2 = AsipSpecializationProcess(bitstream_cache=warm_cache).run(
                module, profile
            )
            warm_cad = len(tracer.find("cad.implement")) - cold_cad
        finally:
            disable_tracing()

        assert cold_cache.stores > 0 and warm_cache.hits > 0
        # A warm run does strictly less CAD work than a cold one ...
        assert cold_cad > 0 and warm_cad < cold_cad
        # ... and reports exactly the same Table II numbers.
        assert r2.candidate_count == r1.candidate_count
        assert r2.toolflow_seconds == r1.toolflow_seconds
        assert r2.reconfiguration_seconds == r1.reconfiguration_seconds
        assert [c.implementation.entity_name for c in r2.implementations] == [
            c.implementation.entity_name for c in r1.implementations
        ]
        assert any(c.from_cache for c in r2.implementations)
        assert not any(c.from_cache for c in r1.implementations)

    @pytest.mark.parametrize("app", ["sor", "adpcm"])
    def test_warm_hits_match_the_cold_implementations(self, app, tmp_path):
        """Differential test of the slim cache record: everything a caller
        reads off a warm hit equals the cold run's full implementation."""
        from repro.experiments.runner import analyze_app

        root = tmp_path / "bc"
        cold_cache = PersistentBitstreamCache(root=root)
        cold = analyze_app(app, use_cache=False, bitstream_cache=cold_cache)
        warm_cache = PersistentBitstreamCache(root=root)
        warm = analyze_app(app, use_cache=False, bitstream_cache=warm_cache)

        assert cold_cache.stores > 0
        assert warm_cache.hits == cold_cache.stores and warm_cache.misses == 0
        cold_impls = cold.specialization.implementations
        warm_impls = warm.specialization.implementations
        assert len(warm_impls) == len(cold_impls)
        for c, w in zip(cold_impls, warm_impls):
            a, b = c.implementation, w.implementation
            assert b.candidate is w.estimate.candidate
            assert b.times == a.times
            assert b.bitstream.size_bytes == a.bitstream.size_bytes
            assert b.bitstream.data == a.bitstream.data
            assert b.entity_name == a.entity_name
            for stat in (
                "initial_wirelength",
                "final_wirelength",
                "moves_attempted",
                "moves_accepted",
            ):
                assert getattr(b.placement, stat) == getattr(a.placement, stat)
        assert (
            warm.specialization.reconfiguration_seconds
            == cold.specialization.reconfiguration_seconds
        )
        assert _cad_break_even(warm) == _cad_break_even(cold)
        # The stored record holds no mapped netlist (nor VHDL or routing)
        # and no cell locations.
        for path in (root / "objects").glob("*.pkl"):
            data = path.read_bytes()
            record = pickle.loads(data)
            assert type(record) is CachedImplementation
            assert type(record.placement) is PlacementStats
            assert b"MappedDesign" not in data
            assert b"locations" not in data


def _cad_break_even(analysis) -> float:
    """Live-aware break-even of *analysis* charged only its CAD and ICAP
    seconds: the candidate search time is measured, so it differs between
    any two runs and is left out."""
    from repro.core.breakeven import BreakEvenModel
    from repro.vm.profiler import static_block_costs
    from repro.woolcano.machine import WoolcanoMachine

    spec = analysis.specialization
    cost_model = WoolcanoMachine().cost_model
    return BreakEvenModel(cost_model=cost_model).analyze(
        static_block_costs(analysis.compiled.module, cost_model),
        analysis.train_profile,
        analysis.coverage,
        spec.search.selected,
        spec.toolflow_seconds + spec.reconfiguration_seconds,
    ).live_aware_seconds


def _manifest(run_id, cad_virtual, cad_count, cache, ratio=2.0):
    """Minimal ledger manifest for regression-sentinel unit tests."""
    return {
        "run_id": run_id,
        "status": "ok",
        "wall_seconds": 1.0,
        "config": {"domain": "embedded", "jobs": 1},
        "stages": {
            "cad.map": {
                "label": "Map",
                "spans": 4,
                "real_seconds": 0.01,
                "virtual_seconds": cad_virtual,
            },
            "cad.implement": {"label": "cad.implement", "spans": cad_count},
        },
        "scalars": {"suite": {"asip_ratio": ratio}},
        "cache": {**cache, "measured": ["*"]} if cache else None,
    }


class TestRegressCacheDemotion:
    def test_cad_cells_gate_when_cache_state_matches(self):
        report = compare_manifests(
            _manifest("a", 100.0, 5, None),
            _manifest("b", 90.0, 4, None),
        )
        assert not report.ok
        assert {d.cell for d in report.regressions} == {
            "stages.cad.map.virtual_seconds",
            "stages.cad.implement.spans",
        }

    def test_cad_cells_demote_when_cache_hits_differ(self):
        warm = {"hits": 22, "misses": 0, "stores": 0, "entries": 21}
        report = compare_manifests(
            _manifest("a", 100.0, 5, None),
            _manifest("b", 90.0, 0, warm),
        )
        assert report.ok
        # The demotion is surfaced as a (non-fatal) config note.
        assert any("cache" in note for note in report.config_mismatches)

    def test_demotion_never_covers_result_cells(self):
        warm = {"hits": 22, "misses": 0, "stores": 0, "entries": 21}
        report = compare_manifests(
            _manifest("a", 100.0, 5, None, ratio=2.0),
            _manifest("b", 90.0, 0, warm, ratio=1.5),
        )
        assert not report.ok
        assert {d.cell for d in report.regressions} == {
            "scalars.suite.asip_ratio"
        }

    def test_cache_cells_are_informational(self):
        cold = {"hits": 1, "misses": 21, "stores": 21, "entries": 21}
        warm = {"hits": 22, "misses": 0, "stores": 0, "entries": 21}
        report = compare_manifests(
            _manifest("a", 100.0, 5, cold),
            _manifest("b", 100.0, 5, warm),
        )
        assert report.ok
        cache_cells = [
            d for d in report.deltas if d.cell.startswith("cache.")
        ]
        assert cache_cells and not any(d.checked for d in cache_cells)


class TestCacheCli:
    def test_stats_and_clear(self, tmp_path, capsys, selected):
        from repro.cli import main

        toolflow = CadToolFlow()
        impl = toolflow.implement(selected[0].candidate)
        cache = PersistentBitstreamCache(root=tmp_path / "bc")
        cache.put(cache.key_for(selected[0].candidate, toolflow.device), impl)

        assert main(["cache", "stats", "--dir", str(tmp_path / "bc")]) == 0
        out = capsys.readouterr().out
        assert "entries:   1" in out

        assert main(["cache", "clear", "--dir", str(tmp_path / "bc")]) == 0
        out = capsys.readouterr().out
        assert "cleared 1" in out

        assert main(["cache", "stats", "--dir", str(tmp_path / "bc")]) == 0
        out = capsys.readouterr().out
        assert "entries:   0" in out

    def test_parser_accepts_parallel_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["analyze", "--domain", "embedded", "--jobs", "4", "--cache"]
        )
        assert args.jobs == 4 and args.cache == ".repro-cache"
        # One parallel path: no pool-flavour flag, no in-program bench.
        for argv in (
            ["tables", "1", "--jobs", "2", "--backend", "thread"],
            ["bench", "--jobs", "3"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)


class TestSuiteLedgerDeterminism:
    def test_jobs4_manifest_is_cell_identical_to_serial(
        self, tmp_path, capsys
    ):
        """The acceptance criterion, end to end: a ledger-recorded
        ``analyze --domain embedded --jobs 4`` run must pass the
        regression sentinel against a serial baseline run."""
        from repro.cli import main
        from repro.experiments.runner import clear_cache

        ledger = str(tmp_path / "runs")
        clear_cache()
        assert (
            main(["analyze", "--domain", "embedded", "--ledger", ledger]) == 0
        )
        clear_cache()
        assert (
            main(
                [
                    "analyze",
                    "--domain",
                    "embedded",
                    "--jobs",
                    "4",
                    "--ledger",
                    ledger,
                ]
            )
            == 0
        )
        capsys.readouterr()

        manifests = sorted((tmp_path / "runs").glob("*/manifest.json"))
        assert len(manifests) == 2
        baseline, current = (
            json.loads(p.read_text(encoding="utf-8")) for p in manifests
        )
        # The pool children's spans reach the parent's trace carrying the
        # serial run's per-candidate decisions, span name by span name
        # (children are absorbed in suite order, so the order matches too).
        serial_trace, parallel_trace = (
            read_jsonl(p.parent / "trace.jsonl") for p in manifests
        )

        decision_attrs = {
            "search.selection": ("accepted_keys", "rejected_keys"),
            "asip_sp.candidate": (
                "candidate", "custom_id", "shared", "failed", "cached",
                "virtual_seconds",
            ),
            "icap.reconfigure": ("custom_id", "bytes", "virtual_seconds"),
        }

        def decisions(records, name):
            keys = decision_attrs[name]
            return [
                [r.attrs[k] for k in keys] for r in records if r.name == name
            ]

        for name in decision_attrs:
            parallel = decisions(parallel_trace, name)
            assert parallel, name
            assert parallel == decisions(serial_trace, name), name
        assert current["config"].get("jobs") == 4
        report = compare_manifests(baseline, current)
        assert report.ok, report.render()
        # `jobs` is a volatile config key: parallel vs. serial runs are
        # comparable baselines without warnings.
        assert not report.config_mismatches


def test_parallel_suite_reuses_the_memo(monkeypatch):
    """Like a serial run, ``--jobs N`` reuses apps already analyzed in
    this process (``tables all`` asks for the suite four times)."""
    from repro.apps import EMBEDDED_APPS
    from repro.experiments import runner

    memo = {
        runner._cache_key(spec.name, None, None): object()
        for spec in EMBEDDED_APPS
    }
    monkeypatch.setattr(runner, "_CACHE", dict(memo))

    def no_pool(*args, **kwargs):
        raise AssertionError("memoized apps must not be analyzed again")

    monkeypatch.setattr(runner, "ProcessPoolExecutor", no_pool)
    assert runner.analyze_suite("embedded", jobs=2) == list(memo.values())


def test_docs_lint_passes():
    """The committed tree satisfies its own documentation lint."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "docs_lint.py"
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
