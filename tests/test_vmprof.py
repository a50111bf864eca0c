"""Tests for the VM execution observatory (vmprof, bench-vm)."""

import json
from fnmatch import fnmatchcase

import pytest

from repro.cli import main
from repro.obs.bench import overhead_summary
from repro.obs.ledger import RunLedger
from repro.obs.regress import declared_cells
from repro.obs.vmprof import (
    profile_app,
    render_vmprof,
    top_digrams,
    vm_manifest_block,
    vmprof_json,
)
from repro.vm import Interpreter
from repro.vm.costmodel import PPC405_COST_MODEL
from repro.vm.profiler import BlockTimeSampler, static_block_opcodes

from conftest import build_sumsq_module


class TestOpcodeAccounting:
    """Post-hoc opcode/digram counts derived from the block profile."""

    @pytest.fixture
    def sumsq_run(self):
        module = build_sumsq_module()
        result = Interpreter(module).run("sumsq", [10])
        return module, result

    def test_opcode_counts_hand_checked(self, sumsq_run):
        module, result = sumsq_run
        counts = result.profile.opcode_counts(module)
        # entry runs once: 2 allocas; body runs 10 times: the one mul.
        assert counts["alloca"] == 2
        assert counts["mul"] == 10
        # loop header runs 11 times (10 iterations + exit check).
        assert counts["icmp"] == 11
        assert counts["condbr"] == 11

    def test_opcode_counts_sum_to_steps(self, sumsq_run):
        module, result = sumsq_run
        counts = result.profile.opcode_counts(module)
        assert sum(counts.values()) == result.steps

    def test_digram_counts_hand_checked(self, sumsq_run):
        module, result = sumsq_run
        digrams = result.profile.digram_counts(module)
        # loop header: load, icmp, condbr -- 11 executions.
        assert digrams[("load", "icmp")] == 11
        assert digrams[("icmp", "condbr")] == 11
        # body: load, mul, load, add, store, add, store, br -- 10 executions.
        assert digrams[("load", "mul")] == 10
        assert digrams[("store", "add")] == 10

    def test_digrams_never_cross_block_boundaries(self, sumsq_run):
        module, result = sumsq_run
        digrams = result.profile.digram_counts(module)
        # Terminators end every block, so no digram can start with one.
        assert not any(first in ("br", "condbr", "ret") for first, _ in digrams)

    def test_opcode_cycles_total_matches_profile(self, sumsq_run):
        module, result = sumsq_run
        cycles = result.profile.opcode_cycles(module, PPC405_COST_MODEL)
        total = result.profile.total_cycles(module, PPC405_COST_MODEL)
        assert sum(cycles.values()) == pytest.approx(total)

    def test_static_block_opcodes_shape(self, sumsq_run):
        module, _ = sumsq_run
        composition = static_block_opcodes(module)
        assert composition[("sumsq", "entry")][:2] == ("alloca", "alloca")
        assert composition[("sumsq", "loop")] == ("load", "icmp", "condbr")
        assert all(ops for ops in composition.values())


class TestSampler:
    def test_sampler_attributes_time_to_blocks(self):
        module = build_sumsq_module()
        sampler = BlockTimeSampler(interval=1)
        result = Interpreter(module, sampler=sampler).run("sumsq", [200])
        assert result.return_value == sum(i * i for i in range(200))
        assert sampler.sample_count > 0
        assert sampler.sampled_seconds > 0
        # The hot loop blocks must absorb nearly all samples.
        shares = sampler.shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert ("sumsq", "body") in shares

    def test_sampled_run_is_observationally_identical(self):
        module = build_sumsq_module()
        plain = Interpreter(module).run("sumsq", [64])
        sampled = Interpreter(
            module, sampler=BlockTimeSampler(interval=4)
        ).run("sumsq", [64])
        assert sampled.return_value == plain.return_value
        assert sampled.steps == plain.steps
        assert {k: p.count for k, p in sampled.profile.blocks.items()} == {
            k: p.count for k, p in plain.profile.blocks.items()
        }

    def test_disabled_sampler_leaves_interpreter_untouched(self):
        module = build_sumsq_module()
        interp = Interpreter(module)
        assert interp.sampler is None
        interp.run("sumsq", [8])


class TestVmProfileReports:
    @pytest.fixture(scope="class")
    def fft_profile(self):
        # One shared profiled run.
        return profile_app("fft", sample_interval=64)

    def test_profile_app_assembles_all_views(self, fft_profile):
        prof = fft_profile
        assert prof.app == "fft" and prof.steps > 0
        assert sum(prof.opcode_counts.values()) == prof.steps
        assert prof.wall_seconds > 0 and prof.instructions_per_second > 0
        assert prof.sample_count > 0

    def test_divergence_rows_cover_shares(self, fft_profile):
        rows = fft_profile.divergence_rows()
        assert rows
        assert sum(r.virtual_share for r in rows) == pytest.approx(1.0)
        assert sum(r.real_share for r in rows) == pytest.approx(1.0)
        # Sorted by absolute divergence, worst first.
        deltas = [abs(r.delta) for r in rows]
        assert deltas == sorted(deltas, reverse=True)

    def test_json_report_schema(self, fft_profile):
        report = vmprof_json(fft_profile)
        assert report["schema"] == "repro-vmprof/1"
        for key in ("opcodes", "opcode_cycles", "digrams", "divergence"):
            assert report[key]

    def test_manifest_block_cells(self, fft_profile):
        block = vm_manifest_block(fft_profile, top_digrams_n=5)
        assert block["steps"] == fft_profile.steps
        assert len(block["digrams"]) == 5
        assert block["sampled"]["interval"] == 64
        # The block declares only cells it has: every measured glob
        # matches at least one of its cells.
        cells = [name[len("vm."):] for name in declared_cells({"vm": block})]
        for glob in block["measured"]:
            assert any(fnmatchcase(cell, glob) for cell in cells), glob

    def test_render_is_plain_ascii(self, fft_profile):
        text = render_vmprof(fft_profile, top=5)
        assert "Top opcodes" in text
        assert text.isascii()

    def test_top_digrams_deterministic(self, fft_profile):
        a = top_digrams(fft_profile, 10)
        b = top_digrams(fft_profile, 10)
        assert a == b
        counts = [count for _, count in a]
        assert counts == sorted(counts, reverse=True)


class TestCliCommands:
    def test_vmprof_writes_json_report(self, tmp_path, capsys):
        out = tmp_path / "vmprof.json"
        assert main(["vmprof", "fft", "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "vmprof: fft" in text
        report = json.loads(out.read_text())
        assert report["schema"] == "repro-vmprof/1"
        assert report["app"] == "fft"

    def test_vmprof_ledger_attaches_vm_block(self, tmp_path, capsys):
        ledger_dir = tmp_path / "ledger"
        code = main(["vmprof", "fft", "--ledger", str(ledger_dir)])
        assert code == 0
        capsys.readouterr()
        ledger = RunLedger(ledger_dir)
        manifest = ledger.load(ledger.resolve("latest"))
        assert manifest["vm"]["app"] == "fft"
        assert manifest["vm"]["opcodes"]

    def test_heat_top_opcodes_rollup(self, capsys):
        assert main(["heat", "fft", "--top-opcodes", "5"]) == 0
        out = capsys.readouterr().out
        assert "Opcode rollup (top 5)" in out
        assert "cycles %" in out

    def test_heat_without_rollup_unchanged(self, capsys):
        assert main(["heat", "fft"]) == 0
        assert "Opcode rollup" not in capsys.readouterr().out


class TestVmBench:
    def test_run_vm_bench_single_app_smoke(self, tmp_path):
        from repro.obs.bench import BENCH_VM_SCHEMA, run_vm_bench

        out = tmp_path / "BENCH_vm.json"
        report = run_vm_bench(
            apps=["fft"],
            out=out,
            pairs=1,
        )
        assert report["schema"] == BENCH_VM_SCHEMA
        assert json.loads(out.read_text()) == report
        app = report["apps"]["fft"]
        assert app["virtual_identical"] is True
        assert app["wall_seconds"] > 0
        assert app["opcodes"] and app["top_digrams"]
        assert report["totals"]["virtual_identical"] is True

    def test_run_vm_bench_alternates_phase_order(self, tmp_path, monkeypatch):
        """Pairs run ABBA: plain first, then sampled first, and so on."""
        from repro.apps.base import CompiledApp
        from repro.obs.bench import run_vm_bench

        phases = []
        original = CompiledApp.run

        def recording_run(self, dataset=None, max_steps=200_000_000, sampler=None):
            phases.append("sampled" if sampler is not None else "plain")
            return original(self, dataset, max_steps, sampler)

        monkeypatch.setattr(CompiledApp, "run", recording_run)
        report = run_vm_bench(
            apps=["sor"],
            out=tmp_path / "BENCH_vm.json",
            pairs=4,
        )
        assert phases == ["plain", "sampled", "sampled", "plain"] * 2
        app = report["apps"]["sor"]
        q1, q3 = app["sampler_overhead_iqr_pct"]
        assert q1 <= app["sampler_overhead_pct"] <= q3
        assert app["sampler_overhead"] in ("supported", "exceeded", "inconclusive")
        # One app: the pooled summary is that app's.
        assert report["totals"]["sampler_overhead_pct"] == app[
            "sampler_overhead_pct"
        ]

    @pytest.mark.parametrize(
        "ratios,label",
        [
            ([1.000, 1.004, 1.010, 1.012], "supported"),
            ([1.020, 1.030, 1.050, 1.041], "exceeded"),
            ([0.990, 1.001, 1.030, 1.060], "inconclusive"),
            ([1.015], "supported"),
        ],
    )
    def test_overhead_label_against_the_claim(self, ratios, label):
        summary = overhead_summary(ratios)
        assert summary["label"] == label
        q1, q3 = summary["iqr_pct"]
        assert q1 <= summary["median_pct"] <= q3
