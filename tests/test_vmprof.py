"""Tests for the VM execution observatory (vmprof, dispatch cost, bench)."""

import json

import pytest

from repro.cli import main
from repro.ir.opcodes import Opcode
from repro.obs.bench import overhead_summary
from repro.obs.ledger import RunLedger
from repro.obs.vmprof import (
    FUSION_EXCLUDED,
    build_profile,
    mine_superinsns,
    profile_app,
    render_vmprof,
    top_digrams,
    vm_manifest_block,
    vmprof_json,
)
from repro.vm import Interpreter
from repro.vm.costmodel import PPC405_COST_MODEL
from repro.vm.dispatchcost import (
    CLASS_OF_OPCODE,
    MEASURED_CLASSES,
    DispatchCostTable,
    measure_dispatch_costs,
)
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


class TestDispatchCost:
    def test_every_opcode_has_a_class(self):
        missing = [op.value for op in Opcode if op.value not in CLASS_OF_OPCODE]
        assert not missing

    def test_calibration_produces_full_table(self):
        table = measure_dispatch_costs(iters=300, width=4, repeats=1)
        for name in MEASURED_CLASSES + ("control",):
            assert name in table.class_seconds
            assert table.class_seconds[name] >= 0.0
        assert table.baseline_seconds > 0
        # int add is the dispatch floor the miner prices savings with.
        assert table.dispatch_overhead_seconds == table.class_seconds["int_alu"]

    def test_seconds_for_accepts_enum_and_mnemonic(self):
        table = DispatchCostTable(class_seconds={"int_alu": 1e-7, "load": 1e-6})
        assert table.seconds_for("add") == 1e-7
        assert table.seconds_for(Opcode.LOAD) == 1e-6
        with pytest.raises(KeyError, match="bogus"):
            table.seconds_for("bogus")

    def test_round_trip_through_dict(self):
        table = DispatchCostTable(
            class_seconds={"int_alu": 3e-7, "control": 1e-7},
            baseline_seconds=9e-7,
            iters=100,
            width=4,
            repeats=2,
        )
        back = DispatchCostTable.from_dict(table.to_dict())
        assert back.class_seconds["int_alu"] == pytest.approx(3e-7)
        assert back.baseline_seconds == pytest.approx(9e-7)
        assert (back.iters, back.width, back.repeats) == (100, 4, 2)


class TestSuperInsnMiner:
    def test_mines_hot_straight_line_sequences(self):
        module = build_sumsq_module()
        profile = Interpreter(module).run("sumsq", [50]).profile
        candidates = mine_superinsns(module, profile, 1e-7)
        assert candidates
        names = [c.name for c in candidates]
        # The body's load+mul run is the hottest fusible digram start.
        assert any(name.startswith("load+mul") for name in names)
        # No candidate may contain an excluded opcode.
        for c in candidates:
            assert not set(c.sequence) & FUSION_EXCLUDED
            assert 2 <= len(c.sequence) <= 4
        # Savings are monotone with the deterministic ranking.
        savings = [c.est_saved_seconds for c in candidates]
        assert savings == sorted(savings, reverse=True)

    def test_savings_scale_with_dispatch_overhead(self):
        module = build_sumsq_module()
        profile = Interpreter(module).run("sumsq", [20]).profile
        cheap = mine_superinsns(module, profile, 1e-8)
        costly = mine_superinsns(module, profile, 1e-6)
        # Overhead is a common factor: same ranking, scaled savings.
        assert [c.name for c in cheap] == [c.name for c in costly]
        assert costly[0].est_saved_seconds == pytest.approx(
            100 * cheap[0].est_saved_seconds
        )

    def test_dominated_subsequences_are_dropped(self):
        module = build_sumsq_module()
        profile = Interpreter(module).run("sumsq", [50]).profile
        candidates = mine_superinsns(module, profile, 1e-7)
        # A selected sub-sequence must occur more often than every longer
        # selected candidate containing it (else it adds no new sites).
        for i, c in enumerate(candidates):
            for longer in candidates[:i]:
                if len(longer.sequence) > len(c.sequence):
                    joined = "+".join(longer.sequence)
                    if c.name in joined:
                        assert c.dynamic_count > longer.dynamic_count

    def _patch_body_with_custom(self, module):
        """Splice a CUSTOM into the sumsq body, patcher-style."""
        from repro.ir.instructions import Instruction
        from repro.ir.types import I32

        body = next(
            b
            for b in module.function("sumsq").blocks
            if b.name == "body"
        )
        custom = Instruction(
            Opcode.CUSTOM, I32, [body.instructions[0]], "c", custom_id=1
        )
        body.insert(1, custom)
        return body

    def test_stale_profile_skips_patched_blocks(self):
        # Regression: a profile recorded *before* the patcher rewrites a
        # block must not be mined against the rewritten composition — the
        # counts would attach to windows (adjacencies across the patch
        # seam) that never executed together.
        module = build_sumsq_module()
        profile = Interpreter(module).run("sumsq", [50]).profile
        before = mine_superinsns(module, profile, 1e-7)
        assert any("load+mul" in c.name for c in before)

        self._patch_body_with_custom(module)
        stale = mine_superinsns(module, profile, 1e-7)
        # The modified body contributes nothing; the untouched loop block
        # still mines normally.
        assert all("load+mul" not in c.name for c in stale)
        assert ("load", "icmp") in {c.sequence for c in stale}
        composition = static_block_opcodes(module)
        untouched = {
            key for key, ops in composition.items() if "custom" not in ops
        }
        for c in stale:
            assert any(
                "+".join(c.sequence) in "+".join(composition[key])
                for key in untouched
            )

    def test_fresh_profile_never_mines_across_custom(self):
        # Re-profiled after patching, the CUSTOM acts as a hard barrier:
        # no candidate contains it or spans the seam it sits on.
        module = build_sumsq_module()
        self._patch_body_with_custom(module)
        interp = Interpreter(module)
        interp.custom_evaluators[1] = lambda vals: vals[0]
        profile = interp.run("sumsq", [50]).profile
        fresh = mine_superinsns(module, profile, 1e-7)
        assert fresh  # the patched block's remaining runs still mine
        # The seam (load|CUSTOM|mul) never yields a load+mul window.
        assert all("load+mul" not in c.name for c in fresh)
        for c in fresh:
            assert "custom" not in c.sequence


class TestVmProfileReports:
    @pytest.fixture(scope="class")
    def fft_profile(self):
        # One shared profiled run; calibration skipped to keep tests fast.
        return profile_app("fft", sample_interval=64, calibrate=False)

    def test_profile_app_assembles_all_views(self, fft_profile):
        prof = fft_profile
        assert prof.app == "fft" and prof.steps > 0
        assert sum(prof.opcode_counts.values()) == prof.steps
        assert prof.wall_seconds > 0 and prof.instructions_per_second > 0
        assert prof.sample_count > 0
        assert prof.candidates
        assert prof.dispatch is None  # calibrate=False

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
        for key in ("opcodes", "digrams", "divergence", "superinsn"):
            assert report[key]
        assert report["dispatch"] is None

    def test_manifest_block_cells(self, fft_profile):
        block = vm_manifest_block(fft_profile, top_digrams_n=5)
        assert block["steps"] == fft_profile.steps
        assert len(block["digrams"]) == 5
        assert block["superinsn"]
        first = next(iter(block["superinsn"].values()))
        assert first["rank"] == 1
        assert block["sampled"]["interval"] == 64
        assert "dispatch" not in block  # no calibration

    def test_render_is_plain_ascii(self, fft_profile):
        text = render_vmprof(fft_profile, top=5)
        assert "Top opcodes" in text and "Superinstruction candidates" in text
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
        assert main(["vmprof", "fft", "--no-calibrate", "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "vmprof: fft" in text
        report = json.loads(out.read_text())
        assert report["schema"] == "repro-vmprof/1"
        assert report["app"] == "fft"

    def test_vmprof_ledger_attaches_vm_block(self, tmp_path, capsys):
        ledger_dir = tmp_path / "ledger"
        code = main(
            ["vmprof", "fft", "--no-calibrate", "--ledger", str(ledger_dir)]
        )
        assert code == 0
        capsys.readouterr()
        ledger = RunLedger(ledger_dir)
        manifest = ledger.load(ledger.resolve("latest"))
        assert manifest["vm"]["app"] == "fft"
        assert manifest["vm"]["opcodes"]
        assert manifest["vm"]["superinsn"]

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
            calibration_iters=300,
            pairs=1,
        )
        assert report["schema"] == BENCH_VM_SCHEMA
        assert json.loads(out.read_text()) == report
        app = report["apps"]["fft"]
        assert app["virtual_identical"] is True
        assert app["wall_seconds"] > 0
        assert app["opcodes"] and app["top_digrams"] and app["superinsn"]
        assert report["totals"]["virtual_identical"] is True
        assert report["dispatch_cost"]["classes_ns"]

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
            calibration_iters=300,
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
