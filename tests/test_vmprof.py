"""Tests for the VM execution observatory (vmprof, bench vm)."""

import json
import signal
import threading
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
from repro.ir import I32, IRBuilder, Module
from repro.ir.opcodes import ICmpPred
from repro.ir.types import wrap_int
from repro.vm import Interpreter, VMError
from repro.vm.costmodel import PPC405_COST_MODEL
from repro.vm.profiler import (
    SAMPLE_INTERVAL_S,
    BlockTimeSampler,
    static_block_opcodes,
)

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


def _cheap_and_costly_loop(iterations: int) -> Module:
    """One loop: ``cheap`` does one add, ``costly`` (the latch) eight
    multiply-xor pairs, which take about ten times as long."""
    module = Module("ranking")
    func = module.declare_function("main", I32, [])
    entry = func.add_block("entry")
    head = func.add_block("head")
    cheap = func.add_block("cheap")
    costly = func.add_block("costly")
    done = func.add_block("done")
    b = IRBuilder(entry)
    b.br(head)
    b.set_block(head)
    i = b.phi(I32, "i")
    acc = b.phi(I32, "acc")
    b.condbr(b.icmp(ICmpPred.SLT, i, b.i32(iterations)), cheap, done)
    b.set_block(cheap)
    x = b.add(acc, b.i32(1))
    b.br(costly)
    b.set_block(costly)
    y = x
    for k in range(8):
        y = b.xor(b.mul(y, b.i32(3)), b.i32(k))
    i2 = b.add(i, b.i32(1))
    b.br(head)
    b.set_block(done)
    b.ret(acc)
    i.add_incoming(b.i32(0), entry)
    i.add_incoming(i2, costly)
    acc.add_incoming(b.i32(0), entry)
    acc.add_incoming(y, costly)
    return module


def _loop_calling_a_loop_free_callee(iterations: int) -> Module:
    """``main`` calls ``encode`` every iteration, as adpcm calls its
    per-sample coder: ``encode`` is loop-free, and its ``costly`` block
    does 24 multiply-xor pairs where ``cheap`` does one add, so it
    outweighs the call's own cost too."""
    module = Module("callee")
    encode = module.declare_function("encode", I32, [("x", I32)])
    entry, cheap, costly, done = (
        encode.add_block(name) for name in ("entry", "cheap", "costly", "done")
    )
    b = IRBuilder(entry)
    b.br(cheap)
    b.set_block(cheap)
    x = b.add(encode.args[0], b.i32(1))
    b.br(costly)
    b.set_block(costly)
    y = x
    for k in range(24):
        y = b.xor(b.mul(y, b.i32(3)), b.i32(k))
    b.br(done)
    b.set_block(done)
    b.ret(y)

    func = module.declare_function("main", I32, [])
    entry = func.add_block("entry")
    head = func.add_block("head")
    body = func.add_block("body")
    out = func.add_block("out")
    b = IRBuilder(entry)
    b.br(head)
    b.set_block(head)
    i = b.phi(I32, "i")
    acc = b.phi(I32, "acc")
    b.condbr(b.icmp(ICmpPred.SLT, i, b.i32(iterations)), body, out)
    b.set_block(body)
    acc2 = b.call(encode, [acc])
    i2 = b.add(i, b.i32(1))
    b.br(head)
    b.set_block(out)
    b.ret(acc)
    i.add_incoming(b.i32(0), entry)
    i.add_incoming(i2, body)
    acc.add_incoming(b.i32(0), entry)
    acc.add_incoming(acc2, body)
    return module


def _caller_of_a_nested_loop(iterations: int) -> Module:
    """``main``'s one block calls ``work`` once; ``work`` runs a loop
    nest, its outer loop *iterations* times around a two-pass inner one."""
    module = Module("dispatch")
    work = module.declare_function("work", I32, [])
    entry = work.add_block("entry")
    outer = work.add_block("outer")
    inner = work.add_block("inner")
    latch = work.add_block("latch")
    done = work.add_block("done")
    b = IRBuilder(entry)
    b.br(outer)
    b.set_block(outer)
    i = b.phi(I32, "i")
    acc = b.phi(I32, "acc")
    b.condbr(b.icmp(ICmpPred.SLT, i, b.i32(iterations)), inner, done)
    b.set_block(inner)
    j = b.phi(I32, "j")
    total = b.phi(I32, "total")
    total2 = b.add(total, j)
    j2 = b.add(j, b.i32(1))
    b.condbr(b.icmp(ICmpPred.SLT, j2, b.i32(2)), inner, latch)
    b.set_block(latch)
    i2 = b.add(i, b.i32(1))
    b.br(outer)
    b.set_block(done)
    b.ret(acc)
    i.add_incoming(b.i32(0), entry)
    i.add_incoming(i2, latch)
    acc.add_incoming(b.i32(0), entry)
    acc.add_incoming(total2, latch)
    j.add_incoming(b.i32(0), outer)
    j.add_incoming(j2, inner)
    total.add_incoming(acc, outer)
    total.add_incoming(total2, inner)

    func = module.declare_function("main", I32, [])
    b = IRBuilder(func.add_block("entry"))
    b.ret(b.call(work, []))
    return module


@pytest.fixture
def alarm_state():
    """A recognisable SIGALRM handler installed around the test; yields it
    and checks the timer is disarmed afterwards."""

    def previous(signum, frame):  # pragma: no cover - never fires
        raise AssertionError("SIGALRM reached the previous handler")

    old = signal.signal(signal.SIGALRM, previous)
    try:
        yield previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class TestSampler:
    def test_sampler_attributes_time_to_blocks(self):
        module = build_sumsq_module()
        with BlockTimeSampler(interval=1e-4) as sampler:
            result = Interpreter(module).run("sumsq", [20_000])
        assert result.return_value == wrap_int(
            sum(i * i for i in range(20_000)), I32
        )
        assert sampler.sample_count > 0
        assert sampler.sampled_seconds > 0
        shares = sampler.shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert set(shares) <= set(result.profile.blocks)

    def test_sampled_run_is_observationally_identical(self):
        module = build_sumsq_module()
        plain = Interpreter(module).run("sumsq", [20_000])
        with BlockTimeSampler(interval=1e-4) as sampler:
            sampled = Interpreter(module).run("sumsq", [20_000])
        assert sampler.sample_count > 0
        assert sampled.return_value == plain.return_value
        assert sampled.steps == plain.steps
        assert [(k, p.count) for k, p in sampled.profile.blocks.items()] == [
            (k, p.count) for k, p in plain.profile.blocks.items()
        ]

    def test_disabled_sampler_leaves_interpreter_untouched(self):
        module = build_sumsq_module()
        handler = signal.getsignal(signal.SIGALRM)
        interp = Interpreter(module)
        assert not hasattr(interp, "sampler")
        interp.run("sumsq", [8])
        assert signal.getsignal(signal.SIGALRM) is handler
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    @staticmethod
    def ranked_shares(module: Module) -> dict:
        """Block shares of repeated runs of *module*, 200 samples or more."""
        with BlockTimeSampler(interval=2e-4) as sampler:
            for _ in range(500):
                Interpreter(module).run("main")
                if sampler.sample_count >= 200:
                    break
        assert sampler.sample_count >= 200
        return sampler.shares()

    def test_shares_rank_the_costly_block_first(self):
        """A loop member costing about ten times another takes the larger
        share: the sampler names the block from the interrupted unit
        frame's line."""
        shares = self.ranked_shares(_cheap_and_costly_loop(2_000))
        ranked = sorted(shares, key=shares.get, reverse=True)
        assert ranked[0] == ("main", "costly")
        assert shares[("main", "costly")] > 3 * shares.get(("main", "cheap"), 0.0)

    def test_shares_rank_a_loop_free_callees_costly_block_first(self):
        """The same ranking inside a loop-free callee, entered once per
        call: the adpcm shape."""
        shares = self.ranked_shares(_loop_calling_a_loop_free_callee(2_000))
        ranked = sorted(shares, key=shares.get, reverse=True)
        assert ranked[0] == ("encode", "costly")
        assert shares[("encode", "costly")] > 3 * shares.get(("encode", "cheap"), 0.0)

    def test_callee_dispatch_is_not_charged_to_the_caller(self):
        """Time in a callee, its unit generation included, belongs to the
        callee: the calling block, which runs once, keeps a share near
        zero."""
        shares = self.ranked_shares(_caller_of_a_nested_loop(5_000))
        assert shares.get(("main", "entry"), 0.0) < 0.05
        assert shares.get(("work", "outer"), 0.0) > 0.1

    def test_restores_handler_and_disarms_after_a_run(self, alarm_state):
        with BlockTimeSampler() as sampler:
            assert signal.getitimer(signal.ITIMER_REAL)[1] == SAMPLE_INTERVAL_S
            Interpreter(build_sumsq_module()).run("sumsq", [100])
        assert signal.getsignal(signal.SIGALRM) is alarm_state
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert sampler.interval == SAMPLE_INTERVAL_S

    def test_restores_handler_and_disarms_after_a_trap(self, alarm_state):
        with pytest.raises(VMError, match="step limit exceeded"):
            with BlockTimeSampler(interval=1e-4):
                Interpreter(
                    _cheap_and_costly_loop(10**9), max_steps=200_000
                ).run("main")
        assert signal.getsignal(signal.SIGALRM) is alarm_state
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_arming_an_armed_timer_raises(self, alarm_state):
        with BlockTimeSampler():
            with pytest.raises(RuntimeError, match="already armed"):
                with BlockTimeSampler():
                    pass  # pragma: no cover
            # The outer sampler still owns the handler.
            assert signal.getsignal(signal.SIGALRM) is not alarm_state
        signal.setitimer(signal.ITIMER_REAL, 60.0)
        with pytest.raises(RuntimeError, match="already armed"):
            with BlockTimeSampler():
                pass  # pragma: no cover
        signal.setitimer(signal.ITIMER_REAL, 0)
        assert signal.getsignal(signal.SIGALRM) is alarm_state

    def test_interval_below_the_floor_raises(self, alarm_state):
        with pytest.raises(ValueError, match="below 0.1 ms"):
            with BlockTimeSampler(interval=1e-6):
                pass  # pragma: no cover
        assert signal.getsignal(signal.SIGALRM) is alarm_state

    def test_non_main_thread_raises(self, alarm_state):
        errors = []

        def enter():
            try:
                with BlockTimeSampler():
                    pass  # pragma: no cover
            except RuntimeError as exc:
                errors.append(str(exc))

        thread = threading.Thread(target=enter)
        thread.start()
        thread.join()
        assert errors and "only in the main thread" in errors[0]
        assert signal.getsignal(signal.SIGALRM) is alarm_state


class TestVmProfileReports:
    @pytest.fixture(scope="class")
    def fft_profile(self):
        # One shared profiled run.
        return profile_app("fft")

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
        assert block["sampled"]["interval"] == SAMPLE_INTERVAL_S
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
    def test_run_vm_bench_single_app_smoke(self, tmp_path, monkeypatch):
        from repro.obs.bench import run_vm_bench

        monkeypatch.chdir(tmp_path)
        report = run_vm_bench(apps=["fft"], pairs=1)
        assert list(tmp_path.iterdir()) == []
        app = report["apps"]["fft"]
        assert app["virtual_identical"] is True
        assert app["cpu_seconds"] > 0
        assert app["opcodes"] and app["top_digrams"]
        assert report["gates"] == {"virtual_identical": True}

    def test_run_vm_bench_alternates_phase_order(self, monkeypatch):
        """After one untimed run, pairs run ABBA: plain first, then
        sampled first, and so on; a side is RUNS_PER_SIDE train runs."""
        from repro.apps.base import CompiledApp
        from repro.obs.bench import RUNS_PER_SIDE, run_vm_bench

        phases = []
        original = CompiledApp.run

        def recording_run(self, *args, **kwargs):
            armed = signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0)
            phases.append("sampled" if armed else "plain")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CompiledApp, "run", recording_run)
        report = run_vm_bench(apps=["sor"], pairs=4)
        assert phases == ["plain"] + [
            phase
            for phase in ["plain", "sampled", "sampled", "plain"] * 2
            for _ in range(RUNS_PER_SIDE)
        ]
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
